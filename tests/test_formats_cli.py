import json
from fractions import Fraction

import pytest

from spectral_tetris import FrameSpec, pnstc, verify_matrix
from spectral_tetris import cli, formats
from spectral_tetris.cli import main
from helpers import dense_float_rows

F = Fraction

DEMO_SPEC = {
    "dim": 4,
    "eigenvalues": ["15", "4", "1", "4"],
    "norms_squared": ["9", "4", "3", "3", "1", "4"],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_spec_file_variants(tmp_path):
    spec, warnings = formats.parse_spec_payload(DEMO_SPEC)
    assert spec.eigenvalues == (15, 4, 1, 4)
    assert not warnings

    spec, _ = formats.parse_spec_payload(
        {"dim": 2, "eigenvalues": ["2", "2"], "unit": True}
    )
    assert spec.norms_sq == (1, 1, 1, 1)

    spec, warnings = formats.parse_spec_payload(
        {"dim": 1, "eigenvalues": ["2"], "norms": ["1.4142135623730951", "0.5"]}
    )
    assert warnings  # decimal path always warns
    assert spec.norms_sq[1] == F(1, 4)
    assert abs(spec.norms_sq[0] - 2) < F(1, 10**6)


def test_spec_file_requires_exactly_one_norm_source():
    with pytest.raises(ValueError):
        formats.parse_spec_payload(
            {"dim": 1, "eigenvalues": ["2"], "unit": True, "norms_squared": ["2"]}
        )
    with pytest.raises(ValueError):
        formats.parse_spec_payload({"dim": 1, "eigenvalues": ["2"]})
    with pytest.raises(ValueError):
        formats.parse_spec_payload(
            {"dim": 2, "eigenvalues": ["2"], "norms_squared": ["2"]}
        )


def test_matrix_round_trip_is_bit_exact():
    spec = FrameSpec(**{"eigenvalues": (15, 4, 1, 4), "norms_sq": (9, 4, 3, 3, 1, 4)})
    matrix = pnstc(spec)
    text = formats.dump_matrix_file(matrix, spec)
    loaded = formats.matrix_from_payload(json.loads(text))
    assert loaded.entries == matrix.entries
    assert loaded.block_log == matrix.block_log
    assert formats.dump_matrix_file(loaded, spec) == text
    before = verify_matrix(matrix, spec)
    after = verify_matrix(loaded, spec)
    assert before == after


def test_loaded_matrix_is_a_hashable_value():
    spec = FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 1, 4))
    matrix = pnstc(spec)
    payload = json.loads(formats.dump_matrix_file(matrix, spec))
    loaded = formats.matrix_from_payload(payload)
    assert loaded == matrix and hash(loaded) == hash(matrix)
    payload["metadata"]["blockLog"][0]["rowSpan"] = [[0], 0]
    with pytest.raises(ValueError, match="malformed matrix file"):
        formats.matrix_from_payload(payload)


def test_matrix_entries_are_sorted_by_column_then_row():
    spec = FrameSpec(eigenvalues=(2, 5), norms_sq=(3, 3, 1))
    payload = json.loads(formats.dump_matrix_file(pnstc(spec)))
    keys = [(item["col"], item["row"]) for item in payload["entries"]]
    assert keys == sorted(keys)
    assert all(item["sign"] != 0 for item in payload["entries"])


def test_reproducible_payload_has_no_generator_stamp():
    spec = FrameSpec(eigenvalues=(2, 5), norms_sq=(3, 3, 1))
    matrix = pnstc(spec)
    stamped = json.loads(formats.dump_matrix_file(matrix, spec))
    clean = json.loads(formats.dump_matrix_file(matrix, spec, reproducible=True))
    assert "generator" in stamped["metadata"]
    assert "generator" not in clean["metadata"]


def test_float_csv_round_trip(tmp_path):
    spec = FrameSpec(eigenvalues=(2, 5), norms_sq=(3, 3, 1))
    matrix = pnstc(spec)
    csv_path = tmp_path / "matrix.csv"
    csv_path.write_text(formats.dump_float_csv(matrix), encoding="utf-8")
    loaded = formats.load_float_csv(str(csv_path))
    dense = dense_float_rows(loaded)
    assert dense == dense_float_rows(matrix)
    report = verify_matrix(loaded, tol=1e-10)
    assert report.orthogonal
    # squared sums of exact float squares reproduce the targets here
    assert report.row_square_sums[0] == 2


def test_cli_construct_check_verify_pipeline(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    out_path = tmp_path / "matrix.json"
    csv_path = tmp_path / "matrix.csv"
    write_json(spec_path, DEMO_SPEC)

    code = main(["check", str(spec_path)])
    assert code == 0
    assert "partition 2,4,5,6" in capsys.readouterr().out

    code = main(
        ["construct", str(spec_path), str(out_path), "--float-csv", str(csv_path)]
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["dim"] == 4 and payload["count"] == 6
    assert len(payload["entries"]) == 8
    first_csv_line = csv_path.read_text().splitlines()[0]
    assert first_csv_line.split(",")[0] == "3"

    code = main(["verify", str(out_path), "--spec", str(spec_path)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["matchesSpec"] is True
    assert report["frameBounds"] == ["1", "15"]
    assert report["nnz"] == 8

    # without --spec the embedded metadata drives the comparison
    code = main(["verify", str(out_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["matchesSpec"] is True


def test_cli_construct_reports_the_violation(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    write_json(
        spec_path,
        {"dim": 2, "eigenvalues": ["5", "2"], "norms_squared": ["3", "3", "1"]},
    )
    code = main(["construct", str(spec_path), str(tmp_path / "out.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "k=1" in err and "norm-bound-ii" in err


# the three places the cursor stops, and the line both commands print for it
_STUCK_SPECS = {
    "no-partner-column": (
        {"dim": 2, "eigenvalues": ["3/2", "3/2"], "norms_squared": ["1", "2"]},
        "not ready: violation at k=1: gap-ii "
        "(row 1 needs a block over columns 2, 3 but only 2 columns exist)\n",
    ),
    "norm-bound": (
        {"dim": 2, "eigenvalues": ["5", "2"], "norms_squared": ["3", "3", "1"]},
        "not ready: violation at k=1: norm-bound-ii (column 3 squared norm 1 < deficit 2)\n",
    ),
    "overfilled-next-row": (
        {"dim": 3, "eigenvalues": ["13/3"] * 3, "norms_squared": ["4", "4", "4", "1"]},
        "not ready: violation at k=1: gap-ii (the block over columns 2, 3 "
        "puts mass 23/3 into row 2, whose eigenvalue is 13/3)\n",
    ),
}


@pytest.mark.parametrize("name", sorted(_STUCK_SPECS))
def test_cli_check_and_construct_print_the_same_stuck_line(tmp_path, capsys, name):
    spec, line = _STUCK_SPECS[name]
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, spec)
    assert main(["check", str(spec_path)]) == 2
    assert capsys.readouterr() == (line, "")
    out = tmp_path / "out.json"
    assert main(["construct", str(spec_path), str(out)]) == 2
    assert capsys.readouterr() == ("", line)
    assert not out.exists()


def test_cli_construct_and_equal_norm_print_the_same_stuck_line(tmp_path, capsys):
    # the spec that `equal-norm --r 3` builds: nine squared norms 61/36
    spec_path = tmp_path / "spec.json"
    write_json(
        spec_path,
        {"dim": 4, "eigenvalues": ["6", "17/4", "3", "2"], "norms_squared": ["61/36"] * 9},
    )
    out = tmp_path / "out.json"
    assert main(["construct", str(spec_path), str(out)]) == 2
    stuck = capsys.readouterr()
    assert stuck.out == "" and stuck.err.startswith("not ready: violation at k=2: gap-ii (")
    assert not out.exists()
    for extra in ([], ["--out", str(out)]):
        assert main(["equal-norm", "--eigenvalues", "6,17/4,3,2", "--r", "3", *extra]) == 2
        assert capsys.readouterr() == stuck
    assert not out.exists()


@pytest.mark.parametrize(
    "norms_sq, sums", [(["1", "1", "1"], "sum to 3"), (["1", "1", "1", "1", "1"], "sum to 5")]
)
def test_cli_check_and_construct_describe_a_trace_mismatch_alike(tmp_path, capsys, norms_sq, sums):
    # norms that fall short of the eigenvalues, and norms that exceed them
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, {"dim": 2, "eigenvalues": ["2", "2"], "norms_squared": norms_sq})
    detail = f"squared norms {sums}, eigenvalues to 4"
    assert main(["check", str(spec_path)]) == 1
    assert capsys.readouterr() == (f"not ready: violation at k=0: trace-mismatch ({detail})\n", "")
    assert main(["check", str(spec_path), "--json"]) == 1
    violation = json.loads(capsys.readouterr().out)["violation"]
    assert violation == {"k": 0, "condition": "trace-mismatch", "detail": detail}
    assert main(["construct", str(spec_path), str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr() == ("", f"error: {detail}\n")


def test_unit_spec_at_the_vector_limit():
    spec, _ = formats.parse_spec_payload({"dim": 1, "eigenvalues": ["100000"], "unit": True})
    assert spec.count == 100_000
    with pytest.raises(ValueError, match="100001 unit norms exceed the limit of 100000"):
        formats.parse_spec_payload({"dim": 2, "eigenvalues": ["100000", "1"], "unit": True})


def test_cli_verify_loads_the_matrix_through_matrix_from_payload(tmp_path, monkeypatch, capsys):
    # bench/tracing.py times matrix loading by wrapping this module attribute
    calls = []
    original = formats.matrix_from_payload

    def counted(payload):
        calls.append(payload)
        return original(payload)

    monkeypatch.setattr(formats, "matrix_from_payload", counted)
    spec_path, out = tmp_path / "spec.json", tmp_path / "out.json"
    write_json(spec_path, DEMO_SPEC)
    assert main(["construct", str(spec_path), str(out)]) == 0
    assert main(["verify", str(out), "--spec", str(spec_path)]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def _first_entry_with_row_0(payload):
    return next(item for item in payload["entries"] if item["row"] == 0)


@pytest.mark.parametrize(
    "field, edit",
    [
        ("1.5", lambda payload: _first_entry_with_row_0(payload)["rad"].update(num=1.5)),
        ("0.9", lambda payload: _first_entry_with_row_0(payload).update(row=0.9)),
        ("4.7", lambda payload: payload.update(dim=4.7)),
        ("0.5", lambda payload: payload["metadata"]["blockLog"][0].update(rowSpan=[0, 0.5])),
        # int() would read true as 1 and false as 0
        ("True", lambda payload: _first_entry_with_row_0(payload)["rad"].update(num=True)),
        ("True", lambda payload: _first_entry_with_row_0(payload).update(sign=True)),
        ("False", lambda payload: _first_entry_with_row_0(payload).update(row=False)),
        ("False", lambda payload: payload["metadata"]["blockLog"][0].update(rowSpan=[0, False])),
    ],
    ids=["num", "row", "dim", "span", "bool-num", "bool-sign", "bool-row", "bool-span"],
)
def test_cli_verify_refuses_a_non_integral_float_in_an_int_field(tmp_path, capsys, field, edit):
    # int() would read each of these as the int below it, and the matrix
    # would still match the spec exactly
    spec_path, out = tmp_path / "spec.json", tmp_path / "out.json"
    write_json(spec_path, {"dim": 4, "eigenvalues": ["1"] * 4, "unit": True})
    assert main(["construct", str(spec_path), str(out)]) == 0
    payload = json.loads(out.read_text())
    assert _first_entry_with_row_0(payload)["rad"] == {"num": 1, "den": 1}
    edit(payload)
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(out), "--spec", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed matrix file: {field} is not an integer\n"


@pytest.mark.parametrize("command", ["check", "search"])
def test_cli_refuses_a_non_integral_spec_dim(tmp_path, capsys, command):
    # int() would read 1.7 as dim 1, and the one eigenvalue would match it
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, {"dim": 1.7, "eigenvalues": ["2"], "unit": True})
    assert main([command, str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed spec file: 1.7 is not an integer\n"
    write_json(spec_path, {"dim": 1.0, "eigenvalues": ["2"], "unit": True})
    assert main(["check", str(spec_path)]) == 0
    assert capsys.readouterr().out == "ready (partition 2)\n"


@pytest.mark.parametrize("command", ["check", "search"])
def test_cli_refuses_a_boolean_spec_dim(tmp_path, capsys, command):
    # int() would read true as dim 1, and the one eigenvalue would match it
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, {"dim": True, "eigenvalues": ["2"], "unit": True})
    assert main([command, str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed spec file: True is not an integer\n"


UNIT_SPEC = {"dim": 2, "eigenvalues": ["2", "1"], "unit": True}


@pytest.mark.parametrize(
    "changes, phrase",
    [
        # a string is iterable: "12" would read as the eigenvalues 1, 2
        ({"eigenvalues": "12"}, "'eigenvalues' must be a JSON array, not str"),
        # an object iterates its keys: {"3": 1} would read as ["3"]
        (
            {"unit": None, "norms_squared": {"3": 1}},
            "'norms_squared' must be a JSON array, not dict",
        ),
        # "false" is a nonempty string, so it used to build unit norms
        ({"unit": "false"}, "'unit' must be true, false or null, not str"),
        ({"unit": 1}, "'unit' must be true, false or null, not int"),
    ],
    ids=["eigenvalues-string", "norms_squared-object", "unit-string", "unit-number"],
)
def test_spec_literal_lists_are_arrays_and_unit_is_a_boolean(tmp_path, capsys, changes, phrase):
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, {**UNIT_SPEC, **changes})
    assert main(["check", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed spec file: ")
    assert phrase in captured.err and captured.err.count("\n") == 1


def test_cli_verify_refuses_metadata_literals_outside_an_array(tmp_path, capsys):
    # without --spec the targets come from the metadata: "21" read as 2, 1
    spec_path, out = tmp_path / "spec.json", tmp_path / "out.json"
    write_json(spec_path, UNIT_SPEC)
    assert main(["construct", str(spec_path), str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["eigenvalues"] == ["2", "1"]
    payload["metadata"]["eigenvalues"] = "21"
    write_json(out, payload)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: malformed matrix file metadata: "
        "TypeError(\"'eigenvalues' must be a JSON array, not str\")\n"
    )


def test_cli_verify_refuses_a_zero_column_in_a_csv_as_in_json(tmp_path, capsys):
    csv_path, json_path = tmp_path / "m.csv", tmp_path / "m.json"
    csv_path.write_text("1,0,0\n0,1,0\n", encoding="utf-8")
    entries = [
        {"row": r, "col": r, "sign": 1, "rad": {"num": 1, "den": 1}} for r in range(2)
    ]
    write_json(json_path, {"dim": 2, "count": 3, "entries": entries})
    zero_column = "not a frame: column 2 is zero; no spec's positive squared norms match it\n"
    assert main(["verify", str(json_path)]) == 2
    assert capsys.readouterr().err == zero_column
    assert main(["verify", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "warning: CSV input is float data; verifying in float mode\n" + zero_column
    )


def test_cli_loads_every_spec_file_through_load_spec_file(tmp_path, monkeypatch, capsys):
    # bench/tracing.py times spec loading by wrapping this module attribute;
    # check, construct and search print the loader's warnings, verify does not
    calls = []
    original = formats.load_spec_file

    def counted(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(formats, "load_spec_file", counted)
    spec_path, out = tmp_path / "spec.json", tmp_path / "out.json"
    write_json(spec_path, {"dim": 1, "eigenvalues": ["2"], "norms": ["1", "1"]})
    warning = "warning: decimal norms are a lossy input path; pass norms_squared for exact results\n"
    for argv in (["check", spec_path], ["construct", spec_path, out], ["search", spec_path]):
        assert main([str(arg) for arg in argv]) == 0
        assert capsys.readouterr().err == warning
    assert main(["verify", str(out), "--spec", str(spec_path)]) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == 4


def test_cli_check_trace_mismatch_is_a_usage_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    write_json(
        spec_path, {"dim": 1, "eigenvalues": ["2"], "norms_squared": ["1"]}
    )
    code = main(["check", str(spec_path)])
    assert code == 1
    assert "trace-mismatch" in capsys.readouterr().out


def test_cli_check_json_output(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, DEMO_SPEC)
    code = main(["check", str(spec_path), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"ready": True, "partition": [2, 4, 5, 6], "violation": None}


def test_cli_search_exhausted_empty(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    write_json(
        spec_path,
        {
            "dim": 3,
            "eigenvalues": ["13/3", "13/3", "13/3"],
            "norms_squared": ["4", "4", "4", "1"],
        },
    )
    code = main(["search", str(spec_path)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["orderings"] == [] and payload["exhausted"] is True


def test_cli_search_finds_the_known_ordering(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    write_json(
        spec_path,
        {
            "dim": 3,
            "eigenvalues": ["22/3", "22/3", "22/3"],
            "norms_squared": ["7", "7", "6", "1", "1"],
        },
    )
    code = main(["search", str(spec_path), "--max-results", "64"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    norm_orders = [tuple(o["norms_squared"]) for o in payload["orderings"]]
    assert ("7", "6", "1", "1", "7") in norm_orders


def test_cli_search_budget_exhaustion(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    write_json(
        spec_path,
        {
            "dim": 3,
            "eigenvalues": ["13/3", "13/3", "13/3"],
            "norms_squared": ["4", "4", "4", "1"],
        },
    )
    code = main(["search", str(spec_path), "--budget", "1"])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["budget_exhausted"] is True and payload["exhausted"] is False


def test_cli_feasible(capsys):
    assert main(["feasible", "--vectors", "12", "--dim", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True and payload["witnessL"] == 2
    assert payload["reducedForm"] == {"num": 3, "den": 2}

    assert main(["feasible", "--vectors", "13", "--dim", "8"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is False and payload["failingK"] == 2

    assert main(["feasible", "--vectors", "16", "--dim", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True and payload["witnessL"] is None


def test_cli_equal_norm(tmp_path, capsys):
    out_path = tmp_path / "equal.json"
    code = main(["equal-norm", "--eigenvalues", "3,2,1", "--out", str(out_path)])
    assert code == 0
    assert "r=4" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert payload["count"] == 16
    # the file carries the spec the frame was built from
    assert payload["metadata"]["eigenvalues"] == ["3", "2", "1"]
    assert payload["metadata"]["norms_squared"] == ["3/8"] * 16

    # a too-small r sticks on the frame's own masses
    code = main(["equal-norm", "--eigenvalues", "6,17/4,3,2", "--r", "3"])
    assert code == 2
    assert capsys.readouterr().err == (
        "not ready: violation at k=2: gap-ii "
        "(the block over columns 7, 8 puts mass 119/36 into row 3, whose eigenvalue is 3)\n"
    )

    code = main(["equal-norm", "--eigenvalues", "5"])
    assert code == 2


def test_cli_outputs_are_deterministic(tmp_path):
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, DEMO_SPEC)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["construct", str(spec_path), str(a), "--reproducible"]) == 0
    assert main(["construct", str(spec_path), str(b), "--reproducible"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_cli_verify_csv_falls_back_to_float(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    out_path = tmp_path / "matrix.json"
    csv_path = tmp_path / "matrix.csv"
    write_json(spec_path, DEMO_SPEC)
    main(["construct", str(spec_path), str(out_path), "--float-csv", str(csv_path)])
    capsys.readouterr()
    code = main(["verify", str(csv_path)])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["orthogonal"] is True
    assert payload["orthogonalityMode"].startswith("float")


def test_cli_calls_share_no_state(tmp_path, capsys, monkeypatch):
    spec_path = tmp_path / "spec.json"
    json_path, csv_path = tmp_path / "m.json", tmp_path / "m.csv"
    write_json(spec_path, DEMO_SPEC)
    assert main(["construct", str(spec_path), str(json_path), "--float-csv", str(csv_path)]) == 0
    capsys.readouterr()
    rebuilt, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: rebuilt.append(1) or build())

    def run(*argv):
        return main(list(argv)), capsys.readouterr()

    alone = run("verify", str(json_path))
    assert alone[0] == 0
    assert json.loads(alone[1].out)["orthogonalityMode"] == "exact"
    # verify on a CSV rewrites its arguments' mode to float
    code, captured = run("verify", str(csv_path))
    assert code == 0 and json.loads(captured.out)["orthogonalityMode"].startswith("float")
    assert run("verify", str(json_path)) == alone
    assert run("verify", str(json_path), "--mode", "approximate")[0] == 1
    assert run("verify", str(json_path)) == alone
    assert not rebuilt


def test_cli_verify_decides_large_prime_radicands_exactly(tmp_path, capsys):
    # sqrt(pq) with two primes above 10^6 cannot be split by trial
    # division; the square-class test decides both sign patterns exactly
    p, q = 1_000_003, 1_000_033
    for sign, orthogonal, expected_code in ((-1, True, 0), (1, False, 2)):
        matrix_payload = {
            "dim": 2,
            "count": 2,
            "entries": [
                {"row": 0, "col": 0, "sign": 1, "rad": {"num": p * q, "den": 1}},
                {"row": 0, "col": 1, "sign": 1, "rad": {"num": 1, "den": 1}},
                {"row": 1, "col": 0, "sign": 1, "rad": {"num": 1, "den": 1}},
                {"row": 1, "col": 1, "sign": sign, "rad": {"num": p * q, "den": 1}},
            ],
            "metadata": {},
        }
        matrix_path = tmp_path / "matrix.json"
        write_json(matrix_path, matrix_payload)
        code = main(["verify", str(matrix_path)])
        captured = capsys.readouterr()
        assert "retrying float" not in captured.err
        payload = json.loads(captured.out)
        assert payload["orthogonalityMode"] == "exact"
        assert payload["orthogonal"] is orthogonal
        assert code == expected_code
