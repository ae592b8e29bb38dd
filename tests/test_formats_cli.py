import json
from fractions import Fraction

import pytest

from spectral_tetris import FrameSpec, pnstc, verify_matrix
from spectral_tetris import formats
from spectral_tetris.cli import main

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
    dense = loaded.to_float_rows()
    assert dense == matrix.to_float_rows()
    report = verify_matrix(loaded, mode="float")
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
