import json
import os
import resource
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import spectral_tetris
from spectral_tetris import (
    FrameSpec,
    Partition,
    RadicalScalar,
    check_ready,
    forced_partition,
)
from spectral_tetris import formats
from spectral_tetris.cli import main

F = Fraction


def test_sqrt_of_negative_is_rejected():
    with pytest.raises(ValueError):
        RadicalScalar.sqrt(F(-1))


def test_partition_rejects_decreasing_cuts():
    with pytest.raises(ValueError):
        Partition(cuts=(2, 1))
    with pytest.raises(ValueError):
        Partition(cuts=(-1, 2))


def test_forced_partition_matches_the_report():
    spec = FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 1, 4))
    assert forced_partition(spec) == check_ready(spec).partition


def test_unit_spec_needs_an_integer_mass():
    with pytest.raises(ValueError):
        formats.parse_spec_payload(
            {"dim": 2, "eigenvalues": ["3/2", "1"], "unit": True}
        )


@pytest.mark.parametrize(
    "text, phrase",
    [
        ("1,2\n3\n1,x\n", "could not convert string to float: 'x'"),
        ("1,y\n\nz\n", "could not convert string to float: 'y'"),
        ("\n \n", "empty CSV matrix"),
        ("nan,1\n3\n", "ragged CSV matrix"),
        ("1,0\n0,-inf\n", "CSV matrix values must be finite"),
    ],
)
def test_csv_loader_reports_faults_in_a_fixed_order(tmp_path, text, phrase):
    # a bad decimal (the first in the file), then empty, ragged, non-finite
    path = tmp_path / "matrix.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        formats.load_float_csv(str(path))
    assert str(caught.value) == phrase


def test_csv_loader_rejects_bad_shapes(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        formats.load_float_csv(str(ragged))
    empty = tmp_path / "empty.csv"
    empty.write_text("\n", encoding="utf-8")
    with pytest.raises(ValueError):
        formats.load_float_csv(str(empty))


def test_cli_construct_on_an_unready_spec_writes_nothing(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {"dim": 2, "eigenvalues": ["5", "2"], "norms_squared": ["3", "3", "1"]}
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out.json"
    code = main(["construct", str(spec_path), str(out)])
    assert code == 2
    assert "not ready: violation at k=1: norm-bound-ii" in capsys.readouterr().err
    assert not out.exists()


def test_cli_equal_norm_override(tmp_path, capsys):
    out = tmp_path / "eq.json"
    code = main(["equal-norm", "--eigenvalues", "3,2,1", "--r", "5", "--out", str(out)])
    assert code == 0
    assert "r=5" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["count"] == 25
    assert payload["metadata"]["norms_squared"] == ["6/25"] * 25


def test_cli_verify_reports_failure_exit(tmp_path, capsys):
    matrix_payload = {
        "dim": 2,
        "count": 2,
        "entries": [
            {"row": 0, "col": 0, "sign": 1, "rad": {"num": 1, "den": 1}},
            {"row": 1, "col": 0, "sign": 1, "rad": {"num": 1, "den": 1}},
            {"row": 0, "col": 1, "sign": 1, "rad": {"num": 1, "den": 1}},
            {"row": 1, "col": 1, "sign": 1, "rad": {"num": 4, "den": 1}},
        ],
        "metadata": {},
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix_payload), encoding="utf-8")
    code = main(["verify", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["orthogonal"] is False
    assert payload["frameBounds"] is None


def test_cli_zero_row_matrix_is_rejected(tmp_path, capsys):
    matrix_payload = {
        "dim": 2,
        "count": 2,
        "entries": [
            {"row": 0, "col": 0, "sign": 1, "rad": {"num": 1, "den": 1}},
            {"row": 0, "col": 1, "sign": 1, "rad": {"num": 1, "den": 1}},
        ],
        "metadata": {},
    }
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix_payload), encoding="utf-8")
    code = main(["verify", str(path)])
    assert code == 2
    assert "not a frame" in capsys.readouterr().err


def test_cli_unreadable_spec_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["check", str(missing)]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    assert main(["check", str(broken)]) == 1
    capsys.readouterr()


def _entry(row, col, num=1, den=1):
    return {"row": row, "col": col, "sign": 1, "rad": {"num": num, "den": den}}


_GOOD_MATRIX = {"dim": 2, "count": 2, "entries": [_entry(0, 0), _entry(1, 1)]}


# file name -> (contents, a phrase the one-line error must contain)
_MALFORMED_MATRIX_FILES = {
    "row-out-of-range.json": (
        json.dumps({**_GOOD_MATRIX, "entries": [_entry(5, 0)]}),
        "outside the 2x2 matrix",
    ),
    "negative-index.json": (
        json.dumps({**_GOOD_MATRIX, "entries": [_entry(0, 0), _entry(-1, -1)]}),
        "outside the 2x2 matrix",
    ),
    "duplicate-cell.json": (
        json.dumps({**_GOOD_MATRIX, "entries": [_entry(0, 0), _entry(1, 1), _entry(1, 1, 4)]}),
        "appears twice",
    ),
    "top-level-list.json": (json.dumps([_GOOD_MATRIX]), "'dim', 'count' and 'entries'"),
    "no-entries.json": (json.dumps({"dim": 2, "count": 2}), "'dim', 'count' and 'entries'"),
    "zero-dim.json": (json.dumps({"dim": 0, "count": 2, "entries": []}), "must be positive"),
    "zero-count.json": (json.dumps({"dim": 2, "count": 0, "entries": []}), "must be positive"),
    "entry-not-an-object.json": (
        json.dumps({**_GOOD_MATRIX, "entries": [3]}),
        "malformed matrix file",
    ),
    "zero-denominator.json": (
        json.dumps({**_GOOD_MATRIX, "entries": [{**_entry(0, 0), "rad": {"num": 1, "den": 0}}]}),
        "malformed matrix file",
    ),
    "infinite.csv": ("1,0\n0,inf\n", "must be finite"),
    "not-a-number.csv": ("1,nan\n0,1\n", "must be finite"),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_MATRIX_FILES))
def test_cli_malformed_matrix_file_is_a_one_line_usage_error(tmp_path, capsys, name):
    text, phrase = _MALFORMED_MATRIX_FILES[name]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert phrase in captured.err


# name -> (fields over _GOOD_MATRIX, the whole stderr of `verify`)
_PINNED_MATRIX_ERRORS = {
    "unknown-kind": (
        {"metadata": {"blockLog": [{"kind": "bogus", "rowSpan": [0, 0], "colSpan": [0, 0]}]}},
        "error: 'bogus' is not a valid BlockKind\n",
    ),
    "zero-denominator": (
        {"entries": [_entry(0, 0, 3, 0), _entry(1, 1)]},
        "error: malformed matrix file: ZeroDivisionError('Fraction(3, 0)')\n",
    ),
    "negative-denominator": (
        {"entries": [_entry(0, 0, 1, -2), _entry(1, 1)]},
        "error: radicand must be nonnegative\n",
    ),
    "one-index-row-span": (
        {"metadata": {"blockLog": [{"kind": "singleton", "rowSpan": [0], "colSpan": [0, 0]}]}},
        "error: malformed matrix file: block spans must be index pairs, "
        "got rows (0,), cols (0, 0)\n",
    ),
    "three-index-row-span": (
        {"metadata": {"blockLog": [{"kind": "block-2x2", "rowSpan": [0, 1, 2], "colSpan": [0, 1]}]}},
        "error: malformed matrix file: block spans must be index pairs, "
        "got rows (0, 1, 2), cols (0, 1)\n",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_MATRIX_ERRORS))
def test_cli_matrix_file_value_errors_are_pinned(tmp_path, capsys, name):
    fields, stderr = _PINNED_MATRIX_ERRORS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**_GOOD_MATRIX, **fields}), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("", stderr)


def test_cli_unreduced_entries_verify_as_their_reduced_form(tmp_path, capsys):
    # 2/4 and -3/-6 (a negative den over a negative num) both reduce to 1/2
    outputs = []
    for name, rads in (("reduced", [(1, 2), (1, 2)]), ("unreduced", [(2, 4), (-3, -6)])):
        entries = [_entry(i, i, num, den) for i, (num, den) in enumerate(rads)]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**_GOOD_MATRIX, "entries": entries}), encoding="utf-8")
        assert main(["verify", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]
    assert json.loads(outputs[0].out)["rowSquareSums"] == ["1/2", "1/2"]


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"dim": 1, "eigenvalues": ["1"], "norms_squared": ["1"]}), encoding="utf-8"
    )
    out = tmp_path / "out.json"
    assert main([]) == 1
    assert main(["construct"]) == 1
    assert main(["construct", str(spec_path), str(out), "--skip-check"]) == 1
    assert not out.exists()
    assert main(["verify", str(out), "--mode", "approximate"]) == 1
    assert main(["--help"]) == 0
    assert main(["construct", str(spec_path), str(out)]) == 0
    capsys.readouterr()


def test_cli_construct_writes_no_file_when_the_csv_cannot_render(tmp_path, capsys):
    # sqrt(10^700) = 10^350 has no double, so the CSV render fails after
    # the matrix rendered fine
    big = str(10**700)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"dim": 1, "eigenvalues": [big], "norms_squared": [big]}), encoding="utf-8"
    )
    out, csv = tmp_path / "out.json", tmp_path / "out.csv"
    assert main(["construct", str(spec_path), str(out), "--float-csv", str(csv)]) == 1
    assert capsys.readouterr().err == "error: math range error\n"
    assert not out.exists() and not csv.exists()


def test_cli_construct_writes_no_file_when_an_output_cannot_be_opened(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"dim": 2, "eigenvalues": ["1", "1"], "norms_squared": ["1", "1"]}),
        encoding="utf-8",
    )
    out, csv = tmp_path / "out.json", tmp_path / "nodir" / "out.csv"
    assert main(["construct", str(spec_path), str(out), "--float-csv", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{csv}'" in err  # the error names the output, not a temporary file
    assert [path.name for path in tmp_path.iterdir()] == ["spec.json"]
    assert main(["construct", str(spec_path), str(tmp_path / "nodir" / "out.json")]) == 1
    capsys.readouterr()
    assert [path.name for path in tmp_path.iterdir()] == ["spec.json"]
    taken = tmp_path / "taken"  # an existing directory is refused before any write
    taken.mkdir()
    assert main(["construct", str(spec_path), str(out), "--float-csv", str(taken)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{taken}'\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["spec.json", "taken"]
    csv = tmp_path / "out.csv"
    assert main(["construct", str(spec_path), str(out), "--float-csv", str(csv)]) == 0
    capsys.readouterr()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "out.csv", "out.json", "spec.json", "taken"
    ]


def test_cli_construct_writes_through_existing_targets(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"dim": 2, "eigenvalues": ["1", "1"], "norms_squared": ["1", "1"]}),
        encoding="utf-8",
    )
    # an existing file keeps its mode and hard links; a symlink is written through
    out, link, alias = tmp_path / "out.json", tmp_path / "link.json", tmp_path / "alias.json"
    out.write_text("old", encoding="utf-8")
    out.chmod(0o640)
    os.link(out, alias)
    link.symlink_to(out)
    assert main(["construct", str(spec_path), str(link)]) == 0
    capsys.readouterr()
    assert link.is_symlink() and alias.read_text(encoding="utf-8").startswith("{")
    assert stat.S_IMODE(out.stat().st_mode) == 0o640 and out.stat().st_nlink == 2
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "alias.json", "link.json", "out.json", "spec.json"
    ]
    # a device stays a device, so construct into os.devnull tests that a spec
    # builds; last, so code that replaces its targets fails above first
    assert main(["construct", str(spec_path), os.devnull, "--float-csv", os.devnull]) == 0
    capsys.readouterr()
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_cli_verify_parses_the_metadata_block_only_without_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"dim": 2, "eigenvalues": ["1", "1"], "norms_squared": ["1", "1"]}),
        encoding="utf-8",
    )
    path = tmp_path / "matrix.json"
    metadata = {"eigenvalues": ["x"], "norms_squared": ["1", "1"]}
    path.write_text(json.dumps({**_GOOD_MATRIX, "metadata": metadata}), encoding="utf-8")
    assert main(["verify", str(path), "--spec", str(spec_path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["matchesSpec"] is True and captured.err == ""
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: not a rational literal: 'x'\n")


def test_cli_verify_reads_numeric_metadata_targets_as_their_strings(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"dim": 2, "eigenvalues": ["3", "2"], "unit": True}))
    path = tmp_path / "matrix.json"
    assert main(["construct", str(spec_path), str(path), "--reproducible"]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["metadata"]["eigenvalues"] == ["3", "2"]
    numeric = {**payload["metadata"], "eigenvalues": [3, 2], "norms_squared": [1] * 5}
    numeric_path = tmp_path / "numeric.json"
    numeric_path.write_text(json.dumps({**payload, "metadata": numeric}), encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["matchesSpec"] is True and captured.err == ""
    assert main(["verify", str(numeric_path)]) == 0
    assert capsys.readouterr() == captured


def test_cli_float_mode_beyond_the_double_range_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({**_GOOD_MATRIX, "entries": [_entry(0, 0, 10**700), _entry(1, 1)]}))
    assert main(["verify", str(path)]) == 0
    assert main(["verify", str(path), "--mode", "float"]) == 1
    assert capsys.readouterr().err.count("error: ") == 1


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1"])
def test_cli_float_mode_refuses_a_tolerance_no_pair_can_fail(tmp_path, capsys, tol):
    # two equal rows 1,1 are not orthogonal; under an infinite tolerance
    # every pair passed, and the command reported an orthogonal frame
    path = tmp_path / "eq.csv"
    path.write_text("1,1\n1,1\n", encoding="utf-8")
    assert main(["verify", str(path), "--mode", "float", f"--tol={tol}"]) == 1
    assert capsys.readouterr() == (
        "",
        f"error: tolerance must be finite and nonnegative, got {float(tol)!r}\n",
    )


@pytest.mark.parametrize(
    "text, orthogonal",
    [
        ("1e200,1e200\n1e200,1e200\n", False),
        ("1,1\n1,1\n", False),
        ("1e200,1e200\n1e200,-1e200\n", True),
        ("1e-200,1e-200\n1e-200,1e-200\n", False),
        ("1e-200,1e-200\n1e-200,-1e-200\n", True),
    ],
)
def test_cli_float_mode_near_the_double_range(tmp_path, capsys, text, orthogonal):
    # cross products of entries near 1e200 overflow a double; the squares
    # (radicands) of entries near 1e-200 underflow one
    path = tmp_path / "matrix.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path)]) == (0 if orthogonal else 2)
    assert json.loads(capsys.readouterr().out)["orthogonal"] is orthogonal


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_cli_zero_row_is_found_before_allocating_by_the_header(tmp_path):
    # A child process with 1 GiB of address space: one list of 10**9
    # pointers would need 8 GB.
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dim": 10**9, "count": 10**9, "entries": []}), encoding="utf-8")
    src = str(Path(spectral_tetris.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "spectral_tetris.cli", "verify", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": src},
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr == "not a frame: row 0 is zero; the lower frame bound fails\n"


def _python_in_a_child(*argv: str, timeout: float = 20) -> subprocess.CompletedProcess:
    """Python with ``argv`` in a child process with 1 GiB of address space
    and a ``timeout`` s cap; the package and the test helpers import."""
    src = str(Path(spectral_tetris.__file__).parent.parent)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={"PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])},
        preexec_fn=_limit_address_space,
    )


def _cli_in_a_child(*argv: str, timeout: float = 20) -> subprocess.CompletedProcess:
    """The CLI in a child process with 1 GiB of address space and a
    ``timeout`` s cap."""
    return _python_in_a_child("-m", "spectral_tetris.cli", *argv, timeout=timeout)


# The walk alone (``helpers.walk_alone``) on the spec file argv[1] with
# budget argv[2]: its result with the orderings counted.
_WALK_ALONE = """
import dataclasses, json, sys
from helpers import walk_alone
from spectral_tetris import SearchRequest, formats
spec, _ = formats.load_spec_file(sys.argv[1])
result = walk_alone(SearchRequest(spec.norms_sq, spec.eigenvalues, budget=int(sys.argv[2])))
print(json.dumps({**dataclasses.asdict(result), "orderings": len(result.orderings)}))
"""


def _walks_to_the_budget_past_the_gate(path: Path, budget: int, timeout: float = 20) -> None:
    """The spec fails majorization, so ``search`` answers it exhausted
    with no walk; the walk alone, in the same capped child, still runs to
    ``budget`` and finds nothing."""
    done = _cli_in_a_child("search", str(path), "--budget", str(budget), timeout=timeout)
    assert done.returncode == 2, done.stderr
    assert done.stderr == ""
    assert json.loads(done.stdout) == {
        "orderings": [],
        "exhausted": True,
        "budget_exhausted": False,
        "nodes_used": 0,
    }
    done = _python_in_a_child("-c", _WALK_ALONE, str(path), str(budget), timeout=timeout)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    payload = json.loads(done.stdout)
    assert payload["budget_exhausted"] is True and payload["nodes_used"] == budget + 1
    assert payload["orderings"] == 0 and payload["exhausted"] is False


def test_cli_feasible_with_a_twelve_digit_dim_finishes():
    # a row-by-row scan would try 33,333,333,334 rows before this answer
    done = _cli_in_a_child("feasible", "--vectors", "200000000003", "--dim", "100000000003")
    assert done.returncode == 2, done.stderr
    payload = json.loads(done.stdout)
    assert payload["feasible"] is False and payload["failingK"] == 33333333334


def test_cli_equal_norm_refuses_a_frame_above_the_vector_limit():
    # r = 1,732,051: about 3 * 10^12 vectors
    done = _cli_in_a_child("equal-norm", "--eigenvalues", "1000000000000,1")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "limit of 100000" in done.stderr


@pytest.mark.parametrize("command", ["check", "construct", "search"])
def test_cli_refuses_a_unit_spec_above_the_vector_limit(tmp_path, command):
    # 58 bytes that would ask for 10^12 unit vectors
    path = tmp_path / "spec.json"
    path.write_text('{"dim": 1, "eigenvalues": ["1000000000000"], "unit": true}', encoding="utf-8")
    extra = [str(tmp_path / "out.json")] if command == "construct" else []
    done = _cli_in_a_child(command, str(path), *extra)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: 1000000000000 unit norms exceed the limit of 100000\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("depth", [10**3, 10**5])
@pytest.mark.parametrize("command", ["check", "construct", "search", "verify"])
def test_cli_refuses_deeply_nested_json_in_one_line(tmp_path, command, depth):
    # nesting past the JSON parser's recursion limit: about 4 KB at 10^3
    nested = "[" * depth + "]" * depth
    if command == "verify":
        text, what = '{"dim": 1, "count": 1, "entries": %s}' % nested, "matrix file"
    else:
        text, what = '{"dim": 1, "eigenvalues": %s, "unit": true}' % nested, "spec file"
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    extra = [str(tmp_path / "out.json")] if command == "construct" else []
    done = _cli_in_a_child(command, str(path), *extra)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"error: malformed {what}: JSON nested too deeply\n"
    assert not (tmp_path / "out.json").exists()


# contents of a file that is not UTF-8 JSON
_NOT_JSON = {"empty": b"", "open-brace": b"{", "not-utf-8": b"\xff"}


@pytest.mark.parametrize("name", sorted(_NOT_JSON))
@pytest.mark.parametrize("command", ["check", "construct", "search", "verify", "verify --spec"])
def test_cli_names_the_kind_of_a_file_that_is_not_json(tmp_path, capsys, command, name):
    bad, matrix, out = tmp_path / "bad.json", tmp_path / "matrix.json", tmp_path / "out.json"
    bad.write_bytes(_NOT_JSON[name])
    matrix.write_text(json.dumps(_GOOD_MATRIX), encoding="utf-8")
    args = {
        "check": ["check", bad],
        "construct": ["construct", bad, out],
        "search": ["search", bad],
        "verify": ["verify", bad],
        "verify --spec": ["verify", matrix, "--spec", bad],
    }[command]
    what = "matrix file" if command == "verify" else "spec file"
    assert main(list(map(str, args))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed {what}: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "literal", ["1e3000000", "1E-3000000", "2.5e+3_000_000", "\u0661e\u0663" + "\u0660" * 6]
)
def test_cli_refuses_a_norm_exponent_past_the_limit_in_one_line(tmp_path, literal):
    # the 56-byte spec with 1e3000000 took seconds in Fraction's square, a
    # time growing faster than the exponent; the exponent is read as
    # Fraction reads it (Unicode digits, underscores) before any Fraction
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dim": 1, "eigenvalues": ["1"], "norms": [literal]}))
    done = _cli_in_a_child("check", str(path))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"error: norm {literal!r}: exponent past ±10000\n"


def test_cli_search_counts_many_distinct_norms_in_linear_time(tmp_path):
    # 20,000 distinct squared norms k/20000 in one dimension: counting each
    # distinct value by a scan of all of them would take minutes
    count = 20_000
    norms = [f"{k}/{count}" for k in range(1, count + 1)]
    spec = {"dim": 1, "eigenvalues": [f"{count + 1}/2"], "norms_squared": norms}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    done = _cli_in_a_child("search", str(path), "--max-results", "1", "--budget", "1")
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["orderings"]) == 1


def test_cli_search_on_six_hundred_tiny_norms_in_one_row_stops_at_the_budget(tmp_path):
    # eigenvalues 5 and 5 + t, norms^2 10 and k/360000 for k = 1..600 (sum t):
    # 10 > 5 + t fails majorization; past the gate the tiny norms fill
    # one row, one recursive step each
    tiny = [Fraction(k, 360000) for k in range(1, 601)]
    spec = {
        "dim": 2,
        "eigenvalues": ["5", str(5 + sum(tiny))],
        "norms_squared": ["10", *map(str, tiny)],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    _walks_to_the_budget_past_the_gate(path, 5000)


def test_cli_search_on_two_thousand_tiny_norms_in_one_row_stops_at_the_budget(tmp_path):
    # the same spec with 2,000 tiny norms k/1200000: a walk that took one
    # interpreter frame per placed value overflowed at about 1,000
    tiny = [Fraction(k, 1200000) for k in range(1, 2001)]
    spec = {
        "dim": 2,
        "eigenvalues": ["5", str(5 + sum(tiny))],
        "norms_squared": ["10", *map(str, tiny)],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    _walks_to_the_budget_past_the_gate(path, 5000)


def test_cli_zero_column_is_found_before_allocating_by_the_count(tmp_path):
    # 10**9 columns would need 8 GB per list; the first one without an
    # entry is reported instead
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dim": 1, "count": 10**9, "entries": [_entry(0, 0)]}))
    done = _cli_in_a_child("verify", str(path))
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == "not a frame: column 1 is zero; no spec's positive squared norms match it\n"


def _primes_above(low: int, count: int) -> list[int]:
    limit = low + 40 * count  # prime gaps near 10**5 average about 12
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(low + 1, limit + 1) if sieve[p]][:count]


def test_cli_search_walks_many_coprime_denominators_fast(tmp_path):
    # squared norms 10, 1/m and (m-1)/m for the 135 Mersenne numbers
    # m = 2^p - 1 with p prime in [1000, 2000): pairwise coprime, so their
    # lcm has 200,923 bits.  Every eigenvalue is 5, so the norm 10 fails
    # majorization and, past the gate, fits no row: the walk runs to its
    # budget.  Masses summed as reduced pairs took 33 s; as ints over the
    # lcm, under 3 s (Python 3.11, one core of a 2-core x86-64 host)
    mersenne = [2**p - 1 for p in _primes_above(1000, 200) if p < 2000]
    norms = ["10", *(f"1/{m}" for m in mersenne), *(f"{m - 1}/{m}" for m in mersenne)]
    eigenvalues = ["5"] * ((10 + len(mersenne)) // 5)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dim": len(eigenvalues), "eigenvalues": eigenvalues, "norms_squared": norms}))
    _walks_to_the_budget_past_the_gate(path, 20000, timeout=10)


def test_cli_search_memo_stays_small_on_thousands_of_distinct_norms(tmp_path):
    # squared norms 10, 1/p and (p-1)/p over the first 2,000 primes, and
    # 402 eigenvalues 5: 4,001 distinct values, failing majorization as
    # above.  Past the gate, a memo key per state as long as the table
    # took 644 MB at --budget 20000 and ran out of this child's 1 GiB at
    # 100000; one int per state takes about 50 MB
    primes = _primes_above(1, 2_000)
    norms = ["10", *(f"1/{p}" for p in primes), *(f"{p - 1}/{p}" for p in primes)]
    spec = {"dim": 402, "eigenvalues": ["5"] * 402, "norms_squared": norms}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    _walks_to_the_budget_past_the_gate(path, 100000, timeout=10)


def test_cli_check_on_prime_denominators_stays_fast(tmp_path):
    # eigenvalues and norms^2 2/p over the first 6,000 primes: Fraction
    # prefix sums would carry the product of the primes as denominator
    values = [f"2/{p}" for p in _primes_above(1, 6_000)]
    path = tmp_path / "spec.json"
    spec = {"dim": len(values), "eigenvalues": values, "norms_squared": values}
    path.write_text(json.dumps(spec), encoding="utf-8")
    done = _cli_in_a_child("check", str(path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ready (partition 1,2,3,")


def test_cli_verify_on_many_square_classes_stays_fast(tmp_path):
    # row 0 holds sqrt(p) over the first 5,000 primes, row 1 all ones: one
    # row pair with 5,000 square classes, so about 12.5 million class tests
    primes = _primes_above(1, 5_000)
    entries = [_entry(0, c, p) for c, p in enumerate(primes)]
    entries += [_entry(1, c) for c in range(len(primes))]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dim": 2, "count": len(primes), "entries": entries}))
    done = _cli_in_a_child("verify", str(path))
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout)["orthogonal"] is False


@pytest.mark.parametrize("name, mode", [("ones.json", "exact"), ("ones.json", "float"), ("ones.csv", None)])
def test_cli_verify_on_one_column_of_twenty_thousand_ones_stays_small(tmp_path, name, mode):
    # the column is shared by 2 * 10**8 row pairs; a table of them all
    # would not fit in the child's 1 GiB, but the first pair decides
    dim = 20_000
    path = tmp_path / name
    if name.endswith(".csv"):
        path.write_text("1\n" * dim, encoding="utf-8")
    else:
        path.write_text(json.dumps({"dim": dim, "count": 1, "entries": [_entry(r, 0) for r in range(dim)]}))
    done = _cli_in_a_child("verify", str(path), *(("--mode", mode) if mode else ()))
    assert done.returncode == 2, done.stderr
    payload = json.loads(done.stdout)
    assert payload["orthogonal"] is False and payload["frameBounds"] is None
    assert payload["rowSquareSums"] == ["1"] * dim and payload["colSquareSums"] == [str(dim)]
    assert payload["orthogonalityMode"] == ("exact" if mode == "exact" else "float(1e-10)")
    warning = "warning: CSV input is float data; verifying in float mode\n"
    assert done.stderr == ("" if mode else warning)


@pytest.mark.parametrize("dim", [10_000, 1])
def test_cli_paired_prime_norms_stay_small(tmp_path, dim):
    # norms^2 1/p, (p-1)/p for 20,000 primes p: every row's sum is an
    # integer, but the lcm of all denominators has about 340,000 bits, so
    # masses lifted over it take seconds and gigabytes
    primes = _primes_above(10**5, 20_000)
    norms = [text for p in primes for text in (f"1/{p}", f"{p - 1}/{p}")]
    eigenvalues = [str(20_000 // dim)] * dim
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dim": dim, "eigenvalues": eigenvalues, "norms_squared": norms}))
    checked = _cli_in_a_child("check", str(path))
    assert checked.returncode == 0, checked.stderr
    assert checked.stdout.startswith("ready (partition 4,8," if dim > 1 else "ready (partition 40000)")
    built = _cli_in_a_child("construct", str(path), str(tmp_path / "out.json"))
    assert built.returncode == 0, built.stderr
    assert built.stdout.startswith(f"wrote {dim}x40000 matrix (40000 nonzeros)")


def _halves_of_primes(count: int) -> list[tuple[int, int]]:
    # 1/p over the first ``count`` primes, then (p-1)/p over the same primes:
    # the partial sums of the first half carry the product of the primes
    primes = _primes_above(1, count)
    return [(1, p) for p in primes] + [(p - 1, p) for p in primes]


def test_cli_verify_sums_a_long_row_of_prime_denominators_fast(tmp_path):
    # one row of 16,000 entries that sums to 8000: a gcd of two growing
    # running sums per entry took about a minute
    entries = [_entry(0, c, num, den) for c, (num, den) in enumerate(_halves_of_primes(8_000))]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dim": 1, "count": len(entries), "entries": entries}))
    done = _cli_in_a_child("verify", str(path))
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["rowSquareSums"] == ["8000"] and payload["orthogonal"] is True


def test_cli_verify_names_a_sum_too_long_to_print(tmp_path):
    # one row of 1/p over the first 4,000 primes: the row sum has more
    # digits than an int may print as text
    entries = [_entry(0, c, 1, p) for c, p in enumerate(_primes_above(1, 4_000))]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dim": 1, "count": len(entries), "entries": entries}))
    done = _cli_in_a_child("verify", str(path))
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    total = "<about 16341 digits>/<about 16341 digits>"
    assert payload["rowSquareSums"] == [total] and payload["frameBounds"] == [total, total]
    assert payload["colSquareSums"][:3] == ["1/2", "1/3", "1/5"]


def test_cli_check_names_a_deficit_too_long_to_print(tmp_path):
    # row 1 (eigenvalue 3) takes every 1/p, so the deficits carry the
    # product of 8,000 primes: more digits than an int may print as text
    norms = [f"{num}/{den}" for num, den in _halves_of_primes(8_000)]
    eigenvalues = ["3"] + ["1"] * 7_997
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dim": 7_998, "eigenvalues": eigenvalues, "norms_squared": norms}))
    done = _cli_in_a_child("check", str(path))
    assert done.returncode == 2, done.stderr
    assert done.stdout.startswith("not ready: violation at k=2: gap-ii ("), done.stdout


def test_cli_check_json_reports_a_trace_mismatch_too_long_to_print(tmp_path):
    # the squared norms sum to a fraction of about 7,500 digits
    norms = [f"1/{p}" for p in _primes_above(1, 2_000)]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dim": 1, "eigenvalues": ["1"], "norms_squared": norms}))
    done = _cli_in_a_child("check", "--json", str(path))
    assert done.returncode == 1, done.stderr
    violation = json.loads(done.stdout)["violation"]
    assert violation["k"] == 0 and violation["condition"] == "trace-mismatch"


@pytest.mark.parametrize(
    "eigenvalues, message",
    [
        # a fraction of about 7,500 digits
        (
            [f"1/{p}" for p in _primes_above(1, 2_000)],
            "error: unit norms need the eigenvalues to sum to a positive integer, got <about ",
        ),
        # ten printable 4,300-digit integers that sum to 4,301 digits
        (["9" * 4_300] * 10, "error: <about "),
    ],
    ids=["fraction", "integer"],
)
def test_cli_unit_spec_names_an_eigenvalue_sum_too_long_to_print(
    tmp_path, capsys, eigenvalues, message
):
    path = tmp_path / "spec.json"
    spec = {"dim": len(eigenvalues), "eigenvalues": eigenvalues, "unit": True}
    path.write_text(json.dumps(spec))
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message), captured.err
