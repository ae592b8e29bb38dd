import json
import resource
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


def _entry(row, col, num=1):
    return {"row": row, "col": col, "sign": 1, "rad": {"num": num, "den": 1}}


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


def test_cli_float_mode_beyond_the_double_range_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({**_GOOD_MATRIX, "entries": [_entry(0, 0, 10**700), _entry(1, 1)]}))
    assert main(["verify", str(path)]) == 0
    assert main(["verify", str(path), "--mode", "float"]) == 1
    assert capsys.readouterr().err.count("error: ") == 1


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


def _cli_in_a_child(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a child process with 1 GiB of address space and a 20 s cap."""
    src = str(Path(spectral_tetris.__file__).parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "spectral_tetris.cli", *argv],
        capture_output=True,
        text=True,
        timeout=20,
        env={"PYTHONPATH": src},
        preexec_fn=_limit_address_space,
    )


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
