"""Every command on arbitrary small files and arguments, in-process.

Whatever the input, ``main`` must answer with an exit code from 0 to 3
within ``CAP_S`` seconds, print no traceback and never raise.  Integers
in files stay small so that any shape that does parse as a matrix or a
spec is cheap to verify, check or construct; ``search`` always gets a
small ``--budget``.  ``feasible`` takes huge arguments too: its work
grows with their digits only.
"""

import contextlib
import io
import json
from fractions import Fraction
from time import perf_counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectral_tetris.cli import main

KEYS = st.sampled_from(
    ["dim", "count", "entries", "row", "col", "sign", "rad", "num", "den",
     "metadata", "blockLog", "kind", "rowSpan", "colSpan", "eigenvalues",
     "norms_squared", "norms", "unit"]
) | st.text(max_size=3)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(-3, 3)
    | st.sampled_from(["1", "2/3", "-1", "x", "singleton", "block-2x2"])
)

JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(KEYS, children, max_size=6),
    max_leaves=24,
)

# mostly well-formed values, so that some inputs get past the parser
RATIONALS = st.sampled_from(["1", "2", "1/2", "3/2", "4", "1", "0", "-1", "x"])
SIZES = st.sampled_from([1, 2, 1, 2, 0])

ENTRIES = st.fixed_dictionaries(
    {
        "row": st.sampled_from([0, 1, 0, 1, -1, 2]),
        "col": st.sampled_from([0, 1, 0, 1, -1, 2]),
        "sign": st.sampled_from([1, -1, 1, 0, 2]),
        "rad": st.fixed_dictionaries(
            {"num": st.sampled_from([1, 2, 4, 1, 0]), "den": st.sampled_from([1, 1, 2, 0])}
        ),
    }
)

MATRICES = st.fixed_dictionaries(
    {
        "dim": SIZES,
        "count": SIZES,
        "entries": st.lists(ENTRIES, max_size=4),
    },
    optional={
        "metadata": st.fixed_dictionaries(
            {},
            optional={
                "eigenvalues": st.lists(RATIONALS, max_size=2),
                "norms_squared": st.lists(RATIONALS, max_size=2),
                "blockLog": JSON_VALUES,
            },
        )
    },
)


@st.composite
def specs(draw):
    eigenvalues = draw(st.lists(RATIONALS, min_size=1, max_size=3))
    payload = {"dim": draw(st.sampled_from([len(eigenvalues)] * 3 + [0])), "eigenvalues": eigenvalues}
    key = draw(st.sampled_from(["norms_squared", "norms", "unit"]))
    payload[key] = draw(st.booleans() if key == "unit" else st.lists(RATIONALS, max_size=5))
    return payload


@st.composite
def balanced_specs(draw):
    """Specs whose traces match, so that some construct and search succeeds."""
    norms = draw(st.lists(st.sampled_from(["1", "2", "1/2", "3/2", "4"]), min_size=1, max_size=6))
    dim = draw(st.integers(1, 3))
    share = str(sum(map(Fraction, norms)) / dim)
    return {"dim": dim, "eigenvalues": [share] * dim, "norms_squared": norms}


CSV_CELLS = st.sampled_from(["0", "1", "-1", "0.5", "2e-3", "1e308", "inf", "nan", "x", ""])

CSV_TEXT = st.lists(st.lists(CSV_CELLS, min_size=1, max_size=3), max_size=3).map(
    lambda rows: "".join(",".join(row) + "\n" for row in rows)
)

FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


CAP_S = 10.0


def _answer(*argv: str) -> int:
    """Exit code of the CLI; fails on a traceback or a run over ``CAP_S``."""
    sink = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(list(argv))
    assert perf_counter() - start < CAP_S, argv
    assert "Traceback" not in sink.getvalue(), argv
    return code


def _exit_code(command: str, path, text: str) -> int:
    path.write_text(text, encoding="utf-8")
    return _answer(command, str(path))


@FUZZ
@given(payload=JSON_VALUES | MATRICES)
def test_verify_never_raises_on_json(tmp_path, payload):
    assert _exit_code("verify", tmp_path / "matrix.json", json.dumps(payload)) in (0, 1, 2)


@FUZZ
@given(text=CSV_TEXT)
def test_verify_never_raises_on_csv(tmp_path, text):
    assert _exit_code("verify", tmp_path / "matrix.csv", text) in (0, 1, 2)


@FUZZ
@given(payload=JSON_VALUES | specs())
def test_check_never_raises_on_json(tmp_path, payload):
    assert _exit_code("check", tmp_path / "spec.json", json.dumps(payload)) in (0, 1, 2)


@FUZZ
@given(payload=JSON_VALUES | specs() | balanced_specs(), csv=st.booleans(), reproducible=st.booleans())
def test_construct_never_raises(tmp_path, payload, csv, reproducible):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload), encoding="utf-8")
    argv = ["construct", str(spec), str(tmp_path / "out.json")]
    argv += ["--float-csv", str(tmp_path / "out.csv")] * csv + ["--reproducible"] * reproducible
    assert _answer(*argv) in (0, 1, 2)


@FUZZ
@given(
    payload=specs() | balanced_specs(),
    budget=st.sampled_from(["1", "5", "50", "1", "5", "0", "x"]),
    max_results=st.sampled_from(["1", "4", "1", "4", "0", "x"]),
)
def test_search_never_raises(tmp_path, payload, budget, max_results):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload), encoding="utf-8")
    code = _answer("search", str(spec), "--budget", budget, "--max-results", max_results)
    assert code in (0, 1, 2, 3)


INTEGER_ARGUMENTS = st.integers(-3, 40).map(str) | st.integers(-(10**15), 10**15).map(str) | (
    st.sampled_from(["x", "", "1.5", "1e3", str(10**40)])
)


@FUZZ
@given(vectors=INTEGER_ARGUMENTS, dim=INTEGER_ARGUMENTS)
def test_feasible_never_raises(vectors, dim):
    assert _answer("feasible", "--vectors", vectors, "--dim", dim) in (0, 1, 2)


# The spreads here keep r small; --r 317 is the smallest r above the
# vector limit.  Spectra that need r in the millions are run only in a
# capped child process (test_edges).
POSITIVE_LITERALS = st.sampled_from(["100", "3", "2", "1", "1/2", "7/3"])
EIGENVALUE_LISTS = st.lists(POSITIVE_LITERALS, max_size=4).map(
    lambda values: sorted(values, key=Fraction, reverse=True)
) | st.lists(POSITIVE_LITERALS | st.sampled_from(["0", "-1", "x", ""]), max_size=4)


@FUZZ
@given(
    eigenvalues=EIGENVALUE_LISTS.map(",".join),
    r=st.sampled_from([None, "1", "4", "50", "317", "0", "-2", "x"]),
    reproducible=st.booleans(),
)
def test_equal_norm_never_raises(eigenvalues, r, reproducible):
    argv = ["equal-norm", "--eigenvalues", eigenvalues]
    argv += ["--r", r] * (r is not None) + ["--reproducible"] * reproducible
    assert _answer(*argv) in (0, 1, 2)
