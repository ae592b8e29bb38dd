"""The ``verify`` and ``check`` commands on arbitrary small JSON and CSV files.

Whatever the file holds, ``main`` must answer with exit code 0, 1 or 2
and never raise.  Integers stay small so that any shape that does parse
as a matrix or a spec is cheap to verify or check.
"""

import contextlib
import io
import json

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


def _exit_code(command: str, path, text: str) -> int:
    path.write_text(text, encoding="utf-8")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main([command, str(path)])


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
