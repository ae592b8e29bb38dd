"""The matrix file writer and the file loaders against plain references.

``formats.dump_matrix_file`` renders the file directly; it must equal
``canonical_json`` (sorted keys, indent 2) of the payload that
``helpers.matrix_to_payload`` builds, byte for byte.  The loader shares
one value among entries with equal raw fields and builds it from ints;
it must accept, reject and build exactly what one Fraction per entry
(``helpers.radical_via_fraction``) does.  The
spec and metadata parsers parse each distinct literal once; they must
give what one ``parse_rational`` per literal gives.  The float CSV writer
formats only the nonzeros; it must equal the dense writer
``helpers.dense_float_csv`` byte for byte.
"""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tetris import (
    BlockKind,
    BlockRecord,
    FrameSpec,
    RadicalScalar,
    SpectralTetrisError,
    SynthesisMatrix,
    equal_norm_frame,
    parse_rational,
    pnstc,
    unit_tight,
)
from spectral_tetris import formats
from spectral_tetris.cli import main
from helpers import (
    dense_float_csv,
    matrix_from_payload_per_entry,
    matrix_to_payload,
    random_mixed_spec,
    random_ready_spec,
)


def assert_round_trip(matrix, spec=None):
    for reproducible in (False, True):
        text = formats.dump_matrix_file(matrix, spec, reproducible=reproducible)
        assert text == formats.canonical_json(matrix_to_payload(matrix, spec, reproducible))
        payload = json.loads(text)
        loaded = formats.matrix_from_payload(payload)
        assert loaded == matrix == matrix_from_payload_per_entry(payload)


BIG = st.integers(1, 10**300)
VALUES = st.builds(
    lambda sign, num, den: RadicalScalar(sign, Fraction(num, den) if sign else 0),
    st.sampled_from([1, -1, 0]),
    BIG,
    BIG,
)
INDICES = st.integers(-3, 10**12)
SPANS = st.tuples(INDICES, INDICES)
RECORDS = st.builds(BlockRecord, st.sampled_from(list(BlockKind)), SPANS, SPANS)
RATIONALS = st.builds(Fraction, BIG, BIG)
SPECS = st.builds(
    FrameSpec, st.lists(RATIONALS, min_size=1, max_size=4), st.lists(RATIONALS, min_size=1, max_size=4)
)


@st.composite
def matrices(draw):
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(1, 5))
    cells = draw(st.sets(st.tuples(st.integers(0, dim - 1), st.integers(0, count - 1))))
    entries = [(row, col, draw(VALUES)) for row, col in cells]
    log = draw(st.lists(RECORDS, max_size=3))
    return SynthesisMatrix(dim=dim, count=count, entries=entries, block_log=tuple(log))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix=matrices(), spec=st.none() | SPECS)
def test_writer_matches_the_json_encoder_on_any_matrix(matrix, spec):
    assert_round_trip(matrix, spec)


def test_writer_matches_the_json_encoder_on_the_constructors():
    for count, dim in ((599, 300), (7, 4), (12, 5), (5, 5)):
        assert_round_trip(unit_tight(count, dim))
    spec = FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 1, 4))
    assert_round_trip(pnstc(spec), spec)
    for eigenvalues, r in (((3, 2, 1), None), ((Fraction(7, 3), 2, Fraction(1, 5)), 7)):
        _, _, matrix = equal_norm_frame(eigenvalues, r_override=r)
        assert_round_trip(matrix)


def test_writer_matches_the_json_encoder_on_mixed_specs():
    rng = random.Random(2024)
    built = 0
    for _ in range(2000):
        spec = random_mixed_spec(rng)
        try:
            matrix = pnstc(spec)
        except SpectralTetrisError:
            continue
        assert_round_trip(matrix, spec)
        built += 1
    assert built > 1000


# Raw fields the per-entry loader converts with int(): non-reduced ratios,
# bools, floats, strings, and unhashable or missing values.
RAW = st.sampled_from([1, 2, 4, 0, -1, True, False, 1.0, 2.5, "1", "4", "x", None, [1], {"n": 1}])
ENTRIES = st.lists(
    st.fixed_dictionaries(
        {
            "row": st.sampled_from([0, 1, 1.0, True, "0", 2, [0]]),
            "col": st.sampled_from([0, 1, 2, 0.0, False]),
            "sign": RAW,
            "rad": st.fixed_dictionaries({"num": RAW, "den": RAW})
            | st.sampled_from([{"num": 2}, [], "rad"]),
        }
    ),
    max_size=6,
)


def _outcome(load, payload):
    try:
        return load(payload)
    except (ValueError, TypeError, KeyError, AttributeError, ZeroDivisionError):
        return "rejected"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(entries=ENTRIES)
def test_shared_values_load_exactly_what_per_entry_values_load(entries):
    payload = {"dim": 2, "count": 3, "entries": entries}
    expected = _outcome(matrix_from_payload_per_entry, payload)
    assert _outcome(formats.matrix_from_payload, payload) == expected


@pytest.mark.parametrize(
    "rows, cols", [([0], [0, 0]), ([0, 1, 2], [0, 1]), ([0, 0], []), ([0, 1], [0, 1.0, 2])]
)
def test_both_loaders_refuse_a_span_that_is_not_a_pair_alike(rows, cols):
    record = {"kind": "block-2x2", "rowSpan": rows, "colSpan": cols}
    payload = {"dim": 2, "count": 3, "entries": [], "metadata": {"blockLog": [record]}}
    messages = []
    for load in (formats.matrix_from_payload, matrix_from_payload_per_entry):
        with pytest.raises(ValueError, match="^malformed matrix file: block spans") as caught:
            load(payload)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_equal_raw_fields_of_different_types_load_as_one_value():
    entries = [
        {"row": 0, "col": 0, "sign": 1, "rad": {"num": 2, "den": 4}},
        {"row": 1, "col": 0, "sign": 1.0, "rad": {"num": 2.0, "den": 4}},
        {"row": 0, "col": 1, "sign": "1", "rad": {"num": 1, "den": 2}},
    ]
    loaded = formats.matrix_from_payload({"dim": 2, "count": 2, "entries": entries})
    assert {value for _, _, value in loaded.entries} == {RadicalScalar(1, Fraction(1, 2))}
    with pytest.raises(ValueError, match="malformed matrix file"):
        formats.matrix_from_payload(
            {"dim": 2, "count": 2, "entries": [{**entries[0], "sign": [1]}]}
        )
    # true equals 1, but a boolean is refused even where an equal int was read
    with pytest.raises(ValueError, match="True is not an integer"):
        formats.matrix_from_payload(
            {"dim": 2, "count": 2, "entries": [entries[0], {**entries[1], "sign": True}]}
        )


def test_spec_literals_parse_as_one_parse_rational_each():
    rng = random.Random(5)
    pool = ["1", "15", "1/5", "150", " 2 ", "10", "1/50", "015", "+3", "2/4", "4"]
    literals = [rng.choice(pool) for _ in range(300)]
    expected = tuple(parse_rational(text) for text in literals)
    spec, _ = formats.parse_spec_payload(
        {"dim": 300, "eigenvalues": literals, "norms_squared": literals + [7]}
    )
    assert spec.eigenvalues == expected and spec.norms_sq == expected + (7,)
    metadata = {"eigenvalues": literals, "norms_squared": literals}
    spec = formats.spec_from_matrix_metadata({"metadata": metadata})
    assert spec.eigenvalues == spec.norms_sq == expected
    # both paths take str(v): a number reads as its text, a list is refused
    spec = formats.spec_from_matrix_metadata({"metadata": {**metadata, "eigenvalues": ["1", 1]}})
    assert spec.eigenvalues == (1, 1)
    with pytest.raises(ValueError, match="not a rational literal"):
        formats.spec_from_matrix_metadata({"metadata": {**metadata, "eigenvalues": ["1", [1]]}})
    with pytest.raises(ValueError, match="not a rational literal"):
        formats.parse_spec_payload({"dim": 2, "eigenvalues": ["1", [1]], "unit": True})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_float_csv_writer_matches_the_dense_writer_on_ready_specs(seed):
    matrix = pnstc(random_ready_spec(random.Random(seed), max_dim=8, max_count=16))
    assert formats.dump_float_csv(matrix) == dense_float_csv(matrix)


def test_float_csv_writer_prints_an_underflow_as_its_signed_zero():
    tiny = RadicalScalar(-1, Fraction(1, 10**700))  # float() gives -0.0
    matrix = SynthesisMatrix(2, 3, [(0, 0, tiny), (1, 2, RadicalScalar(1, Fraction(2)))], ())
    assert formats.dump_float_csv(matrix) == dense_float_csv(matrix) == "-0,0,0\n0,0,1.4142135623730951\n"


def test_float_csv_loader_keeps_only_the_nonzeros(tmp_path):
    # a loader that holds all 1000 x 1999 floats peaks near 62 MB on this 4 MB file
    matrix = unit_tight(1999, 1000)
    path = tmp_path / "matrix.csv"
    path.write_text(formats.dump_float_csv(matrix), encoding="utf-8")
    tracemalloc.start()
    try:
        loaded = formats.load_float_csv(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert [(r, c) for r, c, _ in loaded.entries] == [(r, c) for r, c, _ in matrix.entries]


def test_construct_streams_the_float_csv(tmp_path, capsys):
    # holding the CSV text whole, then joined, peaks near 51 MB here; the
    # matrix file alone near 9 MB
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dim": 2000, "eigenvalues": ["3999/2000"] * 2000, "unit": True}))
    out, csv = tmp_path / "out.json", tmp_path / "out.csv"
    tracemalloc.start()
    try:
        assert main(["construct", str(spec), str(out), "--float-csv", str(csv)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert csv.read_text(encoding="utf-8") == formats.dump_float_csv(unit_tight(3999, 2000))
    assert capsys.readouterr().out == f"wrote 2000x3999 matrix (7997 nonzeros) to {out}\n"
