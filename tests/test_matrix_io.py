"""The matrix file writer and the file loaders against plain references.

``formats.dump_matrix_file`` renders the file directly; it must equal
``canonical_json`` (sorted keys, indent 2) of the payload that
``helpers.matrix_to_payload`` builds, byte for byte.  The loader shares
one value among entries with equal raw fields; it must accept, reject
and build exactly what one ``radical_from_json`` per entry does.  The
spec and metadata parsers parse each distinct literal once; they must
give what one ``parse_rational`` per literal gives.
"""

import json
import random
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
from helpers import matrix_from_payload_per_entry, matrix_to_payload, random_mixed_spec


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
SPANS = st.lists(st.integers(-3, 10**12), max_size=3).map(tuple)
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
        _, matrix = equal_norm_frame(eigenvalues, r_override=r)
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


def test_equal_raw_fields_of_different_types_load_as_one_value():
    entries = [
        {"row": 0, "col": 0, "sign": 1, "rad": {"num": 2, "den": 4}},
        {"row": 1, "col": 0, "sign": True, "rad": {"num": 2.0, "den": 4}},
        {"row": 0, "col": 1, "sign": "1", "rad": {"num": 1, "den": 2}},
    ]
    loaded = formats.matrix_from_payload({"dim": 2, "count": 2, "entries": entries})
    assert {value for _, _, value in loaded.entries} == {RadicalScalar(1, Fraction(1, 2))}
    with pytest.raises(ValueError, match="malformed matrix file"):
        formats.matrix_from_payload(
            {"dim": 2, "count": 2, "entries": [{**entries[0], "sign": [1]}]}
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
    # the metadata path takes strings only; the spec path takes str(v)
    for bad in (1, [1]):
        with pytest.raises(ValueError, match="malformed matrix file metadata"):
            formats.spec_from_matrix_metadata({"metadata": {**metadata, "eigenvalues": ["1", bad]}})
    with pytest.raises(ValueError, match="not a rational literal"):
        formats.parse_spec_payload({"dim": 2, "eigenvalues": ["1", [1]], "unit": True})
