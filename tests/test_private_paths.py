"""The private constructors against the public ones.

``pnstc`` builds its :class:`SynthesisMatrix` and every
:class:`BlockRecord` past the public constructors' checks, and the matrix
loader builds its records so.  Each object must equal, and hash
like, what the public constructor builds from the same values, and must
set every attribute the public constructor sets.  A :class:`FrameSpec`
has one constructor: the spec file parser parses each distinct literal
once, and its spec must equal, pair for pair, the spec of every item
parsed anew; the ordering search builds one spec per heuristic candidate
it checks and none in its walk, and none at all for multisets that fail
majorization.  A long list's exact total
(``scalar.sum_ratios``) adds each distinct pair once; it must equal the
sum of one term per value.
"""

import importlib.util
import json
import random
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tetris import (
    Block2x2,
    BlockKind,
    BlockRecord,
    FrameSpec,
    SearchRequest,
    SpectralTetrisError,
    SynthesisMatrix,
    build_block,
    find_ready_orderings,
    formats,
    majorizes,
    pnstc,
    search,
    unit_tight,
)
from spectral_tetris.scalar import _COUNT_FROM, format_rational, sum_ratios
from helpers import (
    SEARCH_FAMILIES,
    fold_ratios,
    matrix_to_payload,
    random_mixed_spec,
    spec_parse_outcomes,
)

F = Fraction
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

DEGENERATE = FrameSpec(eigenvalues=(3, 4, 2), norms_sq=(3, 3, 2, 1))
UNIT_TIGHT = [(2 * dim + extra, dim) for dim in (1, 2, 3, 4, 7, 12) for extra in range(-1, 3)]


def _public_twin(matrix: SynthesisMatrix) -> SynthesisMatrix:
    records = [BlockRecord(r.kind, list(r.rows), list(r.cols)) for r in matrix.block_log]
    return SynthesisMatrix(matrix.dim, matrix.count, list(matrix.entries), records)


def _spec_payload(spec: FrameSpec) -> dict:
    return {
        "dim": spec.dim,
        "eigenvalues": [format_rational(v) for v in spec.eigenvalues],
        "norms_squared": [format_rational(v) for v in spec.norms_sq],
    }


def _built_matrices():
    """The matrices ``pnstc`` builds from 2,000 mixed draws, the
    degenerate-block spec and small unit-tight specs."""
    rng = random.Random(2024)
    for spec in [DEGENERATE, *(random_mixed_spec(rng) for _ in range(2000))]:
        try:
            yield pnstc(spec)
        except SpectralTetrisError:
            pass
    for count, dim in UNIT_TIGHT:
        try:
            yield unit_tight(count, dim)
        except SpectralTetrisError:
            pass


def test_pnstc_equals_and_hashes_as_its_public_rebuild():
    built = degenerate = 0
    for matrix in _built_matrices():
        twin = _public_twin(matrix)
        assert matrix == twin and hash(matrix) == hash(twin)
        cells = [(col, row) for row, col, _ in matrix.entries]
        assert all(a < b for a, b in zip(cells, cells[1:]))  # strictly increasing
        built += 1
        degenerate += any(r.kind is BlockKind.DEGENERATE_BLOCK for r in matrix.block_log)
    assert built > 1000 and degenerate > 100, (built, degenerate)


def _count_checks(monkeypatch) -> dict:
    counts = {SynthesisMatrix: 0, BlockRecord: 0}
    for cls in counts:
        original = cls.__post_init__

        def counted(self, cls=cls, original=original):
            counts[cls] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def test_the_construct_path_runs_each_public_check_once_at_most(monkeypatch):
    counts = _count_checks(monkeypatch)
    matrix = pnstc(DEGENERATE)
    assert counts == {SynthesisMatrix: 0, BlockRecord: 0}
    loaded = formats.matrix_from_payload(matrix_to_payload(matrix, DEGENERATE))
    assert counts == {SynthesisMatrix: 1, BlockRecord: 0}
    assert loaded == matrix and len(loaded.block_log) == 3


@pytest.mark.parametrize("name", sorted(SEARCH_FAMILIES))
def test_the_search_builds_one_spec_per_checked_candidate(monkeypatch, name):
    norms, eigenvalues = SEARCH_FAMILIES[name]
    request = SearchRequest(norms_sq=norms.split(), eigenvalues=eigenvalues.split())
    exists = majorizes(request.eigenvalues, request.norms_sq)
    built, checked = [], []
    original_init, original_check = FrameSpec.__post_init__, search.check_ready

    def counted_init(spec):
        built.append(spec)
        original_init(spec)

    def counted_check(spec):
        checked.append(spec)
        return original_check(spec)

    monkeypatch.setattr(FrameSpec, "__post_init__", counted_init)
    monkeypatch.setattr(search, "check_ready", counted_check)
    find_ready_orderings(request)
    if not exists:  # the majorization gate answers before any candidate
        assert built == checked == []
        return
    # one spec per distinct heuristic candidate, none by the walk
    assert len(built) == len(checked) >= 1
    assert all(a is b for a, b in zip(built, checked))


@pytest.mark.parametrize(
    "norms_sq, eigenvalues, phrase",
    [
        ((0, 1), (1,), "squared norms must be positive"),
        ((3, -1), (2,), "squared norms must be positive"),
        ((1, 1), (0, 2), "eigenvalues must be positive"),
        ((1,), (-1, 2), "eigenvalues must be positive"),
        ((0, 2), (0, 2), "eigenvalues must be positive"),
        ((), (), "eigenvalues and squared norms must be nonempty"),
    ],
)
def test_the_search_keeps_the_public_spec_checks(norms_sq, eigenvalues, phrase):
    # the request refuses them itself, before any walk
    with pytest.raises(ValueError, match=phrase):
        SearchRequest(norms_sq=norms_sq, eigenvalues=eigenvalues)


def test_private_constructors_set_every_attribute_the_public_ones_set():
    spec = FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 1, 4))
    matrix = pnstc(spec)
    loaded = formats.matrix_from_payload(matrix_to_payload(matrix, spec))
    parsed, _ = formats.parse_spec_payload(_spec_payload(spec))
    pairs = {"_eigen_pairs", "_norm_pairs"}
    for private, public, extra in [
        (matrix, _public_twin(matrix), set()),
        (matrix.block_log[-1], BlockRecord(BlockKind.SINGLETON, (0, 0), (0, 0)), set()),
        (build_block(F(2), F(3), F(4)), Block2x2(((1, 1), (1, -1)), False), set()),
        (loaded.block_log[-1], BlockRecord(BlockKind.SINGLETON, (0, 0), (0, 0)), set()),
        (parsed, FrameSpec(eigenvalues=(1,), norms_sq=(1,)), pairs),
        (formats.spec_from_matrix_metadata(matrix_to_payload(matrix, spec)), spec, pairs),
    ]:
        declared = {field.name for field in fields(type(public))} | extra
        assert set(vars(private)) == set(vars(public)) == declared, type(public)


# reduced pairs over coprime and shared denominators, repeated in a list
DENOMINATORS = st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12, 35, 2**61 - 1])
PAIRS = st.builds(lambda num, den: F(num, den), st.integers(-60, 60), DENOMINATORS).map(
    lambda value: (value.numerator, value.denominator)
)
PAIR_LISTS = st.lists(PAIRS, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=60) if pool else st.just([])
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs=PAIR_LISTS, repeat=st.sampled_from([1, 2, 12, 1000]))
def test_counted_sum_is_the_sum_of_every_term(pairs, repeat):
    pairs = pairs * repeat
    assert sum_ratios(pairs) == fold_ratios(pairs)


def test_counted_sum_on_both_sides_of_the_count_cutoff():
    for length in (_COUNT_FROM - 1, _COUNT_FROM, _COUNT_FROM + 1):
        pairs = ([(1, 6), (5, 6), (2, 1)] * length)[:length]
        assert sum_ratios(pairs) == fold_ratios(pairs)


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _assert_parsed_as_public(payload):
    got, public = spec_parse_outcomes(payload)
    assert got == public
    if not isinstance(got[0], type):
        assert type(got[0]) is FrameSpec


def test_standing_pool_specs_parse_as_their_public_rebuild(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    items = workloads.tight_large(1) + workloads.mixed_rational(1)
    for item in items:
        _assert_parsed_as_public(json.loads(workloads.spec_text(item.payload)))
    assert len(items) == 576


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 0, "eigenvalues": [], "norms_squared": ["1"]},
        {"dim": 2, "eigenvalues": ["1", "0"], "norms_squared": ["1"]},
        {"dim": 1, "eigenvalues": ["-1"], "norms_squared": ["0"]},
        {"dim": 1, "eigenvalues": ["1"], "norms_squared": ["2", "-2/3", "2"]},
        {"dim": 1, "eigenvalues": ["1"], "norms": ["0.5", "-0.5", "0.50"]},
        {"dim": 2, "eigenvalues": ["3/2", "1/2"], "unit": True},
    ],
)
def test_refused_and_unit_specs_parse_as_their_public_rebuild(payload):
    _assert_parsed_as_public(payload)
