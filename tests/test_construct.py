import random
import re
from fractions import Fraction

import pytest

from spectral_tetris import (
    BlockKind,
    ConstructionStuckError,
    DegenerateSpectrumError,
    FrameSpec,
    InfeasibleError,
    InvalidDimsError,
    NotSortedError,
    OutOfRangeError,
    RadicalScalar,
    SynthesisMatrix,
    TraceMismatchError,
    Violation,
    equal_norm_frame,
    k_inequality_scan,
    pnstc,
    stc,
    unit_tight,
    unit_tight_feasible,
    verify_matrix,
)
from helpers import cell, grid, k_inequality_scan_loop, random_ready_spec

F = Fraction


def test_six_element_frame_reproduces_exactly():
    matrix = pnstc(FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 1, 4)))
    assert grid(matrix) == [
        [cell(1, 9), cell(1, 4), cell(1, 1), cell(1, 1), cell(0, 0), cell(0, 0)],
        [cell(0, 0), cell(0, 0), cell(1, 2), cell(-1, 2), cell(0, 0), cell(0, 0)],
        [cell(0, 0), cell(0, 0), cell(0, 0), cell(0, 0), cell(1, 1), cell(0, 0)],
        [cell(0, 0), cell(0, 0), cell(0, 0), cell(0, 0), cell(0, 0), cell(1, 4)],
    ]
    assert len(matrix.entries) == 8


def test_two_row_frame_reproduces_exactly():
    matrix = pnstc(FrameSpec(eigenvalues=(2, 5), norms_sq=(3, 3, 1)))
    assert grid(matrix) == [
        [cell(1, 1), cell(1, 1), cell(0, 0)],
        [cell(1, 2), cell(-1, 2), cell(1, 1)],
    ]


def test_degenerate_block_zeros_reproduce_exactly():
    matrix = pnstc(FrameSpec(eigenvalues=(3, 4, 2), norms_sq=(3, 3, 2, 1)))
    assert grid(matrix) == [
        [cell(1, 3), cell(0, 0), cell(0, 0), cell(0, 0)],
        [cell(0, 0), cell(1, 3), cell(0, 0), cell(1, 1)],
        [cell(0, 0), cell(0, 0), cell(1, 2), cell(0, 0)],
    ]
    kinds = [record.kind for record in matrix.block_log]
    assert BlockKind.DEGENERATE_BLOCK in kinds


def test_construction_fails_safely_without_precheck():
    with pytest.raises(ConstructionStuckError) as err:
        pnstc(FrameSpec(eigenvalues=(5, 2), norms_sq=(3, 3, 1)))
    assert err.value.reason == "block-infeasible"
    assert err.value.violation == (1, Violation.NORM_BOUND_II)
    assert (err.value.row, err.value.col) == (0, 1)
    # row 1 closes with deficit 1/3; its block over columns 2, 3 puts 23/3 into row 2
    with pytest.raises(ConstructionStuckError) as err:
        pnstc(FrameSpec(eigenvalues=(F(13, 3),) * 3, norms_sq=(4, 4, 4, 1)))
    assert err.value.reason == "gap-ii"
    assert err.value.violation == (1, Violation.GAP_II)
    assert (err.value.row, err.value.col) == (0, 1)
    with pytest.raises(TraceMismatchError):
        pnstc(FrameSpec(eigenvalues=(5, 2), norms_sq=(3, 3)))


def test_block_log_covers_every_nonzero_entry():
    matrix = pnstc(FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 1, 4)))
    covered = set()
    for record in matrix.block_log:
        for r in range(record.rows[0], record.rows[1] + 1):
            for c in range(record.cols[0], record.cols[1] + 1):
                covered.add((r, c))
    assert {(r, c) for r, c, _ in matrix.entries} <= covered


def test_stc_examples():
    assert grid(stc((2, 2), 4)) == [
        [cell(1, 1), cell(1, 1), cell(0, 0), cell(0, 0)],
        [cell(0, 0), cell(0, 0), cell(1, 1), cell(1, 1)],
    ]
    assert grid(stc((F(3, 2), F(3, 2)), 3)) == [
        [cell(1, 1), cell(1, F(1, 4)), cell(1, F(1, 4))],
        [cell(0, 0), cell(1, F(3, 4)), cell(-1, F(3, 4))],
    ]
    assert grid(stc((1, 1), 2)) == [
        [cell(1, 1), cell(0, 0)],
        [cell(0, 0), cell(1, 1)],
    ]
    with pytest.raises(TraceMismatchError):
        stc((2, 2), 5)


def test_stc_matches_prescribed_norms_route_with_unit_columns():
    rng = random.Random(5150)
    for _ in range(200):
        dim = rng.randint(1, 5)
        count = rng.randint(2 * dim, 2 * dim + 6)
        weights = [F(rng.randint(2, 9)) for _ in range(dim)]
        # keep every eigenvalue at least 2 so the run always succeeds
        extra = count - sum(weights)
        if extra < 0:
            continue
        eigenvalues = [weights[0] + extra] + weights[1:]
        unit_spec = FrameSpec(eigenvalues=eigenvalues, norms_sq=(F(1),) * count)
        assert grid(stc(eigenvalues, count)) == grid(pnstc(unit_spec))


def test_unit_blocks_have_the_closed_form_entries():
    # every block in a unit-norm run is [[s, s], [t, -t]] with s^2 = x/2
    # and t^2 = 1 - x/2 where x is the row residual it absorbs
    matrix = stc((F(3, 2), F(7, 4), F(7, 4)), 5)
    for record in matrix.block_log:
        if record.kind is BlockKind.SINGLETON:
            continue
        r0, c0 = record.rows[0], record.cols[0]
        top_left = matrix.entry(r0, c0)
        x = 2 * top_left.square()
        assert matrix.entry(r0, c0 + 1).square() == x / 2
        assert matrix.entry(r0 + 1, c0).square() == 1 - x / 2
        assert matrix.entry(r0 + 1, c0 + 1).square() == 1 - x / 2
        assert matrix.entry(r0 + 1, c0 + 1).sign == -1


def test_unit_tight_feasible_examples():
    verdict = unit_tight_feasible(12, 8)
    assert verdict.feasible and verdict.reduced == (3, 2) and verdict.witness_l == 2
    verdict = unit_tight_feasible(13, 8)
    assert not verdict.feasible and verdict.failing_k == 2
    verdict = unit_tight_feasible(16, 8)
    assert verdict.feasible and verdict.witness_l is None
    verdict = unit_tight_feasible(5, 5)
    assert verdict.feasible and verdict.witness_l == 1
    with pytest.raises(InvalidDimsError):
        unit_tight_feasible(7, 8)


def test_k_inequality_scan_examples():
    assert k_inequality_scan(13, 8) == 2
    assert k_inequality_scan(3, 2) is None
    assert k_inequality_scan(7, 4) is None
    with pytest.raises(OutOfRangeError):
        k_inequality_scan(16, 8)
    with pytest.raises(OutOfRangeError):
        k_inequality_scan(8, 8)


def test_k_inequality_scan_agrees_with_the_row_scan():
    for dim in range(2, 151):
        for count in range(dim + 1, 2 * dim):
            assert k_inequality_scan(count, dim) == k_inequality_scan_loop(count, dim), (count, dim)
    # q up to 10^4, half of them 2q - 3 over q, whose first failing row is
    # near q/3 rather than near 1
    rng = random.Random(7)
    for _ in range(100):
        dim = rng.randint(5, 10**4)
        count = 2 * dim - 3 if rng.random() < 0.5 else rng.randint(dim + 1, 2 * dim - 1)
        assert k_inequality_scan(count, dim) == k_inequality_scan_loop(count, dim), (count, dim)


def test_unit_tight_small_cases():
    assert grid(unit_tight(3, 2)) == [
        [cell(1, 1), cell(1, F(1, 4)), cell(1, F(1, 4))],
        [cell(0, 0), cell(1, F(3, 4)), cell(-1, F(3, 4))],
    ]
    assert grid(unit_tight(2, 1)) == [[cell(1, 1), cell(1, 1)]]
    with pytest.raises(InfeasibleError):
        unit_tight(13, 8)


def test_unit_tight_decomposes_along_the_gcd():
    whole = unit_tight(6, 4)
    part = unit_tight(3, 2)
    for r in range(4):
        for c in range(6):
            br, bc = r // 2, c // 3
            if br == bc:
                assert whole.entry(r, c) == part.entry(r % 2, c % 3)
            else:
                assert whole.entry(r, c).is_zero()
    report = verify_matrix(whole)
    assert report.frame_bounds == (F(3, 2), F(3, 2))


def test_equal_norm_frame_examples():
    r, matrix = equal_norm_frame((3, 2, 1))
    assert r == 4
    assert matrix.count == 16
    spec = FrameSpec(eigenvalues=(3, 2, 1), norms_sq=(F(3, 8),) * 16)
    assert verify_matrix(matrix, spec).matches_spec

    r, matrix = equal_norm_frame((2, 2))
    assert r == 3 and matrix.count == 9
    assert verify_matrix(matrix, FrameSpec((2, 2), (F(4, 9),) * 9)).matches_spec

    r, matrix = equal_norm_frame((1, 1))
    assert r == 3 and matrix.count == 9
    assert verify_matrix(matrix, FrameSpec((1, 1), (F(2, 9),) * 9)).matches_spec


def test_equal_norm_frame_validation():
    with pytest.raises(DegenerateSpectrumError):
        equal_norm_frame((5,))
    with pytest.raises(NotSortedError):
        equal_norm_frame((1, 2))
    with pytest.raises(ValueError):
        equal_norm_frame((3, 2, 1), r_override=0)


def test_equal_norm_frame_refuses_more_vectors_than_the_limit():
    # 317^2 = 100,489 vectors; the limit is checked before anything is built
    with pytest.raises(ValueError, match="limit of 100000"):
        equal_norm_frame((3, 2, 1), r_override=317)


def test_equal_norm_frame_accepts_a_larger_override():
    r, matrix = equal_norm_frame((3, 2, 1), r_override=5)
    assert r == 5 and matrix.count == 25
    spec = FrameSpec(eigenvalues=(3, 2, 1), norms_sq=(F(6, 25),) * 25)
    assert verify_matrix(matrix, spec).matches_spec


def test_equal_norm_frame_with_too_small_override_fails_safely():
    with pytest.raises(ConstructionStuckError):
        equal_norm_frame((3, 2, 1), r_override=1)


def test_random_ready_specs_construct_and_verify():
    rng = random.Random(31337)
    for _ in range(500):
        spec = random_ready_spec(rng)
        matrix = pnstc(spec)
        assert verify_matrix(matrix, spec).matches_spec


def test_small_eigenvalues_only_after_exact_completion():
    # a successful unit-norm run can place an eigenvalue below 1 only in
    # the first row or right after a row that completed without a block
    rng = random.Random(424242)
    checked = 0
    for _ in range(2000):
        dim = rng.randint(2, 6)
        count = rng.randint(dim, 2 * dim + 4)
        weights = [F(rng.randint(1, 30)) for _ in range(dim)]
        total = sum(weights)
        eigenvalues = tuple(count * w / total for w in weights)
        try:
            matrix = stc(eigenvalues, count)
        except ConstructionStuckError:
            continue
        block_rows = {
            record.rows for record in matrix.block_log if record.rows[0] != record.rows[1]
        }
        for k in range(1, dim):
            if eigenvalues[k] < 1:
                assert (k - 1, k) not in block_rows
        checked += 1
    assert checked > 200


def test_synthesis_matrix_is_a_hashable_value():
    matrix = unit_tight(7, 4)
    assert isinstance(matrix.entries, tuple)
    assert [(c, r) for r, c, _ in matrix.entries] == sorted((c, r) for r, c, _ in matrix.entries)
    shuffled = list(matrix.entries)
    random.Random(5).shuffle(shuffled)
    again = SynthesisMatrix(matrix.dim, matrix.count, tuple(shuffled), matrix.block_log)
    assert again == matrix
    assert hash(again) == hash(matrix)
    with pytest.raises(AttributeError):
        matrix.entries = ()


def test_synthesis_matrix_drops_zeros_and_reads_cells():
    one, zero = RadicalScalar(1, F(1)), RadicalScalar.zero()
    matrix = SynthesisMatrix(2, 3, ((1, 2, one), (0, 1, zero), (0, 0, -one)), ())
    assert matrix.entries == ((0, 0, -one), (1, 2, one))
    assert matrix.entry(0, 0) == -one
    assert matrix.entry(1, 2) == one
    assert matrix.entry(0, 1) == zero
    assert matrix.entry(1, 0) == zero


@pytest.mark.parametrize(
    "dim, count, cells, phrase",
    [
        (0, 2, (), "must be positive"),
        (2, 0, (), "must be positive"),
        (2, 2, ((2, 0, 1),), "entry (2, 0) lies outside the 2x2 matrix"),
        (2, 2, ((0, -1, 1),), "entry (0, -1) lies outside the 2x2 matrix"),
        (2, 2, ((1, 1, 1), (0, 0, 1), (1, 1, 4)), "entry (1, 1) appears twice"),
        (2, 2, ((1, 1, 0), (1, 1, 4)), "entry (1, 1) appears twice"),
        (2, 2, ((1, 1, 4), (1, 1, 0)), "entry (1, 1) appears twice"),
    ],
)
def test_synthesis_matrix_rejects_bad_cells(dim, count, cells, phrase):
    entries = tuple((r, c, RadicalScalar.sqrt(q)) for r, c, q in cells)
    with pytest.raises(ValueError, match=re.escape(phrase)):
        SynthesisMatrix(dim, count, entries, ())
