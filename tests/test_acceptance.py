"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance (exact
arithmetic unless noted) and prints a single PASS line on success; a
failed assertion is the FAIL line.  Run with ``pytest -v`` (or ``-s`` to
see the PASS lines inline).
"""

import random
import time
from fractions import Fraction

from spectral_tetris import (
    ConstructionStuckError,
    FrameSpec,
    SearchRequest,
    SpectralTetrisError,
    Violation,
    check_ready,
    easy_sufficient,
    equal_norm_frame,
    find_ready_orderings,
    pnstc,
    sparsity,
    stc,
    tight_ready,
    tight_sufficient,
    unit_tight_feasible,
    verify_matrix,
)
from helpers import cell, grid, random_mixed_spec, random_ready_spec

F = Fraction


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}: PASS")


def test_a01_demo_frame_reproduces_exactly():
    spec = FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 1, 4))
    best = min(
        _timed(lambda: pnstc(spec))[0] for _ in range(5)
    )
    matrix = pnstc(spec)
    assert grid(matrix) == [
        [cell(1, 9), cell(1, 4), cell(1, 1), cell(1, 1), cell(0, 0), cell(0, 0)],
        [cell(0, 0), cell(0, 0), cell(1, 2), cell(-1, 2), cell(0, 0), cell(0, 0)],
        [cell(0, 0), cell(0, 0), cell(0, 0), cell(0, 0), cell(1, 1), cell(0, 0)],
        [cell(0, 0), cell(0, 0), cell(0, 0), cell(0, 0), cell(0, 0), cell(1, 4)],
    ]
    assert sparsity(matrix) == (8, 2)
    assert best < 0.010, f"construction took {best * 1e3:.3f} ms"
    report("01 4x6 demo frame entrywise exact, nnz=8, <10ms")


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def test_a02_small_frames_and_the_failing_order():
    two_row = pnstc(FrameSpec(eigenvalues=(2, 5), norms_sq=(3, 3, 1)))
    assert grid(two_row) == [
        [cell(1, 1), cell(1, 1), cell(0, 0)],
        [cell(1, 2), cell(-1, 2), cell(1, 1)],
    ]
    three_row = pnstc(FrameSpec(eigenvalues=(3, 4, 2), norms_sq=(3, 3, 2, 1)))
    assert grid(three_row) == [
        [cell(1, 3), cell(0, 0), cell(0, 0), cell(0, 0)],
        [cell(0, 0), cell(1, 3), cell(0, 0), cell(1, 1)],
        [cell(0, 0), cell(0, 0), cell(1, 2), cell(0, 0)],
    ]
    failing = check_ready(FrameSpec(eigenvalues=(5, 2), norms_sq=(3, 3, 1)))
    assert not failing.ready
    assert failing.violation == (1, Violation.NORM_BOUND_II)
    report("02 two 3/4-column frames exact; reversed order rejected at k=1")


def test_a03_no_ordering_for_the_tight_four_element_family():
    elapsed, result = _timed(
        lambda: find_ready_orderings(
            SearchRequest(norms_sq=(4, 4, 4, 1), eigenvalues=(F(13, 3),) * 3)
        )
    )
    assert result.orderings == ()
    assert result.exhausted
    assert elapsed < 1.0, f"search took {elapsed:.3f} s"
    report("03 exhaustive search of the 13/3-tight family is empty, <1s")


def test_a04_five_norm_tight_family():
    assert tight_ready((7, 6, 1, 1, 7), 3).ready
    assert not tight_ready((7, 7, 6, 1, 1), 3).ready
    found = find_ready_orderings(
        SearchRequest(norms_sq=(7, 7, 6, 1, 1), eigenvalues=(F(22, 3),) * 3, max_results=1)
    )
    assert found.orderings
    report("04 permuted five-norm tight family: ready order found")


def test_a05_combined_family_needs_non_monotone_orderings():
    norms = (210, 180, 30, 30, 210, 4, 4, 4, 1)
    eigenvalues = (220, 220, 220, 3, 6, 4)
    spec = FrameSpec(eigenvalues=eigenvalues, norms_sq=norms)
    assert check_ready(spec).ready
    assert verify_matrix(pnstc(spec), spec).matches_spec
    norm_multiset = sorted(norms)
    eig_multiset = sorted(eigenvalues)
    monotone = 0
    for nsq in (tuple(norm_multiset), tuple(reversed(norm_multiset))):
        for eig in (tuple(eig_multiset), tuple(reversed(eig_multiset))):
            assert not check_ready(FrameSpec(eigenvalues=eig, norms_sq=nsq)).ready
            monotone += 1
    assert monotone == 4
    report("05 combined family ready off-monotone; all monotone pairings rejected")


def test_a06_closed_form_matches_actual_runs_below_redundancy_two():
    start = time.perf_counter()
    pairs = 0
    for dim in range(1, 31):
        for count in range(dim + 1, 2 * dim):
            verdict = unit_tight_feasible(count, dim)
            try:
                matrix = stc((F(count, dim),) * dim, count)
                built = True
                assert verify_matrix(matrix).orthogonal
            except ConstructionStuckError:
                built = False
            assert verdict.feasible == built, (count, dim)
            pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs == 435
    assert elapsed < 30.0, f"scan took {elapsed:.1f} s"
    report("06 closed-form feasibility matches 435 actual runs, <30s")


def test_a07_dimension_eight_feasible_counts():
    feasible = [
        count for count in range(9, 16) if unit_tight_feasible(count, 8).feasible
    ]
    assert feasible == [12, 14, 15]
    assert unit_tight_feasible(12, 8).reduced == (3, 2)
    assert unit_tight_feasible(12, 8).witness_l == 2
    assert unit_tight_feasible(14, 8).reduced == (7, 4)
    assert unit_tight_feasible(14, 8).witness_l == 4
    assert unit_tight_feasible(15, 8).reduced == (15, 8)
    assert unit_tight_feasible(15, 8).witness_l == 8
    report("07 dimension 8: feasible counts below 16 are exactly {12, 14, 15}")


def test_a08_exactness_over_ten_thousand_ready_specs():
    rng = random.Random(20240)
    for _ in range(10_000):
        spec = random_ready_spec(rng)
        matrix = pnstc(spec)
        result = verify_matrix(matrix, spec)
        assert result.matches_spec, spec
        nnz, per_col = sparsity(matrix)
        assert nnz <= 2 * spec.count
        assert per_col <= 2
    report("08 10^4 ready specs: exact sums, exact orthogonality, 2M-sparse")


def test_a09_construction_succeeds_iff_ready():
    rng = random.Random(60601)
    ready_count = 0
    for _ in range(10_000):
        spec = random_mixed_spec(rng)
        expected = check_ready(spec).ready
        try:
            pnstc(spec)
            built = True
        except SpectralTetrisError:
            built = False
        assert built == expected, spec
        ready_count += expected
    assert 0 < ready_count < 10_000  # both verdicts well represented
    report("09 10^4 mixed specs: construction succeeds exactly when ready")


def _random_increasing_spec(rng):
    dim = rng.randint(1, 5)
    count = rng.randint(dim, 2 * dim + 8)
    norms = sorted(F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(count))
    weights = sorted(F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(dim))
    total = sum(norms)
    scale = total / sum(weights)
    eigenvalues = tuple(w * scale for w in weights)
    return FrameSpec(eigenvalues=eigenvalues, norms_sq=tuple(norms))


def _random_decreasing_norms(rng):
    count = rng.randint(2, 14)
    dim = rng.randint(1, min(5, count))
    norms = sorted(
        (F(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(count)), reverse=True
    )
    return tuple(norms), dim


def test_a10a_increasing_screen_implies_readiness():
    rng = random.Random(777)
    easy_hits = 0
    for _ in range(10_000):
        spec = _random_increasing_spec(rng)
        if easy_sufficient(spec):
            easy_hits += 1
            assert check_ready(spec).ready, spec
    assert easy_hits > 0
    # the screen is one-directional: this increasing spec is ready but fails it
    converse = FrameSpec(eigenvalues=(2, 5), norms_sq=(1, 3, 3))
    assert check_ready(converse).ready and not easy_sufficient(converse)
    report(f"10a increasing screen implies readiness ({easy_hits} accepted of 10^4)")


def test_a10b_pair_screen_implies_readiness():
    # The pair bound a1^2 + a2^2 <= lambda certifies the *increasing*
    # ordering of the same norms: there every adjacent pair sums to at most
    # a1^2 + a2^2 and every single term to at most a1^2, so easy_sufficient
    # holds on it (a10a).  The decreasing ordering can still fail, but only
    # by NORM_BOUND_II: a row with positive deficit always has two columns
    # left, and the block's second-row mass is at most a1^2 + a2^2 - d < lambda,
    # so GAP_II cannot occur.  test_readiness.py::test_pair_screen_is_not_exact
    # pins a hand-checked decreasing witness.
    rng = random.Random(777)
    tight_hits = 0
    increasing_rejected = []
    decreasing_rejected = 0
    for _ in range(10_000):
        norms, dim = _random_decreasing_norms(rng)
        if tight_sufficient(norms, dim):
            tight_hits += 1
            if not tight_ready(tuple(reversed(norms)), dim).ready:
                increasing_rejected.append((norms, dim))
            decreasing = tight_ready(norms, dim)
            if not decreasing.ready:
                decreasing_rejected += 1
                assert decreasing.violation[1] is Violation.NORM_BOUND_II, (
                    norms,
                    dim,
                    decreasing,
                )
    assert tight_hits > 0
    # the converse direction does hold only one way: the permuted family is
    # constructible while its decreasing order fails the pair bound
    assert tight_ready((7, 6, 1, 1, 7), 3).ready
    assert not tight_sufficient((7, 7, 6, 1, 1), 3)
    assert not increasing_rejected, (
        f"{len(increasing_rejected)} of {tight_hits} screen-accepted multisets are not "
        f"constructible in increasing order; first witness: "
        f"norms_sq={increasing_rejected[0][0]}, dim={increasing_rejected[0][1]}"
    )
    report(
        f"10b pair screen implies a ready increasing ordering ({tight_hits} accepted of "
        f"10^4); decreasing order fails only by norm-bound-ii ({decreasing_rejected})"
    )


def test_a11_equal_norm_three_eigenvalue_frame():
    r, built, matrix = equal_norm_frame((3, 2, 1))
    assert r == 4
    assert matrix.count == 16
    spec = FrameSpec(eigenvalues=(3, 2, 1), norms_sq=(F(3, 8),) * 16)
    assert built == spec
    result = verify_matrix(matrix, spec)
    assert result.matches_spec
    assert result.frame_bounds == (1, 3)
    report("11 equal-norm frame: r=4, 16 columns of squared norm 3/8, exact")


def test_a12_small_eigenvalues_only_in_row_one_or_after_exact_completion():
    rng = random.Random(881)
    successes = 0
    for _ in range(10_000):
        dim = rng.randint(2, 6)
        count = rng.randint(dim, 2 * dim + 4)
        weights = [F(rng.randint(1, 30)) for _ in range(dim)]
        total = sum(weights)
        eigenvalues = tuple(count * w / total for w in weights)
        try:
            matrix = stc(eigenvalues, count)
        except ConstructionStuckError:
            continue
        successes += 1
        block_rows = {
            record.rows for record in matrix.block_log if record.rows[0] != record.rows[1]
        }
        for k in range(1, dim):
            if eigenvalues[k] < 1:
                # the row above must have completed without a block
                assert (k - 1, k) not in block_rows, (eigenvalues, count)
    assert successes > 1000
    report("12 unit-norm runs: sub-1 eigenvalues only after exact completions")
