import itertools
import random
from fractions import Fraction

import pytest

from spectral_tetris import (
    FrameSpec,
    SearchRequest,
    check_ready,
    find_ready_orderings,
    is_any_ordering_ready,
    pnstc,
    verify_matrix,
)
from helpers import random_ready_spec

F = Fraction


def _brute_force_pairs(norms, eigenvalues):
    """Test-only oracle: every distinct ordering pair, decided directly."""
    ready = set()
    for eig in set(itertools.permutations(eigenvalues)):
        for nsq in set(itertools.permutations(norms)):
            if check_ready(FrameSpec(eigenvalues=eig, norms_sq=nsq)).ready:
                ready.add((nsq, eig))
    return ready


def test_tight_four_element_family_has_no_ready_ordering():
    request = SearchRequest(norms_sq=(4, 4, 4, 1), eigenvalues=(F(13, 3),) * 3)
    result = find_ready_orderings(request)
    assert result.orderings == ()
    assert result.exhausted
    assert not result.budget_exhausted
    assert _brute_force_pairs((4, 4, 4, 1), (F(13, 3),) * 3) == set()


def test_five_norm_tight_family_contains_the_known_ordering():
    request = SearchRequest(
        norms_sq=(7, 7, 6, 1, 1), eigenvalues=(F(22, 3),) * 3, max_results=64
    )
    result = find_ready_orderings(request)
    norm_orders = {norms for norms, _ in result.orderings}
    assert (F(7), F(6), F(1), F(1), F(7)) in norm_orders
    assert result.exhausted


def test_eigenvalue_orders_for_fixed_decreasing_norms():
    fixed = (F(3), F(3), F(2), F(1))
    request = SearchRequest(
        norms_sq=fixed, eigenvalues=(4, 3, 2), max_results=1000
    )
    result = find_ready_orderings(request)
    assert result.exhausted
    found = {eig for norms, eig in result.orderings if norms == fixed}
    # boundary-equality blocks admit two orders beyond the obvious one
    assert found == {(F(3), F(4), F(2)), (F(2), F(4), F(3)), (F(3), F(2), F(4))}
    assert found == {eig for norms, eig in _brute_force_pairs(fixed, (4, 3, 2)) if norms == fixed}


def test_returned_orderings_are_sound_and_sorted():
    request = SearchRequest(
        norms_sq=(3, 3, 2, 1), eigenvalues=(4, 3, 2), max_results=1000
    )
    result = find_ready_orderings(request)
    assert list(result.orderings) == sorted(result.orderings, key=lambda p: (p[1], p[0]))
    for norms, eigenvalues in result.orderings:
        spec = FrameSpec(eigenvalues=eigenvalues, norms_sq=norms)
        assert check_ready(spec).ready
        assert verify_matrix(pnstc(spec), spec).matches_spec
    assert set(result.orderings) == _brute_force_pairs((3, 3, 2, 1), (4, 3, 2))


def test_search_results_are_deterministic():
    request = SearchRequest(norms_sq=(7, 7, 6, 1, 1), eigenvalues=(F(22, 3),) * 3)
    first = find_ready_orderings(request)
    second = find_ready_orderings(request)
    assert first == second


def test_combined_family_is_ready_only_off_monotone_orderings():
    norms = (210, 210, 180, 30, 30, 4, 4, 4, 1)
    eigenvalues = (220, 220, 220, 6, 4, 3)
    assert is_any_ordering_ready(
        SearchRequest(norms_sq=norms, eigenvalues=eigenvalues, budget=5_000_000)
    ) is True
    for nsq in (tuple(sorted(norms)), tuple(sorted(norms, reverse=True))):
        for eig in (tuple(sorted(eigenvalues)), tuple(sorted(eigenvalues, reverse=True))):
            assert not check_ready(FrameSpec(eigenvalues=eig, norms_sq=nsq)).ready


def test_budget_exhaustion_is_indeterminate():
    request = SearchRequest(
        norms_sq=(4, 4, 4, 1), eigenvalues=(F(13, 3),) * 3, budget=1
    )
    assert is_any_ordering_ready(request) is None
    result = find_ready_orderings(request)
    assert result.budget_exhausted and not result.exhausted


def test_trivial_pair_is_ready():
    assert is_any_ordering_ready(SearchRequest(norms_sq=(1, 1), eigenvalues=(1, 1))) is True


def test_mismatched_sums_are_rejected():
    with pytest.raises(ValueError):
        SearchRequest(norms_sq=(1, 1), eigenvalues=(3,))


def test_search_agrees_with_brute_force_on_random_multisets():
    rng = random.Random(1234)
    for _ in range(40):
        spec = random_ready_spec(rng, max_dim=3, max_count=5)
        request = SearchRequest(
            norms_sq=spec.norms_sq, eigenvalues=spec.eigenvalues, max_results=10_000
        )
        result = find_ready_orderings(request)
        assert result.exhausted
        assert set(result.orderings) == _brute_force_pairs(spec.norms_sq, spec.eigenvalues)
        # the source ordering is ready, so the search must have found it
        assert (spec.norms_sq, spec.eigenvalues) in set(result.orderings)


def test_search_agrees_with_brute_force_on_unconstructible_multisets():
    rng = random.Random(4321)
    seen_empty = 0
    for _ in range(60):
        count = rng.randint(2, 5)
        dim = rng.randint(1, 3)
        norms = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(count)]
        total = sum(norms, F(0))
        weights = [F(rng.randint(1, 9)) for _ in range(dim)]
        eigenvalues = tuple(total * w / sum(weights) for w in weights)
        request = SearchRequest(
            norms_sq=tuple(norms), eigenvalues=eigenvalues, max_results=10_000
        )
        result = find_ready_orderings(request)
        assert result.exhausted
        oracle = _brute_force_pairs(tuple(norms), eigenvalues)
        assert set(result.orderings) == oracle
        seen_empty += not oracle
    assert seen_empty > 0  # the population includes unconstructible multisets


def test_search_agrees_with_brute_force_on_multisets_with_repeats():
    # Few distinct values, so many prefixes reach the same remaining state.
    rng = random.Random(2718)
    memo_hits = 0
    for _ in range(30):
        norms = tuple(F(rng.choice((1, 2, 2, 3, 3))) for _ in range(rng.randint(4, 6)))
        weights = [rng.choice((1, 1, 2)) for _ in range(rng.randint(2, 3))]
        eigenvalues = tuple(sum(norms) * w / sum(weights) for w in weights)
        result = find_ready_orderings(
            SearchRequest(norms_sq=norms, eigenvalues=eigenvalues, max_results=10_000)
        )
        assert result.exhausted
        assert set(result.orderings) == _brute_force_pairs(norms, eigenvalues)
        memo_hits += result.memo_hits
    assert memo_hits > 0


def test_a_result_limit_returns_a_subset_of_the_full_result():
    norms, eigenvalues = (7, 7, 6, 1, 1, 3, 3), (F(28, 3),) * 3
    full = find_ready_orderings(
        SearchRequest(norms_sq=norms, eigenvalues=eigenvalues, max_results=10_000)
    )
    assert full.exhausted and len(full.orderings) > 8
    for limit in (1, 2, 5, 8, len(full.orderings), len(full.orderings) + 1):
        result = find_ready_orderings(
            SearchRequest(norms_sq=norms, eigenvalues=eigenvalues, max_results=limit)
        )
        assert set(result.orderings) <= set(full.orderings)
        assert len(result.orderings) == min(limit, len(full.orderings))


def test_largest_catalog_infeasible_walk():
    # The search-orderings catalog's largest infeasible walk: 36,666 nodes
    # without the dead-state memo.
    request = SearchRequest(norms_sq=(26, 20, 13, 12, 7, 4, 3, 3), eigenvalues=(24, 24, 22, 18))
    result = find_ready_orderings(request)
    assert result.orderings == ()
    assert result.exhausted and not result.budget_exhausted
    assert result.nodes_used == 2025
    assert result == find_ready_orderings(request)
