import dataclasses
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tetris import (
    FrameSpec,
    SearchRequest,
    SearchResult,
    check_ready,
    find_ready_orderings,
    majorizes,
    pnstc,
    search,
    verify_matrix,
)
from helpers import atlas, mixed_radix_key, random_ready_spec, reference_walk, walk_alone

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
    result = find_ready_orderings(
        SearchRequest(norms_sq=norms, eigenvalues=eigenvalues, max_results=1, budget=5_000_000)
    )
    assert result.orderings
    for nsq in (tuple(sorted(norms)), tuple(sorted(norms, reverse=True))):
        for eig in (tuple(sorted(eigenvalues)), tuple(sorted(eigenvalues, reverse=True))):
            assert not check_ready(FrameSpec(eigenvalues=eig, norms_sq=nsq)).ready


def test_budget_exhaustion_is_indeterminate():
    for max_results in (1, 16):
        request = SearchRequest(
            norms_sq=(4, 4, 4, 1), eigenvalues=(F(13, 3),) * 3, max_results=max_results, budget=1
        )
        result = find_ready_orderings(request)
        assert not result.orderings
        assert result.budget_exhausted and not result.exhausted


def test_trivial_pair_is_ready():
    result = find_ready_orderings(
        SearchRequest(norms_sq=(1, 1), eigenvalues=(1, 1), max_results=1)
    )
    assert result.orderings == (((1, 1), (1, 1)),)


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


def test_search_agrees_with_brute_force_on_distinct_prime_denominators():
    # Norms over distinct primes: the walk's common denominator is then a
    # product of several of them.
    rng = random.Random(1931)
    outcomes = set()
    for _ in range(40):
        primes = rng.sample((2, 3, 5, 7, 11, 13, 17, 19), rng.randint(3, 5))
        norms = tuple(F(rng.randint(1, 3 * p), p) for p in primes)
        total = sum(norms)
        dim = rng.randint(1, 3)
        eigenvalues = [total * F(rng.randint(1, 4), 5 * dim) for _ in range(dim - 1)]
        eigenvalues.append(total - sum(eigenvalues, F(0)))
        request = SearchRequest(norms_sq=norms, eigenvalues=tuple(eigenvalues), max_results=10_000)
        result = find_ready_orderings(request)
        assert result.exhausted
        oracle = _brute_force_pairs(norms, tuple(eigenvalues))
        assert set(result.orderings) == oracle
        outcomes.add(bool(oracle))
    assert outcomes == {True, False}


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


_LARGEST_CATALOG_INFEASIBLE = SearchRequest(
    norms_sq=(26, 20, 13, 12, 7, 4, 3, 3), eigenvalues=(24, 24, 22, 18)
)


def _walked(request) -> SearchResult:
    """The search's result, or the walk alone's on a request that fails
    majorization, which the search answers with no walk: either way the
    request is walked as the search walked it before its gate."""
    if majorizes(request.eigenvalues, request.norms_sq):
        return find_ready_orderings(request)
    return walk_alone(request)


def test_largest_catalog_infeasible_walk():
    # 24 < 26: the eigenvalues fail to majorize the norms, so the search
    # answers exhausted with no walk
    request = _LARGEST_CATALOG_INFEASIBLE
    assert not majorizes(request.eigenvalues, request.norms_sq)
    result = find_ready_orderings(request)
    assert result.orderings == ()
    assert result.exhausted and not result.budget_exhausted
    assert result.nodes_used == 0
    assert result.memo_hits == 0
    assert result == find_ready_orderings(request)


def test_largest_catalog_infeasible_walk_without_the_gate():
    # The search-orderings catalog's largest infeasible walk: 36,666 nodes
    # without the dead-state memo.
    result = walk_alone(_LARGEST_CATALOG_INFEASIBLE)
    assert result.orderings == ()
    assert result.exhausted and not result.budget_exhausted
    assert result.nodes_used == 2025
    assert result.memo_hits == 1396
    assert result == walk_alone(_LARGEST_CATALOG_INFEASIBLE)


def test_a_request_that_fails_majorization_never_lifts_or_checks(monkeypatch):
    def refuse(*args):
        raise AssertionError("reached past the gate")

    monkeypatch.setattr(search._Walk, "_lift", refuse)
    monkeypatch.setattr(search, "check_ready", refuse)
    # 2 < 3, then fewer norms than eigenvalues (2 + 1 < 2 + 2), then the
    # largest catalog walk: each answered before any candidate or lift
    requests = [
        SearchRequest(norms_sq=(3, 1), eigenvalues=(2, 2)),
        SearchRequest(norms_sq=(2, 2), eigenvalues=(2, 1, 1)),
        dataclasses.replace(_LARGEST_CATALOG_INFEASIBLE, budget=1),
    ]
    for request in requests:
        assert not majorizes(request.eigenvalues, request.norms_sq)
        assert find_ready_orderings(request) == SearchResult(orderings=(), exhausted=True)


def test_unready_multiset_walk():
    # Majorizes, yet no ordering is ready: the walk decides every state.
    request = SearchRequest(
        norms_sq=(5, 1, 7, 1, 2, 9, 8, 8, 10), eigenvalues=(4, 37, 3, 5, 2)
    )
    result = find_ready_orderings(request)
    assert result.orderings == ()
    assert result.exhausted and not result.budget_exhausted
    assert result.nodes_used == 9743
    assert result.memo_hits == 6731


def _fractional_requests(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        norms = tuple(F(rng.randint(1, 20), rng.randint(1, 12)) for _ in range(rng.randint(4, 7)))
        weights = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
        eigenvalues = tuple(sum(norms) * w / sum(weights) for w in weights)
        yield SearchRequest(norms_sq=norms, eigenvalues=eigenvalues)


def test_the_walk_on_fractions_past_the_lift_limit_matches_the_int_walk(monkeypatch):
    # Past the limit the walk takes the same steps on the table's
    # Fractions: the same orderings, node counts and memo hits.  The
    # Fractions come from a patched ``_lift``, since a patched limit would
    # also shrink the dead set's room.
    requests = [
        _LARGEST_CATALOG_INFEASIBLE,
        SearchRequest(norms_sq=(7, 7, 6, 1, 1, 3, 3), eigenvalues=(F(28, 3),) * 3, max_results=100),
        *_fractional_requests(77, 60),
    ]
    on_ints = [_walked(request) for request in requests]
    assert any(result.nodes_used for result in on_ints)
    monkeypatch.setattr(search._Walk, "_lift", lambda walk: (walk.norm_values, walk.eig_values))
    assert [_walked(request) for request in requests] == on_ints


def test_the_lift_past_its_limit_returns_the_table_fractions(monkeypatch):
    walk = search._Walk(SearchRequest(norms_sq=(F(9, 2), F(1, 3), 2), eigenvalues=(F(41, 6),)))
    monkeypatch.setattr(search, "_LIFT_LIMIT_BITS", 3 * 4)  # D = 6: 3 bits, 4 values
    assert walk._lift() == ([27, 12, 2], [41])
    monkeypatch.setattr(search, "_LIFT_LIMIT_BITS", 3 * 4 - 1)
    norm_masses, eig_masses = walk._lift()
    assert norm_masses is walk.norm_values and eig_masses is walk.eig_values


def test_a_request_the_heuristics_answer_never_lifts(monkeypatch):
    def refuse(walk):
        raise AssertionError("lifted")

    monkeypatch.setattr(search._Walk, "_lift", refuse)
    result = find_ready_orderings(
        SearchRequest(norms_sq=(F(9, 2), F(1, 3)), eigenvalues=(F(29, 6),), max_results=1)
    )
    assert result.orderings and result.nodes_used == 0


_SMALL_VALUES = (F(1), F(2), F(3), F(1, 2), F(3, 2), F(1, 3), F(5, 3), F(3, 4))


@st.composite
def _small_requests(draw):
    norms = tuple(draw(st.lists(st.sampled_from(_SMALL_VALUES), min_size=1, max_size=7)))
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    eigenvalues = tuple(sum(norms) * w / sum(weights) for w in weights)
    return SearchRequest(
        norms_sq=norms,
        eigenvalues=eigenvalues,
        max_results=draw(st.sampled_from((1, 3, 10_000))),
        budget=draw(st.sampled_from((4, 60, 10**6))),
    )


def _table_counts(values) -> list[int]:
    counts = Counter(values)
    return [counts[value] for value in sorted(counts, reverse=True)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    request=_small_requests(),
    path=st.sampled_from(("int", "fraction", "capped")),
    room=st.integers(0, 12),
)
def test_the_int_keyed_walk_matches_the_tuple_keyed_reference(request, path, room):
    # The carried key is the mixed-radix value of the live counts at every
    # state the walk enters (a known-dead child is skipped before its
    # value is placed), and the result equals the tuple-keyed reference in
    # every field: on ints, on Fractions (limit below the lift's bits) and
    # with a dead set of ``room`` keys.  The hook wraps the step that
    # ``_Walk._steps`` makes.
    starts = _table_counts(request.norms_sq) + _table_counts(request.eigenvalues)
    width = mixed_radix_key(starts, starts).bit_length()
    values = set(request.norms_sq) | set(request.eigenvalues)
    common = math.lcm(*(value.denominator for value in values))
    lift_bits = common.bit_length() * (len(set(request.norms_sq)) + len(set(request.eigenvalues)))
    limit = {
        "int": search._LIFT_LIMIT_BITS,
        "fraction": lift_bits - 1,
        "capped": max(lift_bits, room * width),
    }[path]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_LIFT_LIMIT_BITS", limit)
        patch.setattr(search._Walk, "run", reference_walk)
        expected = _walked(request)

    walks, mass_types = set(), set()
    steps = search._Walk._steps

    def checked(walk):
        def live():
            return mixed_radix_key(walk.norm_counts + walk.eig_counts, starts)

        def step(mass, key):
            assert key == live()
            for child in children(mass, key):
                assert child[1] == live()
                mass_types.add(type(child[0]))
                yield child

        walks.add(walk)
        children, key, tally = steps(walk)
        return step, key, tally

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_LIFT_LIMIT_BITS", limit)
        patch.setattr(search._Walk, "_steps", checked)
        result = _walked(request)
    assert result == expected
    assert mass_types <= {Fraction if path == "fraction" else int}
    for walk in walks:
        assert len(walk.dead) <= limit // width


_SWEPT_REQUESTS = {
    # the largest catalog infeasible walk (2,025 nodes)
    "catalog": _LARGEST_CATALOG_INFEASIBLE,
    # the unready multiset of test_unready_multiset_walk (9,743 nodes)
    "unready": SearchRequest(norms_sq=(5, 1, 7, 1, 2, 9, 8, 8, 10), eigenvalues=(4, 37, 3, 5, 2)),
    # the README spec, stopped by its result limit
    "readme": SearchRequest(norms_sq=(9, 4, 3, 3, 1, 4), eigenvalues=(15, 4, 1, 4), max_results=16),
}


@pytest.mark.parametrize("name", sorted(_SWEPT_REQUESTS))
def test_every_budget_stops_where_the_reference_stops(name):
    # The step charges each child before its dead-set lookup, so a budget
    # can stop the walk at any child, dead or live: every budget from 1 to
    # 64, then a stride up to the full walk's nodes_used + 1, gives the
    # reference's result in every field.
    request = _SWEPT_REQUESTS[name]
    full = _walked(request)
    last = full.nodes_used + 1
    budgets = sorted({*range(1, 65), *range(65, last + 1, max(1, last // 40)), *range(last - 2, last + 1)})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search._Walk, "run", reference_walk)
        expected = [_walked(dataclasses.replace(request, budget=budget)) for budget in budgets]
    results = [_walked(dataclasses.replace(request, budget=budget)) for budget in budgets]
    assert results == expected
    for budget, result in zip(budgets, results):
        assert result.budget_exhausted == (budget < full.nodes_used)
        assert result == full or budget < full.nodes_used


def test_the_atlas_box_is_pinned_and_the_gate_loses_no_ordering(monkeypatch):
    # Every integer pair of the box (2-3 eigenvalues, at most 6 squared
    # norms, values 1..8), each searched for one ordering: by the walk
    # alone, by the search and by the search with its gate bypassed.  A
    # pair is unready when it majorizes yet the walk decides every
    # ordering and finds none.  No pair that fails majorization has a
    # ready ordering, so the gate changes no answer: Schur-Horn, checked
    # on the whole box.
    requests = [SearchRequest(norms_sq=n, eigenvalues=e, max_results=1) for n, e in atlas()]
    exists = [majorizes(request.eigenvalues, request.norms_sq) for request in requests]
    walked = [walk_alone(request) for request in requests]
    gated = [find_ready_orderings(request) for request in requests]
    monkeypatch.setattr(search, "_dominates", lambda eig_pairs, norm_pairs: True)
    ungated = [find_ready_orderings(request) for request in requests]

    # each walk found its one ordering or decided every one
    assert all(walk.orderings or walk.exhausted for walk in walked)
    assert not any(walk.budget_exhausted for walk in walked)
    for majorizing, walk in zip(exists, walked):
        assert majorizing or walk.orderings == ()
    for gate, no_gate in zip(gated, ungated):
        assert (gate.orderings, gate.exhausted) == (no_gate.orderings, no_gate.exhausted)
    unready = sorted(
        [[int(v) for v in request.norms_sq], [int(v) for v in request.eigenvalues]]
        for request, majorizing, walk in zip(requests, exists, walked)
        if majorizing and not walk.orderings
    )
    assert (len(requests), sum(exists), len(unready)) == (8134, 7079, 53)
    digest = hashlib.sha256(json.dumps(unready).encode("utf-8")).hexdigest()
    assert digest == "0394f817503cc92cd3c32e0c80742b56cfba22c2bc7b8a9fc4c70809af5cd59f"
