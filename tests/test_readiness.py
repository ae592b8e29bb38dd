import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_tetris import (
    ConstructionStuckError,
    FrameSpec,
    NotSortedError,
    TraceMismatchError,
    Violation,
    check_ready,
    easy_sufficient,
    forced_partition,
    majorizes,
    pnstc,
    tight_ready,
    tight_sufficient,
    unit_ready,
    verify_matrix,
)
from spectral_tetris.readiness import _cursor
from helpers import (
    majorizes_via_fraction,
    pnstc_succeeds,
    random_mixed_spec,
    random_ready_spec,
    reference_cursor,
    reference_partition,
)

F = Fraction


def test_frame_spec_validation():
    with pytest.raises(ValueError):
        FrameSpec(eigenvalues=(1, 0), norms_sq=(1,))
    with pytest.raises(ValueError):
        FrameSpec(eigenvalues=(1,), norms_sq=())


@pytest.mark.parametrize("bad", [F(0), F(-1, 3), F(-2)])
def test_frame_spec_rejects_nonpositive_fractions(bad):
    with pytest.raises(ValueError, match="^eigenvalues must be positive$"):
        FrameSpec(eigenvalues=(F(1, 2), bad), norms_sq=(F(1, 2),))
    with pytest.raises(ValueError, match="^squared norms must be positive$"):
        FrameSpec(eigenvalues=(F(1, 2),), norms_sq=(F(1, 2), bad))


def test_frame_spec_shares_one_int_pair_per_distinct_value():
    ones = (F(1), 1, "1", F(2, 2), F(1))
    halves = (F(1, 2), "1/2", F(2, 4), F(1, 2))
    spec = FrameSpec(eigenvalues=(F(7, 4),) * 4, norms_sq=ones + halves)
    for values, pairs in ((spec.eigenvalues, spec._eigen_pairs), (spec.norms_sq, spec._norm_pairs)):
        assert pairs == tuple((v.numerator, v.denominator) for v in values)
    assert len({id(pair) for pair in spec._norm_pairs}) == 2
    assert len({id(pair) for pair in spec._eigen_pairs}) == 1
    # the pairs are not fields: equality, hashing and repr see the Fractions
    other = FrameSpec(eigenvalues=(F(7, 4),) * 4, norms_sq=(1,) * 5 + (F(1, 2),) * 4)
    assert spec == other and hash(spec) == hash(other)
    assert [field.name for field in dataclasses.fields(spec)] == ["eigenvalues", "norms_sq"]
    assert "pairs" not in repr(spec)


def test_forced_partition_examples():
    assert forced_partition(
        FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 1, 4))
    ).cuts == (2, 4, 5, 6)
    assert forced_partition(FrameSpec(eigenvalues=(2, 5), norms_sq=(3, 3, 1))).cuts == (0, 3)
    assert forced_partition(FrameSpec(eigenvalues=(1,), norms_sq=(1,))).cuts == (1,)


def test_forced_partition_needs_the_trace_identity():
    with pytest.raises(TraceMismatchError):
        forced_partition(FrameSpec(eigenvalues=(2,), norms_sq=(1,)))


def test_check_ready_accepts_the_demo_spec():
    report = check_ready(FrameSpec(eigenvalues=(15, 4, 1, 4), norms_sq=(9, 4, 3, 3, 1, 4)))
    assert report.ready
    assert report.partition.cuts == (2, 4, 5, 6)
    assert report.violation is None


def test_check_ready_rejects_the_reversed_two_row_spec():
    report = check_ready(FrameSpec(eigenvalues=(5, 2), norms_sq=(3, 3, 1)))
    assert not report.ready
    assert report.violation == (1, Violation.NORM_BOUND_II)
    assert "1" in report.detail and "2" in report.detail


def test_check_ready_accepts_the_swapped_two_row_spec():
    assert check_ready(FrameSpec(eigenvalues=(2, 5), norms_sq=(3, 3, 1))).ready


def test_check_ready_reports_trace_mismatch_as_verdict():
    report = check_ready(FrameSpec(eigenvalues=(2, 2), norms_sq=(1, 1, 1)))
    assert not report.ready
    assert report.violation == (0, Violation.TRACE_MISMATCH)


def test_check_ready_gap_violation():
    report = check_ready(FrameSpec(eigenvalues=(F(13, 3),) * 3, norms_sq=(4, 4, 4, 1)))
    assert not report.ready
    assert report.violation == (1, Violation.GAP_II)


def test_repeated_cut_between_exactly_completed_rows_is_fine():
    # row 1 completes exactly at column 1; row 2 opens with an immediate
    # block, so two consecutive cuts coincide yet the construction works
    spec = FrameSpec(eigenvalues=(1, F(1, 2), F(5, 2)), norms_sq=(1, F(3, 2), F(3, 2)))
    report = check_ready(spec)
    assert report.ready
    assert report.partition.cuts == (1, 1, 3)
    assert pnstc_succeeds(spec)


def test_easy_sufficient_examples():
    assert easy_sufficient(FrameSpec(eigenvalues=(4, 4), norms_sq=(1,) * 8)) is True
    assert easy_sufficient(FrameSpec(eigenvalues=(4, 4), norms_sq=(1, 1, 3, 3))) is False
    assert easy_sufficient(FrameSpec(eigenvalues=(2, 4), norms_sq=(1,) * 6)) is True


def test_easy_sufficient_requires_sorted_inputs():
    with pytest.raises(NotSortedError):
        easy_sufficient(FrameSpec(eigenvalues=(4, 2), norms_sq=(1,) * 6))
    with pytest.raises(NotSortedError):
        easy_sufficient(FrameSpec(eigenvalues=(2, 4), norms_sq=(2, 1, 1, 1, 1)))


def test_easy_sufficient_single_surviving_term_still_binds():
    # when the pair condition runs off the front of the norm list, its
    # surviving term must still fit under the matching eigenvalue: this
    # instance satisfies every full pair yet is not constructible, and
    # the single-term condition is what rejects it
    spec = FrameSpec(eigenvalues=(F(1, 4), F(3, 4), 2, 5), norms_sq=(1, 1, 1, 1, 4))
    assert easy_sufficient(spec) is False
    assert not check_ready(spec).ready
    # with the surviving term satisfied the screen accepts, correctly
    ok = FrameSpec(eigenvalues=(1, 2), norms_sq=(1, 1, 1))
    assert easy_sufficient(ok) is True
    assert check_ready(ok).ready


def test_tight_sufficient_examples():
    assert tight_sufficient((1, 1, 1, 1), 2) is True
    assert tight_sufficient((7, 7, 6, 1, 1), 3) is False
    assert tight_sufficient((2, 2, 1, 1, 1, 1), 2) is True
    with pytest.raises(NotSortedError):
        tight_sufficient((1, 2), 2)
    # refused before the bound is taken, as tight_ready refuses them
    for norms, message in [
        ((), "eigenvalues and squared norms must be nonempty"),
        ((0, 0), "squared norms must be positive"),
        ((-1,), "squared norms must be positive"),
    ]:
        for screen in (tight_sufficient, tight_ready):
            with pytest.raises(ValueError, match=f"^{message}$"):
                screen(norms, 1)


def test_tight_ready_examples():
    assert tight_ready((7, 6, 1, 1, 7), 3).ready
    assert not tight_ready((4, 4, 4, 1), 3).ready
    assert tight_ready((1, 1, 1, 1), 2).ready


def test_pair_screen_is_not_exact():
    # the quick pair test accepts this decreasing ordering, but the block
    # needed after columns (4, 1, 1) has partner mass 2/5 below the
    # deficit 3/5, so the exact scan (and the constructor) refuse it
    norms = (2, 1, 1) + (F(2, 5),) * 8
    assert tight_sufficient(norms, 2) is True
    report = tight_ready(norms, 2)
    assert not report.ready
    assert report.violation == (1, Violation.NORM_BOUND_II)
    bound = sum(norms, F(0)) / 2
    assert not pnstc_succeeds(FrameSpec(eigenvalues=(bound, bound), norms_sq=norms))
    # what the screen does certify: the increasing ordering of the same norms
    increasing = tuple(reversed(norms))
    assert tight_ready(increasing, 2).ready
    spec = FrameSpec(eigenvalues=(bound, bound), norms_sq=increasing)
    assert verify_matrix(pnstc(spec), spec).matches_spec is True


def test_unit_ready_examples():
    assert unit_ready((2, 2), 4).ready
    report = unit_ready((F(3, 2), F(3, 2)), 3)
    assert report.ready
    assert report.partition.cuts == (1, 3)
    assert not unit_ready((F(13, 8),) * 8, 13).ready
    with pytest.raises(TraceMismatchError):
        unit_ready((2, 2), 5)


def test_majorizes_examples():
    assert majorizes((F(13, 3),) * 3, (4, 4, 4, 1)) is True
    assert majorizes((5, 2), (3, 3, 1)) is True
    assert majorizes((2, 2), (3, 1)) is False
    assert majorizes((2, 2), (3, 2)) is False  # totals differ


@pytest.mark.parametrize(
    "eigenvalues, norms_sq, message",
    [
        ((2, -1), (1, 0), "eigenvalues must be positive"),
        ((0,), (0,), "eigenvalues must be positive"),
        ((), (), "eigenvalues and squared norms must be nonempty"),
        ((1,), (0, 1), "squared norms must be positive"),
    ],
)
def test_majorizes_refuses_an_empty_or_nonpositive_side(eigenvalues, norms_sq, message):
    # a frame operator has no negative eigenvalue: refused as FrameSpec refuses it
    with pytest.raises(ValueError, match=f"^{message}$"):
        majorizes(eigenvalues, norms_sq)


# few small denominators, so equal totals and tied partial sums are common
_MASSES = st.lists(
    st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 6])), min_size=1, max_size=7
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(eigenvalues=_MASSES, norms_sq=_MASSES)
def test_majorizes_agrees_with_fraction_prefix_sums(eigenvalues, norms_sq):
    # also rescaled to the eigenvalues' total, so the draw reaches the prefix test
    scale = sum(eigenvalues) / sum(norms_sq)
    for norms in (norms_sq, [value * scale for value in norms_sq]):
        assert majorizes(eigenvalues, norms) is majorizes_via_fraction(eigenvalues, norms)


def test_verdicts_depend_only_on_the_value_sequences():
    base = check_ready(FrameSpec(eigenvalues=(3, 3, 2), norms_sq=(2, 2, 2, 1, 1)))
    # same values via different input spellings give the same verdict
    same = check_ready(
        FrameSpec(eigenvalues=("3", "3", "2"), norms_sq=[F(2), 2, "2", 1, F(1)])
    )
    assert same == base


def test_ready_implies_majorizes_and_not_conversely():
    rng = random.Random(99)
    for _ in range(300):
        spec = random_ready_spec(rng)
        assert check_ready(spec).ready
        assert majorizes(spec.eigenvalues, spec.norms_sq)
    # majorization admits frames this construction cannot reach
    assert majorizes((F(13, 3),) * 3, (4, 4, 4, 1))
    assert not check_ready(FrameSpec(eigenvalues=(F(13, 3),) * 3, norms_sq=(4, 4, 4, 1))).ready


def test_readiness_matches_construction_on_mixed_specs():
    rng = random.Random(7)
    for _ in range(1500):
        spec = random_mixed_spec(rng)
        assert check_ready(spec).ready == pnstc_succeeds(spec)


def test_stuck_row_matches_reported_violation():
    rng = random.Random(11)
    seen = 0
    while seen < 300:
        spec = random_mixed_spec(rng)
        report = check_ready(spec)
        if report.ready or report.violation[1] is Violation.TRACE_MISMATCH:
            continue
        with pytest.raises(ConstructionStuckError) as err:
            pnstc(spec)
        # the constructor stops on the very violation the check reports
        assert err.value.violation == report.violation
        assert str(err.value) == report.detail
        assert err.value.row == report.violation[0] - 1
        seen += 1


def _cursor_outcome(cursor, spec):
    """Every placement of ``cursor(spec)``, then how it ended: None, or the
    stuck error's violation, cursor position and message."""
    placements = []
    try:
        for placement in cursor(spec):
            placements.append(placement)
    except ConstructionStuckError as exc:
        return placements, (exc.violation, exc.row, exc.col, str(exc))
    return placements, None


def test_integer_cursor_matches_the_fraction_reference():
    rng = random.Random(2024)
    stuck = 0
    for _ in range(2000):
        spec = random_mixed_spec(rng)
        if sum(spec.norms_sq) != sum(spec.eigenvalues):  # the cursor requires the trace identity
            continue
        placements, ending = _cursor_outcome(_cursor, spec)
        expected, expected_ending = _cursor_outcome(reference_cursor, spec)
        assert ending == expected_ending
        assert [placement[:2] for placement in placements] == [
            placement[:2] for placement in expected
        ]
        for (_, _, x), (_, _, reference_x) in zip(placements, expected):
            if reference_x is None:
                assert x is None
                continue
            # a block's x is the reduced int pair (r, den) of the reference's x
            r, den = x
            assert type(r) is int and type(den) is int
            assert den > 0 and math.gcd(r, den) == 1
            assert Fraction(r, den) == reference_x
        stuck += ending is not None
    assert stuck > 100  # both kinds of ending are exercised


def test_scan_cuts_match_the_prefix_sum_reference():
    rng = random.Random(2024)
    unready = 0
    for _ in range(2000):
        spec = random_mixed_spec(rng)
        if sum(spec.norms_sq) != sum(spec.eigenvalues):
            continue
        expected = reference_partition(spec).cuts
        report = check_ready(spec)
        assert forced_partition(spec).cuts == expected
        # an unready spec's partition is read past the row it sticks at
        assert report.partition.cuts == expected
        unready += not report.ready
    assert unready > 100
