import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spectral_tetris import (
    BlockInfeasibleError,
    block_exists,
    build_block,
)
from helpers import block_col_sums_sq, block_row_sums_sq, radical_product, small_fraction

F = Fraction


def test_block_exists_examples():
    assert block_exists(2, 3, 3) is True
    assert block_exists(2, 3, 1) is False
    assert block_exists(1, 2, 1) is True


def test_block_masses_are_read_as_rationals():
    assert build_block("1/2", 1, 1) == build_block(F(1, 2), 1, 1)
    assert block_exists("3", "1", "1") is False
    for masses in [(0.5, 1, 1), (1, 1.0, 1), (F(1, 2), 1, 0.5)]:
        for call in (build_block, block_exists):
            with pytest.raises(TypeError, match="^cannot coerce float to a rational$"):
                call(*masses)


def test_build_block_integer_case():
    block = build_block(2, 3, 3)
    assert block.entries[0][0].radicand == 1
    assert block.entries[0][1].radicand == 1
    assert block.entries[1][0] .radicand == 2
    assert block.entries[1][1].radicand == 2
    assert [[e.sign for e in row] for row in block.entries] == [[1, 1], [1, -1]]
    assert block_row_sums_sq(block) == (2, 4)
    assert block_col_sums_sq(block) == (3, 3)
    assert not block.degenerate


def test_build_block_equal_masses():
    block = build_block(1, 1, 1)
    for row in block.entries:
        for entry in row:
            assert entry.radicand == F(1, 2)
    assert [[e.sign for e in row] for row in block.entries] == [[1, 1], [1, -1]]


def test_build_block_degenerate_zero_entry():
    block = build_block(1, 2, 1)
    signs = [[e.sign for e in row] for row in block.entries]
    squares = [[e.radicand for e in row] for row in block.entries]
    assert signs == [[0, 1], [1, 0]]
    assert squares == [[0, 1], [2, 0]]
    assert block.degenerate


def test_build_block_zero_second_row_boundary():
    # x = a1+a2 forces the second row to vanish entirely
    block = build_block(3, 2, 1)
    assert [e.sign for e in block.entries[1]] == [0, 0]
    assert block.degenerate
    assert block_row_sums_sq(block) == (3, 0)
    assert block_col_sums_sq(block) == (2, 1)


def test_build_block_rejects_infeasible():
    with pytest.raises(BlockInfeasibleError) as err:
        build_block(2, 3, 1)
    assert err.value.condition == "same-side"
    with pytest.raises(BlockInfeasibleError) as err:
        build_block(4, 2, 1)
    assert err.value.condition == "positive-mass"


def test_nonpositive_masses_are_a_value_error():
    for masses in ((0, 1, 1), (1, F(-1, 2), 3), (1, 2, 0)):
        with pytest.raises(ValueError):
            block_exists(*masses)
        with pytest.raises(ValueError):
            build_block(*masses)


def _random_feasible(rng):
    x = small_fraction(rng)
    if rng.random() < 0.5:
        a1 = x + (small_fraction(rng) if rng.random() < 0.8 else 0)
        a2 = x + (small_fraction(rng) if rng.random() < 0.8 else 0)
    else:
        a1 = x * F(rng.randint(1, 19), 20)
        a2 = max(x - a1, F(0)) + x * F(rng.randint(1, 20), 21)
        if a2 > x:
            a2 = x
        if a1 + a2 < x or a2 == 0:
            return None
    return x, a1, a2


def test_random_feasible_blocks_are_exact():
    rng = random.Random(2024)
    checked = 0
    while checked < 10_000:
        spec = _random_feasible(rng)
        if spec is None or not block_exists(*spec):
            continue
        x, a1, a2 = spec
        block = build_block(x, a1, a2)
        assert block_col_sums_sq(block) == (a1, a2)
        assert block_row_sums_sq(block) == (x, a1 + a2 - x)
        # cross terms share a radicand and oppose in sign
        top, bottom = block.entries
        left, right = radical_product(top[0], bottom[0]), radical_product(top[1], bottom[1])
        assert left.radicand == right.radicand
        assert left.sign == -right.sign or (left.sign == right.sign == 0)
        checked += 1


MASSES = st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6)


@example(a1=F(2), a2=F(3), share=F(1, 2), above=True)  # x = 1 < y = 4
@example(a1=F(3), a2=F(3), share=F(1), above=True)  # x = 3 = y
@example(a1=F(1, 3), a2=F(1, 2), share=F(0), above=False)  # x = a2: degenerate
@example(a1=F(1, 3), a2=F(1, 2), share=F(1), above=False)  # y = 0
@given(a1=MASSES, a2=MASSES, share=st.fractions(0, 1), above=st.booleans())
def test_block_cells_keep_reduced_fields(a1, a2, share, above):
    # x <= min(a1, a2) puts both columns above x, and then x <= y; x in
    # [max, a1 + a2] puts both below, and then x >= y
    low, high = min(a1, a2), max(a1, a2)
    x = low * share if above else high + low * share
    if x == 0:
        x = low
    block = build_block(x, a1, a2)
    cells = [value for row in block.entries for value in row]
    for value in cells:
        assert value.den > 0 and math.gcd(value.num, value.den) == 1
        assert (value.sign == 0) == (value.num == 0)
        assert value.radicand == F(value.num, value.den)
    assert block.degenerate == any(value.sign == 0 for value in cells)
    assert block_col_sums_sq(block) == (a1, a2)
    assert block_row_sums_sq(block) == (x, a1 + a2 - x)


def test_random_infeasible_blocks_are_refused():
    rng = random.Random(4048)
    checked = 0
    while checked < 10_000:
        x = small_fraction(rng)
        if rng.random() < 0.5:
            # columns straddle x strictly
            a1 = x + small_fraction(rng)
            a2 = x * F(rng.randint(1, 19), 20)
            if rng.random() < 0.5:
                a1, a2 = a2, a1
            if a1 + a2 < x:
                continue
        else:
            # total mass below x
            a1 = x * F(rng.randint(1, 10), 40)
            a2 = x * F(rng.randint(1, 10), 40)
            if a1 + a2 >= x:
                continue
        assert not block_exists(x, a1, a2)
        with pytest.raises(BlockInfeasibleError):
            build_block(x, a1, a2)
        checked += 1
