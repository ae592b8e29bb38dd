"""Existence test and exact construction of the 2x2 building blocks.

A block A(x, a1, a2) has orthogonal rows, column squared norms a1^2, a2^2
and first-row squared norm x; its second row then squares to
y = a1^2 + a2^2 - x.  It exists iff a1^2 + a2^2 >= x > 0 and both column
masses lie on the same side of x.

The checks and the formula run on ints: the three masses are lifted to
the lcm of their own denominators, so den is bounded by one block, and
each of the four squared entries becomes one reduced Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BlockInfeasibleError
from .scalar import RadicalScalar, as_rational


@dataclass(frozen=True)
class BlockSpec:
    """First-row mass x and the two column squared norms, all positive."""

    x: Fraction
    a1_sq: Fraction
    a2_sq: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", as_rational(self.x))
        object.__setattr__(self, "a1_sq", as_rational(self.a1_sq))
        object.__setattr__(self, "a2_sq", as_rational(self.a2_sq))
        if self.x <= 0 or self.a1_sq <= 0 or self.a2_sq <= 0:
            raise ValueError("block masses must be positive")

    @property
    def y(self) -> Fraction:
        return self.a1_sq + self.a2_sq - self.x


@dataclass(frozen=True)
class Block2x2:
    """The constructed block; rows exactly orthogonal by sign opposition.

    ``degenerate`` marks a zero entry (a column mass equal to x),
    ``zero_second_row`` the y = 0 boundary where the orthogonality
    coefficient collapses to zero and the second row vanishes.
    """

    entries: tuple[tuple[RadicalScalar, RadicalScalar], tuple[RadicalScalar, RadicalScalar]]
    degenerate: bool
    zero_second_row: bool

    def row_sums_sq(self) -> tuple[Fraction, Fraction]:
        return tuple(e[0].radicand + e[1].radicand for e in self.entries)  # type: ignore[return-value]

    def col_sums_sq(self) -> tuple[Fraction, Fraction]:
        return (
            self.entries[0][0].radicand + self.entries[1][0].radicand,
            self.entries[0][1].radicand + self.entries[1][1].radicand,
        )


def _lifted(spec: BlockSpec) -> tuple[int, int, int, int]:
    """(x, a1^2, a2^2, den): the masses as ints in units of 1/den, with den
    the lcm of their three denominators."""
    x, a1, a2 = spec.x, spec.a1_sq, spec.a2_sq
    den = lcm(x.denominator, a1.denominator, a2.denominator)
    return (
        x.numerator * (den // x.denominator),
        a1.numerator * (den // a1.denominator),
        a2.numerator * (den // a2.denominator),
        den,
    )


def _failed_condition(x: int, a1: int, a2: int) -> str | None:
    """The first existence condition the lifted masses fail, or None."""
    if not (a1 + a2 >= x > 0):
        return "positive-mass"
    above = a1 >= x and a2 >= x
    below = a1 <= x and a2 <= x
    return None if above or below else "same-side"


def block_exists(spec: BlockSpec) -> bool:
    """Existence conditions: mass a1^2+a2^2 >= x > 0, columns same side of x."""
    x, a1, a2, _ = _lifted(spec)
    return _failed_condition(x, a1, a2) is None


def build_block(spec: BlockSpec) -> Block2x2:
    """Construct the block with top row nonnegative and bottom row (+, -).

    For x = y all four squared entries are x/2; otherwise
    alpha^2 = x(a1^2-y)/(x-y), beta^2 = x(x-a1^2)/(x-y) and the second row
    carries the same squares scaled by y/x, giving exactly cancelling
    cross terms.
    """
    x, a1, a2, den = _lifted(spec)
    condition = _failed_condition(x, a1, a2)
    if condition == "positive-mass":
        raise BlockInfeasibleError(
            f"first-row mass {spec.x} exceeds total column mass "
            f"{spec.a1_sq + spec.a2_sq}",
            condition=condition,
        )
    if condition == "same-side":
        raise BlockInfeasibleError(
            f"column masses {spec.a1_sq}, {spec.a2_sq} straddle the row mass {spec.x}",
            condition=condition,
        )
    y = a1 + a2 - x
    if x == y:
        top = _root(x, 2 * den)
        return Block2x2(
            entries=((top, top), (top, -top)),
            degenerate=False,
            zero_second_row=False,
        )
    scale = den * (x - y)
    alpha = _root(x * (a1 - y), scale)
    beta = _root(x * (x - a1), scale)
    c_beta = _root(y * (x - a1), scale)
    c_alpha = _root(y * (a1 - y), scale)
    cells = (alpha, beta, c_beta, c_alpha)
    return Block2x2(
        entries=((alpha, beta), (c_beta, -c_alpha)),
        degenerate=any(c.is_zero() for c in cells),
        zero_second_row=(y == 0),
    )


def _root(num: int, den: int) -> RadicalScalar:
    """sqrt(num / den); RadicalScalar rejects a negative quotient."""
    return RadicalScalar(1 if num else 0, Fraction(num, den))
