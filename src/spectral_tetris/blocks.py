"""Existence test and exact construction of the 2x2 building blocks.

A block A(x, a1, a2) has orthogonal rows, column squared norms a1^2, a2^2
and first-row squared norm x; its second row then squares to
y = a1^2 + a2^2 - x.  It exists iff a1^2 + a2^2 >= x > 0 and both column
masses lie on the same side of x.

The masses are ints or Fractions, or anything else
:func:`~spectral_tetris.scalar.as_rational` reads (a rational string; a
float raises TypeError), and a nonpositive one raises ValueError.  The
checks, the formula and the degeneracy test run on ints: the three
masses are lifted to the lcm of their own denominators, so den is
bounded by one block, and each of the four entries is built from its
int quotient, reduced with one gcd and with no Fraction.

:func:`~spectral_tetris.construct.pnstc` calls :func:`build_block` once
per distinct (x, a1^2, a2^2) of a matrix, with x made from the cursor's
int pair, and reuses the block's immutable cells wherever it repeats.
:func:`build_block` builds each block through the public
:class:`Block2x2` constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import BlockInfeasibleError
from .scalar import RadicalScalar, _radical, as_rational


@dataclass(frozen=True)
class Block2x2:
    """The constructed block; rows exactly orthogonal by sign opposition.

    ``degenerate`` marks a zero entry: a column mass equal to x, or the
    y = 0 boundary, where the second row vanishes.  ``entries`` may be
    given as any iterable of rows; it is kept as a tuple of tuples.
    """

    entries: tuple[tuple[RadicalScalar, RadicalScalar], tuple[RadicalScalar, RadicalScalar]]
    degenerate: bool

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple([tuple(row) for row in self.entries]))


def _lifted(x, a1_sq, a2_sq) -> tuple[int, int, int, int]:
    """(x, a1^2, a2^2, den): the masses as ints in units of 1/den, with den
    the lcm of their three denominators.  A mass with no ``denominator``
    goes through :func:`~spectral_tetris.scalar.as_rational`, as at every
    other public entry.  Raises ValueError unless all three are positive."""
    try:
        den = lcm(x.denominator, a1_sq.denominator, a2_sq.denominator)
    except AttributeError:
        return _lifted(as_rational(x), as_rational(a1_sq), as_rational(a2_sq))
    lifted = (
        x.numerator * (den // x.denominator),
        a1_sq.numerator * (den // a1_sq.denominator),
        a2_sq.numerator * (den // a2_sq.denominator),
    )
    if min(lifted) <= 0:
        raise ValueError("block masses must be positive")
    return (*lifted, den)


def _failed_condition(x: int, a1: int, a2: int) -> str | None:
    """The first existence condition the lifted masses fail, or None."""
    if not (a1 + a2 >= x > 0):
        return "positive-mass"
    above = a1 >= x and a2 >= x
    below = a1 <= x and a2 <= x
    return None if above or below else "same-side"


def block_exists(x, a1_sq, a2_sq) -> bool:
    """Existence conditions: mass a1^2+a2^2 >= x > 0, columns same side of x."""
    x, a1, a2, _ = _lifted(x, a1_sq, a2_sq)
    return _failed_condition(x, a1, a2) is None


def build_block(x, a1_sq, a2_sq) -> Block2x2:
    """Construct the block with top row nonnegative and bottom row (+, -).

    For x = y all four squared entries are x/2; otherwise
    alpha^2 = x(a1^2-y)/(x-y), beta^2 = x(x-a1^2)/(x-y) and the second row
    carries the same squares scaled by y/x, giving exactly cancelling
    cross terms.
    """
    x, a1, a2, den = _lifted(x, a1_sq, a2_sq)
    condition = _failed_condition(x, a1, a2)
    if condition == "positive-mass":
        raise BlockInfeasibleError(
            f"first-row mass {Fraction(x, den)} exceeds total column mass "
            f"{Fraction(a1 + a2, den)}",
            condition=condition,
        )
    if condition == "same-side":
        raise BlockInfeasibleError(
            f"column masses {Fraction(a1, den)}, {Fraction(a2, den)} "
            f"straddle the row mass {Fraction(x, den)}",
            condition=condition,
        )
    y = a1 + a2 - x
    if x == y:
        top = _radical(1, x, 2 * den)
        return Block2x2(entries=((top, top), (top, -top)), degenerate=False)
    # scale < 0 when x < y: the quotients stay nonnegative, and _radical
    # moves the sign off the denominator
    scale = den * (x - y)
    alpha = _radical(1, x * (a1 - y), scale)
    beta = _radical(1, x * (x - a1), scale)
    c_beta = _radical(1, y * (x - a1), scale)
    c_alpha = _radical(1, y * (a1 - y), scale)
    return Block2x2(
        entries=((alpha, beta), (c_beta, -c_alpha)),
        # x > 0, so a cell is zero iff a1 == y, a1 == x or y == 0
        degenerate=0 in (a1 - y, x - a1, y),
    )
