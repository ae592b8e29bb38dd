"""Exact scalar layer: reduced rationals and signed square roots of rationals.

Every entry of a synthesis matrix built by this package squares to a
rational, so entries are stored as ``sign * sqrt(radicand)`` with an exact
rational radicand.  Rationals are plain :class:`fractions.Fraction` values
(arbitrary precision, always reduced; division by zero raises the standard
``ZeroDivisionError``).  On top of that this module provides:

* :class:`RadicalScalar` -- the entry type, closed under multiplication
  and negation, with exact squaring.
* :class:`CanonicalRadical` -- ``coefficient * sqrt(squarefree)`` normal
  form, so finite sums of radicals can be tested for exact zero by
  grouping on the square-free part.
* ``to_float`` -- correctly-rounded base conversions composed with an
  IEEE sqrt; relative error at most a few ulp (documented bound: 4 ulp).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import FactorizationIncompleteError

ZERO = Fraction(0)
ONE = Fraction(1)

#: Trial-division limit for square-free extraction.  Overridable per call;
#: only adversarial radicands ever get near it.
DEFAULT_FACTOR_BOUND = 10**6

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the exact text format ``p`` or ``p/q`` (optional leading sign)."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`; integers render without ``/1``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_rational(value) -> Fraction:
    """Coerce ints, rational strings and Fractions to Fraction, exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a rational")


@dataclass(frozen=True)
class RadicalScalar:
    """The real number ``sign * sqrt(radicand)``.

    Invariants: ``sign in {-1, 0, +1}``, ``radicand >= 0`` and
    ``sign == 0`` exactly when ``radicand == 0``.  Equal field values are
    equal reals and vice versa, so dataclass equality is value equality.
    """

    sign: int
    radicand: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if not isinstance(self.radicand, Fraction):
            object.__setattr__(self, "radicand", as_rational(self.radicand))
        if self.radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign is 0 exactly when the radicand is 0")

    @classmethod
    def zero(cls) -> "RadicalScalar":
        return cls(0, ZERO)

    @classmethod
    def sqrt(cls, value) -> "RadicalScalar":
        """Principal square root of a nonnegative rational."""
        q = as_rational(value)
        if q < 0:
            raise ValueError("cannot take the square root of a negative rational")
        return cls(0 if q == 0 else 1, q)

    @classmethod
    def of_rational(cls, value) -> "RadicalScalar":
        """Embed a rational q as sign(q) * sqrt(q^2)."""
        q = as_rational(value)
        if q == 0:
            return cls.zero()
        return cls(1 if q > 0 else -1, q * q)

    def square(self) -> Fraction:
        """Exact square; equals the radicand."""
        return self.radicand

    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "RadicalScalar") -> "RadicalScalar":
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return RadicalScalar(self.sign * other.sign, self.radicand * other.radicand)

    def __neg__(self) -> "RadicalScalar":
        return RadicalScalar(-self.sign, self.radicand)

    def __float__(self) -> float:
        return to_float(self)

    def __repr__(self) -> str:
        if self.sign == 0:
            return "0"
        prefix = "-" if self.sign < 0 else ""
        return f"{prefix}sqrt({format_rational(self.radicand)})"


def to_float(a: RadicalScalar) -> float:
    """Nearest double to sign * sqrt(radicand).

    ``float(Fraction)`` is correctly rounded and ``math.sqrt`` is an IEEE
    correctly-rounded sqrt, so the composition is within 4 ulp.  A
    radicand beyond the normal double range (it would overflow, or lose
    bits to underflow) while its root may not be is scaled by a power of
    4 first; inside the range that scaling is exact, so nothing changes.
    """
    if a.sign == 0:
        return 0.0
    q = a.radicand
    half = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    if abs(half) < 500:  # 2**-1002 < q < 2**1001
        return a.sign * math.sqrt(float(q))
    return a.sign * math.ldexp(math.sqrt(float(q / Fraction(4) ** half)), half)


@dataclass(frozen=True)
class CanonicalRadical:
    """``coefficient * sqrt(square_free)`` with a square-free positive root.

    Two canonical radicals are equal as reals iff they are equal fieldwise,
    which is what makes exact zero tests of radical sums possible.
    """

    coefficient: Fraction
    square_free: int

    def __post_init__(self):
        if self.square_free < 1:
            raise ValueError("square-free part must be a positive integer")

    def as_radical(self) -> RadicalScalar:
        c = self.coefficient
        if c == 0:
            return RadicalScalar.zero()
        return RadicalScalar(1 if c > 0 else -1, c * c * self.square_free)


def _extract_square(n: int, bound: int) -> tuple[int, int]:
    """Split n >= 1 as s^2 * f with f square-free, by trial division.

    Raises FactorizationIncompleteError when a cofactor survives that is
    neither a provable prime nor a perfect square.
    """
    if n <= 1:
        return 1, 1
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    s = 1
    f = 1
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
    d = 5
    step = 2
    while d * d <= n and d <= bound:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += step
        step = 6 - step
    if n > 1:
        root = math.isqrt(n)
        if root * root == n:
            s *= root
        elif d * d > n or n <= bound * bound:
            # fully trial-divided, or no factor <= bound: n is prime
            f *= n
        else:
            raise FactorizationIncompleteError(
                f"cofactor {n} exceeds the factor bound {bound}", cofactor=n
            )
    return s, f


def canonicalize(a: RadicalScalar, factor_bound: int = DEFAULT_FACTOR_BOUND) -> CanonicalRadical:
    """Rewrite sign*sqrt(p/q) as (c)*sqrt(f) with f a square-free integer.

    sqrt(p/q) = (sp/(sq*fq)) * sqrt(fp*fq) where p = sp^2*fp, q = sq^2*fq;
    p and q are coprime so fp*fq is square-free.
    """
    if factor_bound < 2:
        raise ValueError("factor bound must be at least 2")
    if a.sign == 0:
        return CanonicalRadical(ZERO, 1)
    p = a.radicand.numerator
    q = a.radicand.denominator
    sp, fp = _extract_square(p, factor_bound)
    sq, fq = _extract_square(q, factor_bound)
    coefficient = Fraction(a.sign * sp, sq * fq)
    return CanonicalRadical(coefficient, fp * fq)
