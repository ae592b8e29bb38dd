"""Exact scalar layer: reduced rationals and signed square roots of rationals.

Every entry of a synthesis matrix built by this package squares to a
rational, so entries are stored as ``sign * sqrt(num / den)``: three ints,
with the exact square reduced.  Rationals elsewhere are plain
:class:`fractions.Fraction` values (arbitrary precision, always reduced;
division by zero raises the standard ``ZeroDivisionError``).  On top of
that this module provides:

* :class:`RadicalScalar` -- the entry type, an immutable ``__slots__``
  value of ints ``sign``, ``num`` and ``den``, closed under negation; its
  ``radicand`` property is the exact square as a Fraction.  The package
  builds entries from ints through one internal constructor, which
  reduces them with one gcd, so no Fraction is made per entry;
  ``radical_of_ints`` does the same for file input, with the checks of
  the public constructor.
* :class:`CanonicalRadical` -- ``coefficient * sqrt(squarefree)`` normal
  form, so finite sums of radicals can be tested for exact zero by
  grouping on the square-free part.
* ``to_float`` -- a correctly-rounded int division composed with an
  IEEE sqrt; relative error at most a few ulp (documented bound: 4 ulp).
* ``add_ratios`` -- the one adder of exact sums, on int pairs, by Knuth's
  rule (TAOCP Vol. 2, 4.5.1) as ``Fraction`` adds: with g = gcd(den,
  other_den) the cross sum is reduced when g == 1, else only gcd(total, g)
  can cancel.  So every gcd has an operand no larger than the added term's
  denominator, and a running sum's den is the denominator of its value.
  ``sum_ratios`` is the one rule for the total of a multiset: below
  ``_COUNT_FROM`` (128) pairs it folds ``add_ratios``; from there up it
  counts the pairs and adds each distinct one once, so the N equal values
  of a unit-norm or tight spec are one term (counting has a fixed cost
  that only long lists win back).  ``exact_sum`` is its face on rationals;
  ``describe_rational`` renders a rational for a message, by its digit
  counts when it is too long for ``str``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

from .errors import FactorizationIncompleteError

ZERO = Fraction(0)

#: Trial-division limit for square-free extraction.  Overridable per call;
#: only adversarial radicands ever get near it.
DEFAULT_FACTOR_BOUND = 10**6

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse the exact text format ``p`` or ``p/q`` (optional leading sign).

    The value is built from the two matched ints, so the text is parsed
    once; ``int`` reads each part as ``Fraction(text)`` would, with the
    same limit on digits.
    """
    text = text.strip()
    match = _RATIONAL_RE.match(text)
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`; integers render without ``/1``."""
    return format_ratio(value.numerator, value.denominator)


def format_ratio(num: int, den: int) -> str:
    """:func:`format_rational` of the reduced pair num / den, den > 0."""
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def describe_rational(value: Fraction) -> str:
    """``format_rational(value)``, or, past the interpreter's limit on the
    digits of an int as text, the digit counts (log10(2) ~ 0.30103)."""
    try:
        return format_rational(value)
    except ValueError:
        num, den = value.numerator, value.denominator
        parts = [abs(num)] + [den] * (den > 1)
        text = "/".join(f"<about {n.bit_length() * 30103 // 100000 + 1} digits>" for n in parts)
        return "-" * (num < 0) + text


def add_ratios(num: int, den: int, other: int, other_den: int) -> tuple[int, int]:
    """num/den + other/other_den for positive denominators, exactly, as a
    (numerator, denominator) pair of ints; reduced when both pairs are."""
    g = math.gcd(den, other_den)
    if g == 1:
        return num * other_den + other * den, den * other_den
    scale = den // g
    total = num * (other_den // g) + other * scale
    g = math.gcd(total, g)
    return total // g, scale * (other_den // g)


# Counting costs a fixed 3 us or so (the Counter) plus a hash per pair;
# it repays that only on long lists that repeat.  On lists of one value
# it wins from about 24 pairs, on lists of nine integer values from about
# 96, and on lists of distinct values never (timed in-process per call).
_COUNT_FROM = 128


def sum_ratios(pairs) -> tuple[int, int]:
    """The reduced sum of a sequence of reduced ``(num, den)`` pairs.  A
    sequence of at least ``_COUNT_FROM`` pairs is counted, and each distinct
    pair added once: k copies of n/d are (k/g * n)/(d/g) with g = gcd(k, d),
    already reduced.  A shorter one takes one :func:`add_ratios` per pair."""
    if len(pairs) >= _COUNT_FROM:
        counted = []
        for (num, den), k in Counter(pairs).items():
            g = math.gcd(k, den)
            counted.append((k // g * num, den // g))
        pairs = counted
    num, den = 0, 1
    for other, other_den in pairs:
        num, den = add_ratios(num, den, other, other_den)
    return num, den


def exact_sum(values) -> Fraction:
    """The exact sum of rationals, by :func:`sum_ratios` on their pairs."""
    return Fraction(*sum_ratios([(value.numerator, value.denominator) for value in values]))


def as_rational(value) -> Fraction:
    """Coerce ints, rational strings and Fractions to Fraction, exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to a rational")


class RadicalScalar:
    """The real number ``sign * sqrt(num / den)``, held as three ints.

    Invariants: ``sign in {-1, 0, +1}``, ``num >= 0``, ``den > 0``,
    ``gcd(num, den) == 1`` and ``sign == 0`` exactly when ``num == 0``
    (zero is ``0 * sqrt(0/1)``).  Equal fields are equal reals and vice
    versa, so field equality is value equality.  Instances are immutable
    and hashable.  ``RadicalScalar(sign, radicand)`` takes the radicand as
    a rational (int, literal or Fraction) and checks it; the package's own
    constructors build from ints, with no Fraction.
    """

    __slots__ = ("sign", "num", "den")

    def __init__(self, sign: int, radicand) -> None:
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign}")
        radicand = as_rational(radicand)
        num = radicand.numerator
        if num < 0:
            raise ValueError("radicand must be nonnegative")
        if (sign == 0) != (num == 0):
            raise ValueError("sign is 0 exactly when the radicand is 0")
        _set_sign(self, sign)
        _set_num(self, num)
        _set_den(self, radicand.denominator)

    @property
    def radicand(self) -> Fraction:
        """The exact square, ``num / den``."""
        return Fraction(self.num, self.den)

    @classmethod
    def zero(cls) -> "RadicalScalar":
        return _radical(0, 0, 1)

    @classmethod
    def sqrt(cls, value) -> "RadicalScalar":
        """Principal square root of a nonnegative rational."""
        q = as_rational(value)
        num = q.numerator
        if num < 0:
            raise ValueError("cannot take the square root of a negative rational")
        return _radical(1, num, q.denominator)

    @classmethod
    def of_rational(cls, value) -> "RadicalScalar":
        """Embed a rational q as sign(q) * sqrt(q^2)."""
        q = as_rational(value)
        num, den = q.numerator, q.denominator
        return _radical(1 if num > 0 else -1, num * num, den * den)

    def __neg__(self) -> "RadicalScalar":
        return _radical(-self.sign, self.num, self.den)

    def __eq__(self, other):
        if other.__class__ is not RadicalScalar:
            return NotImplemented
        return self.sign == other.sign and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.sign, self.num, self.den))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _radical, (self.sign, self.num, self.den)

    def __float__(self) -> float:
        return to_float(self)

    def __repr__(self) -> str:
        if self.sign == 0:
            return "0"
        prefix = "-" if self.sign < 0 else ""
        text = str(self.num) if self.den == 1 else f"{self.num}/{self.den}"
        return f"{prefix}sqrt({text})"


# The slot setters write past the refusing ``__setattr__``.
_set_sign = RadicalScalar.sign.__set__
_set_num = RadicalScalar.num.__set__
_set_den = RadicalScalar.den.__set__
_new = object.__new__


def _radical(sign: int, num: int, den: int) -> RadicalScalar:
    """``sign * sqrt(num / den)`` from ints, the one internal constructor.

    ``den`` is nonzero, of either sign; ``sign`` is the sign of the value
    when the quotient is nonzero and ignored when it is zero.  A negative
    quotient raises ValueError.  The fields are reduced with one gcd;
    gcd(0, den) == den makes a zero 0/1.
    """
    if den < 0:
        num, den = -num, -den
    if num < 0:
        raise ValueError("radicand must be nonnegative")
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    value = _new(RadicalScalar)
    _set_sign(value, sign if num else 0)
    _set_num(value, num)
    _set_den(value, den)
    return value


def radical_of_ints(sign: int, num: int, den: int) -> RadicalScalar:
    """``RadicalScalar(sign, Fraction(num, den))``, built from the ints.

    A nonzero sign with a positive num and den never makes a Fraction;
    any other ints take that Fraction path, with its checks and errors
    (ZeroDivisionError for den 0, ValueError for a bad sign or quotient).
    """
    if num > 0 and den > 0 and sign in (1, -1):
        return _radical(sign, num, den)
    return RadicalScalar(sign, Fraction(num, den))


def to_float(a: RadicalScalar) -> float:
    """Nearest double to sign * sqrt(num / den).

    ``num / den`` on ints is correctly rounded, as ``float(Fraction)`` is,
    and ``math.sqrt`` is an IEEE correctly-rounded sqrt, so the
    composition is within 4 ulp.  A radicand beyond the normal double
    range (it would overflow, or lose bits to underflow) while its root
    may not be is scaled by a power of 4 first, a shift of num or den;
    inside the range that scaling is exact, so nothing changes.
    """
    if a.sign == 0:
        return 0.0
    num, den = a.num, a.den
    half = (num.bit_length() - den.bit_length()) // 2
    if abs(half) < 500:  # 2**-1002 < q < 2**1001
        return a.sign * math.sqrt(num / den)
    if half > 0:
        scaled = num / (den << 2 * half)
    else:
        scaled = (num << -2 * half) / den
    return a.sign * math.ldexp(math.sqrt(scaled), half)


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
    p, q = a.num, a.den
    sp, fp = _extract_square(p, factor_bound)
    sq, fq = _extract_square(q, factor_bound)
    coefficient = Fraction(a.sign * sp, sq * fq)
    return CanonicalRadical(coefficient, fp * fq)
