import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectral_tetris import (
    CanonicalRadical,
    FactorizationIncompleteError,
    RadicalScalar,
    canonicalize,
    format_rational,
    parse_rational,
    to_float,
)

F = Fraction


def test_rational_arithmetic_is_exact():
    assert F("13/3") + F("13/3") == F("26/3")
    assert F("22/3") * 3 == 22
    assert F(15) - F(13) == 2
    assert F(1, 3) / F(1, 6) == 2
    assert F(1, 3) < F(2, 5) < F(1, 2)


def test_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("22") == 22
    for bad in ("1.5", "3/0", "1e3", "a/b", "3 / 4"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_rational_round_trips():
    for value in (F(3, 4), F(-7, 2), F(5), F(0)):
        assert parse_rational(format_rational(value)) == value


def test_radical_invariants():
    with pytest.raises(ValueError):
        RadicalScalar(1, F(0))
    with pytest.raises(ValueError):
        RadicalScalar(0, F(1))
    with pytest.raises(ValueError):
        RadicalScalar(2, F(1))
    with pytest.raises(ValueError):
        RadicalScalar(1, F(-1))


def test_radical_mul_examples():
    assert RadicalScalar(1, F(2)) * RadicalScalar(-1, F(2)) == RadicalScalar(-1, F(4))
    assert RadicalScalar(1, F(1, 2)) * RadicalScalar(1, F(1, 2)) == RadicalScalar(1, F(1, 4))
    assert RadicalScalar.zero() * RadicalScalar(1, F(7)) == RadicalScalar.zero()


def test_of_rational_squares_back():
    assert RadicalScalar.of_rational(F(-3, 2)).square() == F(9, 4)
    assert float(RadicalScalar.of_rational(F(-3, 2))) == -1.5


def test_to_float_examples():
    assert to_float(RadicalScalar(1, F(2))) == 1.4142135623730951
    assert to_float(RadicalScalar(-1, F(3, 4))) == -0.8660254037844386
    assert to_float(RadicalScalar.zero()) == 0.0
    # radicands beyond the double range whose roots are not
    assert to_float(RadicalScalar(-1, F(1e308) ** 2)) == -1e308
    assert to_float(RadicalScalar(1, F(4) ** 600 / 9)) == 2.0**600 / 3
    with pytest.raises(OverflowError):
        to_float(RadicalScalar(1, F(10) ** 700))
    # radicands below the double range whose roots are not
    assert to_float(RadicalScalar(1, F(1e-200) ** 2)) == 1e-200
    assert to_float(RadicalScalar(-1, F(1, 9) / F(4) ** 600)) == -(2.0**-600) / 3
    assert to_float(RadicalScalar(1, F(1, 10**700))) == 0.0


def test_to_float_is_the_double_sqrt_on_normal_radicands():
    # exponents up to the ends of the normal range, past the scaling cut-off
    rng = random.Random(77)
    for _ in range(2000):
        mantissa = F(rng.randint(2**52, 2**53), rng.randint(2**52, 2**53))
        q = mantissa * F(2) ** rng.randint(-1015, 1015)
        assert sys.float_info.min <= float(q) <= sys.float_info.max
        sign = rng.choice((-1, 1))
        assert to_float(RadicalScalar(sign, q)) == sign * math.sqrt(float(q))


def test_canonicalize_examples():
    assert canonicalize(RadicalScalar(1, F(8))) == CanonicalRadical(F(2), 2)
    assert canonicalize(RadicalScalar(1, F(4, 9))) == CanonicalRadical(F(2, 3), 1)
    assert canonicalize(RadicalScalar(1, F(2, 3))) == CanonicalRadical(F(1, 3), 6)
    assert canonicalize(RadicalScalar(-1, F(8))) == CanonicalRadical(F(-2), 2)
    assert canonicalize(RadicalScalar.zero()) == CanonicalRadical(F(0), 1)


def test_canonicalize_reports_oversized_cofactors():
    p, q = 1_000_003, 1_000_033  # both prime, both above the bound
    with pytest.raises(FactorizationIncompleteError):
        canonicalize(RadicalScalar(1, F(p * q)), factor_bound=1000)
    # a perfect-square cofactor is still fine
    assert canonicalize(RadicalScalar(1, F(p * p)), factor_bound=1000) == CanonicalRadical(
        F(p), 1
    )


positive_fractions = st.fractions(min_value=F(1, 40), max_value=400, max_denominator=40)
radicals = st.builds(lambda q, s: RadicalScalar(s if q != 0 else 0, q * q), positive_fractions, st.sampled_from((-1, 1)))


@given(radicals, radicals)
def test_square_of_product_is_product_of_squares(a, b):
    assert (a * b).square() == a.square() * b.square()


@given(positive_fractions)
def test_canonicalize_preserves_the_square(q):
    canon = canonicalize(RadicalScalar.sqrt(q))
    assert canon.coefficient**2 * canon.square_free == q


@given(positive_fractions)
def test_canonicalize_is_idempotent(q):
    once = canonicalize(RadicalScalar.sqrt(q))
    again = canonicalize(once.as_radical())
    assert again == once


@given(st.fractions(min_value=F(1, 10**6), max_value=10**12, max_denominator=10**6))
def test_to_float_squares_close_to_radicand(q):
    value = to_float(RadicalScalar.sqrt(q))
    assert abs(value * value - float(q)) <= 1e-12 * float(q)
