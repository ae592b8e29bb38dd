import copy
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
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
from spectral_tetris.scalar import (
    _COUNT_FROM,
    add_ratios,
    describe_rational,
    exact_sum,
    radical_of_ints,
)
from helpers import radical_product

F = Fraction


fractions = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(fractions, fractions)
def test_add_ratios_is_the_reduced_sum(a, b):
    total = a + b
    pair = add_ratios(a.numerator, a.denominator, b.numerator, b.denominator)
    assert pair == (total.numerator, total.denominator)


_BIG = 1 << 400


@st.composite
def reduced_pairs(draw):
    """Two reduced (num, den) pairs whose denominators share a drawn factor."""
    shared = draw(st.one_of(st.just(1), st.integers(2, 60), st.integers(2, _BIG)))
    pairs = []
    for _ in range(2):
        num = draw(st.one_of(st.just(0), st.integers(-30, 30), st.integers(-_BIG, _BIG)))
        den = shared * draw(st.one_of(st.integers(1, 30), st.integers(1, _BIG)))
        g = math.gcd(num, den)
        pairs.append((num // g, den // g))
    return pairs


@example([(1, 6), (1, 6)])  # 2/6: only gcd(total, g) cancels
@example([(3, 10), (-3, 10)])
@example([(0, 1), (-5, 7)])
@given(reduced_pairs())
def test_add_ratios_keeps_reduced_pairs_reduced(pairs):
    (num, den), (other, other_den) = pairs
    total = F(num, den) + F(other, other_den)
    got = add_ratios(num, den, other, other_den)
    assert got == (total.numerator, total.denominator)
    assert got[1] > 0 and math.gcd(*got) == 1


def test_describe_rational_gives_digit_counts_past_the_text_limit():
    assert describe_rational(F(-3, 4)) == "-3/4"
    assert describe_rational(F(7)) == "7"
    # 10**5000 and 7**6000 have 5001 and 5071 digits
    assert describe_rational(F(-(10**5000), 7**6000)) == "-<about 5001 digits>/<about 5071 digits>"
    assert describe_rational(F(10**5000 + 1)) == "<about 5001 digits>"


@given(st.lists(fractions, max_size=20), st.sampled_from([1, _COUNT_FROM // 8, _COUNT_FROM]))
def test_exact_sum_is_the_sum(values, repeat):
    # repeated, a list of 8 values or more reaches the counting cutoff
    values = values * repeat
    assert exact_sum(values) == sum(values, F(0))


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
    # non-Fraction radicands are coerced first, then checked
    for sign, radicand, message in (
        (1, -1, "radicand must be nonnegative"),
        (1, "-1/2", "radicand must be nonnegative"),
        (1, 0, "sign is 0 exactly when"),
        (0, "1/3", "sign is 0 exactly when"),
    ):
        with pytest.raises(ValueError, match=message):
            RadicalScalar(sign, radicand)
    with pytest.raises(ValueError, match="square root of a negative"):
        RadicalScalar.sqrt(F(-1, 3))
    assert RadicalScalar(-1, 2).radicand == F(2)
    assert type(RadicalScalar(-1, 2).radicand) is F


def test_radical_scalar_is_an_immutable_value():
    value = RadicalScalar(-1, F(2, 3))
    assert (value.sign, value.num, value.den) == (-1, 2, 3)
    for name in ("sign", "num", "den", "radicand", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert (value.sign, value.num, value.den) == (-1, 2, 3)
    twin = -RadicalScalar.sqrt("4/6")
    assert twin == value and hash(twin) == hash(value) and twin is not value
    assert len({value, twin, RadicalScalar(1, F(2, 3))}) == 2
    assert value != RadicalScalar(1, F(2, 3)) and value != (-1, 2, 3)
    assert type(value.radicand) is F and value.radicand == F(value.num, value.den)
    for clone in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and hash(clone) == hash(value)


def _assert_reduced(value: RadicalScalar) -> None:
    assert value.den > 0 and math.gcd(value.num, value.den) == 1
    assert value.sign in (-1, 0, 1) and (value.sign == 0) == (value.num == 0)
    assert type(value.radicand) is F and value.radicand == F(value.num, value.den)


@given(st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**9))
def test_constructors_and_negation_keep_the_fields_reduced(q):
    built = [RadicalScalar.of_rational(q)]
    if q >= 0:
        built.append(RadicalScalar.sqrt(q))
        assert (built[-1].num, built[-1].den) == (q.numerator, q.denominator)
    for value in built:
        for each in (value, -value, -(-value)):
            _assert_reduced(each)
        assert -(-value) == value
    assert built[0].radicand == q * q and built[0].sign == (q > 0) - (q < 0)


# Raw ints a matrix file may carry: zero, negative and unreduced fields.
SMALL = st.integers(-4, 6)


@given(SMALL, SMALL, SMALL)
def test_radical_of_ints_is_the_fraction_path(sign, num, den):
    def outcome(build):
        try:
            return build()
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc), str(exc)

    got = outcome(lambda: radical_of_ints(sign, num, den))
    assert got == outcome(lambda: RadicalScalar(sign, F(num, den)))
    if isinstance(got, RadicalScalar):
        _assert_reduced(got)


def test_radical_mul_examples():
    product = radical_product
    assert product(RadicalScalar(1, F(2)), RadicalScalar(-1, F(2))) == RadicalScalar(-1, F(4))
    assert product(RadicalScalar(1, F(1, 2)), RadicalScalar(1, F(1, 2))) == RadicalScalar(1, F(1, 4))
    assert product(RadicalScalar.zero(), RadicalScalar(1, F(7))) == RadicalScalar.zero()


def test_of_rational_squares_back():
    assert RadicalScalar.of_rational(F(-3, 2)).radicand == F(9, 4)
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
    assert radical_product(a, b).radicand == a.radicand * b.radicand


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
