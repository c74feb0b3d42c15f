"""Exact quadratic arithmetic: field ops, ordering, floor, printing."""

import math
import sys
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmian_spectra.quadreal import (
    _SMALL_PRIMES,
    MixedRadicandError,
    QuadReal,
    _floor_parts,
    _split_radicand,
    dist_to_int,
    sqrt,
)

from reference import split_radicand_by_trial

GOLDEN = QuadReal(1, 1, 5, 2)  # (1 + sqrt 5) / 2
FIB_SLOPE = QuadReal(3, -1, 5, 2)  # (3 - sqrt 5) / 2

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=97
)
def _quads(d):
    return st.builds(
        QuadReal, st.integers(-50, 50), st.integers(-50, 50), st.just(d),
        st.integers(1, 30),
    )


quads = st.sampled_from([2, 3, 5, 13, 462]).flatmap(_quads)
# pairs drawn from one field, so arithmetic between them is defined
quad_pairs = st.sampled_from([2, 3, 5, 13, 462]).flatmap(
    lambda d: st.tuples(_quads(d), _quads(d))
)


def test_known_golden_ratio_identities():
    """The golden ratio satisfies x*x = x + 1 and 1/x = x - 1."""
    assert GOLDEN * GOLDEN == GOLDEN + 1
    assert 1 / GOLDEN == GOLDEN - 1
    assert GOLDEN.floor() == 1


def test_normalization_pulls_out_square_factors():
    assert sqrt(8) == 2 * sqrt(2)
    assert sqrt(9) == QuadReal(3)
    assert sqrt(45) == 3 * sqrt(5)
    assert QuadReal(0, 4, 50, 6) == QuadReal(0, 10, 2, 3)


# radicands with small primes to high powers, a large prime, and a large square
radicands = st.builds(
    lambda small, e, c: small**e * c,
    st.sampled_from(_SMALL_PRIMES),
    st.integers(0, 40),
    st.integers(1, 10**24) | st.sampled_from([1009, 1009**2, 997 * 1009, 7919**2 * 3]),
)


@given(radicands | st.integers(1, 10**40))
@settings(max_examples=500)
def test_radicands_split_by_gcd_as_by_trial_division(n):
    assert _split_radicand.__wrapped__(n) == split_radicand_by_trial(n)


def test_radicands_split_by_gcd_as_by_trial_division_exhaustively():
    """Every n up to 10^5, and every p^e * c for a prime p below 1000,
    e <= 6 and c < 200 or one of a few cofactors past the small primes."""
    split = _split_radicand.__wrapped__
    assert all(split(n) == split_radicand_by_trial(n) for n in range(1, 10**5 + 1))
    cofactors = [*range(1, 200), 1009, 1009**2, 997 * 1009, 2**40 + 1]
    assert all(
        split(p**e * c) == split_radicand_by_trial(p**e * c)
        for p in _SMALL_PRIMES
        for e in range(1, 7)
        for c in cofactors
    )


def test_spellings_of_one_value_are_equal_and_hash_alike():
    """A square of a prime above the small-prime limit may stay in d."""
    x, y = QuadReal(0, 1, 5 * 1129**2), QuadReal(0, 1129, 5)
    assert x == y and hash(x) == hash(y)
    x, y = QuadReal(0, 1, 5 * 1129**2 * 1151), QuadReal(0, 1129, 5 * 1151)
    assert x.d != y.d  # two spellings of 1129*sqrt(5755)
    assert x == y and hash(x) == hash(y)
    assert len({x, y, QuadReal(3, 1129, 5 * 1151, 2) * 2 - 3}) == 1
    assert x != -y and x != y + 1 and x != y / 2


def test_arithmetic_across_spellings_of_one_field():
    big, small = sqrt(5 * 1129**2 * 1151), sqrt(5 * 1151)
    assert big.d != small.d
    assert big + small == 1130 * small
    assert big - 1129 * small == 0
    assert big * small == 5 * 1151 * 1129
    assert big / small == 1129
    assert (1 + big) * (1 - small) == 1 - 5 * 1151 * 1129 + 1128 * small
    assert big.compare(small) > 0 and small.compare(big) < 0
    assert big.compare(1129 * small) == 0


def test_rational_results_drop_the_radical():
    assert (sqrt(5) * sqrt(5)).is_rational
    assert sqrt(5) * sqrt(5) == 5
    x = GOLDEN - QuadReal(0, 1, 5, 2)
    assert x == Fraction(1, 2)


def test_mixed_radicands_refuse_arithmetic_but_compare():
    with pytest.raises(MixedRadicandError):
        sqrt(2) + sqrt(3)
    assert sqrt(2).compare(sqrt(3)) < 0
    assert sqrt(3).compare(sqrt(2)) > 0
    assert (1 + sqrt(2)).compare(sqrt(5)) > 0  # 2.414... vs 2.236...
    assert sqrt(2).compare(sqrt(2)) == 0


def test_cross_field_comparison_near_ties():
    """Signs must come out right even when the two sides nearly cancel."""
    # sqrt(51) = 7.1414..., 1 + sqrt(38) = 7.1644...
    assert sqrt(51) < 1 + sqrt(38)
    # 5 + 3 sqrt(2) = 9.2426..., 4 sqrt(5) + 0.3 = 9.2443...
    a = QuadReal(5, 3, 2, 1)
    b = QuadReal(0, 4, 5, 1) + Fraction(3, 10)
    assert a < b
    assert b > a


def _sign_by_squares(a, b, d):
    """The sign of a + b*sqrt(d), d >= 0: that of its nonzero terms when
    they agree, else that of a times the sign of a*a - b*b*d."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0) if d else 0
    if sa * sb >= 0:
        return sa or sb
    return sa * ((a * a > b * b * d) - (a * a < b * b * d))


big_ints = st.integers(-(2**200), 2**200)


@given(big_ints, big_ints, st.integers(0, 2**200) | st.integers(0, 2**100).map(lambda x: x * x),
       st.integers(1, 2**200))
@settings(max_examples=500, deadline=None)
def test_floor_parts_brackets_the_value_exactly(p, q, d, r):
    """n = _floor_parts(p, q, d, r) has n <= (p + q*sqrt(d))/r < n + 1,
    decided by exact sign tests, for d a perfect square too."""
    n = _floor_parts(p, q, d, r)
    assert _sign_by_squares(p - n * r, q, d) >= 0
    assert _sign_by_squares(p - (n + 1) * r, q, d) < 0


def test_floor_on_negative_values():
    assert (-sqrt(2)).floor() == -2
    assert (-QuadReal(4)).floor() == -4
    assert QuadReal(-1, 1, 5, 2).floor() == 0  # (sqrt5 - 1)/2 = 0.618...
    assert FIB_SLOPE.floor() == 0


def test_frac_lands_in_unit_interval():
    x = QuadReal(7, 3, 5, 2)  # 6.854...
    f = x.frac()
    assert f >= 0 and f < 1
    assert (x - f).is_rational and (x - f) == x.floor()


def test_dist_to_int_known_values():
    assert dist_to_int(QuadReal(0, 1, 5, 2)) == QuadReal(-2, 1, 5, 2)  # 0.118...
    assert dist_to_int(QuadReal(3)) == 0
    assert dist_to_int(QuadReal.from_fraction(Fraction(7, 3))) == Fraction(1, 3)


def test_decimal_forty_significant_digits():
    """Frozen reference digits, checked against an independent computation."""
    assert sqrt(5).decimal() == "2.236067977499789696409173668731276235441"
    assert FIB_SLOPE.decimal() == "0.3819660112501051517954131656343618822797"
    assert QuadReal(-5, 3, 5, 2).decimal() == (
        "0.8541019662496845446137605030969143531609"
    )


def test_decimal_short_and_edge_cases():
    assert QuadReal(0).decimal() == "0"
    assert QuadReal(25).decimal(2) == "25"
    assert QuadReal(1, 0, 0, 3).decimal(5) == "0.33333"
    assert QuadReal(2, 0, 0, 3).decimal(5) == "0.66667"  # round half up
    assert (-sqrt(2)).decimal(4) == "-1.414"
    assert QuadReal(1, 0, 0, 400).decimal(3) == "0.00250"


def _decimal_module_value(x, digits=None):
    """x by the decimal module at 120 digits, then rounded half up to
    `digits` significant digits when given."""
    with localcontext() as ctx:
        ctx.prec = 120
        value = (x.p + x.q * Decimal(x.d).sqrt()) / x.r
        if digits is not None:
            ctx.prec, ctx.rounding = digits, ROUND_HALF_UP
            value = +value
    return value


def test_decimal_scales_down_and_carries_like_the_decimal_module():
    """More integer digits than significant ones scale the value down (a
    negative shift), and a rounding that carries adds a digit and moves
    the point; both agree with the decimal module."""
    for x, digits, text in (
        (QuadReal(123456), 3, "123000"),
        (QuadReal(99999), 3, "100000"),
        (QuadReal(0, 1, 999999, 100), 3, "10.0"),
    ):
        assert x.decimal(digits) == text == f"{_decimal_module_value(x, digits):f}"


def test_float_of_a_large_value_is_correctly_rounded():
    """Past 64 bits the value is scaled down before its floor is taken."""
    x = 10**30 * sqrt(2)
    assert float(x) == float(_decimal_module_value(x))


def test_float_is_correctly_rounded_under_cancellation():
    """golden - F(j+1)/F(j) cancels about 2j bits of p/r against q*sqrt(5)/r."""
    a, b = 1, 1
    for _ in range(40):
        a, b = b, a + b
        x = GOLDEN - Fraction(b, a)
        assert float(x) == float(Fraction(x.decimal(60)))
    assert float(-GOLDEN) == -1.618033988749895


def test_json_round_trip_uses_strings_for_big_components():
    x = QuadReal(2221564096, 283748, 462, 491993569)
    obj = x.to_json()
    assert obj["p"] == "2221564096" and obj["d"] == "462"
    assert obj["decimal"].startswith("4.5278295661")
    assert QuadReal(*(int(obj[key]) for key in "pqdr")) == x


HASH_MODULUS = sys.hash_info.modulus
# numerators and denominators up to 10**40, and multiples of the hash modulus,
# where a denominator has no inverse and the hash is sys.hash_info.inf
hash_numerators = st.integers(-(10**40), 10**40) | st.integers(-(10**20), 10**20).map(
    lambda n: n * HASH_MODULUS
)
hash_denominators = st.integers(1, 10**40) | st.integers(1, 10**20).map(
    lambda n: n * HASH_MODULUS
)


def test_hash_agrees_with_fraction_for_rationals():
    assert hash(QuadReal.from_fraction(Fraction(3, 7))) == hash(Fraction(3, 7))
    assert hash(QuadReal(4)) == hash(4)
    P = HASH_MODULUS
    for p, r in [(-1, 1), (1, P), (-1, P), (-P - 1, 1), (P - 1, 1), (0, 5), (-3, 2 * P)]:
        assert hash(QuadReal(p, 0, 0, r)) == hash(Fraction(p, r))
    assert hash(QuadReal(1, 0, 0, P)) == sys.hash_info.inf
    assert hash(QuadReal(-1)) == hash(-1) == -2
    assert {Fraction(1, 2): 1}[QuadReal(1, 0, 0, 2)] == 1
    assert QuadReal(1, 0, 0, 2) == Fraction(1, 2) and Fraction(1, 2) == QuadReal(1, 0, 0, 2)


@given(hash_numerators, hash_denominators)
@settings(max_examples=300)
def test_rational_hash_is_the_fraction_hash(p, r):
    """A rational QuadReal hashes as the Fraction and the int it equals,
    with no Fraction built, so either finds the other in a dict."""
    assert hash(QuadReal(p, 0, 0, r)) == hash(Fraction(p, r))
    assert hash(QuadReal(p, 0, 0, 1)) == hash(p)


@given(rationals, rationals)
@settings(max_examples=100)
def test_rational_arithmetic_matches_fraction(a, b):
    """On the rational subfield the operations agree with Fraction exactly."""
    x, y = QuadReal.from_fraction(a), QuadReal.from_fraction(b)
    assert (x + y).to_fraction() == a + b
    assert (x - y).to_fraction() == a - b
    assert (x * y).to_fraction() == a * b
    if b:
        assert (x / y).to_fraction() == a / b
    assert x.floor() == math.floor(a)
    assert (x.compare(y) < 0) == (a < b)


@given(quad_pairs)
@settings(max_examples=100)
def test_field_identities(pair):
    """Addition and multiplication behave like a field on a shared radicand."""
    x, y = pair
    assert x + y == y + x
    assert (x + y) - y == x
    assert x * y == y * x
    if y != 0:
        assert (x * y) / y == x
    assert x + (-x) == 0


@given(quads)
@settings(max_examples=100)
def test_floor_frac_decomposition(x):
    n, f = x.floor(), x.frac()
    assert 0 <= f < 1
    assert x == f + n


@given(quads, quads)
@settings(max_examples=100)
def test_comparison_consistent_with_float(x, y):
    """Exact ordering agrees with floating point when the gap is visible."""
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-6:
        assert (x.compare(y) > 0) == (fx > fy)


@given(quads)
@settings(max_examples=100)
def test_json_round_trip(x):
    obj = x.to_json()
    assert QuadReal(*(int(obj[key]) for key in "pqdr")) == x


@given(st.integers(1, 500))
@settings(max_examples=100)
def test_sqrt_squares_back(n):
    r = sqrt(n)
    assert r * r == n
    assert r >= 0
