"""Geometric results against independent references, over random slopes.

Each slope is [0; (b1, ..., bp)] with 1 <= p <= 8 and quotients in 1..30,
so the fixed slopes of the other suites are far from the only ones tried;
the integer circle order (families and classes) also sees up to two
preperiod quotients, alpha + 1 and 1 - alpha.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmian_spectra.cf import ContinuedFraction
from sturmian_spectra.geometry import (
    LEFT_CLOSED,
    RIGHT_CLOSED,
    IntervalFamily,
    _level_order,
    ikm_intervals,
    level_intervals,
)
from sturmian_spectra.kabelian import classify_brute, classify_by_intervals
from sturmian_spectra.quadreal import QuadReal
from sturmian_spectra.spectra import (
    ResourceCapExceeded,
    brute_kab_exponent,
    max_kab_exponent,
)
from sturmian_spectra.words import SturmianSpec, factors_of_length, sturmian_prefix

periodic_slopes = st.lists(st.integers(1, 30), min_size=1, max_size=8).map(
    lambda period: ContinuedFraction([0], period).value()
)
preperiodic_slopes = st.builds(
    lambda pre, period: ContinuedFraction([0, *pre], period).value(),
    st.lists(st.integers(1, 30), max_size=2),
    st.lists(st.integers(1, 30), min_size=1, max_size=8),
)


def _spelling(family):
    """Every cut and every length of a family, component by component."""
    return [
        tuple((x.p, x.q, x.d, x.r) for x in (iv.start, iv.length))
        for iv in family.intervals
    ]


def _coarse_reference(alpha, k, m, conv):
    """The coarse family cut at its points {-j*alpha}, sorted generically."""
    j = min(m, k - 1)
    shifts = (0, m - j) if m >= k - 1 else (0,)
    points = [(-(i + s) * alpha).frac() for i in range(j + 1) for s in shifts]
    return IntervalFamily(points, conv)


def _convergents(alpha, limit):
    """Convergents (p, q) of alpha from exact QuadReal floors, up to the
    first with q > limit."""
    a = alpha.floor()
    out, prev, x = [(a, 1)], (1, 0), alpha - a
    while out[-1][1] <= limit:
        x = 1 / x
        a = x.floor()
        x -= a
        (p, q), prev = (a * out[-1][0] + prev[0], a * out[-1][1] + prev[1]), out[-1]
        out.append((p, q))
    return out


def _check_level_order(alpha, n):
    """The integer circle order and the families built from it, against the
    exact sort of the points {-j*alpha} and the families cut at them, cuts
    and lengths spelled alike (family equality looks at the cuts only)."""
    order, p, q = _level_order(alpha, n)
    assert (p, q) == _convergents(alpha, n)[-1]
    assert order == sorted(range(n + 1), key=lambda j: (-j * alpha).frac())
    for conv in (LEFT_CLOSED, RIGHT_CLOSED):
        got = level_intervals(alpha, n, conv)
        want = IntervalFamily([(-j * alpha).frac() for j in range(n + 1)], conv)
        assert got == want
        assert _spelling(got) == _spelling(want)
        if n < 1:
            continue  # a coarse family needs m >= 1
        for k in range(1, 7):
            got = ikm_intervals(alpha, k, n, conv)
            want = _coarse_reference(alpha, k, n, conv)
            assert got == want
            assert _spelling(got) == _spelling(want)


@given(preperiodic_slopes, st.data())
@settings(max_examples=60, deadline=None)
def test_integer_level_order_matches_the_exact_sort(alpha, data):
    """At n = q_t - 1, q_t and q_t + 1, for alpha, alpha + 1 and 1 - alpha
    (the last spells its sqrt coefficient negative)."""
    for x in (alpha, alpha + 1, 1 - alpha):
        q = data.draw(st.sampled_from([q for _, q in _convergents(x, 300)[:-1]]))
        _check_level_order(x, max(0, q + data.draw(st.integers(-1, 1))))


@pytest.mark.parametrize(
    "base",
    [
        ContinuedFraction([0, 3, 1, 1, 1, 100], [1]).value(),
        QuadReal(2, 1, 7, 5),  # 5 does not divide 7 - 2*2
        QuadReal(2, -1, 7, 5),
        QuadReal(-2, 1, 3, 4),  # a negative Q divides P + isqrt(D) on the way
    ],
)
def test_integer_level_order_on_awkward_spellings(base):
    for x in (base, base + 1, 1 - base):
        for _, q in _convergents(x, 1200)[:-1]:
            for n in (q - 1, q, q + 1):
                _check_level_order(x, n)


@given(periodic_slopes, st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_ranked_factors_match_the_sign_test_coder(alpha, n):
    """Each word read off the circle ranks is the coding from its interval's
    midpoint, under both endpoint conventions."""
    for conv in (LEFT_CLOSED, RIGHT_CLOSED):
        factors = factors_of_length(alpha, n, conv)
        assert len({w for w, _ in factors}) == n + 1
        for word, iv in factors:
            assert word == sturmian_prefix(SturmianSpec(alpha, iv.midpoint(), conv), n)


@given(preperiodic_slopes, st.integers(1, 5), st.integers(1, 80))
@settings(max_examples=150, deadline=None)
def test_interval_classes_match_signature_classes(alpha, k, m):
    """Rank classes are signature classes, and each member's level interval
    lies inside the coarse interval its class names, for alpha, alpha + 1
    and 1 - alpha."""
    for x in (alpha, alpha + 1, 1 - alpha):
        factors = dict(factors_of_length(x, m))
        classes = classify_by_intervals(x, k, m)
        got = sorted(c.members for c in classes)
        assert got == sorted(c.members for c in classify_brute(list(factors), k))
        coarse = ikm_intervals(x, k, m).intervals
        assert [c.interval_index for c in classes] == list(range(len(coarse)))
        for c in classes:
            outer = coarse[c.interval_index]
            for word in c.members:
                inner = factors[word]
                assert outer.start <= inner.start and inner.end <= outer.end


@given(periodic_slopes, st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_exponent_formula_matches_the_oracle(alpha, k, m):
    want = max_kab_exponent(alpha, k, m, with_witness=False).exponent
    try:
        got = brute_kab_exponent(alpha, k, m)
    except ResourceCapExceeded:
        return  # a declared refusal, never a wrong answer
    assert got == want
