"""Geometric results against independent references, over random slopes.

Each slope is [0; (b1, ..., bp)] with 1 <= p <= 8 and quotients in 1..30,
so the fixed slopes of the other suites are far from the only ones tried.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from sturmian_spectra.cf import ContinuedFraction
from sturmian_spectra.geometry import LEFT_CLOSED, RIGHT_CLOSED
from sturmian_spectra.kabelian import classify_brute, classify_by_intervals
from sturmian_spectra.spectra import (
    ResourceCapExceeded,
    brute_kab_exponent,
    max_kab_exponent,
)
from sturmian_spectra.words import SturmianSpec, factors_of_length, sturmian_prefix

periodic_slopes = st.lists(st.integers(1, 30), min_size=1, max_size=8).map(
    lambda period: ContinuedFraction([0], period).value()
)


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


@given(periodic_slopes, st.integers(1, 5), st.integers(1, 80))
@settings(max_examples=150, deadline=None)
def test_interval_classes_match_signature_classes(alpha, k, m):
    words = [w for w, _ in factors_of_length(alpha, m)]
    got = sorted(c.members for c in classify_by_intervals(alpha, k, m) if c.members)
    assert got == sorted(c.members for c in classify_brute(words, k))


@given(periodic_slopes, st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_exponent_formula_matches_the_oracle(alpha, k, m):
    want = max_kab_exponent(alpha, k, m, with_witness=False).exponent
    try:
        got = brute_kab_exponent(alpha, k, m)
    except ResourceCapExceeded:
        return  # a declared refusal, never a wrong answer
    assert got == want
