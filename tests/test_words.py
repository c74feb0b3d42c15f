"""Rotation codings: prefixes, factor languages, the doubling substitution."""

import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmian_spectra import geometry, words
from sturmian_spectra.cf import ContinuedFraction
from sturmian_spectra.geometry import (
    LEFT_CLOSED,
    RIGHT_CLOSED,
    ikm_intervals,
    level_intervals,
)
from sturmian_spectra.kabelian import classify_by_intervals
from sturmian_spectra.quadreal import MixedRadicandError, QuadReal
from sturmian_spectra.spectra import ResourceCapExceeded
from sturmian_spectra.words import (
    LANGUAGE_SYMBOL_CAP,
    SturmianSpec,
    _crossings,
    _language,
    factors_of_length,
    occurrences,
    sigma_factors_of_length,
    sigma_image,
    sturmian_prefix,
)

from reference import is_balanced_pair, sigma_window_scan

FIB_SLOPE = QuadReal(3, -1, 5, 2)
SILVER_SLOPE = QuadReal(-1, 1, 2, 1)
FIB_WORD = SturmianSpec(FIB_SLOPE, FIB_SLOPE)

periodic_slopes = st.lists(st.integers(1, 30), min_size=1, max_size=8).map(
    lambda period: ContinuedFraction([0], period).value()
)
small_intercepts = st.fractions(
    min_value=0, max_value=Fraction(199, 200), max_denominator=200
).map(QuadReal.from_fraction)


def _slow_coding(alpha, intercept, n, convention):
    """Reference coder: locate each orbit point in the two-interval family."""
    fam = level_intervals(alpha, 1)
    out = []
    for i in range(n):
        out.append("01"[fam.locate((intercept + i * alpha).frac(), convention)])
    return "".join(out)


def test_fibonacci_prefix_frozen():
    assert sturmian_prefix(FIB_WORD, 32) == "01001010010010100101001001010010"


def test_prefix_lengths_and_validation():
    assert sturmian_prefix(FIB_WORD, 0) == ""
    assert len(sturmian_prefix(FIB_WORD, 500)) == 500
    with pytest.raises(ValueError):
        sturmian_prefix(FIB_WORD, -1)
    with pytest.raises(ValueError):
        SturmianSpec(QuadReal.from_fraction(Fraction(2, 5)), QuadReal(0))
    with pytest.raises(ValueError):
        SturmianSpec(QuadReal(3, 1, 5, 2), QuadReal(0))  # slope above 1
    with pytest.raises(MixedRadicandError):
        sturmian_prefix(SturmianSpec(FIB_SLOPE, QuadReal(0, 1, 2, 3)), 5)


def test_intercept_reduced_into_unit_interval():
    spec = SturmianSpec(FIB_SLOPE, QuadReal(7, 3, 5, 2))
    assert spec.intercept == QuadReal(7, 3, 5, 2).frac()


def test_factor_counts_are_length_plus_one():
    for n in range(1, 41):
        assert len(factors_of_length(FIB_SLOPE, n)) == n + 1


def test_factor_sets_match_windows_of_a_long_prefix():
    """The geometric language equals the set of observed windows."""
    prefix = sturmian_prefix(FIB_WORD, 2000)
    for n in range(1, 13):
        observed = {prefix[i : i + n] for i in range(len(prefix) - n + 1)}
        assert {w for w, _ in factors_of_length(FIB_SLOPE, n)} == observed


def test_every_factor_occurs_in_a_bounded_window():
    """Uniform recurrence: short factors all show up early."""
    prefix = sturmian_prefix(FIB_WORD, 500)
    for n in range(1, 13):
        for w, _ in factors_of_length(FIB_SLOPE, n):
            assert occurrences(prefix, w) >= 1


def test_languages_past_the_symbol_budget_are_refused_before_sorting():
    """10001 factors of length 10000 pass the budget of 10**8 symbols, by
    10**4; every path that decodes a language refuses them before it sorts
    a crossing order.  9999 is within the budget, and sorts exactly once."""
    _crossings.cache_clear()
    for decode in (
        lambda n: _language(FIB_SLOPE, n),
        lambda n: factors_of_length(FIB_SLOPE, n),
        lambda n: sigma_factors_of_length(FIB_SLOPE, n - 1),
        lambda n: classify_by_intervals(FIB_SLOPE, 2, n),
    ):
        with pytest.raises(ResourceCapExceeded) as info:
            decode(10**4)
        assert (info.value.needed, info.value.cap) == (10001 * 10**4, LANGUAGE_SYMBOL_CAP)
    assert LANGUAGE_SYMBOL_CAP == 10**8
    assert _crossings.cache_info().misses == 0
    _language(FIB_SLOPE, 9999)
    assert _crossings.cache_info().misses == 1


def test_a_fresh_language_expands_and_sorts_once(monkeypatch):
    """The first word, the crossing order and the level family of a fresh
    language share one convergent and one circle-order sort, and the
    family equals the public level_intervals."""
    calls = []
    for mod in (words, geometry):
        for name in ("_convergent_past", "_circle_order"):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    alpha = ContinuedFraction([0, 7], [2, 9]).value()
    factors = factors_of_length(alpha, 321)
    assert calls == ["_convergent_past", "_circle_order"]
    assert tuple(iv for _, iv in factors) == level_intervals(alpha, 321).intervals


def test_factor_cache_ignores_the_convention_spelling():
    """The convention changes no language, so the three spellings of one
    call share one entry of the crossing cache, which cache_info reads: one
    miss, then two hits, and equal factors."""
    alpha = ContinuedFraction([0], [4, 7]).value()
    before = factors_of_length.cache_info()
    first = factors_of_length(alpha, 301)
    assert factors_of_length(alpha, 301, LEFT_CLOSED) == first
    assert factors_of_length(alpha, 301, RIGHT_CLOSED) == first
    after = factors_of_length.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


def test_languages_built_in_turn_hold_only_their_crossings():
    """Eight languages of length 5000, each built and dropped in turn, leave
    under 5 MB held (about 1.7 MB): the crossing cache keeps each text and
    order, and nothing keeps their words or intervals."""
    slopes = [ContinuedFraction([0], [a, a + 1]).value() for a in range(1, 9)]
    _crossings.cache_clear()
    tracemalloc.start()
    try:
        for alpha in slopes:
            assert len(factors_of_length(alpha, 5000)) == 5001
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 5 * 10**6, held


def test_interval_values_are_built_only_when_read(monkeypatch):
    """A language and its families make no QuadReal: an interval builds its
    start and its length the first time each is read, and keeps them."""
    alpha = ContinuedFraction([0, 5], [3, 8]).value()
    made = []
    init = QuadReal.__init__

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(QuadReal, "__init__", counting_init)
    factors = factors_of_length(alpha, 257)
    level_intervals(alpha, 258)
    ikm_intervals(alpha, 4, 257)
    assert made == []
    iv = factors[100][1]
    start, length = iv.start, iv.length
    assert len(made) == 2
    again = tuple(iv)  # unpacking reads both values once more
    assert again[0] is start and again[1] is length
    assert len(made) == 2


def test_exactly_one_right_special_factor_per_length():
    for n in range(1, 61):
        words = {w for w, _ in factors_of_length(FIB_SLOPE, n)}
        longer = {w for w, _ in factors_of_length(FIB_SLOPE, n + 1)}
        special = [w for w in words if w + "0" in longer and w + "1" in longer]
        assert len(special) == 1


def test_all_equal_length_factor_pairs_are_balanced():
    for n in range(1, 31):
        words = [w for w, _ in factors_of_length(FIB_SLOPE, n)]
        for i, u in enumerate(words):
            for v in words[i + 1 :]:
                assert is_balanced_pair(u, v)


def test_letter_frequency_tracks_the_slope():
    """Number of ones in a length-n prefix stays within 1 of n*slope."""
    prefix = sturmian_prefix(FIB_WORD, 700)
    for n in [1, 10, 89, 233, 700]:
        ones = prefix[:n].count("1")
        gap = n * FIB_SLOPE - ones
        assert -1 < gap < 1


def test_occurrences_counts_overlaps():
    assert occurrences("010101", "0101") == 2
    assert occurrences("0000", "00") == 3
    assert occurrences("0110", "10") == 1
    assert occurrences("0110", "000") == 0
    with pytest.raises(ValueError):
        occurrences("01", "")


def test_substitution_image():
    assert sigma_image("0") == "02"
    assert sigma_image("1") == "1"
    assert sigma_image("010") == "02102"
    assert sigma_image("") == ""
    with pytest.raises(ValueError):
        sigma_image("012")


def test_substituted_factors_match_windows_of_the_substituted_prefix():
    image = sigma_image(sturmian_prefix(FIB_WORD, 400))
    for n in range(1, 9):
        observed = {image[i : i + n] for i in range(len(image) - n + 1)}
        assert set(sigma_factors_of_length(FIB_SLOPE, n)) == observed


def test_sigma_language_is_built_afresh_from_two_windows_per_image():
    """No cache keeps sigma-languages, and at n = 1000 the two windows per
    image beat every window of every image by at least 5 times (about 20
    times on 2 CPUs under Python 3.11), the best of three runs against one."""
    assert not hasattr(sigma_factors_of_length, "cache_info")

    def seconds(build, runs):
        best = float("inf")
        for _ in range(runs):
            start = time.perf_counter()
            build(FIB_SLOPE, 1000)
            best = min(best, time.perf_counter() - start)
        return best

    fast, scan = seconds(sigma_factors_of_length, 3), seconds(sigma_window_scan, 1)
    assert 5 * fast < scan, (fast, scan)


def test_balance_checker_validation():
    assert is_balanced_pair("01", "10")
    assert not is_balanced_pair("00", "11")
    with pytest.raises(ValueError):
        is_balanced_pair("0", "00")
    with pytest.raises(ValueError):
        is_balanced_pair("02", "00")


def _intercepts(alpha, n):
    """Rational and irrational intercepts, and the points where the two
    conventions part: the cuts {-j*alpha} for 0 <= j <= n, 0 and 1 - alpha."""
    return st.one_of(
        small_intercepts,
        st.builds(
            lambda a, b, d: ((a + b * alpha) / d).frac(),
            st.integers(-300, 300),
            st.integers(-300, 300),
            st.integers(1, 300),
        ),
        st.integers(0, n).map(lambda j: (-j * alpha).frac()),
        st.sampled_from([QuadReal(0), 1 - alpha]),
    )


@given(st.one_of(st.just(FIB_SLOPE), periodic_slopes), st.integers(1, 60), st.data())
@settings(max_examples=300, deadline=None)
def test_fast_coder_agrees_with_locate_reference(alpha, n, data):
    """The rational-rotation coder matches locating every point afresh."""
    rho = data.draw(_intercepts(alpha, n))
    for conv in (LEFT_CLOSED, RIGHT_CLOSED):
        spec = SturmianSpec(alpha, rho, conv)
        assert sturmian_prefix(spec, n) == _slow_coding(alpha, rho, n, conv)


@given(small_intercepts)
@settings(max_examples=60)
def test_fast_coder_agrees_on_a_second_slope(rho):
    spec = SturmianSpec(SILVER_SLOPE, rho, RIGHT_CLOSED)
    assert sturmian_prefix(spec, 50) == _slow_coding(SILVER_SLOPE, rho, 50, RIGHT_CLOSED)
