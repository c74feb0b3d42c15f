"""Repetition exponents, their limiting constants, and slope construction."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmian_spectra import cf as cf_module
from sturmian_spectra import geometry, spectra, words
from sturmian_spectra.cf import ContinuedFraction
from sturmian_spectra.geometry import level_intervals
from sturmian_spectra.kabelian import kab_equivalent
from sturmian_spectra.quadreal import QuadReal, sqrt
from sturmian_spectra.spectra import (
    BoundReport,
    ResourceCapExceeded,
    brute_kab_exponent,
    construct_linfty_slope,
    exponent_bound_check,
    max_kab_exponent,
    sample_spectrum,
    theta_k,
    theta_limsup_estimate,
)
from sturmian_spectra.words import (
    SturmianSpec,
    factors_of_length,
    occurrences,
    sturmian_prefix,
)

FIB = ContinuedFraction.parse("[0; 2, (1)]")
GOLDEN_TAIL = ContinuedFraction.parse("[0; (1)]")
SILVER = ContinuedFraction.parse("[0; (2)]")
SPIKE = ContinuedFraction.parse("[0; 3, 1, 1, 1, 100, (1)]")
FIB_SLOPE = FIB.value()


def _longest_integer_power(prefix, m):
    """Longest n with some u of length m repeated n times in the prefix."""
    best = 0
    for i in range(len(prefix) - m):
        n = 1
        while (
            i + (n + 1) * m <= len(prefix)
            and prefix[i + n * m : i + (n + 1) * m] == prefix[i : i + m]
        ):
            n += 1
        best = max(best, n)
    return best


def test_exponent_known_values():
    assert max_kab_exponent(FIB_SLOPE, 2, 5, with_witness=False).exponent == 5
    assert max_kab_exponent(FIB_SLOPE, 1, 5, with_witness=False).exponent == 11
    assert max_kab_exponent(FIB_SLOPE, 2, 11, with_witness=False).exponent == 3
    assert max_kab_exponent(FIB_SLOPE, 2, 32, with_witness=False).exponent == 3
    assert max_kab_exponent(SPIKE.value(), 2, 4, with_witness=False).exponent == 6


def test_exponent_record_geometry():
    rec = max_kab_exponent(FIB_SLOPE, 2, 5)
    assert rec.max_interval_length == FIB_SLOPE
    assert rec.step == QuadReal(-11, 5, 5, 2)  # |5 alpha - 2|
    # the exponent is the floor count plus one except at exact ties
    floor = (rec.max_interval_length / rec.step).floor()
    bump = 0 if rec.max_interval_length == rec.step else 1
    assert rec.exponent == floor + bump


def test_witness_is_a_genuine_power_of_the_word():
    rec = max_kab_exponent(FIB_SLOPE, 2, 5)
    assert rec.witness == "0100101001010010010100101"
    assert rec.witness_intercept == QuadReal(-63, 29, 5, 4)
    assert len(rec.witness) == rec.exponent * rec.m
    blocks = [rec.witness[i * 5 : (i + 1) * 5] for i in range(rec.exponent)]
    for u, v in zip(blocks, blocks[1:]):
        assert kab_equivalent(u, v, 2)
    long_prefix = sturmian_prefix(SturmianSpec(FIB_SLOPE, FIB_SLOPE), 2000)
    assert occurrences(long_prefix, rec.witness) >= 1


def test_witnesses_verify_across_a_grid():
    for k in (1, 2, 3):
        for m in range(1, 11):
            rec = max_kab_exponent(FIB_SLOPE, k, m)
            blocks = [rec.witness[i * m : (i + 1) * m] for i in range(rec.exponent)]
            assert all(kab_equivalent(u, v, k) for u, v in zip(blocks, blocks[1:]))


def test_formula_matches_brute_force_scan():
    """The interval computation agrees with scanning the factor language."""
    for k in (1, 2, 3):
        for m in range(1, 15):
            want = max_kab_exponent(FIB_SLOPE, k, m, with_witness=False).exponent
            assert brute_kab_exponent(FIB_SLOPE, k, m) == want
    silver = SILVER.value()
    for m in range(1, 11):
        want = max_kab_exponent(silver, 2, m, with_witness=False).exponent
        assert brute_kab_exponent(silver, 2, m) == want


def test_exponents_shrink_as_the_order_grows():
    for m in range(1, 21):
        prev = None
        for k in range(1, 5):
            cur = max_kab_exponent(FIB_SLOPE, k, m, with_witness=False).exponent
            if prev is not None:
                assert cur <= prev
            prev = cur


def test_brute_force_respects_its_cap(monkeypatch):
    monkeypatch.setenv("STURMIAN_SPECTRA_CAP", "30")
    with pytest.raises(ResourceCapExceeded) as info:
        brute_kab_exponent(FIB_SLOPE, 1, 5)
    assert info.value.needed == 35
    assert info.value.cap == 30
    monkeypatch.delenv("STURMIAN_SPECTRA_CAP")
    assert brute_kab_exponent(FIB_SLOPE, 1, 5) == 11


@pytest.mark.parametrize(
    "k, m, env, match",
    [
        (2, 0, None, "period"),  # was a ZeroDivisionError
        (2, -3, None, "period"),  # was the wrong answer -22
        (0, 5000, None, "order"),  # was a cap refusal at the default cap
        (2, 0, "abc", "period"),  # a bad argument is named before a bad environment cap
    ],
)
def test_brute_force_rejects_bad_arguments_as_usage_errors(monkeypatch, k, m, env, match):
    """`env` is STURMIAN_SPECTRA_CAP, None for unset."""
    monkeypatch.delenv("STURMIAN_SPECTRA_CAP", raising=False)
    if env is not None:
        monkeypatch.setenv("STURMIAN_SPECTRA_CAP", env)
    with pytest.raises(ValueError, match=match):
        brute_kab_exponent(FIB_SLOPE, k, m)


def test_cap_can_come_from_the_environment(monkeypatch):
    monkeypatch.setenv("STURMIAN_SPECTRA_CAP", "40")
    with pytest.raises(ResourceCapExceeded):
        brute_kab_exponent(FIB_SLOPE, 1, 51)


def test_the_oracle_decides_blocks_of_ten_thousand_letters(monkeypatch):
    """[0; (2)] at m = 10 001 under a cap of 32 000: the oracle keys the
    m+1 length-m factors flipped off the level-m crossing order, never
    decoded, so the length-m language's 10^8 symbols, past
    LANGUAGE_SYMBOL_CAP, are no bar, and it meets the formula at k = 1..4."""
    monkeypatch.setenv("STURMIAN_SPECTRA_CAP", "32000")
    alpha, m = SILVER.value(), 10_001
    found = [brute_kab_exponent(alpha, k, m) for k in range(1, 5)]
    assert found == [max_kab_exponent(alpha, k, m, with_witness=False).exponent for k in range(1, 5)]
    assert found == [2, 1, 1, 1]


def test_the_oracle_sorts_no_language_longer_than_its_period(monkeypatch):
    """The oracle orders the m+1 level-m cuts and no rung's language:
    spectra asks for the crossing order at n = m alone, both on a ladder
    that climbs to the cap of 2000 ([0; (1, 3, 1, 8)], k = 1, m = 39, for
    26) and on one refused there ([0; (60)], k = 1, m = 60)."""
    monkeypatch.delenv("STURMIAN_SPECTRA_CAP", raising=False)
    crossings = spectra._crossings
    for text, m, want in ("[0; (1, 3, 1, 8)]", 39, 26), ("[0; (60)]", 60, (2040, 2000)):

        def level_order_only(alpha, n, m=m):
            assert n == m, f"the oracle sorted the length-{n} language"
            return crossings(alpha, n)

        monkeypatch.setattr(spectra, "_crossings", level_order_only)
        try:
            got = brute_kab_exponent(ContinuedFraction.parse(text).value(), 1, m)
        except ResourceCapExceeded as exc:
            got = exc.needed, exc.cap
        assert got == want


def _integer_power_exponent(cf, m):
    """The largest literal power of period m: at order k = m, 2k > m, the
    coarse family is the whole level-m family, and k-abelian equivalence of
    length-m words is equality."""
    return max_kab_exponent(cf.value(), m, m, with_witness=False).exponent


def test_integer_power_known_values():
    assert _integer_power_exponent(FIB, 5) == 3
    assert _integer_power_exponent(FIB, 2) == 2
    assert _integer_power_exponent(SPIKE, 11) == 102
    # slopes above 1/2 (a_1 = 1, so q_1 = q_0): at m = q_2 the answer is
    # a_3 + 1, not the a_{t+1} + 2 of the convergents past it
    assert _integer_power_exponent(GOLDEN_TAIL, 2) == 2
    assert _integer_power_exponent(ContinuedFraction.parse("[0; 1, 1, 6, (2)]"), 2) == 7


def test_integer_power_matches_a_prefix_scan():
    """Window scan of the actual word confirms the reported exponents, on a
    slope below 1/2 and on one above."""
    for cf in (FIB, GOLDEN_TAIL):
        alpha = cf.value()
        prefix = sturmian_prefix(SturmianSpec(alpha, alpha), 3000)
        for m in range(2, 16):
            assert _integer_power_exponent(cf, m) == _longest_integer_power(prefix, m), (cf, m)


def test_integer_power_small_off_the_convergents():
    denominators = {c.q for c in FIB.convergents(8)}
    for m in range(2, 21):
        if m not in denominators:
            assert _integer_power_exponent(FIB, m) <= 2


def test_theta_known_values():
    assert theta_k(FIB, 2) == QuadReal(-5, 3, 5, 2)
    assert theta_k(FIB, 1) == sqrt(5)
    assert theta_k(FIB, 2).decimal() == (
        "0.8541019662496845446137605030969143531609"
    )


def test_theta_order_one_is_the_lagrange_constant():
    for cf in [FIB, GOLDEN_TAIL, SILVER, SPIKE, ContinuedFraction.parse("[0; (1, 2)]")]:
        assert theta_k(cf, 1) == cf.lagrange_constant()


def test_theta_decreases_with_the_order():
    for cf in [FIB, SILVER]:
        values = [theta_k(cf, k) for k in range(1, 5)]
        for hi, lo in zip(values, values[1:]):
            assert lo.compare(hi) <= 0


def test_theta_stays_above_the_order_scaled_floor():
    root5 = sqrt(5)
    for cf in [FIB, GOLDEN_TAIL, SILVER]:
        for k in range(2, 5):
            floor = root5 / (2 * k - 1)
            assert theta_k(cf, k).compare(floor) > 0


def test_theta_rejects_rational_slopes():
    with pytest.raises(ValueError):
        theta_k(ContinuedFraction.parse("[0; 3]"), 2)


@pytest.mark.parametrize(
    "slope", [QuadReal.from_fraction(Fraction(2, 7)), QuadReal(0), QuadReal(1, 1, 4, 5)]
)
@pytest.mark.parametrize(
    "build",
    [
        lambda a: factors_of_length(a, 9),
        lambda a: level_intervals(a, 9),
        lambda a: brute_kab_exponent(a, 2, 3),
    ],
)
def test_rational_slopes_are_refused_before_any_expansion(slope, build):
    """(1 + sqrt 4)/5 is rational too; none of these may expand a rational."""
    with pytest.raises(ValueError, match="slope must be irrational"):
        build(slope)


def test_equivalent_slopes_can_still_differ_at_order_two():
    other = ContinuedFraction.parse("[0; 1, 2, (1)]")
    assert GOLDEN_TAIL.equivalent(other)
    assert theta_k(GOLDEN_TAIL, 1) == theta_k(other, 1)
    assert theta_k(GOLDEN_TAIL, 2) != theta_k(other, 2)


def test_limsup_estimate_frozen_terms():
    est = theta_limsup_estimate(FIB, 2, 20)
    terms = dict(est.terms)
    assert terms[4] == Fraction(3, 4)
    assert terms[5] == Fraction(12, 13)
    assert terms[10] == Fraction(61, 72)
    assert terms[15] == Fraction(1365, 1597)
    assert terms[17] == Fraction(3572, 4181)
    assert terms[20] == Fraction(15126, 17711)
    assert est.window_start == 16
    assert est.estimate == Fraction(3572, 4181)
    assert est.slack == Fraction(1, 1292)


def test_limsup_estimate_tracks_the_exact_constant():
    for cf, k in [(FIB, 1), (FIB, 2), (SILVER, 2)]:
        exact = theta_k(cf, k)
        for t_max in (10, 15, 20):
            est = theta_limsup_estimate(cf, k, t_max)
            gap = abs(QuadReal.from_fraction(est.estimate) - exact)
            assert gap < est.slack


def test_limsup_estimate_misses_a_peak_outside_its_window():
    """A six-term period, a five-index window: no term in the window tracks
    the limit superior, so the gap dwarfs the slack; two more stages catch
    the peak at t = 11."""
    cf = ContinuedFraction.parse("[0; 27, (6, 9, 16, 1, 26, 21)]")
    exact = theta_k(cf, 4)
    est = theta_limsup_estimate(cf, 4, 10)
    assert est.window_start == 6
    assert est.estimate == Fraction(11375086, 688653)
    assert est.slack == Fraction(2, 688653)
    assert exact - est.estimate > 4
    est = theta_limsup_estimate(cf, 4, 12)
    assert est.estimate == Fraction(288886900321, 13738577396)
    assert abs(exact - est.estimate) < est.slack


@pytest.mark.parametrize("t_max", [1, 5])
def test_limsup_estimate_refuses_a_rational_slope_before_any_fold(monkeypatch, t_max):
    """[0; 2, 3] is rational: it raised TypeError at t_max = 1 and
    IndexError at t_max = 5 from the fold; k is checked before the slope."""
    monkeypatch.setattr(ContinuedFraction, "convergents", lambda *_: pytest.fail("folded"))
    monkeypatch.setattr(spectra, "_convergent_past", lambda *_: pytest.fail("folded"))
    rational = ContinuedFraction.parse("[0; 2, 3]")
    with pytest.raises(ValueError, match="slope must be irrational"):
        theta_limsup_estimate(rational, 2, t_max)
    with pytest.raises(ValueError, match="order k must be >= 1"):
        theta_limsup_estimate(rational, 0, t_max)


def test_limsup_estimate_single_term():
    est = theta_limsup_estimate(FIB, 2, 1)
    assert est.estimate == 1
    assert est.slack == 1
    assert est.terms == ((1, Fraction(1)),)


def test_exponent_bounds_hold_along_the_convergents():
    report = exponent_bound_check(FIB, 2, range(1, 9))
    assert report.ok
    assert report.t_checked == [2, 3, 4, 5, 6, 7, 8]  # t=1 is below the gate
    assert report.convergent_slack_violations == []
    assert report.approx_window_violations == []
    report = exponent_bound_check(SPIKE, 2, range(1, 9))
    assert report.ok
    assert report.t_checked == [1, 2, 3, 4, 5, 6, 7, 8]


def test_a_bound_report_on_a_deep_convergent_holds_no_euclid_frames():
    """At t = 4000 the report's convergent has about 1700 digits, and each
    of the thousands of Euclid steps of a first return time would hold an
    integer that long if it kept its own p, q and bounds (4.96 MB traced);
    _first_time keeps two small quotients a step (0.27 MB)."""
    cf = ContinuedFraction.parse("[0; 2, (1)]")
    tracemalloc.start()
    try:
        report = exponent_bound_check(cf, 2, [4000])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.t_checked == [4000]
    assert peak < 1_000_000


def test_bound_report_past_its_period_cap_is_refused_before_ranking(monkeypatch):
    """FIB at k = 2 over t = 1..11 may rank needed = min(2k-1, q_12 - 1) +
    5*11 = 58 periods by the bound in exponent_bound_check's docstring: a
    cap of 58 leaves the report as it was, and one of 57 raises
    ResourceCapExceeded before a convergent is taken or a family built."""
    calls = []
    real = spectra._kab_exponents

    def counted(k, periods, p, q):
        periods = list(periods)
        calls.append(len(periods))
        return real(k, periods, p, q)

    monkeypatch.setattr(spectra, "_kab_exponents", counted)
    monkeypatch.setattr(spectra, "BOUND_PERIOD_CAP", 58)
    report = exponent_bound_check(FIB, 2, range(1, 12))
    assert report == BoundReport(2, list(range(2, 12)), [], [], [])
    assert calls == [10, 5]
    monkeypatch.setattr(spectra, "BOUND_PERIOD_CAP", 57)
    _forbid_ranking(monkeypatch)
    with pytest.raises(ResourceCapExceeded) as info:
        exponent_bound_check(FIB, 2, range(1, 12))
    assert (info.value.needed, info.value.cap) == (58, 57)


@pytest.mark.parametrize(
    "k, t_range, needed",
    [
        (10**6 + 3, [30], 2_000_010),  # min(2k-1, q_31 - 1) + 5: its periods below 2k
        (2, range(200_001), 1_000_008),  # min(2k-1, q_200001 - 1) + 5*200 001: its t
    ],
    ids=["by-k", "by-t"],
)
def test_a_bound_report_past_its_period_bound_builds_nothing(monkeypatch, k, t_range, needed):
    """[0; 2, (1)] at these k and t may rank more periods than the real cap
    of 10^6, so it is refused with no convergent table built, nothing
    ranked and no family built."""
    _forbid_ranking(monkeypatch)
    monkeypatch.setattr(
        ContinuedFraction, "convergents", lambda *_: pytest.fail("built a convergent table")
    )
    with pytest.raises(ResourceCapExceeded) as info:
        exponent_bound_check(FIB, k, t_range)
    assert (info.value.needed, info.value.cap) == (needed, 10**6)


def _forbid_ranking(monkeypatch):
    """Make the convergent, the rank families and the kernel fail if called."""
    for name in ("_convergent_past", "_rank_gaps", "_kab_exponents"):
        monkeypatch.setattr(spectra, name, lambda *_, name=name: pytest.fail(f"called {name}"))


def test_order_one_exponents_grow_along_convergents():
    """A_1(m) < A_1(q_t) for every m < q_t, and the k = 1 report is clean."""
    alpha = FIB.value()
    for c in FIB.convergents(8)[1:]:
        a_qt = max_kab_exponent(alpha, 1, c.q, with_witness=False).exponent
        for m in range(1, c.q):
            assert max_kab_exponent(alpha, 1, m, with_witness=False).exponent < a_qt
    report = exponent_bound_check(FIB, 1, range(1, 9))
    assert report == BoundReport(1, list(range(1, 9)), [], [], [])


def test_order_one_reports_rank_nothing_at_any_depth(monkeypatch):
    """At k = 1 the report is decided by proof (see exponent_bound_check):
    FIB to t = 60, whose q_61 is past 10^12, checks every t, fills no list
    and ranks no period, where ranking would pass BOUND_PERIOD_CAP."""
    def no_kernel(*args):
        raise AssertionError("a k = 1 report ranked a period")

    monkeypatch.setattr(spectra, "_kab_exponents", no_kernel)
    report = exponent_bound_check(FIB, 1, range(1, 61))
    assert report.ok and report.t_checked == list(range(1, 61))
    assert report.convergent_slack_violations == report.improved_slack_exceedances == []
    assert report.approx_window_violations == []
    assert FIB.convergents(61)[-1].q > 10**12


def test_each_call_expands_its_slope_at_most_once(monkeypatch):
    """max_kab_exponent starts one integer quotient stream per call, through
    its refinements and its witness; the functions that take a continued
    fraction fold its own quotients, start no stream, and build a value
    only for the one they report."""
    golden, coarse = GOLDEN_TAIL.value(), ContinuedFraction([0, 5], [7]).value()
    exponent_cases = [
        (FIB_SLOPE, 2, 5),
        (SPIKE.value(), 2, 4),
        (1 - golden, 3, 40),
        (golden, 1, 42),  # this one and the next refine the convergent past 2m
        (coarse, 1, 12),
    ]
    streams, values = [], []
    real_stream, real_value = cf_module._quotients_of, ContinuedFraction.value
    for mod in (cf_module, geometry, words, spectra):
        monkeypatch.setattr(
            mod, "_quotients_of", lambda alpha: streams.append(alpha) or real_stream(alpha)
        )
    monkeypatch.setattr(
        ContinuedFraction, "value", lambda self: values.append(self) or real_value(self)
    )
    for alpha, k, m in exponent_cases:
        streams.clear()
        assert max_kab_exponent(alpha, k, m, with_witness=True).witness is not None
        assert streams == [alpha]
    streams.clear()
    assert exponent_bound_check(FIB, 2, range(1, 9)).ok
    assert exponent_bound_check(SPIKE, 1, range(1, 30)).ok
    theta_limsup_estimate(FIB, 2, 20)
    assert streams == values == []
    theta_k(SILVER, 3)
    assert streams == [] and values == [SILVER]
    values.clear()
    points = sample_spectrum(2, FIB, 4)
    assert streams == [] and values == [point.cf for point in points]


def test_linfty_construction_half():
    rep = construct_linfty_slope(Fraction(1, 2), 4)
    assert rep.quotients == (1, 1, 1, 1, 1, 2, 8, 86)
    assert rep.prefix.render() == "[0; 1, 1, 1, 1, 1, 2, 8, 86]"
    assert rep.padding_ok
    assert [s.k for s in rep.stages] == [4, 5, 6, 7]
    assert [s.ratio for s in rep.stages] == [
        Fraction(3, 5), Fraction(1, 2), Fraction(10, 21), Fraction(1, 2)]
    assert [s.error for s in rep.stages] == [
        Fraction(1, 10), Fraction(0), Fraction(1, 42), Fraction(0)]


def test_linfty_construction_one():
    rep = construct_linfty_slope(1, 4)
    assert rep.quotients == (1, 1, 1, 1, 3, 16, 291)
    assert [s.k for s in rep.stages] == [3, 4, 5, 6]
    assert all(s.ratio == 1 and s.error == 0 for s in rep.stages)
    assert rep.padding_ok


def test_linfty_construction_seven_thirds():
    rep = construct_linfty_slope(Fraction(7, 3), 4)
    assert rep.quotients == (1, 1, 2, 9, 107, 11744)
    assert [s.ratio for s in rep.stages] == [
        Fraction(2), Fraction(11, 5), Fraction(109, 47), Fraction(7, 3)]
    assert rep.stages[-1].error == 0
    assert rep.padding_ok


def test_linfty_stage_errors_shrink_geometrically():
    for target in (Fraction(1, 2), Fraction(3), Fraction(7, 3)):
        rep = construct_linfty_slope(target, 5)
        for stage in rep.stages:
            assert stage.bound == Fraction(1, 2**stage.t)
            assert stage.error < stage.bound
            assert stage.ratio == Fraction(stage.a_next + 2, stage.q)
        ks = [s.k for s in rep.stages]
        assert ks == sorted(ks) and len(set(ks)) == len(ks)


@given(
    st.fractions(min_value=Fraction(1, 30), max_value=Fraction(50), max_denominator=30),
    st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_linfty_stage_denominators_are_the_prefix_convergents(target, stages):
    """q_k is the denominator of the prefix's convergent [0; a_1, ..., a_k],
    read off its value: a planted a_{k+1} = 1 closing the prefix merges into
    a_k when the expansion is canonicalised, so the prefix's own index k can
    be missing."""
    rep = construct_linfty_slope(target, stages)
    for stage in rep.stages:
        convergent = ContinuedFraction([0, *rep.quotients[: stage.k]]).value()
        assert convergent.q == 0 and convergent.r == stage.q


def test_linfty_rejects_bad_targets():
    with pytest.raises(ValueError):
        construct_linfty_slope(0, 3)
    with pytest.raises(ValueError):
        construct_linfty_slope(Fraction(-2, 5), 3)
    with pytest.raises(ValueError):
        construct_linfty_slope(Fraction(1, 2), 0)


def test_preperiod_pool_order_frozen():
    assert list(itertools.islice(spectra._preperiods(), 10)) == [
        (), (1, 1), (1, 2), (2, 2), (2, 1), (1, 3), (2, 3), (3, 3), (3, 1), (3, 2)]


def test_spectrum_sampling_is_deterministic():
    a = sample_spectrum(2, GOLDEN_TAIL, 25)
    b = sample_spectrum(2, GOLDEN_TAIL, 25)
    assert a == b
    assert len(a) == 25
    assert len({p.cf for p in a}) == 25
    assert a[0].cf == GOLDEN_TAIL  # the empty preperiod tweak is the base
    # (1, 1), (2, 1) and (3, 1) collide with earlier slopes and are skipped
    assert [p.cf.render() for p in sample_spectrum(1, GOLDEN_TAIL, 12)] == [
        "[0; (1)]", "[0; 1, 2, (1)]", "[0; 2, 2, (1)]", "[0; 2, (1)]",
        "[0; 1, 3, (1)]", "[0; 2, 3, (1)]", "[0; 3, 3, (1)]", "[0; 3, (1)]",
        "[0; 3, 2, (1)]", "[0; 1, 4, (1)]", "[0; 2, 4, (1)]", "[0; 3, 4, (1)]"]


def test_spectrum_pool_past_its_cap_is_refused_before_any_slope(monkeypatch):
    """A count at SPECTRUM_POOL_CAP is sampled; one past it raises
    ResourceCapExceeded before any variant of the base is built."""
    monkeypatch.setattr(spectra, "SPECTRUM_POOL_CAP", 3)
    assert len(sample_spectrum(2, GOLDEN_TAIL, 3)) == 3
    monkeypatch.setattr(spectra, "_distinct_variants", lambda *_: pytest.fail("built variants"))
    with pytest.raises(ResourceCapExceeded) as info:
        sample_spectrum(2, GOLDEN_TAIL, 4)
    assert (info.value.needed, info.value.cap) == (4, 3)


@pytest.mark.parametrize("pool", [10**5, -1])
def test_spectrum_refuses_order_zero_before_any_slope(monkeypatch, pool):
    monkeypatch.setattr(spectra, "_distinct_variants", lambda *_: pytest.fail("built variants"))
    monkeypatch.setattr(spectra, "_variant", lambda *_: pytest.fail("built a variant"))
    with pytest.raises(ValueError, match="order k must be >= 1"):
        sample_spectrum(0, GOLDEN_TAIL, pool)


def test_spectrum_takes_the_lagrange_constant_once(monkeypatch):
    """A pool of 4 on [0; (1, 2)] calls lagrange_constant once, although
    one variant, [0; 2, (2, 1)], has its period rotated."""
    calls = []
    real = ContinuedFraction.lagrange_constant

    def counted(cf):
        calls.append(cf)
        return real(cf)

    monkeypatch.setattr(ContinuedFraction, "lagrange_constant", counted)
    base = ContinuedFraction([0], [1, 2])
    points = sample_spectrum(2, base, 4)
    assert len(calls) == 1
    assert [p.cf.period for p in points] == [(1, 2), (1, 2), (2, 1), (1, 2)]


def test_spectrum_points_sit_in_the_expected_band():
    """Order-2 values stay strictly between sqrt5/3 and sqrt5 near this base."""
    lo, hi = sqrt(5) / 3, sqrt(5)
    for p in sample_spectrum(2, GOLDEN_TAIL, 40):
        assert p.theta.compare(lo) > 0
        assert p.theta.compare(hi) < 0
    for p in sample_spectrum(1, GOLDEN_TAIL, 20):
        assert p.theta.compare(hi) >= 0


@pytest.mark.parametrize("value", ["abc", "-5", "2.5"])
def test_cap_from_the_environment_must_be_a_nonnegative_integer(monkeypatch, value):
    monkeypatch.setenv("STURMIAN_SPECTRA_CAP", value)
    with pytest.raises(ValueError, match="STURMIAN_SPECTRA_CAP"):
        brute_kab_exponent(FIB_SLOPE, 1, 5)
