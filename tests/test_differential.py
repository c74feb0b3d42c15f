"""Geometric results against independent references, over random slopes.

Each slope is [0; (b1, ..., bp)] with 1 <= p <= 8 and quotients in 1..30,
so the fixed slopes of the other suites are far from the only ones tried;
the integer circle order (families and classes) and the exponent formulas
on integer pairs also see up to two preperiod quotients, a0 != 0,
alpha + 1 and 1 - alpha.  Values and Lagrange constants of continued
fractions are played against QuadReal folds over rational and periodic
expansions with a0 in -3..3 and quotients up to 1000.  The brute
oracle's incremental block scan is played against a plain rescan of every
factor, and k-abelian signatures counted on bit masks against a Counter
over slices, on binary and ternary words and on random slopes' factor
languages.  The one-pass bound report is played against one exponent per
period, the pair coder against stepping its rotation letter by letter, and
the Lagrange denominator by conjugation against folding every rotation.
"""

import dataclasses
import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sturmian_spectra import cli, spectra
from sturmian_spectra.cf import ContinuedFraction, _purely_periodic_value
from sturmian_spectra.geometry import (
    LEFT_CLOSED,
    RIGHT_CLOSED,
    Interval,
    IntervalFamily,
    _coarse_indices,
    _convergent_past,
    _dist_rank,
    _rank_gaps,
    ikm_intervals,
    level_intervals,
)
from sturmian_spectra.kabelian import (
    _signature_key,
    classify_brute,
    classify_by_intervals,
    signature,
)
from sturmian_spectra.quadreal import QuadReal, dist_to_int
from sturmian_spectra.spectra import (
    DEFAULT_ORACLE_CAP,
    BoundReport,
    ExponentRecord,
    ResourceCapExceeded,
    _best_initial_run,
    _BlockClasses,
    _longest_block_run,
    brute_kab_exponent,
    exponent_bound_check,
    max_kab_exponent,
    theta_k,
    theta_limsup_estimate,
)
from sturmian_spectra.words import (
    SturmianSpec,
    _code_pair,
    _crossings,
    _factor_words,
    _factors_of_length,
    factors_of_length,
    sturmian_prefix,
)

from reference import (
    bound_check_by_period,
    classes_output,
    code_pair_by_letter,
    counter_signature,
    least_rotation_denominator,
    midpoint,
    sorted_family,
)

periodic_slopes = st.lists(st.integers(1, 30), min_size=1, max_size=8).map(
    lambda period: ContinuedFraction([0], period).value()
)
preperiodic_cfs = st.builds(
    lambda pre, period: ContinuedFraction([0, *pre], period),
    st.lists(st.integers(1, 30), max_size=2),
    st.lists(st.integers(1, 30), min_size=1, max_size=8),
)
preperiodic_slopes = preperiodic_cfs.map(ContinuedFraction.value)
# any integer part: the exponent formulas take slopes outside (0, 1)
shifted_cfs = st.builds(
    lambda a0, pre, period: ContinuedFraction([a0, *pre], period),
    st.integers(-2, 2),
    st.lists(st.integers(1, 30), max_size=2),
    st.lists(st.integers(1, 30), min_size=1, max_size=8),
)
SPIKE = ContinuedFraction([0, 3, 1, 1, 1, 100], [1])
FIB = ContinuedFraction([0, 2], [1])  # q_t = 1, 2, 3, 5, 8, ..., 55, 89, ...
AWKWARD = [
    SPIKE.value(),
    QuadReal(2, 1, 7, 5),  # 5 does not divide 7 - 2*2
    QuadReal(2, -1, 7, 5),
    QuadReal(-2, 1, 3, 4),  # a negative Q divides P + isqrt(D) on the way
]


def _spelling(family):
    """Every cut and every length of a family, component by component."""
    return [
        tuple((x.p, x.q, x.d, x.r) for x in (iv.start, iv.length))
        for iv in family.intervals
    ]


def _coarse_reference(alpha, k, m):
    """The coarse family cut at its points {-j*alpha}, sorted generically."""
    j = min(m, k - 1)
    shifts = (0, m - j) if m >= k - 1 else (0,)
    return sorted_family((-(i + s) * alpha).frac() for i in range(j + 1) for s in shifts)


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
    and lengths spelled alike (family equality compares values only)."""
    p, q = _convergent_past(alpha, n)
    order = _crossings(alpha, n)[1]
    assert (p, q) == _convergents(alpha, n)[-1]
    assert order == sorted(range(n + 1), key=lambda j: (-j * alpha).frac())
    got = level_intervals(alpha, n)
    want = _level_reference(alpha, n)
    assert got == want
    assert _spelling(got) == _spelling(want)
    if n < 1:
        return  # a coarse family needs m >= 1
    for k in range(1, 7):
        got = ikm_intervals(alpha, k, n)
        want = _coarse_reference(alpha, k, n)
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


@pytest.mark.parametrize("base", AWKWARD)
def test_integer_level_order_on_awkward_spellings(base):
    for x in (base, base + 1, 1 - base):
        for _, q in _convergents(x, 1200)[:-1]:
            for n in (q - 1, q, q + 1):
                _check_level_order(x, n)


def _located_coding(alpha, x, n):
    """The coding from x by locating each point x + i*alpha in the
    two-interval family, independent of the integer coder."""
    fam = level_intervals(alpha, 1)
    letters = []
    for _ in range(n):
        letters.append("01"[fam.locate(x)])
        x = (x + alpha).frac()
    return "".join(letters)


@given(periodic_slopes, st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_ranked_factors_match_the_prefix_coder(alpha, n):
    """Each word read off the circle order is the coding from its interval's
    midpoint, by the prefix coder under both endpoint conventions and, up to
    n = 60, by locating every point.  The convention passed to
    factors_of_length changes no word and no interval."""
    factors = factors_of_length(alpha, n, LEFT_CLOSED)
    assert factors_of_length(alpha, n, RIGHT_CLOSED) == factors
    assert len({w for w, _ in factors}) == n + 1
    for word, iv in factors:
        for conv in (LEFT_CLOSED, RIGHT_CLOSED):
            assert word == sturmian_prefix(SturmianSpec(alpha, midpoint(iv), conv), n)
    if n <= 60:  # the locate reference takes n*(n+1) QuadReal steps
        for word, iv in factors:
            assert word == _located_coding(alpha, midpoint(iv), n)


@given(preperiodic_slopes, st.integers(1, 80), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_interval_values_built_on_read_match_the_sorted_family(alpha, n, rnd):
    """A fresh language's intervals, their values built one read at a time
    in a shuffled order (start or length first), are the generically sorted
    level family, spelled alike; and each equals, and hashes like, the
    interval constructed from its two values."""
    fresh = [iv for _, iv in _factors_of_length.__wrapped__(alpha, n)]
    for i in rnd.sample(range(n + 1), n + 1):
        first, second = rnd.sample(("start", "length"), 2)
        getattr(fresh[i], first)
        getattr(fresh[i], second)
    got, want = IntervalFamily(tuple(fresh)), _level_reference(alpha, n)
    assert got == want
    assert _spelling(got) == _spelling(want)
    unread = [iv for _, iv in _factors_of_length.__wrapped__(alpha, n)]
    for iv, other in zip(fresh, unread):
        by_value = Interval(iv.start, iv.length)
        assert by_value == iv and hash(by_value) == hash(iv)
        assert hash(other) == hash(by_value) and other == by_value


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


def _cli(argv):
    """Exit code, stdout and stderr of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@given(preperiodic_cfs, st.integers(1, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_streamed_classes_match_the_whole_document(cf, k, data):
    """`classes`, written word by word off the class walk, prints byte for
    byte the document built whole, at random m and at the edges where the
    coarse family is all level cuts (m < 2k) or not."""
    edges = [m for m in (1, k - 1, 2 * k - 1, 2 * k) if m >= 1]
    m = data.draw(st.one_of(st.integers(1, 300), st.sampled_from(edges)), label="m")
    output = data.draw(st.sampled_from(["text", "json"]), label="format")
    emit_circle = data.draw(st.booleans(), label="emit_circle")
    convention = data.draw(st.sampled_from(["left", "right"]), label="convention")
    argv = ["classes", cf.render(), "-k", str(k), "-m", str(m), "--format", output,
            "--convention", convention] + ["--emit-circle"] * emit_circle
    assert _cli(argv) == (0, classes_output(cf, k, m, output, emit_circle), "")


# -- k-abelian signatures on bit masks, against Counter over slices ------------

# digits int(., 2) would also read, spaced, signed, prefixed or underscored
MISREAD = ["0b1", "1_0", " 01", "+1", "-0", "0B1", "1\n"]
signature_cases = st.one_of(
    st.text("01", max_size=30), st.text("012", max_size=30), st.sampled_from(MISREAD)
).flatmap(lambda u: st.tuples(st.just(u), st.integers(1, len(u) + 2)))


@given(signature_cases)
@settings(max_examples=400)
def test_mask_signature_matches_the_counter(case):
    u, k = case
    assert signature(u, k) == counter_signature(u, k)


@pytest.mark.parametrize("u", ["", "0", "1", "2", "0110", "2021", *MISREAD])
def test_mask_signature_at_and_past_the_word_length(u):
    for k in range(1, len(u) + 4):  # k = len(u) and k > len(u) included
        assert signature(u, k) == counter_signature(u, k), (u, k)


@given(preperiodic_slopes, st.integers(1, 6), st.integers(1, 120))
@settings(max_examples=150, deadline=None)
def test_brute_classes_are_the_counter_signature_classes(alpha, k, m):
    """classify_brute groups a factor language exactly as the Counter
    signature does, members sorted and classes by smallest member."""
    words = [w for w, _ in factors_of_length(alpha, m)]
    groups = {}
    for w in words:
        groups.setdefault(counter_signature(w, k), []).append(w)
    want = sorted(tuple(sorted(g)) for g in groups.values())
    assert [c.members for c in classify_brute(words, k)] == want


@given(periodic_slopes, st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_exponent_formula_matches_the_oracle(alpha, k, m):
    want = max_kab_exponent(alpha, k, m, with_witness=False).exponent
    try:
        got = brute_kab_exponent(alpha, k, m)
    except ResourceCapExceeded:
        return  # a declared refusal, never a wrong answer
    assert got == want


def _initial_run(word, m, classes):
    """Number of leading m-blocks of `word` all equivalent to the first."""
    first = classes[word[:m]]
    n = 1
    pos = m
    while pos + m <= len(word) and classes[word[pos : pos + m]] == first:
        n += 1
        pos += m
    return n


def _rescanned_run(alpha, n, m, classes):
    """The best initial run over the length-n factors, each factor decoded
    and split into m-blocks from scratch."""
    return max(_initial_run(w, m, classes) for w in _factor_words(alpha, n))


# the oracle's keys: signature keys at k = 1..4, and the identity of
# max_integer_power_exponent.  Both tell apart blocks with different letter
# counts, so a crossing always moves block j-1 out of block 0's class; the
# first-letter key lets block j-1 keep its class while block j leaves it.
block_keys = st.one_of(
    st.integers(1, 4).map(lambda k: partial(_signature_key, k=k)),
    st.just(lambda b: b),
    st.just(lambda b: b[0]),
)


def _ladder_outcome(alpha, m, key, cap):
    try:
        return _longest_block_run(alpha, m, key, cap)
    except ResourceCapExceeded as exc:
        return ("cap", exc.needed, exc.cap)


@given(st.one_of(periodic_slopes, preperiodic_slopes), st.integers(1, 40), st.data())
@settings(max_examples=200, deadline=None)
def test_incremental_block_scan_matches_the_rescan(alpha, m, data):
    """The crossing walk's repaired runs against a rescan of every factor,
    on one language of length 2m..300 (m need not divide it), and along the
    whole ladder at a small cap, cap refusals included."""
    key = data.draw(block_keys)
    n = data.draw(st.integers(2 * m, 300))
    got = _best_initial_run(alpha, n, m, _BlockClasses(key))
    assert got == _rescanned_run(alpha, n, m, _BlockClasses(key))
    cap = data.draw(st.integers(2 * m - 1, 300))
    got = _ladder_outcome(alpha, m, key, cap)
    with mock.patch.object(spectra, "_best_initial_run", _rescanned_run):
        assert got == _ladder_outcome(alpha, m, key, cap)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_block_scan_ends_the_run_where_block_j_leaves(m):
    """On the golden slope the first-letter key often keeps block j-1 in
    block 0's class while block j leaves it, so the run must end at j's
    block, not stay long (at m = 2, n = 8 the stale run would read 4, not
    3)."""
    alpha = ContinuedFraction([0], [1]).value()
    for n in range(2 * m, 120):
        got = _best_initial_run(alpha, n, m, _BlockClasses(lambda b: b[0]))
        assert got == _rescanned_run(alpha, n, m, _BlockClasses(lambda b: b[0]))


# -- exponent formulas on integer pairs, against their QuadReal versions --------


def _level_reference(alpha, n):
    """The level-n family cut at its points {-j*alpha}, sorted generically."""
    return sorted_family((-j * alpha).frac() for j in range(n + 1))


def _reference_exponent(alpha, k, m, convention=LEFT_CLOSED, with_witness=True):
    """max_kab_exponent on QuadReal: the longest length of a generically
    sorted coarse family, dist_to_int, and the floor of their quotient."""
    family = _coarse_reference(alpha, k, m)
    longest, step = family.max_length(), dist_to_int(m * alpha)
    exponent = (longest / step).floor() + (longest != step)
    if not with_witness or exponent * m > DEFAULT_ORACLE_CAP:
        return ExponentRecord(k, m, exponent, longest, step)
    start = max(family.intervals, key=lambda iv: iv.length).start
    x = start + (longest - (exponent - 1) * step) / 2
    if (m * alpha).frac() > Fraction(1, 2):
        x = x + (exponent - 1) * step
    x = x.frac()
    word = sturmian_prefix(SturmianSpec(alpha.frac(), x, convention), exponent * m)
    return ExponentRecord(k, m, exponent, longest, step, x, word)


def _reference_bound_check(cf, k, t_range):
    """exponent_bound_check on QuadReal, with _reference_exponent."""
    alpha = cf.value()
    level = _level_reference(alpha, 2 * k - 2)
    shortest, longest = level.min_length(), level.max_length()
    ts = sorted(set(t_range))
    convs = cf.convergents(max(ts) + 1)
    report = BoundReport(k, [], [], [], [], [])
    exponent = {}
    for t in ts:
        q_t = convs[t].q
        if dist_to_int(q_t * alpha) >= shortest:
            continue
        report.t_checked.append(t)
        for m in {q_t, *range(1, convs[t + 1].q)} - set(exponent):
            exponent[m] = _reference_exponent(alpha, k, m, with_witness=False).exponent
        a_qt = exponent[q_t]
        for m in range(1, convs[t + 1].q):
            a_m = exponent[m]
            if a_m > a_qt + 2:
                report.convergent_slack_violations.append((t, m))
            elif a_m == a_qt + 2:
                report.improved_slack_exceedances.append((t, m))
            step = dist_to_int(m * alpha)
            if step < shortest:
                diff = a_m - (longest / step).floor()
                if not -1 <= diff <= 2 and m not in report.approx_window_violations:
                    report.approx_window_violations.append(m)
            if k == 1 and m < q_t and a_m >= a_qt:
                report.k1_monotone_violations.append((t, m))
    return report


def _spelled(x):
    """A result with every QuadReal in it replaced by its spelling."""
    if isinstance(x, QuadReal):
        return ("QuadReal", x.p, x.q, x.d, x.r)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(_spelled(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (list, tuple)):
        return tuple(map(_spelled, x))
    return x


def _check_exponent(alpha, k, m, convention=LEFT_CLOSED):
    got = max_kab_exponent(alpha, k, m, convention)
    assert _spelled(got) == _spelled(_reference_exponent(alpha, k, m, convention))


@given(shifted_cfs, st.integers(1, 6), st.integers(1, 400), st.sampled_from([LEFT_CLOSED, RIGHT_CLOSED]))
@settings(max_examples=150, deadline=None)
def test_exponent_records_match_the_quadreal_formula(cf, k, m, convention):
    """Every field, spellings and witness included, for alpha, alpha + 1
    and 1 - alpha."""
    alpha = cf.value()
    for x in (alpha, alpha + 1, 1 - alpha):
        _check_exponent(x, k, m, convention)


@pytest.mark.parametrize("base", AWKWARD)
def test_exponent_records_on_awkward_spellings(base):
    """At m = q_t - 1, q_t, q_t + 1; for the first slope floor(L/s) reaches
    the hundreds at m = q_t = 11, where ||m*alpha|| is tiny."""
    for x in (base, base + 1, 1 - base):
        for _, q in _convergents(x, 1200)[1:-1]:
            for m in {q - 1, q, q + 1} - {0}:
                for k in range(1, 5):
                    _check_exponent(x, k, m)
    assert max_kab_exponent(SPIKE.value(), 1, 11, with_witness=False).exponent > 100


@given(shifted_cfs, st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_bound_reports_match_the_quadreal_check(cf, k):
    """Over the t whose q_{t+1} stays at most 120."""
    convs = cf.convergents(12)
    t_range = [t for t in range(12) if convs[t + 1].q <= 120] or [0]
    got = exponent_bound_check(cf, k, t_range)
    assert _spelled(got) == _spelled(_reference_bound_check(cf, k, t_range))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bound_report_on_the_spike(k):
    t_range = range(5)  # q_5 = 1107 follows q_4 = 11
    got = exponent_bound_check(SPIKE, k, t_range)
    assert _spelled(got) == _spelled(_reference_bound_check(SPIKE, k, t_range))


def test_bound_report_where_the_first_two_denominators_are_one():
    """[0; 1, (1000)] has q_0 = q_1 = 1, and A_1(q_0) = 1001 is far past
    2*q_1: exponent_bound_check must size its convergent by q_2."""
    cf = ContinuedFraction([0, 1], [1000])
    got = exponent_bound_check(cf, 1, [0])
    assert got.t_checked == [0]
    assert _spelled(got) == _spelled(_reference_bound_check(cf, 1, [0]))


@given(shifted_cfs, st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_bound_reports_match_the_report_by_period(cf, k, data):
    """The one-pass report against one exponent per period, field for
    field, over random t ranges whose q_{t+1} stays at most 2000."""
    convs = cf.convergents(40)
    ts = [t for t in range(40) if convs[t + 1].q <= 2000]
    t_range = data.draw(st.lists(st.sampled_from(ts), min_size=1, max_size=8))
    got = exponent_bound_check(cf, k, t_range)
    assert _spelled(got) == _spelled(bound_check_by_period(cf, k, t_range))


@pytest.mark.parametrize(
    "k, t_range", [(27, [0, 1]), (28, [0, 1]), (29, [0, 1]), (60, [0, 1]), (29, range(12))]
)
def test_bound_report_needs_no_term_in_k(k, t_range):
    """The convergent past 2*q_{T+2}*(q_{T+1} + 1) has no term in k: at
    T = 1 it is q = 55, past 2k-2 and q_1 + 2k-2 for k = 27, past 2k-2
    alone for k = 28, and at most 2k-2 for k >= 29, where two level cuts
    share a rank.  No t with q_t <= 2k-2 is checked all the same, and the
    report is the one made on a convergent past 2k-2 as well."""
    got = exponent_bound_check(FIB, k, t_range)
    assert _spelled(got) == _spelled(bound_check_by_period(FIB, k, t_range))
    assert all(FIB.convergents(t)[-1].q > 2 * k - 2 for t in got.t_checked)
    if max(t_range) == 1:
        assert _convergent_past(FIB.value(), 2 * 5 * (3 + 1)) == (21, 55)
        assert _spelled(got) == _spelled(_reference_bound_check(FIB, k, t_range))
    else:
        assert got.t_checked == [9, 10, 11]  # q_8 = 55 <= 56 = 2k-2 < q_9 = 89


@pytest.mark.parametrize("what", ["bound report", "limsup"])
def test_a_too_small_convergent_is_an_invariant_failure(monkeypatch, what):
    """Each floor of the rank kernel checks its convergent: one a hundred
    times too small raises AssertionError (exit 4), never a wrong report."""
    real = spectra._convergent_past
    monkeypatch.setattr(spectra, "_convergent_past", lambda alpha, n: real(alpha, n // 100))
    with pytest.raises(AssertionError, match="too small for floor"):
        if what == "limsup":
            theta_limsup_estimate(FIB, 2, 8)
        else:
            exponent_bound_check(FIB, 2, range(1, 9))


@given(shifted_cfs, st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_theta_matches_the_quadreal_longest_interval(cf, k):
    want = _level_reference(cf.value(), 2 * k - 2).max_length() * cf.lagrange_constant()
    assert _spelled(theta_k(cf, k)) == _spelled(want)


@given(shifted_cfs, st.integers(1, 6), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_limsup_terms_match_the_quadreal_formula(cf, k, t_max):
    alpha = cf.value()
    want = [
        (c.t, Fraction(_reference_exponent(alpha, k, c.q, with_witness=False).exponent, c.q))
        for c in cf.convergents(t_max)[1:]
    ]
    assert list(theta_limsup_estimate(cf, k, t_max).terms) == want


@given(
    st.sampled_from(AWKWARD),
    st.integers(-10**6, 10**6),
    st.integers(-500, 500),
    st.integers(-10**6, 10**6),
    st.integers(-500, 500).filter(bool),
)
@example(AWKWARD[1], 7, -3, 7, -3)
@settings(max_examples=300, deadline=None)
def test_pair_signs_and_floors_match_quadreal(alpha, a1, b1, a2, b2):
    """The lemma's sign test on raw pairs, and the floor corollary: on a
    convergent past |B1| + (|n| + 1)*|B2|, the rank quotient G // S of
    x = A1 + B1*alpha over y = A2 + B2*alpha > 0 is n = floor(x/y), and
    equal ranks mean equal values."""
    x, y = a1 + b1 * alpha, a2 + b2 * alpha
    p, q = _convergent_past(alpha, abs(b1 - b2))
    assert (a1 * q + b1 * p > a2 * q + b2 * p) == (x > y)
    if y < 0:
        x, y, a1, b1, a2, b2 = -x, -y, -a1, -b1, -a2, -b2
    n = (x / y).floor()
    p, q = _convergent_past(alpha, abs(b1) + (abs(n) + 1) * abs(b2))
    g, s = a1 * q + b1 * p, a2 * q + b2 * p
    assert g // s == n
    assert (g == s) == (x == y)


@pytest.mark.parametrize(
    "cf, m, convergent, shortcut, exponent",
    [
        (ContinuedFraction([0], [1]), 42, (55, 89), 22, 23),
        (ContinuedFraction([0, 5], [7]), 12, (7, 36), 3, 2),
    ],
    ids=["golden-m42", "0-5-(7)-m12"],
)
def test_exponent_refines_a_convergent_the_corollary_does_not_cover(
    cf, m, convergent, shortcut, exponent
):
    """At k = 1, G // S + (G != S) on the convergent past 2m undershoots
    the golden slope's A_1(42) and overshoots A_1(12) of [0; 5, (7)]; that
    convergent is not past (n + 2)*m, so max_kab_exponent refines it."""
    alpha = cf.value()
    p, q = _convergent_past(alpha, 2 * m)
    g, s = max(_rank_gaps(_coarse_indices(1, m), p, q)), _dist_rank(m, p, q)
    assert (p, q) == convergent
    assert g // s + (g != s) == shortcut != exponent
    assert q <= (exponent + 2) * m
    got = max_kab_exponent(alpha, 1, m)
    assert got.exponent == exponent
    assert _spelled(got) == _spelled(_reference_exponent(alpha, 1, m))


def test_nearest_integer_needs_a_convergent_past_twice_the_period():
    """||4*alpha|| of the golden slope is {4*alpha} = 0.472...: its
    convergent 5/8 is past m = 4 but not past 2m, and there the ranks of
    {4*alpha} and 1 - {4*alpha} tie; past 2m they tell the two apart."""
    golden = ContinuedFraction([0], [1]).value()
    want = _spelled(dist_to_int(4 * golden))
    assert _convergent_past(golden, 5) == (5, 8)
    assert 4 * 5 % 8 == 8 - 4 * 5 % 8 == _dist_rank(4, 5, 8)
    p, q = _convergent_past(golden, 8)
    assert _dist_rank(4, p, q) == 4 * p % q < q - 4 * p % q
    assert _spelled(max_kab_exponent(golden, 1, 4, with_witness=False).step) == want


def _reference_purely_periodic(cycle):
    """The positive fixed point of the cycle's map z -> (a*z + b)/(c*z + d)."""
    a, b, c, d = 1, 0, 0, 1
    for x in cycle:
        a, b, c, d = a * x + b, a, c * x + d, c
    return QuadReal(a - d, 1, (a - d) ** 2 + 4 * b * c, 2 * c)


def _reference_value(cf):
    """The backward fold a + 1/x over the quotients, in Fraction or QuadReal."""
    if cf.is_rational:
        x, head = Fraction(cf.preperiod[-1]), cf.preperiod[:-1]
    else:
        x, head = _reference_purely_periodic(cf.period), cf.preperiod
    for a in reversed(head):
        x = a + 1 / x
    return QuadReal.from_fraction(x) if cf.is_rational else x


def _reference_lagrange(cf):
    """The largest forward + 1/backward over the cycle offsets, by exact
    comparison."""
    rotations = [cf.period[j:] + cf.period[:j] for j in range(len(cf.period))]
    return max(
        _reference_purely_periodic(rot) + 1 / _reference_purely_periodic(rot[::-1])
        for rot in rotations
    )


quotients = st.integers(1, 9) | st.integers(1, 1000)


@given(
    st.integers(-3, 3),
    st.lists(quotients, max_size=4),
    st.lists(quotients, max_size=9),  # empty: a rational expansion
)
@settings(max_examples=300, deadline=None)
def test_values_and_lagrange_constants_match_the_quadreal_folds(a0, pre, period):
    cf = ContinuedFraction([a0, *pre], period)
    assert _spelled(cf.value()) == _spelled(_reference_value(cf))
    if not cf.is_rational:
        assert _spelled(cf.lagrange_constant()) == _spelled(_reference_lagrange(cf))


@given(st.lists(quotients, min_size=1, max_size=12), st.lists(quotients, max_size=2))
@settings(max_examples=300, deadline=None)
def test_lagrange_denominator_by_conjugation_matches_every_rotation(period, pre):
    """The least c of the fold, each rotation conjugated into the next,
    is the least c of the rotations each folded afresh."""
    cf = ContinuedFraction([0, *pre], period)
    disc = _purely_periodic_value(cf.period)[1]
    want = QuadReal(0, 1, disc, least_rotation_denominator(cf.period))
    assert _spelled(cf.lagrange_constant()) == _spelled(want)


# intercepts (a + b*alpha)/d in any position, slopes with any integer part
code_pairs = st.tuples(
    st.integers(-10**6, 10**6), st.integers(-500, 500), st.integers(1, 60)
)


@given(shifted_cfs, code_pairs, st.integers(0, 400), st.booleans())
@settings(max_examples=300, deadline=None)
def test_pair_coder_by_wrap_positions_matches_the_letter_loop(cf, pair, n, zero_in_i0):
    """The coder that places each letter 1 by one floor division against
    the rotation stepped one letter at a time, for alpha and 1 - alpha."""
    a, b, d = pair
    alpha = cf.value()
    for x in (alpha, 1 - alpha):
        got = _code_pair(x, a, b, d, n, zero_in_i0)
        assert got == code_pair_by_letter(x, a, b, d, n, zero_in_i0)
