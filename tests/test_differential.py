"""Geometric results against independent references, over random slopes.

Each slope is [0; (b1, ..., bp)] with 1 <= p <= 8 and quotients in 1..30,
so the fixed slopes of the other suites are far from the only ones tried;
the integer circle order (families and classes) and the exponent formulas
on integer pairs also see up to two preperiod quotients, a0 != 0,
alpha + 1 and 1 - alpha.  Values and Lagrange constants of continued
fractions are played against QuadReal folds over rational and periodic
expansions with a0 in -3..3 and quotients up to 1000.  The brute
oracle's incremental block scan is played against a plain rescan of every
factor, and k-abelian keys counted on bit masks against signatures
counted by a Counter over slices, on binary and ternary words and on
random slopes' factor languages; the all-integer key of binary words also against the raw
definition, and the keys of a word list, one counting tree per run of
words, against a tree per word.  The bound report, which ranks only the periods that can
reach a list, is played against one exponent per period, and its
three-gap walk against testing every period of a window; the pair coder
against stepping its rotation letter by letter, and the Lagrange denominator by conjugation against folding every
rotation, and spectrum points, which share one Lagrange constant,
against theta_k.  The sigma-image language, two windows per image, is
played against every window of every image, and the ternary report, one
slice of each word's ends per length, against four slices per pair.
"""

import io
import itertools
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sturmian_spectra import cli, kabelian, spectra
from sturmian_spectra._record import Record
from sturmian_spectra.cf import (
    ContinuedFraction,
    _convergent_past,
    _folds,
    _purely_periodic_value,
    _quotients_of,
)
from sturmian_spectra.geometry import (
    LEFT_CLOSED,
    RIGHT_CLOSED,
    Interval,
    IntervalFamily,
    _checked_coarse_indices,
    _coarse_indices,
    _coarse_ranks,
    _dist_rank,
    _longest,
    _rank_gaps,
    _ranks,
    ikm_intervals,
    level_intervals,
)
from sturmian_spectra.kabelian import (
    _digits,
    _keys,
    classify_brute,
    classify_by_intervals,
    kab_equivalent,
    verify_ternary_property,
)
from sturmian_spectra.quadreal import QuadReal, _common_radicand, dist_to_int
from sturmian_spectra.spectra import (
    DEFAULT_ORACLE_CAP,
    BoundReport,
    ExponentRecord,
    ResourceCapExceeded,
    _best_initial_run,
    _block_classes,
    _first_time,
    _kab_exponents,
    _longest_block_run,
    _return_times,
    brute_kab_exponent,
    exponent_bound_check,
    max_kab_exponent,
    sample_spectrum,
    theta_k,
    theta_limsup_estimate,
)
from sturmian_spectra.words import (
    SturmianSpec,
    _code_pair,
    _crossings,
    _language,
    factors_of_length,
    sigma_factors_of_length,
    sigma_image,
    sturmian_prefix,
)

import reference
from reference import (
    block_classes_by_flips,
    bound_check_by_period,
    classes_output,
    code_pair_by_letter,
    counter_signature,
    crossing_walk_by_flips,
    kab_equivalent_counts,
    least_rotation_denominator,
    longest_by_index_sort,
    midpoint,
    sigma_window_scan,
    sorted_family,
    ternary_by_pairs,
    tree_key,
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
# one large quotient, like SPIKE's 100, after a short preperiod
spiked_cfs = st.builds(
    lambda a0, pre, big, period: ContinuedFraction([a0, *pre, big], period),
    st.integers(-2, 2),
    st.lists(st.integers(1, 30), max_size=3),
    st.integers(50, 1000),
    st.lists(st.integers(1, 30), min_size=1, max_size=4),
)
# a_0 = 0 and a_1 = 1 (a slope above 1/2) each about half the time,
# negative a_0 too, and runs of ones
one_often = st.just(1) | st.integers(1, 30)
expansion_cfs = st.builds(
    lambda a0, pre, period: ContinuedFraction([a0, *pre], period),
    st.just(0) | st.integers(-3, 3),
    st.lists(one_often, min_size=1, max_size=3),
    st.lists(one_often, min_size=1, max_size=6),
)
# the window lemma's strata: a_0 != 0, a slope above 1/2 (a_1 = 1) and
# one quotient of 100 or more, each about half the time
window_cfs = st.builds(
    lambda a0, a1, big, period: ContinuedFraction([a0, a1, *big], period),
    st.just(0) | st.sampled_from([-2, 1, 3]),
    one_often,
    st.lists(st.integers(100, 500), max_size=1),
    st.lists(one_often, min_size=1, max_size=4),
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


def _as_pair(alpha, x):
    """(a, b, d) with x = (a + b*alpha)/d and d > 0, over alpha's radicand."""
    alpha, x = _common_radicand(alpha, x)
    a, b, d = x.p * alpha.q - x.q * alpha.p, x.q * alpha.r, x.r * alpha.q
    return (a, b, d) if d > 0 else (-a, -b, -d)


@given(
    expansion_cfs,
    st.integers(0, 60) | st.integers(0, 10**12),
    st.integers(1, 6),
    st.integers(1, 60),
    st.sampled_from([LEFT_CLOSED, RIGHT_CLOSED]),
)
@settings(max_examples=200, deadline=None)
def test_the_quotient_streams_agree(cf, n, k, m, convention):
    """The integer quotient stream of cf.value() is cf's own quotients, the
    first convergent past n is the QuadReal-floor one on either stream, and
    the exponent's witness, coded on a convergent past |b| + 2n that may
    not be the first one, is the word coded letter by letter on the first
    convergent past the intercept's own |b| + d*n."""
    alpha = cf.value()
    assert list(itertools.islice(_quotients_of(alpha), 41)) == list(
        map(cf.partial_quotient, range(41))
    )
    want = _convergents(alpha, n)[-1]
    assert _convergent_past(_quotients_of(alpha), n) == want
    assert _convergent_past(cf._quotients(), n) == want
    record = max_kab_exponent(alpha, k, m, convention)
    if record.witness is not None:
        a, b, d = _as_pair(alpha, record.witness_intercept)
        length = record.exponent * m
        assert record.witness == code_pair_by_letter(
            alpha, a, b, d, length, convention.zero_in_I0
        )


def _check_level_order(alpha, n):
    """The integer circle order and the families built from it, against the
    exact sort of the points {-j*alpha} and the families cut at them, cuts
    and lengths spelled alike (family equality compares values only)."""
    p, q = _convergent_past(_quotients_of(alpha), n)
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
    fresh = [iv for _, iv in factors_of_length(alpha, n)]
    for i in rnd.sample(range(n + 1), n + 1):
        first, second = rnd.sample(("start", "length"), 2)
        getattr(fresh[i], first)
        getattr(fresh[i], second)
    got, want = IntervalFamily(tuple(fresh)), _level_reference(alpha, n)
    assert got == want
    assert _spelling(got) == _spelling(want)
    unread = [iv for _, iv in factors_of_length(alpha, n)]
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
                assert outer.start <= inner.start and inner.start + inner.length <= outer.start + outer.length


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


# -- k-abelian keys on bit masks, against Counter over slices -----------------

# digits int(., 2) would also read, spaced, signed, prefixed or underscored
MISREAD = ["0b1", "1_0", " 01", "+1", "-0", "0B1", "1\n"]


def _partners(u):
    """Words of u's length to pair with u: u itself, a rearrangement of its
    letters, and random words over its letters and 0 and 1, or over 0 and 1
    alone (which a misread digit string would be keyed as)."""
    n = len(u)
    return st.one_of(
        st.just(u),
        st.permutations(u).map("".join),
        st.text(sorted(set(u) | {"0", "1"}), min_size=n, max_size=n),
        st.text("01", min_size=n, max_size=n),
    )


signature_cases = st.one_of(
    st.text("01", max_size=30), st.text("012", max_size=30), st.sampled_from(MISREAD)
).flatmap(lambda u: st.tuples(st.just(u), _partners(u), st.integers(1, len(u) + 2)))


@given(signature_cases)
@settings(max_examples=400)
def test_mask_signature_matches_the_counter(case):
    """Two words keyed in one call, on binary, ternary and misread text, are
    equivalent exactly when their Counter signatures are equal."""
    u, v, k = case
    assert kab_equivalent(u, v, k) == (counter_signature(u, k) == counter_signature(v, k))


@pytest.mark.parametrize("u", ["", "0", "1", "2", "0110", "2021", *MISREAD])
def test_mask_signature_at_and_past_the_word_length(u):
    """u against every word of its length over its letters and 0 and 1."""
    letters = sorted(set(u) | {"0", "1"})
    for k in range(1, len(u) + 4):  # k = len(u) and k > len(u) included
        want = counter_signature(u, k)
        for v in map("".join, itertools.product(letters, repeat=len(u))):
            assert kab_equivalent(u, v, k) == (counter_signature(v, k) == want), (u, v, k)


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


def test_brute_classes_mix_binary_and_ternary_words():
    """Binary and ternary words keyed in one call share one digit map;
    the two kinds never share a class, and each groups as the Counter
    signature does."""
    words = ["0102", "0110", "1001", "0120", "2010", "0011", "1010", "0101", "2001"]
    assert [c.members for c in classify_brute(words, 1)] == [
        ("0011", "0101", "0110", "1001", "1010"),
        ("0102", "0120", "2001", "2010"),
    ]
    for k in range(1, 7):
        groups = {}
        for w in words:
            groups.setdefault(counter_signature(w, k), []).append(w)
        want = sorted(tuple(sorted(g)) for g in groups.values())
        assert [c.members for c in classify_brute(words, k)] == want


@st.composite
def binary_languages(draw):
    """(k, m, words): words of one length m up to 200 at order k in 1..8,
    m < k and m == k included: all 0s, all 1s, random words, and last a
    k-switched pair x w y w z w t, x w z w y w t with |w| = k-1, which are
    equivalent at order k (Karhumaki, Saarela & Zamboni 2013)."""
    k = draw(st.integers(1, 8))
    m = draw(st.one_of(st.integers(1, 9), st.integers(1, 200)))
    randoms = draw(st.lists(st.text("01", min_size=m, max_size=m), max_size=4))
    words = ["0" * m, "1" * m, *randoms]
    if 3 * (k - 1) <= m:
        w = draw(st.text("01", min_size=k - 1, max_size=k - 1))
        rest = draw(st.text("01", min_size=m - 3 * (k - 1), max_size=m - 3 * (k - 1)))
        a, b, c = sorted(draw(st.lists(st.integers(0, len(rest)), min_size=3, max_size=3)))
        x, y, z, t = rest[:a], rest[a:b], rest[b:c], rest[c:]
        words += [x + w + y + w + z + w + t, x + w + z + w + y + w + t]
    return k, m, words


@given(binary_languages())
@settings(max_examples=300, deadline=None)
def test_binary_key_partitions_like_the_counter_signature(case):
    """The all-integer key of a binary word groups words of one length as
    the Counter signature does, and two words share a key exactly when the
    raw definition calls them equivalent."""
    k, m, words = case
    keys = _keys([int(w, 2) for w in words], m, k)
    signatures = [counter_signature(w, k) for w in words]
    assert len(set(keys)) == len(set(signatures)) == len(set(zip(keys, signatures)))
    for i, u in enumerate(words):
        for j in range(i + 1, len(words)):
            assert (keys[i] == keys[j]) == kab_equivalent_counts(u, words[j], k)
    if 3 * (k - 1) <= m:
        assert keys[-2] == keys[-1]


@st.composite
def word_lists(draw):
    """(k, m, words): 1 to 70 words of one length m in 0..300, binary,
    ternary, or windows of the sigma-image of a binary word, so 1 to 3 bits
    a letter, and past a run's bits at the longest.  Half the time they
    come from a pool of at most 4 words, so that rows of counts repeat,
    and the order k runs over 1..m+2; else it stops at 12, where a tree
    per word on random words is still quick.  Sorted half the time, so
    that runs differ in their leaves."""
    m = draw(st.one_of(st.integers(0, 12), st.integers(0, 300)), label="m")
    n = draw(st.integers(1, 70), label="n")
    alphabet = draw(st.sampled_from(["01", "012", "sigma"]))
    if alphabet == "sigma":
        image = sigma_image(draw(st.text("01", min_size=m, max_size=m + 20)))
        word = st.integers(0, len(image) - m).map(lambda i: image[i : i + m])
    else:
        word = st.text(alphabet, min_size=m, max_size=m)
    pooled = draw(st.booleans())
    if pooled:
        word = st.sampled_from(draw(st.lists(word, min_size=1, max_size=4)))
    top = m + 2 if pooled else min(m + 2, 12)
    k = draw(st.one_of(st.integers(1, min(top, 8)), st.integers(1, top)), label="k")
    words = draw(st.lists(word, min_size=n, max_size=n))
    return k, m, sorted(words) if draw(st.booleans()) else words


@given(word_lists(), st.data())
@settings(max_examples=150, deadline=None)
def test_batch_keys_match_a_tree_per_word(case, data):
    """The keys of a word list, read off one counting tree per run, are
    each word's own tree key, and keying the list in two calls, or one
    word alone, gives the same keys."""
    k, m, words = case
    width, digits = _digits(words)
    keys = _keys(digits, m, k, width)
    want = {d: tree_key(d, m, k, width) for d in set(digits)}
    assert keys == [want[d] for d in digits]
    cut = data.draw(st.integers(0, len(digits)), label="cut")
    assert _keys(digits[:cut], m, k, width) + _keys(digits[cut:], m, k, width) == keys
    i = data.draw(st.integers(0, len(digits) - 1), label="i")
    assert _keys([digits[i]], m, k, width) == [keys[i]]


@given(periodic_slopes, st.integers(1, 4), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_exponent_formula_matches_the_oracle(alpha, k, m):
    want = max_kab_exponent(alpha, k, m, with_witness=False).exponent
    try:
        got = brute_kab_exponent(alpha, k, m)
    except ResourceCapExceeded:
        return  # a declared refusal, never a wrong answer
    assert got == want


# a_1 = 1, a slope above 1/2, about as often as every other first quotient
# together
first_quotient_cfs = st.builds(
    lambda a1, pre, period: ContinuedFraction([0, a1, *pre], period),
    st.one_of(st.just(1), st.integers(1, 30)),
    st.lists(st.integers(1, 30), max_size=2),
    st.lists(st.integers(1, 30), min_size=1, max_size=8),
)


@given(first_quotient_cfs, st.data())
@settings(max_examples=150, deadline=None)
def test_exponent_past_half_the_period_counts_literal_powers(cf, data):
    """At an order k with 2k > m the coarse family is the whole level-m
    family and equivalence of length-m words is equality, so the exponent
    is the oracle's ladder under the identity key.  m <= 40 is often a
    convergent denominator, where the largest powers are."""
    denominators = [c.q for c in cf.convergents(12) if c.q <= 40]
    m = data.draw(st.one_of(st.integers(1, 40), st.sampled_from(denominators)), label="m")
    k = data.draw(st.integers(m // 2 + 1, m + 2), label="k")
    alpha = cf.value()
    want = max_kab_exponent(alpha, k, m, with_witness=False).exponent
    try:
        got = _longest_block_run(alpha, m, list, DEFAULT_ORACLE_CAP)
    except ResourceCapExceeded:
        return  # a declared refusal, never a wrong answer
    assert got == want


def _initial_run(word, m, classes):
    """Number of leading m-blocks of `word` all equivalent to the first,
    each block sliced afresh and keyed on the integer of its letters."""
    first = classes[int(word[:m], 2)]
    n = 1
    pos = m
    while pos + m <= len(word) and classes[int(word[pos : pos + m], 2)] == first:
        n += 1
        pos += m
    return n


def _rescanned_run(alpha, n, m, classes, *_):
    """The best initial run over the length-n factors, each factor decoded
    and split into m-blocks from scratch; the walk's `at` and moves, if
    passed, are ignored."""
    return max(_initial_run(w, m, classes) for w, _ in factors_of_length(alpha, n))


def _decoded_classes(alpha, m, keys):
    """m-block -> class id under the batch key function `keys`, the
    length-m factors decoded from their words, not flipped bit by bit."""
    blocks = [int(w, 2) for w, _ in factors_of_length(alpha, m)]
    ids = {}
    return {b: ids.setdefault(key, len(ids)) for b, key in zip(blocks, keys(blocks))}


def block_keys(m):
    """The oracle's batch keys on integer m-blocks: binary signature keys
    at k = 1..4, and the identity, which keys literal powers.  Both tell
    apart blocks with different letter counts, so a crossing always moves
    block j-1 out of block 0's class; the first-letter key lets block j-1
    keep its class while block j leaves it.  The k-abelian classes are
    arcs of the circle, one move each; under the residue mod 3 a class
    is not one arc, so most ladders see more moves than classes."""
    return st.one_of(
        st.integers(1, 4).map(lambda k: partial(_keys, m=m, k=k)),
        st.just(list),
        st.just(lambda blocks: [v >> (m - 1) for v in blocks]),
        st.just(lambda blocks: [v % 3 for v in blocks]),
    )


def _ladder_outcome(alpha, m, keys, cap):
    try:
        return _longest_block_run(alpha, m, keys, cap)
    except ResourceCapExceeded as exc:
        return ("cap", exc.needed, exc.cap)


def _check_windows(alpha, n, keys):
    """The windows of the level-n text and the oracle's blocks shifted off
    its integer, against one buffer and one integer flipped two bits per
    crossing."""
    flipped = [(j, letters.decode()) for j, letters in crossing_walk_by_flips(alpha, n)]
    text, order, _, _ = _language(alpha, n)
    assert [(j, text[n - j : 2 * n - j]) for j in order] == flipped
    assert _block_classes(alpha, n, keys) == block_classes_by_flips(alpha, n, keys)


@given(window_cfs, st.integers(1, 300), st.data())
@settings(max_examples=200, deadline=None)
def test_factors_are_windows_of_one_text(cf, n, data):
    """The window lemma: the factor at level cut j is text[n-j : 2n-j],
    on slopes outside (0, 1), above 1/2 and with a quotient up to 500."""
    _check_windows(cf.value(), n, data.draw(block_keys(n)))


@pytest.mark.parametrize(
    "cf",
    [FIB, SPIKE, ContinuedFraction([-2, 1, 400], [1, 3]), ContinuedFraction([3], [1, 1, 2])],
    ids=str,
)
def test_factors_are_windows_of_one_text_at_length_2000(cf):
    _check_windows(cf.value(), 2000, partial(_keys, m=2000, k=3))


@given(st.one_of(periodic_slopes, preperiodic_slopes), st.integers(1, 40), st.data())
@settings(max_examples=200, deadline=None)
def test_incremental_block_scan_matches_the_rescan(alpha, m, data):
    """The crossing walk's repaired runs against a rescan of every factor,
    on one language of length 2m..300 (m need not divide it), and along the
    whole ladder at a small cap, cap refusals included.  The class map
    shifted off that language's text is the one decoded from the length-m
    factors."""
    keys = data.draw(block_keys(m))
    n = data.draw(st.integers(2 * m, 300))
    blocks = _block_classes(alpha, m, keys)
    assert blocks[0] == _decoded_classes(alpha, m, keys)
    got = _best_initial_run(alpha, n, m, *blocks)
    assert got == _rescanned_run(alpha, n, m, _decoded_classes(alpha, m, keys))
    cap = data.draw(st.integers(2 * m - 1, 300))
    got = _ladder_outcome(alpha, m, keys, cap)
    with mock.patch.object(spectra, "_best_initial_run", _rescanned_run):
        assert got == _ladder_outcome(alpha, m, keys, cap)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_block_scan_ends_the_run_where_block_j_leaves(m):
    """On the golden slope the first-letter key often keeps block j-1 in
    block 0's class while block j leaves it, so the run must end at j's
    block, not stay long (at m = 2, n = 8 the stale run would read 4, not
    3)."""
    alpha = ContinuedFraction([0], [1]).value()
    def first_letters(blocks):
        return [v >> (m - 1) for v in blocks]

    for n in range(2 * m, 120):
        got = _best_initial_run(alpha, n, m, *_block_classes(alpha, m, first_letters))
        assert got == _rescanned_run(alpha, n, m, _decoded_classes(alpha, m, first_letters))


# -- exponent formulas on integer pairs, against their QuadReal versions --------


def _level_reference(alpha, n):
    """The level-n family cut at its points {-j*alpha}, sorted generically."""
    return sorted_family((-j * alpha).frac() for j in range(n + 1))


def _reference_exponent(alpha, k, m, convention=LEFT_CLOSED, with_witness=True):
    """max_kab_exponent on QuadReal: the longest length of a generically
    sorted coarse family, dist_to_int, and the floor of their quotient."""
    family = _coarse_reference(alpha, k, m)
    longest, step = max(family.lengths), dist_to_int(m * alpha)
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
    shortest, longest = min(level.lengths), max(level.lengths)
    ts = sorted(set(t_range))
    convs = cf.convergents(max(ts) + 1)
    report = BoundReport(k, [], [], [], [])
    monotone = []  # the (t, m) with m < q_t and A_1(m) >= A_1(q_t)
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
                monotone.append((t, m))
    assert monotone == [], monotone  # A_1 grows along convergent denominators
    return report


def _spelled(x):
    """A result with every QuadReal in it replaced by its spelling."""
    if isinstance(x, QuadReal):
        return ("QuadReal", x.p, x.q, x.d, x.r)
    if isinstance(x, Record):
        return (type(x).__name__, *(_spelled(getattr(x, name)) for name in type(x).__slots__))
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


@given(shifted_cfs | spiked_cfs | expansion_cfs, st.integers(1, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_bound_reports_match_the_report_by_period(cf, k, data):
    """The report that skips periods on the head bound against one
    exponent per period, field for field, over random t ranges whose
    q_{t+1} stays at most 2000, also on slopes with a quotient in the
    hundreds.  The kernel ranks no more periods than the report's needed,
    min(2k-1, q_{T+1}-1) + 5*n over n distinct t, the bound its cap is
    checked against."""
    convs = cf.convergents(40)
    ts = [t for t in range(40) if convs[t + 1].q <= 2000]
    t_range = data.draw(st.lists(st.sampled_from(ts), min_size=1, max_size=8))
    with mock.patch.object(spectra, "_kab_exponents", wraps=_kab_exponents) as kernel:
        got = exponent_bound_check(cf, k, t_range)
    assert _spelled(got) == _spelled(bound_check_by_period(cf, k, t_range))
    needed = min(2 * k - 1, convs[max(t_range) + 1].q - 1) + 5 * len(set(t_range))
    assert sum(len(call.args[1]) for call in kernel.call_args_list) <= needed


def test_bound_report_ranks_only_periods_that_can_reach_a_list(monkeypatch):
    """On the Fibonacci slope at k = 2 over t = 1..11 the rank kernel sees
    the ten checked q_t, then 5 of the 376 periods below q_12 = 377: the
    rest have a head bound below their threshold or, from 2k on, a level
    bound below it."""
    calls = []
    real = spectra._kab_exponents

    def counted(k, periods, p, q):
        periods = list(periods)
        calls.append(len(periods))
        return real(k, periods, p, q)

    monkeypatch.setattr(spectra, "_kab_exponents", counted)
    report = exponent_bound_check(FIB, 2, range(1, 12))
    assert report.t_checked == list(range(2, 12))
    assert FIB.convergents(12)[-1].q == 377
    assert calls == [10, 5]


def test_bound_report_ranks_the_periods_below_the_head():
    """[0; 5, (2)] at k = 3 has A(1) = 5 = A(q_1) + 2, an exceedance at
    m = 1, while H // S + 1 = 4 for the longest head gap H: below m = k-1
    the coarse cuts 0..m miss head cuts, so the head bound does not hold
    and the period is ranked."""
    cf = ContinuedFraction([0, 5], [2])
    got = exponent_bound_check(cf, 3, range(1, 8))
    assert got.improved_slack_exceedances == [(1, 1)]
    assert _spelled(got) == _spelled(bound_check_by_period(cf, 3, range(1, 8)))
    p, q = _convergent_past(_quotients_of(cf.value()), 10**6)
    assert max(_rank_gaps(range(3), p, q)) // _dist_rank(1, p, q) + 1 == 4


@given(shifted_cfs | spiked_cfs | expansion_cfs, st.data())
@settings(max_examples=100, deadline=None)
def test_order_one_reports_rank_no_period(cf, data):
    """The k = 1 proof of the exponent_bound_check docstring, over random
    t ranges whose q_{t+1} stays at most 5000: A_1(m) is q // S, or 1 when
    q = 2S, and it is at most A_1(q_t) for m < q_{t+1}.  So the report,
    which ranks no period, checks every t and keeps all three lists empty.
    A_1 also grows along the denominators: A_1(m) < A_1(q_t) for m < q_t."""
    convs = cf.convergents(40)
    ts = [t for t in range(40) if convs[t + 1].q <= 5000]
    t_range = data.draw(st.lists(st.sampled_from(ts), min_size=1, max_size=8))
    report = exponent_bound_check(cf, 1, t_range)
    assert report.t_checked == sorted(set(t_range))
    assert report.convergent_slack_violations == []
    assert report.improved_slack_exceedances == []
    assert report.approx_window_violations == []
    end, after = convs[max(t_range) + 1].q, convs[max(t_range) + 2].q
    p, q = _convergent_past(_quotients_of(cf.value()), 2 * after * (end + 1))
    periods = range(1, end)
    exponents, steps = _kab_exponents(1, periods, p, q)
    for m, a_m, s in zip(periods, exponents, steps):
        assert a_m == (1 if q == 2 * s else q // s)
    for t in report.t_checked:
        a_qt = _kab_exponents(1, [convs[t].q], p, q)[0][0]
        assert all(a_m < a_qt for a_m in exponents[: convs[t].q - 1])
        assert all(a_m <= a_qt for a_m in exponents[: convs[t + 1].q - 1])


@given(shifted_cfs | spiked_cfs | expansion_cfs, st.integers(2, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_periods_from_2k_on_keep_the_level_bounds(cf, k, data):
    """The k >= 2 proof of the exponent_bound_check docstring, on the
    report's convergent for a random last t whose q_{t+1} stays at most
    2000: every period 2k <= m < q_{t+1} has A(m) <= longest // S + 2, and
    -1 <= A(m) - longest // S <= 2 when S < shortest."""
    convs = cf.convergents(40)
    t = data.draw(st.sampled_from([t for t in range(40) if convs[t + 1].q <= 2000]))
    end, after = convs[t + 1].q, convs[t + 2].q
    p, q = _convergent_past(_quotients_of(cf.value()), 2 * after * (end + 1))
    level = _rank_gaps(range(2 * k - 1), p, q)
    shortest, longest = min(level), max(level)
    periods = range(2 * k, end)
    for a_m, s in zip(*_kab_exponents(k, periods, p, q)):
        assert a_m <= longest // s + 2
        if s < shortest:
            assert -1 <= a_m - longest // s <= 2


@st.composite
def return_walks(draw):
    """(p, q, delta, lo, end): q up to 10^4 or within 10^6 of 10^30, p
    prime to q in any residue class, delta from 0 to past q/2 (where
    2*delta + 1 >= q), and a window [lo, end) of at most 3000 periods
    below q."""
    q = draw(st.integers(2, 10**4) | st.integers(10**30 - 10**6, 10**30 + 10**6))
    p = draw(st.integers(-2 * q, 3 * q))
    assume(gcd(p, q) == 1)
    delta = draw(st.integers(0, 40) | st.integers(0, q // 2) | st.just(q // 2))
    lo = draw(st.integers(1, q - 1))
    end = draw(st.integers(lo, min(q, lo + 3000)))
    return p, q, delta, lo, end


@given(return_walks())
@example((5, 13, 0, 1, 13))  # delta = 0: no period
@example((5, 13, 6, 2, 13))  # 2*delta + 1 = q: every period
@example((3, 10**30 + 1, 10**27, 10**29, 10**29 + 3000))
@example((144, 233, 20, 100, 233))
@example((-7, 10, 0, 3, 3))  # an empty window
@settings(max_examples=300, deadline=None)
def test_return_time_walk_matches_the_plain_filter(case):
    """The three-gap walk of _return_times against testing the rank of
    ||m*alpha|| at every period of the window."""
    p, q, delta, lo, end = case
    want = [m for m in range(lo, end) if _dist_rank(m, p, q) <= delta]
    assert _return_times(p, q, delta, lo, end) == want


@given(st.integers(2, 3000), st.data())
@settings(max_examples=300, deadline=None)
def test_first_time_is_the_least_return(q, data):
    """_first_time's recurrence on small quotients against stepping n*p
    mod q until it lands in [lo, hi], for p prime to q and windows from one
    residue to all of 1..q-1."""
    p = data.draw(st.integers(1, q - 1).filter(lambda p: gcd(p, q) == 1), label="p")
    lo = data.draw(st.integers(1, q - 1), label="lo")
    hi = data.draw(st.integers(lo, min(q - 1, lo + 3)) | st.integers(lo, q - 1), label="hi")
    n = 1
    while not lo <= n * p % q <= hi:
        n += 1
    assert _first_time(p, q, lo, hi) == n


def test_bound_report_work_follows_the_ranked_periods(monkeypatch):
    """[0; 3, (1, 300, 2)] at k = 8 over t = 1..7 ranks its five checked
    q_t and 9 of the 3 262 542 periods below q_8: ||m*alpha|| is ranked
    once per t and once per ranked period, and never for a period that is
    skipped."""
    cf = ContinuedFraction.parse("[0; 3, (1, 300, 2)]")
    counts, calls = Counter(), []
    real_rank, real_kernel = spectra._dist_rank, spectra._kab_exponents

    def counted_rank(m, p, q):
        counts["rank"] += 1
        return real_rank(m, p, q)

    def counted_kernel(k, periods, p, q):
        periods = list(periods)
        calls.append(len(periods))
        return real_kernel(k, periods, p, q)

    monkeypatch.setattr(spectra, "_dist_rank", counted_rank)
    monkeypatch.setattr(spectra, "_kab_exponents", counted_kernel)
    report = exponent_bound_check(cf, 8, range(1, 8))
    assert report.ok and report.t_checked == [3, 4, 5, 6, 7]
    assert cf.convergents(8)[-1].q == 3262543
    assert calls == [5, 9]
    assert counts["rank"] == 7 + 5 + 9


@pytest.mark.parametrize(
    "k, t_max, first_checked, calls_made", [(8, 8, 3, [6, 9]), (2, 7, 1, [7, 4])]
)
def test_bound_reports_past_the_cap_in_periods_rank_a_handful(
    monkeypatch, k, t_max, first_checked, calls_made
):
    """[0; 3, (1, 300, 2)] at k = 8 to t = 8 and at k = 2 to t = 7 have
    3 262 542 and 2 176 232 periods below their last end, past
    BOUND_PERIOD_CAP, and the head bound alone would rank more than the
    cap of them.  From 2k on the level bound skips all but a handful, so
    both are decided: the kernel ranks the checked q_t, then 9 and 4
    periods."""
    cf = ContinuedFraction.parse("[0; 3, (1, 300, 2)]")
    calls = []
    real = spectra._kab_exponents

    def counted(k, periods, p, q):
        periods = list(periods)
        calls.append(len(periods))
        return real(k, periods, p, q)

    monkeypatch.setattr(spectra, "_kab_exponents", counted)
    report = exponent_bound_check(cf, k, range(1, t_max + 1))
    checked = list(range(first_checked, t_max + 1))
    assert report == BoundReport(k, checked, [], [], [])
    assert cf.convergents(t_max + 1)[-1].q - 1 > spectra.BOUND_PERIOD_CAP
    assert calls == calls_made


def test_a_too_small_convergent_ranks_its_whole_segment(monkeypatch):
    """Where q <= threshold * end a skipped period's floor check could
    fail, so the whole segment is ranked.  SPIKE at k = 2, t = 4 on its
    convergent 2431/8911: q_4 = 11 passes its own floor check, and the
    kernel is handed all 1106 periods below q_5 = 1107, one of which
    raises AssertionError."""
    handed = []
    real = spectra._kab_exponents

    def kernel(k, periods, p, q):
        handed.append(list(periods))
        return real(k, handed[-1], p, q)

    monkeypatch.setattr(spectra, "_convergent_past", lambda quotients, n: (2431, 8911))
    monkeypatch.setattr(spectra, "_kab_exponents", kernel)
    with pytest.raises(AssertionError, match="too small for floor"):
        exponent_bound_check(SPIKE, 2, [4])
    assert handed == [[11], list(range(1, 1107))]


def test_the_skip_rests_on_the_slack_bounds_alone(monkeypatch):
    """The skip holds for any exponents within the bounds that decide it.
    A(m) is raised to head // S + 1 at every period k-1 <= m < 2k whose S
    is at least the shortest level gap, and to min(head // S + 1, longest
    // S + 2) at every m >= 2k; at a convergent denominator with S below
    the shortest level gap it is lowered to longest // S - 1, the foot of
    its window, which lowers the thresholds.  Every window still holds,
    and both reports still agree.  Each bound decides a period at its
    threshold, which the raised report records: [0; 10, (2, 2, 20)] at
    k = 8 over t = 0..2 has m = 11 at its head bound below 2k and m = 31
    at its level bound; [0; 4, 2, 2, 126, (1)] at k = 2 over t = 0..2 has
    m = 5 at its head bound from 2k on and m = 13 at its level bound."""
    cases = [
        (ContinuedFraction([0, 10], [2, 2, 20]), 8, {(2, 11): "head", (2, 31): "level"}),
        (ContinuedFraction([0, 4, 2, 2, 126], [1]), 2, {(1, 5): "head", (2, 13): "level"}),
    ]
    denominators = set()

    def at_the_bound(k, m, p, q, a):
        s, level = _dist_rank(m, p, q), _rank_gaps(range(2 * k - 1), p, q)
        head, longest = max(_rank_gaps(range(k), p, q)), max(level)
        if m in denominators and s < min(level):
            return max(1, longest // s - 1)
        if m < k - 1 or m < 2 * k and s < min(level):
            return a
        return head // s + 1 if m < 2 * k else min(head // s + 1, longest // s + 2)

    real_kernel, real_one = spectra._kab_exponents, reference.kab_exponent

    def raised_kernel(k, periods, p, q):
        periods = list(periods)
        exponents, steps = real_kernel(k, periods, p, q)
        return [at_the_bound(k, m, p, q, a) for m, a in zip(periods, exponents)], steps

    monkeypatch.setattr(spectra, "_kab_exponents", raised_kernel)
    monkeypatch.setattr(reference, "kab_exponent",
                        lambda k, m, p, q: at_the_bound(k, m, p, q, real_one(k, m, p, q)))
    for cf, k, at_threshold in cases:
        denominators = {c.q for c in cf.convergents(40)}
        got = exponent_bound_check(cf, k, [0, 1, 2])
        assert set(at_threshold) <= set(got.improved_slack_exceedances)
        assert _spelled(got) == _spelled(bound_check_by_period(cf, k, [0, 1, 2]))
        p, q = _convergent_past(cf._quotients(), 10**9)
        level, head = _rank_gaps(range(2 * k - 1), p, q), max(_rank_gaps(range(k), p, q))
        for (_, m), side in at_threshold.items():
            s = _dist_rank(m, p, q)
            if m >= 2 * k:
                assert (max(level) // s + 2 < head // s + 1) == (side == "level")


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
        assert _convergent_past(_quotients_of(FIB.value()), 2 * 5 * (3 + 1)) == (21, 55)
        assert _spelled(got) == _spelled(_reference_bound_check(FIB, k, t_range))
    else:
        assert got.t_checked == [9, 10, 11]  # q_8 = 55 <= 56 = 2k-2 < q_9 = 89


@pytest.mark.parametrize("what", ["bound report", "limsup"])
def test_a_too_small_convergent_is_an_invariant_failure(monkeypatch, what):
    """Each floor of the rank kernel checks its convergent: one a hundred
    times too small raises AssertionError (exit 4), never a wrong report."""
    real = spectra._convergent_past
    monkeypatch.setattr(spectra, "_convergent_past", lambda quotients, n: real(quotients, n // 100))
    with pytest.raises(AssertionError, match="too small for floor"):
        if what == "limsup":
            theta_limsup_estimate(FIB, 2, 8)
        else:
            exponent_bound_check(FIB, 2, range(1, 9))


_TOO_SMALL_UNDER_O = """
from sturmian_spectra import spectra
from sturmian_spectra.cf import ContinuedFraction
real = spectra._convergent_past
spectra._convergent_past = lambda quotients, n: real(quotients, n // 100)
fib = ContinuedFraction([0, 2], [1])
print(__debug__)
for call in (lambda: spectra.exponent_bound_check(fib, 2, range(1, 9)),
             lambda: spectra.theta_limsup_estimate(fib, 2, 8)):
    try:
        call()
        print("no raise")
    except AssertionError as exc:
        print("AssertionError", exc)
"""


def test_a_too_small_convergent_fails_under_python_o():
    """The floor checks are raises, not asserts: under -O, which strips
    every assert (this suite's own too), a convergent a hundred times too
    small still raises AssertionError in both the bound report and the
    limsup estimate."""
    done = subprocess.run([sys.executable, "-O", "-c", _TOO_SMALL_UNDER_O],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "False"
    assert len(lines) == 3
    assert all(line.startswith("AssertionError convergent ") for line in lines[1:])
    assert all("too small for floor" in line for line in lines[1:])


@given(shifted_cfs, st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_theta_matches_the_quadreal_longest_interval(cf, k):
    want = max(_level_reference(cf.value(), 2 * k - 2).lengths) * cf.lagrange_constant()
    assert _spelled(theta_k(cf, k)) == _spelled(want)


def _past(cf, n, further):
    """The first convergent (p, q) of cf with q > n, or the one after it."""
    folds = (fold for fold in _folds(cf._quotients()) if fold[2] > n)
    p, _, q, _ = next(folds)
    if further:
        p, _, q, _ = next(folds)
    return p, q


@given(shifted_cfs | spiked_cfs, st.integers(1, 8), st.integers(1, 400), st.booleans())
@settings(max_examples=300, deadline=None)
def test_longest_coarse_length_matches_the_index_sort(cf, k, m, further):
    """_longest over _coarse_ranks, with the head ranks handed in as the
    kernel does or not, gives the (G, cut, pair) of sorting the coarse
    indices and building every pair, on the first convergent past 2m and
    on the one after it, with a_0 from -2 to 2 and slopes above 1/2."""
    p, q = _past(cf, 2 * m, further)
    want = longest_by_index_sort(_checked_coarse_indices(k, m), p, q)
    assert _longest(_coarse_ranks(k, m, p, q), p, q) == want
    assert _longest(_coarse_ranks(k, m, p, q, _ranks(range(k), p, q)[:-1]), p, q) == want


def test_tied_longest_coarse_lengths_keep_the_first_in_circle_order():
    """The Fibonacci slope ties its longest coarse lengths at many (k, m);
    the first in circle order wins, as it does in the index sort."""
    ties = 0
    for k, m, further in itertools.product(range(1, 9), range(1, 401), (False, True)):
        p, q = _past(FIB, 2 * m, further)
        indices = _checked_coarse_indices(k, m)
        gaps = _rank_gaps(indices, p, q)
        ties += gaps.count(max(gaps)) > 1
        assert _longest(_coarse_ranks(k, m, p, q), p, q) == longest_by_index_sort(indices, p, q)
    assert ties > 1000


@given(shifted_cfs | spiked_cfs, st.integers(1, 8), st.booleans())
@settings(max_examples=200, deadline=None)
def test_longest_level_length_matches_the_index_sort(cf, k, further):
    """_theta's longest level-(2k-2) length, on the convergent past 4k-4
    (whose q is 1 at k = 1) and on the one after it, is the index sort's."""
    p, q = _past(cf, 4 * k - 4, further)
    want = longest_by_index_sort(range(2 * k - 1), p, q)
    assert _longest(_ranks(range(2 * k - 1), p, q), p, q) == want


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
    p, q = _convergent_past(_quotients_of(alpha), abs(b1 - b2))
    assert (a1 * q + b1 * p > a2 * q + b2 * p) == (x > y)
    if y < 0:
        x, y, a1, b1, a2, b2 = -x, -y, -a1, -b1, -a2, -b2
    n = (x / y).floor()
    p, q = _convergent_past(_quotients_of(alpha), abs(b1) + (abs(n) + 1) * abs(b2))
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
    p, q = _convergent_past(_quotients_of(alpha), 2 * m)
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
    assert _convergent_past(_quotients_of(golden), 5) == (5, 8)
    assert 4 * 5 % 8 == 8 - 4 * 5 % 8 == _dist_rank(4, 5, 8)
    p, q = _convergent_past(_quotients_of(golden), 8)
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


@given(
    st.integers(-2, 2),
    st.lists(st.integers(1, 30), min_size=1, max_size=6),
    st.integers(1, 6),
    st.lists(st.tuples(st.lists(st.integers(1, 30), max_size=2), st.booleans()), max_size=4),
)
@example(0, [1, 2], 2, [([2], True)])  # [0; 2, 2, (1, 2)] is [0; 2, (2, 1)]
@settings(max_examples=100, deadline=None)
def test_spectrum_points_are_theta_k_of_their_slopes(a0, period, k, picks):
    """sample_spectrum takes one Lagrange constant for all its variants;
    each point is still spelled as theta_k of its own slope, also where a
    last digit equal to the period's last quotient rotates the variant's
    canonical period.  The drawn preperiods go through the theta that
    sample_spectrum calls, with base's constant."""
    base = ContinuedFraction([a0], period)
    constant = base.lagrange_constant()
    for digits, rotate in picks:
        variant = spectra._variant(base, (*digits, base.period[-1]) if rotate else tuple(digits))
        assert _spelled(spectra._theta(variant, k, constant)) == _spelled(theta_k(variant, k))
    for point in sample_spectrum(k, base, 6):
        assert _spelled(point.theta) == _spelled(theta_k(point.cf, k))


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
        got = _code_pair(*_convergent_past(_quotients_of(x), abs(b) + d * n), a, b, d, n, zero_in_i0)
        assert got == code_pair_by_letter(x, a, b, d, n, zero_in_i0)


@given(shifted_cfs | spiked_cfs, st.integers(1, 120))
@example(ContinuedFraction([0, 2], [1]), 120)
@settings(max_examples=150, deadline=None)
def test_sigma_language_from_two_windows_per_image_matches_every_window(cf, n):
    """The slices at 0 and 1 of each image of a length-(n+1) factor are
    every length-n window of every such image, on slopes with any integer
    part."""
    alpha = cf.value()
    assert sigma_factors_of_length(alpha, n) == sigma_window_scan(alpha, n)


# slopes below 1/2, whose codings contain 00
ternary_specs = st.builds(
    lambda a1, pre, period: SturmianSpec(ContinuedFraction([0, a1, *pre], period).value(), QuadReal(0)),
    st.integers(2, 30),
    st.lists(st.integers(1, 30), max_size=2),
    st.lists(st.integers(1, 30), min_size=1, max_size=8),
)


@given(ternary_specs, st.integers(2, 4), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_ternary_report_matches_the_pair_loop(spec, k, max_len):
    """verify_ternary_property equals the pair loop with four slices per
    pair over the window scan's languages."""
    assert verify_ternary_property(spec, k, max_len) == ternary_by_pairs(spec, k, max_len)


@given(ternary_specs, st.integers(2, 4), st.integers(1, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_ternary_counterexamples_come_in_pair_order(spec, k, max_len, data):
    """With drawn ternary word lists in place of the sigma-languages, where
    keys and ends often disagree, the report lists the pair loop's
    counterexamples in the pair loop's order."""
    lists = {
        ell: sorted(data.draw(st.sets(st.text("012", min_size=ell, max_size=ell), max_size=12)))
        for ell in range(1, max_len + 1)
    }

    def language(alpha, ell):
        return lists[ell]

    with mock.patch.object(kabelian, "sigma_factors_of_length", language):
        report = verify_ternary_property(spec, k, max_len)
    assert report == ternary_by_pairs(spec, k, max_len, language)
