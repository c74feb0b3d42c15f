"""k-abelian powers in rotation codings and the spectra they generate.

The maximal exponent of a k-abelian power of period m is read off the
coarse interval family: a run of n period-m steps stays equivalent exactly
when the n points x, x+m*alpha, ... share a coarse interval, so the count
is floor(longest interval / dist(m*alpha)) plus one unless the two are
exactly equal.  A slow enumerator over actual factors double-checks this
on demand, under an explicit symbol budget.

Scaling the maximal exponent at convergent denominators by the denominator
converges; the limit factors as (longest level-(2k-2) interval) times the
Lagrange constant of the slope, which is what theta_k computes exactly.
"""

from __future__ import annotations

import itertools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Iterable, Iterator

from .cf import ContinuedFraction, _folds
from .geometry import (
    EndpointConvention,
    LEFT_CLOSED,
    _checked_coarse_indices,
    _convergent_past,
    _dist_rank,
    _orbit_cuts,
    _rank_gaps,
    _value,
)
from .kabelian import _signature_key
from .quadreal import QuadReal
from .words import DEFAULT_ORACLE_CAP, ResourceCapExceeded, _code_pair, _crossing_walk

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "ResourceCapExceeded",
    "ExponentRecord",
    "max_kab_exponent",
    "brute_kab_exponent",
    "BoundReport",
    "exponent_bound_check",
    "theta_k",
    "LimsupEstimate",
    "theta_limsup_estimate",
    "SpectrumPoint",
    "preperiod_pool",
    "sample_spectrum",
    "max_integer_power_exponent",
    "LinftyStage",
    "LinftyReport",
    "construct_linfty_slope",
]

ORACLE_CAP_ENV = "STURMIAN_SPECTRA_CAP"
# digits of one reported integer where the interpreter sets no int-to-str
# limit: linfty's stages grow doubly exponentially and cf holds its table
# whole, so a bound is needed all the same
DIGIT_BUDGET = 4300
LIMSUP_WINDOW = 5  # trailing convergent indices theta_limsup_estimate maxes over


def _oracle_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(ORACLE_CAP_ENV)
    try:
        value = int(env) if env else DEFAULT_ORACLE_CAP
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{ORACLE_CAP_ENV} must be an integer >= 0, got {env!r}")
    return value


@dataclass(frozen=True)
class ExponentRecord:
    k: int
    m: int
    exponent: int
    max_interval_length: QuadReal
    step: QuadReal
    witness_intercept: QuadReal | None = None
    witness: str | None = None


def _kab_exponents(
    k: int, periods: Iterable[int], p: int, q: int
) -> tuple[list[int], list[int]]:
    """A_k(m) by _kab_exponent for each m in `periods`, and the rank S of
    ||m*alpha|| it took, for a convergent p/q past (G // S + 2)*m at every m,
    which each floor checks.  The head cuts j < k are ranked once: for
    m >= 2k the tail cuts m-k+1..m are the head shifted by -(m-k+1)*p mod q,
    and for m < 2k the coarse family is all m+1 cuts."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    head = [-j * p % q for j in range(k)]
    exponents, steps = [], []
    for m in periods:
        if m < 2 * k:
            ranks = sorted([-j * p % q for j in _checked_coarse_indices(k, m)])
        else:
            shift = -(m - k + 1) * p % q
            ranks = sorted(head + [(h + shift) % q for h in head])
        ranks.append(q)  # q closes the circle
        s = _dist_rank(m, p, q)
        exponents.append(_kab_exponent(max(map(sub, ranks[1:], ranks)), s, m, q))
        steps.append(s)
    return exponents, steps


def _kab_exponent(g: int, s: int, m: int, q: int) -> int:
    """A_k(m) = G // S + (G != S) from the rank G of the longest coarse
    length and the rank S of ||m*alpha|| (the floor corollary in the
    geometry module docstring), the floor checked by _covered_floor."""
    return _covered_floor(g, s, m, m, q) + (g != s)


def _covered_floor(g: int, s: int, m: int, b: int, q: int) -> int:
    """g // s for the ranks of a pair with |B| <= b and of ||m*alpha||, with
    q > b + (g // s + 1)*m checked by a raise, which unlike `assert` survives -O."""
    n = g // s
    if q <= b + (n + 1) * m:
        raise AssertionError(f"convergent {q} too small for floor {n} at period {m}")
    return n


def max_kab_exponent(
    alpha: QuadReal,
    k: int,
    m: int,
    convention: EndpointConvention = LEFT_CLOSED,
    with_witness: bool = True,
) -> ExponentRecord:
    """Largest n such that some factor is a k-abelian n-th power of period m.

    Exact: floor(longest coarse interval / dist(m*alpha)), plus one unless
    the two are equal, decided on circle ranks as G // S + (G != S) (the
    floor corollary in the geometry module docstring).  The witness, when
    requested and within the oracle cap (STURMIAN_SPECTRA_CAP, default
    DEFAULT_ORACLE_CAP symbols), is an intercept placed inside the longest
    interval so that all n period-m steps stay inside it, together with the
    coded word of length n*m.  A slope outside (0, 1) is the same rotation
    as its fractional part, which codes the witness.
    """
    indices = _checked_coarse_indices(k, m)
    q, bound = 0, 2 * m
    while q <= bound:  # from past 2m, refine until the floor corollary covers G // S
        p, q = _convergent_past(alpha, bound)
        cuts, lengths = _orbit_cuts(indices, p, q)
        gaps, s = [a * q + b * p for a, b in lengths], _dist_rank(m, p, q)
        g = max(gaps)
        bound = (g // s + 2) * m
    exponent = _kab_exponent(g, s, m, q)
    i = gaps.index(g)
    (c, j), longest = cuts[i], lengths[i]
    f, r = divmod(m * p, q)  # ||m*alpha|| is {m*alpha} when s == r, else 1 - {m*alpha}
    step, sign = ((-f, m), -1) if s == r else ((1 + f, -m), 1)
    x = word = None
    if with_witness and exponent * m <= _oracle_cap(None):
        # sign = 1 when x + i*m*alpha runs downward: x = cut + (longest + sign*(n-1)*step)/2
        a, b = (2 * u + v + sign * (exponent - 1) * w for u, v, w in zip((c, -j), longest, step))
        # x = (a + b*alpha)/2 needs no reduction mod 1: it lies in [cut, cut +
        # longest), inside [0, 1), as (n-1)*step < longest once n > 1 (longest =
        # N*step would have B-part N*m, N >= 2, and coarse lengths have |B| <= m)
        x = _value(alpha, a, b, 2)
        word = _code_pair(alpha, a, b, 2, exponent * m, convention.zero_in_I0)
    return ExponentRecord(k, m, exponent, _value(alpha, *longest), _value(alpha, *step), x, word)


class _BlockClasses(dict):
    """m-block -> class id under `key`, filled in on first sight of a block:
    `key` runs once per distinct block, and there are at most m+1 of those."""

    def __init__(self, key):
        super().__init__()
        self.key = key
        self.ids = {}

    def __missing__(self, block: str) -> int:
        cid = self[block] = self.ids.setdefault(self.key(block), len(self.ids))
        return cid


def _best_initial_run(alpha: QuadReal, n: int, m: int, classes: _BlockClasses) -> int:
    """Max over the length-n factors (n >= m) of the leading whole m-blocks
    equivalent to the first, along the words module's crossing walk: cut j
    re-ids only the blocks of letters j-1 and j, and the run is repaired,
    since the blocks below it that did not change still match block 0."""
    blocks = n // m
    walk = _crossing_walk(alpha, n)
    _, letters = next(walk)
    ids = [classes[letters[s : s + m].decode()] for s in range(0, blocks * m, m)]
    best = run = next((b for b in range(1, blocks) if ids[b] != ids[0]), blocks)
    for j, _ in walk:
        lo, hi = (j - 1) // m, j // m
        if lo >= blocks:
            continue  # both letters lie past the last whole block
        ids[lo] = classes[letters[lo * m : lo * m + m].decode()]
        if hi != lo and j < n and hi < blocks:
            ids[hi] = classes[letters[hi * m : hi * m + m].decode()]
        if lo == 0:
            run = 1
        elif lo < run and ids[lo] != ids[0]:
            run = lo
        elif hi < run and ids[hi] != ids[0]:
            run = hi
        while run < blocks and ids[run] == ids[0]:
            run += 1
        if run > best:
            best = run
    return best


def _longest_block_run(alpha: QuadReal, m: int, key, cap: int) -> int:
    """Max n with a factor of length n*m whose m-blocks all share `key`.

    Enumerates complete factor languages of increasing length; every factor
    of length n*m is a prefix of some enumerated factor, so initial block
    runs see every power.  Certification that no longer power exists needs
    the language at length (n+1)*m, hence the growth loop and the cap.
    """
    if 2 * m > cap:
        raise ResourceCapExceeded(2 * m, cap)
    classes = _BlockClasses(key)
    # Shared ladder of lengths (powers of two up to the cap) so repeated
    # calls with different periods reuse the cached crossing orders.
    length = 64
    while length < 4 * m and length < cap:
        length *= 2
    length = min(length, cap)
    while True:
        best = _best_initial_run(alpha, length, m, classes)
        if (best + 1) * m <= length:
            return best
        if length >= cap:
            raise ResourceCapExceeded((best + 1) * m, cap)
        length = min(cap, length * 2)


def brute_kab_exponent(alpha: QuadReal, k: int, m: int, cap: int | None = None) -> int:
    """Independent check of max_kab_exponent by enumerating actual factors.

    No interval-length reasoning: splits enumerated factors into m-blocks
    and compares their signatures, computed once per distinct block.  The
    factors, and so the result, do not depend on an endpoint convention,
    so none is taken.
    Raises ResourceCapExceeded (a declared failure, never a wrong answer)
    if the needed factor length passes the cap, env-overridable via
    STURMIAN_SPECTRA_CAP.
    """
    return _longest_block_run(alpha, m, lambda b: _signature_key(b, k), _oracle_cap(cap))


def max_integer_power_exponent(cf: ContinuedFraction, m: int) -> int:
    """Largest n with a literal n-th power of period m among the factors.

    At convergent denominators q_t with t > 1 this is a_{t+1} + 2; other
    periods fall back to enumeration (they never reach 3 in practice, but
    the fallback double-checks rather than assumes), under the oracle cap
    STURMIAN_SPECTRA_CAP.
    """
    if cf.is_rational:
        raise ValueError("slope must be irrational")
    if m < 1:
        raise ValueError("period must be >= 1")
    quotients = map(cf.partial_quotient, itertools.count())
    for t, (_, _, q, _) in enumerate(_folds(quotients)):
        if q > m:
            break
        if q == m and t > 1:
            return cf.partial_quotient(t + 1) + 2
    return _longest_block_run(cf.value(), m, lambda b: b, _oracle_cap(None))


@dataclass
class BoundReport:
    k: int
    t_checked: list[int]
    convergent_slack_violations: list[tuple[int, int]]
    approx_window_violations: list[int]
    k1_monotone_violations: list[tuple[int, int]]
    # informational: where the conjectured tighter +1 slack would fail
    improved_slack_exceedances: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return not (
            self.convergent_slack_violations or self.approx_window_violations
        )


def exponent_bound_check(
    cf: ContinuedFraction, k: int, t_range: Iterable[int]
) -> BoundReport:
    """Check exponent bounds along convergent denominators.

    For each t in t_range with dist(q_t * alpha) below the shortest
    level-(2k-2) interval:

    * every period m < q_{t+1} satisfies A(m) <= A(q_t) + 2;
    * every m < q_{t+1} with dist(m * alpha) below that shortest length
      satisfies -1 <= A(m) - floor(longest / dist(m * alpha)) <= 2,
      where longest is the longest level-(2k-2) interval.

    The +2 side of the window is sharp, so a symmetric +/-1 window would
    be wrong: the class family's longest interval can exceed the level
    family's by up to dist(m * alpha), and an exact-tie bump adds one
    more.  Both excesses are realized together, e.g. at m = 11 for the
    slope of the Fibonacci word with k = 2, and even at convergent
    denominators (m = 4 for [0; 3, 1, 1, 1, 100, (1)] with k = 2, where
    A = 6 against floor(longest / dist) = 4 - confirmed by brute-force
    scanning of the word itself).

    For k = 1 the stronger A(m) < A(q_t) for m < q_t is recorded as well,
    informationally (it does not affect `ok`).

    All is decided on ranks over one convergent, and one call of the rank
    kernel _kab_exponents decides every period any checked t visits: m below
    the largest q_{t+1}, and each q_t.  For T = max(t_range) each period m
    taken is at most q_{T+1}, so ||m*alpha|| >= ||q_{T+1}*alpha|| >
    1/(2*q_{T+2}) and a floor of a length <= 1 by it is below 2*q_{T+2}: a
    convergent past 2*q_{T+2}*(q_{T+1} + 1) meets the lemma and the floor
    corollary of the geometry module docstring for every coarse length,
    whose |B| is at most m.  Level lengths have |B| <= 2k-2 and need no
    term in k.  When q_t <= 2k-2, cuts 0 and q_t are both level cuts, so
    the rank gap between them, _dist_rank(q_t), is at least the shortest
    rank gap on any convergent, and t is rightly left unchecked.  So a
    checked t has 2k-2 < q_t <= q_{T+2}, and every pair compared with a
    level length has |B| <= q_{T+1} + 2k-2 < q_{T+1} + q_{T+2}, which the
    convergent is past.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    if cf.is_rational:
        raise ValueError("slope must be irrational")
    alpha = cf.value()
    ts = sorted(set(t_range))
    if not ts or min(ts) < 0:
        raise ValueError("t_range must be nonempty with t >= 0")
    convs = cf.convergents(max(ts) + 2)
    p, q = _convergent_past(alpha, 2 * convs[-1].q * (convs[-2].q + 1))
    level = _rank_gaps(range(2 * k - 1), p, q)
    shortest, longest = min(level), max(level)
    checked = [t for t in ts if _dist_rank(convs[t].q, p, q) < shortest]
    report = BoundReport(k, checked, [], [], [], [])
    if not checked:
        return report
    last = checked[-1]
    reach = convs[last + 1].q  # the periods m < reach, and each q_t <= reach
    # q_0 = q_1 = 1 when a_1 = 1, so q_t can be reach itself
    exponents, steps = _kab_exponents(k, range(1, max(reach, convs[last].q + 1)), p, q)
    for m, s in enumerate(steps[: reach - 1], 1):  # A(m) is exponents[m - 1]
        if s < shortest:
            diff = exponents[m - 1] - _covered_floor(longest, s, m, 2 * k - 2, q)
            if not -1 <= diff <= 2:
                report.approx_window_violations.append(m)
    for t in checked:
        q_t = convs[t].q
        a_qt = exponents[q_t - 1]
        bound = a_qt + 2
        below = exponents[: convs[t + 1].q - 1]  # A(m) for 1 <= m < q_{t+1}
        for m, a_m in enumerate(below, 1):
            if a_m > bound:
                report.convergent_slack_violations.append((t, m))
            elif a_m == bound:
                report.improved_slack_exceedances.append((t, m))
        if k == 1:
            report.k1_monotone_violations += [
                (t, m) for m, a_m in enumerate(below[: q_t - 1], 1) if a_m >= a_qt
            ]
    return report


def theta_k(cf: ContinuedFraction, k: int) -> QuadReal:
    """Exact limsup of A_k(q_t)/q_t: longest level-(2k-2) interval times
    the Lagrange constant of the slope."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    alpha = cf.value()
    p, q = _convergent_past(alpha, 4 * k - 4)
    lengths = _orbit_cuts(range(2 * k - 1), p, q)[1]
    longest = max(lengths, key=lambda ab: ab[0] * q + ab[1] * p)  # the greatest rank
    return _value(alpha, *longest) * cf.lagrange_constant()


@dataclass(frozen=True)
class LimsupEstimate:
    k: int
    t_max: int
    window_start: int
    estimate: Fraction
    slack: Fraction
    terms: tuple[tuple[int, Fraction], ...]


def theta_limsup_estimate(cf: ContinuedFraction, k: int, t_max: int) -> LimsupEstimate:
    """Finite-stage rational estimate of theta_k.

    Computes A_k(q_t)/q_t for every convergent denominator q_t with
    t <= t_max and takes the max over the last LIMSUP_WINDOW indices only.
    The ratios at small t routinely overshoot the limit (the +1 tie term
    and the family-vs-limit gap are both O(1/q_t)), so folding them into
    the max would freeze the estimate at an early spike; a tail max is
    the finite stand-in for a limit superior.  All terms are kept in the
    report, with the slack 2/q at the window start: the scale of the O(1/q)
    deviation of a term whose index tracks the limit superior.  It is no
    bound on the estimate's error.  When the window holds no such index,
    for instance when the period of the expansion is longer than the
    window, the estimate can fall below theta_k by O(1):
    [0; 27, (6, 9, 16, 1, 26, 21)] at k = 4, t_max = 10 gives a gap of 4.5
    against a slack of 2.9e-6.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    alpha = cf.value()
    convs = cf.convergents(t_max + 1)
    # the floor at m = q_t is below 1/||q_t*alpha|| < q_t + q_{t+1} <= 2*q_{t_max+1}
    p, q = _convergent_past(alpha, 2 * convs[-1].q * (convs[-1].q + 1))
    exponents = _kab_exponents(k, [c.q for c in convs[1:-1]], p, q)[0]
    terms = [(c.t, Fraction(a, c.q)) for c, a in zip(convs[1:-1], exponents)]
    window_start = max(1, t_max - LIMSUP_WINDOW + 1)
    estimate = max(v for t, v in terms if t >= window_start)
    slack = Fraction(2, convs[window_start].q)
    return LimsupEstimate(k, t_max, window_start, estimate, slack, tuple(terms))


@dataclass(frozen=True)
class SpectrumPoint:
    cf: ContinuedFraction
    k: int
    theta: QuadReal


def _preperiods() -> Iterator[tuple[int, ...]]:
    """Every preperiod digit tuple in pool order: the empty tuple first,
    then pairs (c1, c2) in expanding square shells."""
    yield ()
    for shell in itertools.count(1):
        for c1 in range(1, shell + 1):
            yield (c1, shell)
        for c2 in range(1, shell):
            yield (shell, c2)


def preperiod_pool(count: int) -> Iterator[tuple[int, ...]]:
    """The first `count` preperiod digit tuples in pool order (none for a
    count below 1): the empty tuple, then pairs in expanding square shells."""
    return itertools.islice(_preperiods(), max(count, 0))


def sample_spectrum(
    k: int,
    base: ContinuedFraction,
    pool: int | Iterable[tuple[int, ...]],
) -> list[SpectrumPoint]:
    """Exact theta_k values over slopes sharing base's periodic tail.

    The pool is either a count fed to preperiod_pool or an explicit
    iterable of preperiod digit tuples; duplicates after canonicalization
    are skipped, so a count yields that many distinct slopes (the base
    itself first).  Points are returned in enumeration order.
    """
    if base.is_rational:
        raise ValueError("base slope must be irrational")
    if isinstance(pool, int):
        if pool < 0:
            raise ValueError("pool size must be >= 0")
        cfs = _distinct_variants(base, max(pool, 1))
    else:
        cfs = [_variant(base, tuple(p)) for p in pool] or [base]
    return [SpectrumPoint(cf, k, theta_k(cf, k)) for cf in cfs]


def _variant(base: ContinuedFraction, digits: tuple[int, ...]) -> ContinuedFraction:
    if not digits:
        return base
    return ContinuedFraction((base.preperiod[0],) + digits, base.period)


def _distinct_variants(base: ContinuedFraction, count: int) -> list[ContinuedFraction]:
    """The first `count` distinct variants of base, in pool order."""
    seen: dict[ContinuedFraction, None] = {}  # insertion-ordered set
    for digits in _preperiods():
        seen.setdefault(_variant(base, digits))
        if len(seen) == count:
            return list(seen)


@dataclass(frozen=True)
class LinftyStage:
    t: int
    k: int
    q: int
    r: int
    s: int
    a_next: int
    ratio: Fraction
    error: Fraction
    bound: Fraction


@dataclass(frozen=True)
class LinftyReport:
    target: Fraction
    stages: tuple[LinftyStage, ...]
    quotients: tuple[int, ...]
    prefix: ContinuedFraction
    padding_ok: bool


def construct_linfty_slope(lam: Fraction | int | str, stages: int) -> LinftyReport:
    """Build a slope whose stage ratios (a+2)/q approach a positive rational.

    Stage t finds the least index k past the previous stage such that the
    best approximation r + s/q_k from below (0 <= s < q_k, greedy choice)
    sits within 2^-t of the target AND the resulting ratio
    (max(1, floor(target*q_k)) - 2 + 2)/q_k does too; it then plants
    a_{k+1} = max(1, floor(target*q_k) - 2) and pads with ones.  The ratio
    condition is part of the stage search because for small targets the
    clamped quotient can push the ratio outside the window at small q.

    Denominators grow doubly exponentially, so a stage that could report an
    integer past the digit limit (each is at most q times the target's
    larger term; see _digit_limit) raises ResourceCapExceeded before the
    next, far larger, stage is computed.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("target must be a positive rational")
    if stages < 1:
        raise ValueError("need at least one stage")
    digits, whose = _digit_limit()
    too_big = 10**digits // max(lam.numerator, lam.denominator)
    quotients = [1, 1]  # position i holds a_{i+1}; padding value is 1
    qs = [1, 1]  # position i holds q_i; stages plant a_{k+1} for k >= 2 only
    stage_records: list[LinftyStage] = []
    for t in range(1, stages + 1):
        bound = Fraction(1, 2**t)
        while True:
            k = len(qs)  # the candidates run on from the last stage's index
            q = quotients[k - 1] * qs[k - 1] + qs[k - 2]
            qs.append(q)
            quotients.append(1)
            if q >= too_big:
                raise _digit_cap(digits, whose, f"linfty stage {t}")
            v_num = (lam.numerator * q) // lam.denominator  # floor(lam * q)
            a_next = max(1, v_num - 2)
            ratio = Fraction(a_next + 2, q)
            if lam - Fraction(v_num, q) < bound and abs(lam - ratio) < bound:
                quotients[k] = a_next  # position k holds a_{k+1}
                r, s = divmod(v_num, q)
                stage_records.append(
                    LinftyStage(t, k, q, r, s, a_next, ratio, abs(lam - ratio), bound)
                )
                break
    picked = {rec.k for rec in stage_records}
    # position i holds a_{i+1}, so its window ratio is (a_{i+1} + 2) / q_i; once
    # one unpicked ratio is <= lam, every later one must be too
    unpicked = (i for i in range(1, len(qs)) if i not in picked)
    below = [Fraction(quotients[i] + 2, qs[i]) <= lam for i in unpicked]
    padding_ok = all(itertools.dropwhile(lambda seen: not seen, below))
    prefix = ContinuedFraction([0] + quotients)
    return LinftyReport(lam, tuple(stage_records), tuple(quotients), prefix, padding_ok)


def _digit_limit() -> tuple[int, str]:
    """The most digits a reported integer may have, and whose limit that is:
    the interpreter's int-to-str limit, or DIGIT_BUDGET where it sets none
    (a limit of 0, or an interpreter without one)."""
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits:
        return digits, "the interpreter's int-to-str limit"
    return DIGIT_BUDGET, "the package's digit budget"


def _digit_cap(digits: int, whose: str, what: str) -> ResourceCapExceeded:
    """The refusal of output whose integers would pass _digit_limit()."""
    return ResourceCapExceeded(
        digits + 1, digits, f"{what} needs integers of more than {digits} digits, {whose}"
    )

