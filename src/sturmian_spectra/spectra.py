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
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from functools import lru_cache, partial
from operator import sub

from ._record import Record
from .cf import ContinuedFraction, _convergent_past, _folds, _quotients_of
from .geometry import (
    EndpointConvention,
    LEFT_CLOSED,
    _circle_order,
    _coarse_ranks,
    _dist_rank,
    _longest,
    _rank_gaps,
    _ranks,
    _value,
)
from .kabelian import _keys
from .quadreal import QuadReal
from .words import DEFAULT_ORACLE_CAP, ResourceCapExceeded, _code_pair, _crossings

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
    "sample_spectrum",
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
SPECTRUM_POOL_CAP = 10**5  # slopes in one sample_spectrum count: about 5 s at k = 2
BOUND_PERIOD_CAP = 10**6  # periods one exponent_bound_check may rank: 4 s, 100 MB at k = 2


def _oracle_cap() -> int:
    env = os.environ.get(ORACLE_CAP_ENV)
    try:
        value = int(env) if env else DEFAULT_ORACLE_CAP
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{ORACLE_CAP_ENV} must be an integer >= 0, got {env!r}")
    return value


class ExponentRecord(Record):
    __slots__ = {
        "k": "int",
        "m": "int",
        "exponent": "int",
        "max_interval_length": "QuadReal",
        "step": "QuadReal",
        "witness_intercept": "QuadReal | None",
        "witness": "str | None",
    }
    _defaults = (None, None)


def _kab_exponents(
    k: int, periods: Iterable[int], p: int, q: int
) -> tuple[list[int], list[int]]:
    """A_k(m) by _kab_exponent for each m in `periods`, and the rank S of
    ||m*alpha|| it took, for a convergent p/q past (G // S + 2)*m at every m,
    which each floor checks.  G is read off geometry._coarse_ranks, handed
    the head ranks, which are computed once."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    head = _ranks(range(k), p, q)[:-1]
    exponents, steps = [], []
    for m in periods:
        ranks = _coarse_ranks(k, m, p, q, head)
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
    floor corollary in the geometry module docstring), G read off
    geometry._coarse_ranks by geometry._longest.  The witness, when
    requested and within the oracle cap (STURMIAN_SPECTRA_CAP, default
    DEFAULT_ORACLE_CAP symbols), is an intercept placed inside the longest
    interval so that all n period-m steps stay inside it, together with the
    coded word of length n*m.  A slope outside (0, 1) is the same rotation
    as its fractional part, which codes the witness.  With 2k > m the
    coarse family is the whole level-m family and equivalence of length-m
    words is equality, so k = m gives the largest literal power.  The
    slope is expanded once, and its convergents are walked forward: to the
    first past 2m, on past (G // S + 2)*m until the floor corollary covers
    G // S, and on to one past |b| + 2n for the witness.
    """
    folds = _folds(_quotients_of(alpha))
    bound = 2 * m
    while True:
        p, _, q, _ = next(folds)
        if q > bound:  # rank on it, and refine unless the floor corollary covers G // S
            g, (c, j), longest = _longest(_coarse_ranks(k, m, p, q), p, q)
            s = _dist_rank(m, p, q)
            bound = (g // s + 2) * m
            if q > bound:
                break
    exponent = _kab_exponent(g, s, m, q)
    f, r = divmod(m * p, q)  # ||m*alpha|| is {m*alpha} when s == r, else 1 - {m*alpha}
    step, sign = ((-f, m), -1) if s == r else ((1 + f, -m), 1)
    x = word = None
    if with_witness and exponent * m <= _oracle_cap():
        # sign = 1 when x + i*m*alpha runs downward: x = cut + (longest + sign*(n-1)*step)/2
        a, b = (2 * u + v + sign * (exponent - 1) * w for u, v, w in zip((c, -j), longest, step))
        # x = (a + b*alpha)/2 needs no reduction mod 1: it lies in [cut, cut +
        # longest), inside [0, 1), as (n-1)*step < longest once n > 1 (longest =
        # N*step would have B-part N*m, N >= 2, and coarse lengths have |B| <= m)
        x = _value(alpha, a, b, 2)
        n = exponent * m
        while q <= abs(b) + 2 * n:  # any convergent past |b| + 2n codes the witness
            p, _, q, _ = next(folds)
        word = _code_pair(p, q, a, b, 2, n, convention.zero_in_I0)
    return ExponentRecord(k, m, exponent, _value(alpha, *longest), _value(alpha, *step), x, word)


def _block_classes(alpha: QuadReal, m: int, keys) -> tuple[dict[int, int], list[int], list[int]]:
    """(classes, at, moves) of the m+1 length-m factors under the batch key
    function `keys`, keyed in one call: `classes` maps each factor, the
    integer of its letters (letter i at bit m-1-i), to its class id; at[J]
    is the class id of the factor whose level-m interval starts at cut J;
    the moves are the cuts J whose class differs from that of the cut
    before them in circle order, the last cut coming before cut 0.  The
    factor at cut J is the window at offset m-J of the level-m text (the
    window lemma of the words module docstring), so its integer is the
    text's shifted right by J; every m-block of a longer factor is one of
    them, and _best_initial_run's docstring says why its walk needs only
    the moves."""
    text, order, _, _ = _crossings(alpha, m)
    letters, mask = int(text, 2), (1 << m) - 1
    blocks = [letters >> j & mask for j in order]
    ids: dict = {}
    circle = [ids.setdefault(key, len(ids)) for key in keys(blocks)]
    at = [0] * (m + 1)
    for j, c in zip(order, circle):
        at[j] = c
    moves = [j for j, c, before in zip(order, circle, circle[-1:] + circle) if c != before]
    return dict(zip(blocks, circle)), at, moves


def _best_initial_run(
    alpha: QuadReal, n: int, m: int, classes: dict[int, int], at: list[int], moves: list[int]
) -> int:
    """Max over the length-n factors (n >= m) of the leading whole m-blocks
    equivalent to the first, along the level-n crossing order, given
    _block_classes(alpha, m, keys).

    The coding is shift-invariant: block b of the factor at x is the
    length-m factor at x + b*m*alpha.  Crossing the level-n cut j, x passes
    {-j*alpha}, so the point x + b*m*alpha passes the level-m cut
    j - b*m when 0 <= j - b*m <= m: block j//m enters the level-m interval
    that starts at cut J = j mod m, and when J = 0 block j//m - 1 also
    enters the one that starts at cut m.  A block that enters the interval
    of cut J leaves the one ending there, so its class id changes only
    when J is a move.  The walk visits the crossings j = b*m + J for the
    moves J, a move m standing for J = 0 of block b+1, about
    (n/m)*|moves| of them; every other crossing changes no id.  The run is
    the number of leading blocks whose id equals block 0's, a function of
    the ids alone, so each best equals that of a walk through all n
    crossings.  The first word is coded at
    the convergent past n, its whole blocks looked up in `classes`; the
    visited crossings are put in circle order by their ranks -j*p mod q.
    After each, only the blocks that changed are compared again, and the
    run is repaired, since the blocks below it that did not change still
    match block 0.  The moves come from the keys alone, never from the
    coarse family, so the oracle does not lean on the exponent formula."""
    p, q = _convergent_past(_quotients_of(alpha), n)
    blocks = n // m
    first = _code_pair(p, q, 0, 0, 1, blocks * m, True)
    ids = [classes[int(first[s : s + m], 2)] for s in range(0, blocks * m, m)]
    best = run = next((b for b in range(1, blocks) if ids[b] != ids[0]), blocks)
    cuts = [j for J in {J % m for J in moves} for j in range(J or m, blocks * m + 1, m)]
    for j in _circle_order(cuts, p, q):
        hi, J = divmod(j, m)
        if J:
            lo = hi
            ids[hi] = at[J]
        else:  # block hi-1 passes cut m as block hi passes cut 0
            lo = hi - 1
            ids[lo] = at[m]
            if hi < blocks:
                ids[hi] = at[0]
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


def _longest_block_run(alpha: QuadReal, m: int, keys, cap: int) -> int:
    """Max n with a factor of length n*m whose m-blocks all share a key
    under the batch key function `keys` (a list of m-blocks, each the
    integer of its letters, to their keys, in order).

    Every m-block of a factor is one of the m+1 length-m factors, so these
    are keyed up front, in one call, off the level-m crossing order
    (_block_classes); the walk then visits only the crossings that move a
    block to another class (see _best_initial_run).  Enumerates complete
    factor languages of increasing length; every factor of length n*m is
    a prefix of some enumerated factor, so initial block runs see every
    power.  Certification that no longer power exists needs the language
    at length (n+1)*m, hence the growth loop and the cap, checked before
    anything is keyed.
    """
    if 2 * m > cap:
        raise ResourceCapExceeded(2 * m, cap)
    length = 64
    while length < 4 * m and length < cap:
        length *= 2
    length = min(length, cap)
    classes, at, moves = _block_classes(alpha, m, keys)
    while True:
        best = _best_initial_run(alpha, length, m, classes, at, moves)
        if (best + 1) * m <= length:
            return best
        if length >= cap:
            raise ResourceCapExceeded((best + 1) * m, cap)
        length = min(cap, length * 2)


def brute_kab_exponent(alpha: QuadReal, k: int, m: int) -> int:
    """Independent check of max_kab_exponent by enumerating actual factors.

    No interval-length reasoning: keys the m+1 length-m factors at order k
    in one call of kabelian._keys, on counting trees of whole runs of
    them, then splits enumerated factors into m-blocks and compares the
    blocks' class ids, visiting only the crossings where a block changes
    class (the shift-invariance argument is in _best_initial_run's
    docstring); no factor is decoded.  The factors, and so the result, do
    not depend on an endpoint convention, so none is taken.
    Raises ValueError unless k >= 1 and m >= 1, and ResourceCapExceeded (a
    declared failure, never a wrong answer) if the needed factor length
    passes the cap: STURMIAN_SPECTRA_CAP symbols, default DEFAULT_ORACLE_CAP.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    if m < 1:
        raise ValueError("period must be >= 1")
    return _longest_block_run(alpha, m, partial(_keys, m=m, k=k), _oracle_cap())


class BoundReport(Record):
    __slots__ = {
        "k": "int",
        "t_checked": "list[int]",
        "convergent_slack_violations": "list[tuple[int, int]]",
        "approx_window_violations": "list[int]",
        # informational: where the conjectured tighter +1 slack would fail
        "improved_slack_exceedances": "list[tuple[int, int]]",
    }

    @property
    def ok(self) -> bool:
        return not (
            self.convergent_slack_violations or self.approx_window_violations
        )


def _first_time(p: int, q: int, lo: int, hi: int) -> int:
    """The least n >= 1 with lo <= n*p mod q <= hi, for p prime to q and
    0 < lo <= hi < q, in O(log q) steps of Euclid's algorithm on (p, q).

    If a multiple of p lies in [lo, hi], n = ceil(lo/p).  Otherwise hi - lo
    < p, so lo and hi share the quotient c = lo // p, and each j >= 1 has at
    most one n with n*p - j*q in [lo, hi], and one exactly when r = j*q mod
    p lies in [p - hi % p, p - lo % p]; the least such j, found the same way
    on (q mod p, p), gives the least n.  With a = q // p and j*(q mod p) =
    t*p + r, j*q + lo = (a*j + t + c)*p + r + lo % p, and 0 < r + lo % p <=
    p, so n = a*j + t + c + 1, where t, the j of the step below, is 0 at
    the last step, whose n*p lies in [lo, hi] below q.  So the descent keeps
    only the small quotients a and c of each step, and the way back is a
    linear recurrence on them: no step's p, q or bounds are held."""
    steps = []
    while True:
        (c, low), (d, high) = divmod(lo, p), divmod(hi, p)
        if not low or d > c:  # a multiple of p lies in [lo, hi]
            break
        a, r = divmod(q, p)
        steps.append((a, c))
        p, q, lo, hi = r, p, p - high, p - low
    n, below = c + (low > 0), 0
    for a, c in reversed(steps):
        n, below = a * n + below + c + 1, n
    return n


def _return_times(p: int, q: int, delta: int, lo: int, end: int) -> list[int]:
    """The m in [lo, end) whose ||m*alpha|| has rank at most `delta`, in
    ascending order, for a convergent p/q past end.

    With the residues y = (m*p + delta) mod q these are the m with y in
    [0, L), L = 2*delta + 1: the return times of the rotation by p to an
    interval.  For L < q, let a be the least n >= 1 with n*p mod q in
    [1, L-1], b the least with it in [q-L+1, q-1], A = a*p mod q and B = q -
    b*p mod q.  From a return at y the next one is y + A after a steps when
    y + A < L, else y - B after b steps when y >= B, else y + A - B after
    a + b steps (the three-gap theorem)."""
    size = 2 * delta + 1
    if size >= q:
        return list(range(lo, end))
    p %= q
    c = (lo * p + delta) % q
    m = lo if c < size else lo + _first_time(p, q, q - c, q - c + size - 1)
    if m >= end:  # as always when L = 1: then only multiples of q return
        return []
    y = (m * p + delta) % q
    a, b = _first_time(p, q, 1, size - 1), _first_time(p, q, q - size + 1, q - 1)
    step_a, step_b = a * p % q, q - b * p % q
    times = []
    while m < end:
        times.append(m)
        if y + step_a < size:
            m, y = m + a, y + step_a
        elif y >= step_b:
            m, y = m + b, y - step_b
        else:
            m, y = m + a + b, y + step_a - step_b
    return times


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

    At k = 1 all three lists are empty, by the following proof, so the
    report checks every t and ranks no period.  Let S_m be the rank of
    ||m*alpha|| on the convergent p/q described below, whose convergents up
    to q_{T+2} are alpha's.  The coarse cuts of period m are 0 and m, whose
    rank gaps are S_m and q - S_m, so A_1(m) = q // S_m, or 1 when q =
    2*S_m; either way A_1(m) <= q // S_m.  The level family is the one cut
    0, so shortest = longest = q: every t is checked, as S_{q_t} <= q/2 <
    q, and the window difference is 0, or -1 when q = 2*S_m.  By best
    approximation, S_m >= S_{q_t} for 0 < m < q_{t+1}, and A_1 does not
    grow with S, so A_1(m) <= A_1(q_t) and both slack lists stay empty.

    At k >= 2 every period m >= 2k-1 keeps the window, and A(m) <=
    longest // S + 2, by the following proof, made on the ranks of the
    convergent below.  Let H = {-j*p mod q : j < k} be the ranks of the
    head cuts and r = m*p mod q, taken in (-q/2, q/2], so that |r| = S.
    The tail cut m-j has rank -r - (-j*p), so the coarse ranks are H and
    -H - r (at m = 2k-1 the head and its shift make up all of 0..m).  H
    and -H are the level cuts 0..2k-2 rotated by (k-1)*p, so the gaps of
    H and -H together are the level gaps.  The coarse family moves -H by
    S and leaves H in place, so an arc that holds no coarse cut, shortened
    by S at the end -H moves toward, holds no level cut: G <= longest + S.
    When S < shortest no cut of -H passes a cut of H as it moves, so each
    level gap stays a gap, at most S shorter (and one gap, of length S,
    opens beside 0): G >= longest - S.  So G // S lies within one of
    longest // S, and A(m) = G // S + (G != S) gives -1 <= A(m) - longest
    // S <= 2 when S < shortest, and A(m) <= longest // S + 2 always.

    All is decided on ranks over one convergent.  For T = max(t_range)
    each period m taken is at most q_{T+1}, so ||m*alpha|| >=
    ||q_{T+1}*alpha|| > 1/(2*q_{T+2}) and a floor of a length <= 1 by it is
    below 2*q_{T+2}: a convergent past 2*q_{T+2}*(q_{T+1} + 1) meets the
    lemma and the floor corollary of the geometry module docstring for
    every coarse length, whose |B| is at most m.  Level lengths have |B| <=
    2k-2 and need no term in k.  When q_t <= 2k-2, cuts 0 and q_t are both
    level cuts, so the rank gap between them, _dist_rank(q_t), is at least
    the shortest rank gap on any convergent, and t is rightly left
    unchecked.  So a checked t has 2k-2 < q_t <= q_{T+2}, and every pair
    compared with a level length has |B| <= q_{T+1} + 2k-2 < q_{T+1} +
    q_{T+2}, which the convergent is past.

    Only the periods that can reach a list are ranked: one call of the
    rank kernel _kab_exponents decides each checked q_t, and a second the
    periods m below the last checked q_{t+1} that the bounds cannot rule
    out.  For m >= k-1 the coarse cuts contain the head cuts j < k (they
    are all of 0..m when m < 2k, and the head and its shift otherwise), so
    the longest coarse gap G is at most the longest head gap, ranked once
    per report and here called head, and A(m) = G // S + (G != S) <= head
    // S + 1.  The slack lists record A(m) only when A(m) >= A(q_t) + 2 for
    a checked t with m < q_{t+1}.  The least of these A(q_t) + 2 is m's
    threshold; it changes only at an end q_{t+1}, so it is taken once per
    segment between ends, and it is at least 3, as every A is at least 1.
    So a period k-1 <= m < 2k can reach a list only when S < shortest (its
    window check) or head // S + 1 >= threshold, that is, exactly when S <=
    max(shortest - 1, head // (threshold - 1)).  From 2k on the window
    holds by the proof above, and a list needs both bounds at the
    threshold: S <= min(head // (threshold - 1), longest // (threshold -
    2)).  The periods below k-1 are all ranked.

    A skipped period m >= k-1 has G // S + 2 <= threshold, by G <= head
    or, from 2k on, by G <= longest + S; and as longest <= head (the level
    cuts contain the head cuts), longest // S + 1 < threshold when it skips
    a window.  With m < end, q > threshold*end makes its floor check, q >
    m + (G // S + 1)*m, pass, and its window's, q > 2k-2 + (longest // S +
    1)*m.  That check is made once per segment: it always holds on the
    convergent taken here, and where it fails the whole segment is ranked,
    so a convergent too small fails as when every period was ranked.

    The m with S <= delta are those with m*p mod q in [0, delta] or
    [q - delta, q): the return times of the rotation by p/q to an
    interval, which take at most three values, a, b and a + b, by Slater's
    three-gap theorem (Slater 1967, "Gaps and steps for the sequence
    n*theta mod 1"; it is the dual of Sos' three-distance theorem, see
    Alessandri & Berthe 1998).  _return_times walks them at O(1) per
    ranked period and O(log q) per segment, not over every period below
    q_{t+1}.  So every list, and every raise, is the one made by ranking
    each period.

    A report over n distinct t ranks at most needed = min(2k-1, q_{T+1}-1)
    + 5*n periods, so one whose needed passes BOUND_PERIOD_CAP raises
    ResourceCapExceeded before any denominator table or family is built:
    the fold that gives needed stops at the first q >= 2k, or at index
    T+1, as the q_t do not decrease.  The first kernel
    call ranks at most n denominators, and at most min(2k-1,
    q_{T+1}-1) periods lie below 2k, as no end passes q_{T+1}.  From 2k on
    the segment that ends at q_{t+1} ranks at most 4 periods, on the
    convergent taken here, where its floor check holds.  Two periods below
    q_{t+1} differ by some 0 < n < q_{t+1}, so by best approximation each
    has S >= S_{q_t}, and their ranks r differ by at least S_{q_t}.  Let x
    = longest // S_{q_t}, at least 1 as longest >= shortest > S_{q_t}.
    Every checked t' >= t has S_{q_t'} <= S_{q_t} < shortest and q_t' >=
    2k-1, so the window gives A(q_t') >= longest // S_{q_t'} - 1 >= x - 1,
    and threshold - 2 >= max(1, x - 1).  The segment ranks only S <= far
    <= longest // (threshold - 2), and as longest < (x+1)*S_{q_t} that is
    below 3*S_{q_t} for x <= 2, and below 2*S_{q_t} from x = 3 on.  So its
    ranks lie in [S_{q_t}, 3*S_{q_t}) on either side of 0, at most two on
    each.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    if cf.is_rational:
        raise ValueError("slope must be irrational")
    ts = sorted(set(t_range))
    if not ts or ts[0] < 0:
        raise ValueError("t_range must be nonempty with t >= 0")
    if k == 1:  # every t checked, every list empty: see the proof above
        return BoundReport(1, ts, [], [], [])
    T = ts[-1]
    for _, (_, _, q_stop, _) in zip(range(T + 2), _folds(cf._quotients())):
        if q_stop >= 2 * k:
            break
    needed = min(2 * k, q_stop) - 1 + 5 * len(ts)  # by the last proof above
    if needed > BOUND_PERIOD_CAP:
        raise ResourceCapExceeded(
            needed,
            BOUND_PERIOD_CAP,
            f"a bound report may rank {needed} periods, cap is {BOUND_PERIOD_CAP}",
        )
    read = {*ts, *(t + 1 for t in ts), T + 2}  # the q_t this report reads
    qs = {t: q for t, (_, _, q, _) in zip(range(T + 3), _folds(cf._quotients())) if t in read}
    p, q = _convergent_past(cf._quotients(), 2 * qs[T + 2] * (qs[T + 1] + 1))
    level = _rank_gaps(range(2 * k - 1), p, q)
    shortest, longest = min(level), max(level)
    checked = [t for t in ts if _dist_rank(qs[t], p, q) < shortest]
    report = BoundReport(k, checked, [], [], [])
    if not checked:
        return report
    q_ts = [qs[t] for t in checked]
    a_q = dict(zip(q_ts, _kab_exponents(k, q_ts, p, q)[0]))
    # the periods below each end q_{t+1} (they ascend) and their threshold:
    # the least A(q_t) + 2 over this end and the ends past it
    ends = [qs[t + 1] for t in checked]
    thresholds = list(itertools.accumulate([a_q[q_t] + 2 for q_t in reversed(q_ts)], min))
    head = max(_rank_gaps(range(k), p, q))
    ranked, start = [], 1  # the periods to rank, ascending
    for end, threshold in zip(ends, reversed(thresholds)):
        # every period below k-1; from k-1 on, those with S <= delta, or
        # all of them where a skip's floor check could fail; from 2k on,
        # only those whose slack bounds both reach the threshold
        delta = far = q
        if q > threshold * end:
            delta = max(shortest - 1, head // (threshold - 1))
            far = min(head // (threshold - 1), longest // (threshold - 2))
        below = min(max(start, k - 1), end)
        beyond = min(max(start, 2 * k), end)
        for lo, hi, d in (start, below, q), (below, beyond, delta), (beyond, end, far):
            ranked += _return_times(p, q, d, lo, hi)
        start = end
    exponents, steps = _kab_exponents(k, ranked, p, q)
    for m, a_m, s in zip(ranked, exponents, steps):
        if s < shortest:
            diff = a_m - _covered_floor(longest, s, m, 2 * k - 2, q)
            if not -1 <= diff <= 2:
                report.approx_window_violations.append(m)
    for t, q_t in zip(checked, q_ts):
        a_qt = a_q[q_t]
        for m, a_m in zip(ranked[: bisect_left(ranked, qs[t + 1])], exponents):
            if a_m > a_qt + 2:
                report.convergent_slack_violations.append((t, m))
            elif a_m == a_qt + 2:
                report.improved_slack_exceedances.append((t, m))
    return report


def theta_k(cf: ContinuedFraction, k: int) -> QuadReal:
    """Exact limsup of A_k(q_t)/q_t: longest level-(2k-2) interval times
    the Lagrange constant of the slope."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    return _theta(cf, k, cf.lagrange_constant())


def _theta(cf: ContinuedFraction, k: int, constant: QuadReal) -> QuadReal:
    """theta_k(cf, k) for k >= 1, given the Lagrange constant of cf: the
    longest level-(2k-2) length by geometry._longest, on a convergent past
    4k-4, as two level lengths differ by a pair with |B| <= 4k-4."""
    p, q = _convergent_past(cf._quotients(), 4 * k - 4)
    longest = _longest(_ranks(range(2 * k - 1), p, q), p, q)[2]
    return _value(cf.value(), *longest) * constant


class LimsupEstimate(Record):
    __slots__ = {
        "k": "int",
        "t_max": "int",
        "window_start": "int",
        "estimate": "Fraction",
        "slack": "Fraction",
        "terms": "tuple[tuple[int, Fraction], ...]",
    }


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
    if k < 1:
        raise ValueError("order k must be >= 1")
    if cf.is_rational:
        raise ValueError("slope must be irrational")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    from fractions import Fraction

    qs = [q for _, _, q, _ in itertools.islice(_folds(cf._quotients()), t_max + 2)]
    # the floor at m = q_t is below 1/||q_t*alpha|| < q_t + q_{t+1} <= 2*q_{t_max+1}
    p, q = _convergent_past(cf._quotients(), 2 * qs[-1] * (qs[-1] + 1))
    exponents = _kab_exponents(k, qs[1:-1], p, q)[0]
    terms = [(t, Fraction(a, q_t)) for t, (q_t, a) in enumerate(zip(qs[1:-1], exponents), 1)]
    window_start = max(1, t_max - LIMSUP_WINDOW + 1)
    estimate = max(v for t, v in terms if t >= window_start)
    slack = Fraction(2, qs[window_start])
    return LimsupEstimate(k, t_max, window_start, estimate, slack, tuple(terms))


class SpectrumPoint(Record):
    __slots__ = {"cf": "ContinuedFraction", "k": "int", "theta": "QuadReal"}


def _preperiods() -> Iterator[tuple[int, ...]]:
    """Every preperiod digit tuple in pool order: the empty tuple first,
    then pairs (c1, c2) in expanding square shells."""
    yield ()
    for shell in itertools.count(1):
        for c1 in range(1, shell + 1):
            yield (c1, shell)
        for c2 in range(1, shell):
            yield (shell, c2)


def sample_spectrum(k: int, base: ContinuedFraction, pool: int) -> list[SpectrumPoint]:
    """Exact theta_k values over slopes sharing base's periodic tail.

    The slopes take preperiods in _preperiods' order, skipping duplicates
    after canonicalization, so a count of pool >= 1 yields that many
    distinct slopes, the base itself first, and a count of 0 yields the
    base alone.  Points are returned in enumeration order.  A count above
    SPECTRUM_POOL_CAP raises ResourceCapExceeded before any slope is built.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    if base.is_rational:
        raise ValueError("base slope must be irrational")
    if pool < 0:
        raise ValueError("pool size must be >= 0")
    if pool > SPECTRUM_POOL_CAP:
        raise ResourceCapExceeded(
            pool, SPECTRUM_POOL_CAP, f"a pool of {pool} slopes, cap is {SPECTRUM_POOL_CAP}"
        )
    cfs = _distinct_variants(base, max(pool, 1))
    # every variant's period is base's, perhaps rotated, and so is its
    # Lagrange constant (see ContinuedFraction.lagrange_constant)
    constant = base.lagrange_constant()
    return [SpectrumPoint(cf, k, _theta(cf, k, constant)) for cf in cfs]


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


class LinftyStage(Record):
    __slots__ = {
        "t": "int",
        "k": "int",
        "q": "int",
        "r": "int",
        "s": "int",
        "a_next": "int",
        "ratio": "Fraction",
        "error": "Fraction",
        "bound": "Fraction",
    }


class LinftyReport(Record):
    __slots__ = {
        "target": "Fraction",
        "stages": "tuple[LinftyStage, ...]",
        "quotients": "tuple[int, ...]",
        "prefix": "ContinuedFraction",
        "padding_ok": "bool",
    }


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
    from fractions import Fraction

    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("target must be a positive rational")
    if stages < 1:
        raise ValueError("need at least one stage")
    digits, whose = _digit_limit()
    too_big = _power_of_ten(digits) // max(lam.numerator, lam.denominator)
    quotients = [1, 1]  # position i holds a_{i+1}; padding value is 1
    qs = [1, 1]  # position i holds q_i of [0; a_1, a_2, ...]
    # stages plant a_{k+1} for k >= 2 only
    stage_records: list[LinftyStage] = []
    for t in range(1, stages + 1):
        bound = Fraction(1, 2**t)
        while True:
            k = len(qs)  # the candidates run on from the last stage's index
            q = quotients[k - 1] * qs[-1] + qs[-2]  # q_k = a_k q_{k-1} + q_{k-2}
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


@lru_cache(maxsize=1)
def _power_of_ten(digits: int) -> int:
    """10**digits, the least integer of more than _digit_limit() digits.
    It has 4300 digits at the default limit, so it is built once per limit
    value: the one kept is built again only when the limit changes."""
    return 10**digits


def _digit_cap(digits: int, whose: str, what: str) -> ResourceCapExceeded:
    """The refusal of output whose integers would pass _digit_limit()."""
    return ResourceCapExceeded(
        digits + 1, digits, f"{what} needs integers of more than {digits} digits, {whose}"
    )

