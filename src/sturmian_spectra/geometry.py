"""Circle rotation geometry.

Points live on the unit circle [0, 1) as exact QuadReal values.  The key
objects are interval families: the circle cut at a finite set of points.
Which side owns a cut matters only where a point on a cut is located or
coded, so the endpoint convention is an argument of locate and of the
coder, never of a family.  Two partitions matter downstream: the level-n
family cut at {0, -a, ..., -na} (mod 1), whose intervals biject with the
length-n factors of the rotation coding, and the coarser family used for
k-abelian classification, cut at the first and last few of those orbit
points.

Both are cut at points {-j*alpha} with 0 <= j <= n, and every cut and
length the package makes is an integer pair A + B*alpha, ordered by
integers alone:

Lemma.  Let p/q be a convergent of alpha with q > |B|.  Then
sign(A + B*alpha) = sign(A*q + B*p).  Indeed A + B*alpha =
(A*q + B*p)/q + B*(alpha - p/q).  The first term is a multiple of 1/q,
and it is 0 only when A = B = 0, since A*q + B*p = 0 makes q divide B
(p and q are coprime).  The second is below |B|/(q*q') < 1/q in absolute
value, q' >= q being the next convergent denominator.

Take the first convergent with q > n.  For 0 <= j <= n the lemma gives
ceil(j*alpha) = ceil(j*p/q) =: c_j, so the cut {-j*alpha} is the pair
c_j - j*alpha.  Call A*q + B*p the rank of the pair A + B*alpha: cut j has
rank c_j*q - j*p = -j*p mod q, so sorting on ranks orders the cuts
exactly, with {0} first.  The length from cut a to the next cut b is the
pair (c_b - c_a) + (a - b)*alpha, the last one wrapping to 1 = 1 + 0*alpha,
and its rank is the gap between the two cut ranks (q closes the circle).
Conversely a rank names its cut: as 0 <= j < q, the cut of rank r is j =
-r*p^-1 mod q (p is prime to q), with c_j = (r + j*p)/q exactly, and the
closing rank q gives j = 0, c = 1, the wrap.  So the longest length of a
family is found on sorted ranks alone, and only it is turned into a pair.
A family keeps these integer pairs, one Interval per cut: each QuadReal
start or length is built the first time it is read, and then kept, so
building a family (and so a factor language) makes no QuadReal at all.

Two such lengths differ by a pair with |B| <= 2n.  So does the choice of
||m*alpha|| between {m*alpha} = -floor(m*p/q) + m*alpha and 1 - {m*alpha},
which differ by B = 2m; its rank is min(r, q - r) for r = m*p mod q.  So
the exponent formulas rank on a convergent past 2m at least, and build a
QuadReal only for a value that is reported.  Every convergent is read off
one expansion of the slope in the cf module: a continued fraction's own
quotients, or the integer quotient stream of a QuadReal alpha, folded
once per call.

Corollary (floor).  Let L and s > 0 be pairs with ranks G and S, B-parts B
and B', and n = G // S.  If q > |B| + (n+1)*|B'|, then floor(L/s) = n, and
L = s exactly when G = S.  Indeed L - n*s and L - (n+1)*s are pairs whose
B-parts are below q in absolute value, so by the lemma they have the
signs of G - n*S >= 0 and G - (n+1)*S < 0 (S > 0 has the sign of s).  For
the longest coarse length L (|B| <= m) and s = ||m*alpha||, the exponent
floor(L/s) + [L != s] is thus G // S + (G != S) once q > (G // S + 2)*m.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from operator import sub

from ._record import Record
from .cf import _convergent_past, _quotients_of
from .quadreal import QuadReal

__all__ = [
    "EndpointConvention",
    "LEFT_CLOSED",
    "RIGHT_CLOSED",
    "Interval",
    "IntervalFamily",
    "level_intervals",
    "ikm_intervals",
]


class EndpointConvention(Record):
    """Which endpoint of each interval is included.

    zero_in_I0=True means intervals are [x, y) and the coding assigns the
    point 0 to the interval starting at 0; False flips to (x, y], with
    0 identified with 1.
    """

    __slots__ = {"zero_in_I0": "bool"}
    _defaults = (True,)


LEFT_CLOSED = EndpointConvention(zero_in_I0=True)
RIGHT_CLOSED = EndpointConvention(zero_in_I0=False)


class Interval:
    """An arc of the circle: its start and its length, exact values.

    Interval(start, length) takes the two values.  A family's intervals,
    made by _orbit_family, instead keep integer pairs, the cut (c, j)
    standing for c - j*alpha and the length (A, B) for A + B*alpha: each
    QuadReal is built by _value the first time it is read, and then kept.
    Intervals unpack as (start, length), and compare and hash by value.
    """

    __slots__ = ("_alpha", "_start", "_length")

    def __init__(self, start: QuadReal, length: QuadReal):
        self._alpha, self._start, self._length = None, start, length

    @property
    def start(self) -> QuadReal:
        start = self._start
        if type(start) is tuple:  # the cut (c, j), unread so far
            c, j = start
            start = self._start = _value(self._alpha, c, -j)
        return start

    @property
    def length(self) -> QuadReal:
        length = self._length
        if type(length) is tuple:  # the pair (A, B), unread so far
            length = self._length = _value(self._alpha, *length)
        return length

    def __iter__(self):
        return iter((self.start, self.length))

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.start == other.start and self.length == other.length

    def __hash__(self):
        return hash((self.start, self.length))

    def __repr__(self):
        return f"Interval(start={self.start!r}, length={self.length!r})"

    def to_json(self) -> dict:
        return {"start": self.start.to_json(), "length": self.length.to_json()}


class IntervalFamily(Record):
    """The circle cut at a finite set of exact points, as its intervals in
    circle order: interval i runs from its cut to the next one
    counterclockwise (the last one wraps through 1 = 0), and the first cut
    is the least.  The package's families come from _orbit_family."""

    __slots__ = {"intervals": "tuple[Interval, ...]"}

    def __len__(self):
        return len(self.intervals)

    @property
    def cuts(self) -> tuple[QuadReal, ...]:
        return tuple(iv.start for iv in self.intervals)

    @property
    def lengths(self) -> tuple[QuadReal, ...]:
        return tuple(iv.length for iv in self.intervals)

    def locate(self, x: QuadReal, convention: EndpointConvention = LEFT_CLOSED) -> int:
        """Index of the interval containing the circle point x.

        Total: every point of [0, 1) belongs to exactly one interval under
        the convention, which decides only for x on a cut.
        """
        if x < 0 or x >= 1:
            raise ValueError("locate expects a point in [0, 1)")
        if convention.zero_in_I0:
            i = bisect_right(self.cuts, x) - 1
        else:
            i = bisect_left(self.cuts, x) - 1
        return i % len(self.intervals)


def _value(alpha: QuadReal, a: int, b: int, d: int = 1) -> QuadReal:
    """The pair a + b*alpha over d, one exact constructor call."""
    return QuadReal(a * alpha.r + b * alpha.p, b * alpha.q, alpha.d, d * alpha.r)


def _ranks(indices: Iterable[int], p: int, q: int) -> list[int]:
    """The cut ranks -j*p mod q of the j of `indices`, ascending, q closing
    the circle, for a convergent p/q of alpha past every one."""
    return sorted([-j * p % q for j in indices]) + [q]


def _rank_gaps(indices: Iterable[int], p: int, q: int) -> list[int]:
    """The ranks of the lengths of _orbit_family in the circle order of
    `indices`: the gaps between the sorted cut ranks, q closing the circle."""
    ranks = _ranks(indices, p, q)
    return list(map(sub, ranks[1:], ranks))


def _longest(ranks: list[int], p: int, q: int) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """The rank G of the first longest length in circle order between the
    sorted cut ranks `ranks`, closed by q, with its cut (c, j) and its pair
    (A, B) as _orbit_family builds them: only this one length is turned
    into pairs, by the rank inversion of the module docstring."""
    gaps = list(map(sub, ranks[1:], ranks))
    g = max(gaps)
    i = gaps.index(g)
    r, t = ranks[i], ranks[i + 1]
    inverse = pow(-p, -1, q)
    a, b = r * inverse % q, t * inverse % q  # the cuts -a*alpha and -b*alpha
    c = (r + a * p) // q
    return g, (c, a), ((t + b * p) // q - c, a - b)


def _dist_rank(m: int, p: int, q: int) -> int:
    """The rank of ||m*alpha||, for a convergent p/q of alpha past 2m."""
    r = m * p % q
    return min(r, q - r)


def _circle_order(indices: Iterable[int], p: int, q: int) -> list[int]:
    """The distinct j of `indices`, for a convergent p/q of alpha past every
    one, sorted on their cut ranks -j*p mod q: the circle order of the cuts
    {-j*alpha} (see the module docstring)."""
    return sorted(indices, key=lambda j: -j * p % q)


def _orbit_family(alpha: QuadReal, order: Iterable[int], p: int, q: int) -> IntervalFamily:
    """The circle cut at {-j*alpha} for the j of `order`, which are in
    circle order under the convergent p/q past every one and begin with 0.
    Each Interval keeps integer pairs (see the module docstring), and no
    value is built yet: its cut (c_j, j), standing for c_j - j*alpha, and
    the pair (A, B) of the length to the next cut."""
    cuts = [(-(-j * p // q), j) for j in order]
    new, intervals = object.__new__, []
    for (ca, a), (cb, b) in zip(cuts, cuts[1:] + [(1, 0)]):  # the last wraps to 1 - 0*alpha
        iv = new(Interval)
        iv._alpha, iv._start, iv._length = alpha, (ca, a), (cb - ca, a - b)
        intervals.append(iv)
    return IntervalFamily(tuple(intervals))


def level_intervals(alpha: QuadReal, n: int) -> IntervalFamily:
    """Circle cut at {0, -alpha, ..., -n*alpha}: n+1 intervals.

    Interval i is exactly the set of intercepts whose rotation coding
    starts with the i-th length-n factor, so this family *is* the language
    of length n in geometric form.
    """
    p, q = _convergent_past(_quotients_of(alpha), n)
    return _orbit_family(alpha, _circle_order(range(n + 1), p, q), p, q)


def _coarse_indices(k: int, m: int) -> Sequence[int]:
    """The j of the coarse cuts {-j*alpha}, ascending: 0..k-1 together with
    the same run shifted by m-(k-1), which is all of 0..m when m < 2k."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    if m < 1:
        raise ValueError("length m must be >= 1")
    if m < 2 * k:
        return range(m + 1)
    return (*range(k), *range(m - k + 1, m + 1))


def _checked_coarse_indices(k: int, m: int) -> Sequence[int]:
    """_coarse_indices(k, m), whose size min(2k, m+1) is checked explicitly:
    a raise, unlike `assert`, survives -O."""
    indices = _coarse_indices(k, m)
    want = min(2 * k, m + 1)
    if len(indices) != want:
        raise AssertionError(f"coarse family has {len(indices)} intervals, not {want}")
    return indices


def _coarse_ranks(k: int, m: int, p: int, q: int, head: list[int] | None = None) -> list[int]:
    """The sorted ranks of the coarse cuts of period m, closed by q, for a
    convergent p/q past m: those of _checked_coarse_indices(k, m), so all
    m+1 cuts when m < 2k, and the family's size is checked.  From 2k on, a
    caller that ranks many periods passes `head`, the ranks of the head cuts
    j < k: the tail cut m-k+1+j has rank -j*p - (m-k+1)*p mod q, so the
    tail is the head shifted by -(m-k+1)*p mod q, and only k ranks are
    computed per period."""
    if head is None or m < 2 * k:
        return _ranks(_checked_coarse_indices(k, m), p, q)
    shift = -(m - k + 1) * p % q
    ranks = head + [(h + shift) % q for h in head]
    ranks.sort()
    ranks.append(q)  # q closes the circle
    return ranks


def ikm_intervals(alpha: QuadReal, k: int, m: int) -> IntervalFamily:
    """The coarse family whose intervals collect k-abelian equivalent factors.

    Cut at {0, -alpha, ..., -j*alpha} for j = min(m, k-1) together with the
    preimages of those points under m-(k-1) more rotation steps (when
    m >= k-1).  Size is min(2k, m+1).
    """
    p, q = _convergent_past(_quotients_of(alpha), m)
    return _orbit_family(alpha, _circle_order(_checked_coarse_indices(k, m), p, q), p, q)
