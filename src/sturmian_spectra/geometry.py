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
c_j - j*alpha.  Cut j comes before cut j' when (c_j*q - j*p) - (c_j'*q -
j'*p) < 0, and c_j*q - j*p = -j*p mod q, so sorting on that integer is
exact, with {0} first.  The length from cut a to the next cut b is the
pair (c_b - c_a) + (a - b)*alpha, the last one wrapping to 1 = 1 + 0*alpha.

Two such lengths differ by a pair with |B| <= 2n.  So does the choice of
||m*alpha|| between {m*alpha} = -floor(m*p/q) + m*alpha and 1 - {m*alpha},
which differ by B = 2m.  The exponent formulas, which take the longest
coarse length and ||m*alpha||, therefore expand alpha to a convergent past
2m, not just past m as the order needs.  There each comparison is the sign
of one integer, and a QuadReal is built only for a value that is reported.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, NamedTuple

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


@dataclass(frozen=True)
class EndpointConvention:
    """Which endpoint of each interval is included.

    zero_in_I0=True means intervals are [x, y) and the coding assigns the
    point 0 to the interval starting at 0; False flips to (x, y], with
    0 identified with 1.
    """

    zero_in_I0: bool = True


LEFT_CLOSED = EndpointConvention(zero_in_I0=True)
RIGHT_CLOSED = EndpointConvention(zero_in_I0=False)


class Interval(NamedTuple):
    start: QuadReal
    length: QuadReal

    @property
    def end(self) -> QuadReal:
        """Endpoint start + length; may exceed 1 for the wrapping interval."""
        return self.start + self.length

    def to_json(self) -> dict:
        return {"start": self.start.to_json(), "length": self.length.to_json()}


@dataclass(frozen=True)
class IntervalFamily:
    """The circle cut at a finite set of exact points, as its intervals in
    circle order: interval i runs from its cut to the next one
    counterclockwise (the last one wraps through 1 = 0), and the first cut
    is the least.  The package's families come from _orbit_family."""

    intervals: tuple[Interval, ...]

    def __len__(self):
        return len(self.intervals)

    @property
    def cuts(self) -> tuple[QuadReal, ...]:
        return tuple(iv.start for iv in self.intervals)

    @property
    def lengths(self) -> tuple[QuadReal, ...]:
        return tuple(iv.length for iv in self.intervals)

    def min_length(self) -> QuadReal:
        return min(self.lengths)

    def max_length(self) -> QuadReal:
        return max(self.lengths)

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


def _convergent_past(alpha: QuadReal, n: int) -> tuple[int, int]:
    """The first convergent p/q of the irrational alpha with q > n >= 0.

    alpha is spelled (P + sqrt(D))/Q with Q dividing D - P*P, a form every
    complete quotient keeps: the next one is (P' + sqrt(D))/Q' with
    P' = a*Q - P and Q' = (D - P'*P')/Q, where a = floor((P + sqrt(D))/Q)
    is read off isqrt(D), since D is not a square.  Only integers are used.
    """
    if alpha.q == 0:
        raise ValueError("slope must be irrational")
    if n < 0:
        raise ValueError("level must be >= 0")
    sign = 1 if alpha.q > 0 else -1
    P, Q, D = sign * alpha.p, sign * alpha.r, alpha.q * alpha.q * alpha.d
    if (D - P * P) % Q:
        P, Q, D = P * abs(Q), Q * abs(Q), D * Q * Q
    root = isqrt(D)
    p_prev, q_prev, p, q = 0, 1, 1, 0
    while q <= n:
        # sqrt(D) lies strictly between root and root + 1
        a = (P + root + (Q < 0)) // Q
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        P = a * Q - P
        Q = (D - P * P) // Q
    return p, q


def _value(alpha: QuadReal, a: int, b: int) -> QuadReal:
    """The pair a + b*alpha, one exact constructor call."""
    return QuadReal(a * alpha.r + b * alpha.p, b * alpha.q, alpha.d, alpha.r)


def _pair_key(p: int, q: int):
    """Key on pairs (A, B) standing for A + B*alpha: A*q + B*p, which orders
    them exactly while p/q is past every |B| of their differences."""
    return lambda pair: pair[0] * q + pair[1] * p


def _dist_to_int_pair(m: int, p: int, q: int) -> tuple[int, int]:
    """||m*alpha|| as a pair, for a convergent p/q of alpha past 2m: the
    nearer of {m*alpha} = -f + m*alpha and 1 - {m*alpha}, f = floor(m*p/q)."""
    f = m * p // q
    return (-f, m) if (-2 * f - 1) * q + 2 * m * p < 0 else (1 + f, -m)


def _orbit_cuts(
    indices: Iterable[int], p: int, q: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The cuts (c_j, j), standing for c_j - j*alpha, for the distinct j in
    `indices` in circle order, and the pairs (A, B) of the lengths from each
    cut to the next.  p/q is a convergent of alpha past every index, and the
    indices include 0 (see the module docstring)."""
    cuts = [(-(-j * p // q), j) for j in sorted(indices, key=lambda j: -j * p % q)]
    ends = cuts[1:] + [(1, 0)]  # the last interval wraps to 1 - 0*alpha
    return cuts, [(cb - ca, a - b) for (ca, a), (cb, b) in zip(cuts, ends)]


def _orbit_family(alpha: QuadReal, indices: Iterable[int], n: int) -> IntervalFamily:
    """The circle cut at {-j*alpha} for the distinct j in `indices`, which
    lie in 0..n and include 0: _orbit_cuts, with one constructor call for
    each cut and each length."""
    cuts, lengths = _orbit_cuts(indices, *_convergent_past(alpha, n))
    return IntervalFamily(
        tuple(
            Interval(_value(alpha, c, -j), _value(alpha, a, b))
            for (c, j), (a, b) in zip(cuts, lengths)
        )
    )


def level_intervals(alpha: QuadReal, n: int) -> IntervalFamily:
    """Circle cut at {0, -alpha, ..., -n*alpha}: n+1 intervals.

    Interval i is exactly the set of intercepts whose rotation coding
    starts with the i-th length-n factor, so this family *is* the language
    of length n in geometric form.
    """
    return _orbit_family(alpha, range(n + 1), n)


def _coarse_indices(k: int, m: int) -> set[int]:
    """The j of the coarse cuts {-j*alpha}: 0..j together with the same run
    shifted by m-(k-1) (when m >= k-1), for j = min(m, k-1)."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    if m < 1:
        raise ValueError("length m must be >= 1")
    j = min(m, k - 1)
    front = set(range(j + 1))
    if m < k - 1:
        return front
    shift = m - (k - 1)
    return front | set(range(shift, shift + j + 1))


def _checked_coarse_indices(k: int, m: int) -> set[int]:
    """_coarse_indices(k, m), whose size min(2k, m+1) is checked explicitly:
    a raise, unlike `assert`, survives -O."""
    indices = _coarse_indices(k, m)
    want = min(2 * k, m + 1)
    if len(indices) != want:
        raise AssertionError(f"coarse family has {len(indices)} intervals, not {want}")
    return indices


def ikm_intervals(alpha: QuadReal, k: int, m: int) -> IntervalFamily:
    """The coarse family whose intervals collect k-abelian equivalent factors.

    Cut at {0, -alpha, ..., -j*alpha} for j = min(m, k-1) together with the
    preimages of those points under m-(k-1) more rotation steps (when
    m >= k-1).  Size is min(2k, m+1).
    """
    return _orbit_family(alpha, _checked_coarse_indices(k, m), m)
