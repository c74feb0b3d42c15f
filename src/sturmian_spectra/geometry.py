"""Circle rotation geometry.

Points live on the unit circle [0, 1) as exact QuadReal values.  The key
objects are interval families: the circle cut at a finite set of points,
with a convention flag saying which side of each cut belongs to which
interval.  Two partitions matter downstream: the level-n family cut at
{0, -a, ..., -na} (mod 1), whose intervals biject with the length-n
factors of the rotation coding, and the coarser family used for k-abelian
classification, cut at the first and last few of those orbit points.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, NamedTuple, Sequence

from .quadreal import QuadReal

__all__ = [
    "EndpointConvention",
    "LEFT_CLOSED",
    "RIGHT_CLOSED",
    "CirclePoint",
    "circle_point",
    "Interval",
    "IntervalFamily",
    "orbit_points",
    "level_intervals",
    "ikm_intervals",
    "locate",
    "family_extremes",
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

# Circle points are plain QuadReal values reduced to [0, 1).
CirclePoint = QuadReal


def circle_point(x: QuadReal) -> QuadReal:
    """Reduce an exact real to its representative in [0, 1)."""
    return x.frac()


class Interval(NamedTuple):
    start: QuadReal
    length: QuadReal

    @property
    def end(self) -> QuadReal:
        """Endpoint start + length; may exceed 1 for the wrapping interval."""
        return self.start + self.length

    def midpoint(self) -> QuadReal:
        return circle_point(self.start + self.length / 2)

    def to_json(self) -> dict:
        return {"start": self.start.to_json(), "length": self.length.to_json()}


class IntervalFamily:
    """The circle cut at a finite set of exact points.

    Cuts are stored sorted; interval i runs from cuts[i] to the next cut
    counterclockwise (the last one wraps through 1 = 0).  Identity of an
    interval is its starting cut.
    """

    __slots__ = ("cuts", "convention", "_intervals")

    def __init__(self, points: Iterable[QuadReal], convention: EndpointConvention = LEFT_CLOSED):
        # Equal values sort next to each other whatever their spelling, so
        # dropping equal neighbours dedupes without hashing big integers.
        ordered = sorted(points)
        uniq = ordered[:1] + [b for a, b in zip(ordered, ordered[1:]) if b != a]
        if not uniq:
            raise ValueError("need at least one cut point")
        if uniq[0] < 0 or uniq[-1] >= 1:
            raise ValueError("cut points must lie in [0, 1)")
        object.__setattr__(self, "cuts", tuple(uniq))
        object.__setattr__(self, "convention", convention)
        starts = self.cuts
        lengths = [starts[i + 1] - starts[i] for i in range(len(starts) - 1)]
        lengths.append(1 + starts[0] - starts[-1])
        object.__setattr__(
            self, "_intervals", tuple(Interval(s, l) for s, l in zip(starts, lengths))
        )

    def __setattr__(self, name, value):
        raise AttributeError("IntervalFamily is immutable")

    def __len__(self):
        return len(self._intervals)

    def __hash__(self):
        return hash((self.cuts, self.convention))

    def __eq__(self, other):
        if not isinstance(other, IntervalFamily):
            return NotImplemented
        return self.cuts == other.cuts and self.convention == other.convention

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self._intervals

    @property
    def lengths(self) -> tuple[QuadReal, ...]:
        return tuple(iv.length for iv in self._intervals)

    def min_length(self) -> QuadReal:
        return min(self.lengths)

    def max_length(self) -> QuadReal:
        return max(self.lengths)

    def locate(self, x: QuadReal) -> int:
        """Index of the interval containing the circle point x.

        Total: every point of [0, 1) belongs to exactly one interval under
        the family's convention.
        """
        if x < 0 or x >= 1:
            raise ValueError("locate expects a point in [0, 1)")
        if self.convention.zero_in_I0:
            i = bisect_right(self.cuts, x) - 1
        else:
            i = bisect_left(self.cuts, x) - 1
        return i % len(self._intervals)

    def to_json(self) -> dict:
        return {
            "convention": {"zero_in_I0": self.convention.zero_in_I0},
            "intervals": [iv.to_json() for iv in self._intervals],
        }


def orbit_points(alpha: QuadReal, indices: Iterable[int]) -> list[QuadReal]:
    """Exact circle points {i*alpha} for each (possibly negative) index."""
    return [circle_point(i * alpha) for i in indices]


def _require_irrational(alpha: QuadReal) -> None:
    if alpha.q == 0:
        raise ValueError("slope must be irrational")


def _convergent_past(alpha: QuadReal, n: int) -> tuple[int, int]:
    """The first convergent p/q of the irrational alpha with q > n.

    alpha is spelled (P + sqrt(D))/Q with Q dividing D - P*P, a form every
    complete quotient keeps: the next one is (P' + sqrt(D))/Q' with
    P' = a*Q - P and Q' = (D - P'*P')/Q, where a = floor((P + sqrt(D))/Q)
    is read off isqrt(D), since D is not a square.  Only integers are used.
    """
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


def _level_order(alpha: QuadReal, n: int) -> tuple[list[int], int, int]:
    """The indices 0..n in circle order of {-j*alpha}, and the p, q used.

    With p/q a convergent of alpha and q > n, the points {-j*p/q} are
    distinct multiples of 1/q, and {-j*alpha} = {-j*p/q} - j*(alpha - p/q)
    with no wrap through 0 (for j >= 1 the rational point is at least 1/q
    from 0 and from 1).  Two errors differ by |j - j'|*|alpha - p/q|, below
    n/(q*q') < 1/q where q' >= q is the next convergent denominator, so
    they never swap two points: sorting on -j*p mod q is exact.  {0}
    comes first, so order[0] == 0.
    """
    _require_irrational(alpha)
    if n < 0:
        raise ValueError("level must be >= 0")
    p, q = _convergent_past(alpha, n)
    return sorted(range(n + 1), key=lambda j: -j * p % q), p, q


def level_intervals(
    alpha: QuadReal, n: int, convention: EndpointConvention = LEFT_CLOSED
) -> IntervalFamily:
    """Circle cut at {0, -alpha, ..., -n*alpha}: n+1 intervals.

    Interval i is exactly the set of intercepts whose rotation coding
    starts with the i-th length-n factor, so this family *is* the language
    of length n in geometric form.  The cuts are ordered by integers alone
    (see _level_order), and {-j*alpha} = ceil(j*p/q) - j*alpha is then one
    exact constructor call per cut.
    """
    order, p, q = _level_order(alpha, n)
    ap, aq, d, r = alpha.p, alpha.q, alpha.d, alpha.r
    points = [QuadReal(-(-j * p // q) * r - j * ap, -j * aq, d, r) for j in order]
    return IntervalFamily(points, convention)


def ikm_intervals(
    alpha: QuadReal, k: int, m: int, convention: EndpointConvention = LEFT_CLOSED
) -> IntervalFamily:
    """The coarse family whose intervals collect k-abelian equivalent factors.

    Cut at {0, -alpha, ..., -j*alpha} for j = min(m, k-1) together with the
    preimages of those points under m-(k-1) more rotation steps (when
    m >= k-1).  Size is min(2k, m+1).
    """
    _require_irrational(alpha)
    if k < 1:
        raise ValueError("order k must be >= 1")
    if m < 1:
        raise ValueError("length m must be >= 1")
    j = min(m, k - 1)
    front = list(range(0, -j - 1, -1))
    points = orbit_points(alpha, front)
    if m >= k - 1:
        shift = m - (k - 1)
        points += orbit_points(alpha, (i - shift for i in front))
    fam = IntervalFamily(points, convention)
    want = min(2 * k, m + 1)
    if len(fam) != want:  # an explicit raise, unlike `assert`, survives -O
        raise AssertionError(f"coarse family has {len(fam)} intervals, not {want}")
    return fam


def locate(family: IntervalFamily, x: QuadReal) -> int:
    return family.locate(x)


def family_extremes(family: IntervalFamily) -> tuple[QuadReal, QuadReal]:
    """(shortest, longest) interval length of the family."""
    return family.min_length(), family.max_length()
