"""Rotation codings and their factor languages.

A slope alpha in (0, 1) and an intercept x define the binary word whose
i-th letter says which side of the two-interval partition {I(0, 1-alpha),
I(1-alpha, 1)} the point x + i*alpha (mod 1) falls on, i.e. whether x lies
in the arc from {-(i+1)*alpha} to {-i*alpha}.

Prefixes from a given intercept are decided by exact sign computations on
scaled integer numerator pairs over a common denominator.

Factors of a given length need no sign tests at all: the level-n family,
cut at {-j*alpha} for 0 <= j <= n, has one interval per length-n factor,
and geometry orders those cuts with integers alone (the convergent
argument is in its module docstring), which gives each cut's circle rank,
rank[j].  Letter i of the factor on interval r is 1 exactly when
(r - rank[i+1]) mod (n+1) < (rank[i] - rank[i+1]) mod (n+1), and crossing
the cut {-j*alpha} only turns letter j-1 into 1 and letter j into 0.  No
sampling, no prefix scanning, and no QuadReal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .geometry import (
    EndpointConvention,
    Interval,
    LEFT_CLOSED,
    _level_order,
    level_intervals,
)
from .quadreal import QuadReal, _common_radicand

__all__ = [
    "SturmianSpec",
    "sturmian_prefix",
    "factors_of_length",
    "occurrences",
    "sigma_image",
    "sigma_factors_of_length",
    "is_balanced_pair",
]


@dataclass(frozen=True)
class SturmianSpec:
    """Slope, intercept and endpoint convention for one rotation coding."""

    alpha: QuadReal
    intercept: QuadReal
    convention: EndpointConvention = LEFT_CLOSED

    def __post_init__(self):
        if self.alpha.q == 0:
            raise ValueError("slope must be irrational")
        if self.alpha <= 0 or self.alpha >= 1:
            raise ValueError("slope must lie in (0, 1)")
        object.__setattr__(self, "intercept", self.intercept.frac())


def _code_letters(
    alpha: QuadReal, start: QuadReal, count: int, zero_in_i0: bool
) -> str:
    """count letters of the coding from `start`, via integer sign tests.

    Each step decides two signs: whether the point lies in I(1-alpha, 1),
    and whether adding alpha wrapped past 1.  This serves prefixes from an
    arbitrary intercept; factor languages are built from circle ranks.
    """
    alpha, start = _common_radicand(alpha, start)
    d = alpha.d
    R = lcm(alpha.r, start.r)
    ap = alpha.p * (R // alpha.r)
    aq = alpha.q * (R // alpha.r)
    pp = start.p * (R // start.r)
    pq = start.q * (R // start.r)
    tp = R - ap  # 1 - alpha, scaled
    tq = -aq
    out = []
    for _ in range(count):
        a = pp - tp
        b = pq - tq
        # sign of a + b*sqrt(d)
        if b == 0:
            s = (a > 0) - (a < 0)
        elif a == 0:
            s = (b > 0) - (b < 0)
        elif a > 0 and b > 0:
            s = 1
        elif a < 0 and b < 0:
            s = -1
        else:
            t = a * a - b * b * d
            s = (t > 0) - (t < 0)
            if a < 0:
                s = -s
        if zero_in_i0:
            out.append("0" if s < 0 else "1")
        else:
            out.append("1" if (s > 0 or (pp == 0 and pq == 0)) else "0")
        pp += ap
        pq += aq
        a = pp - R
        b = pq
        if b == 0:
            s = (a > 0) - (a < 0)
        elif a == 0:
            s = (b > 0) - (b < 0)
        elif a > 0 and b > 0:
            s = 1
        elif a < 0 and b < 0:
            s = -1
        else:
            t = a * a - b * b * d
            s = (t > 0) - (t < 0)
            if a < 0:
                s = -s
        if s >= 0:
            pp -= R
    return "".join(out)


def sturmian_prefix(spec: SturmianSpec, n: int) -> str:
    """First n letters of the coding described by spec."""
    if n < 0:
        raise ValueError("length must be >= 0")
    return _code_letters(spec.alpha, spec.intercept, n, spec.convention.zero_in_I0)


@lru_cache(maxsize=8)
def _factor_words(alpha: QuadReal, n: int) -> tuple[str, ...]:
    """The n+1 length-n factors in circle order of the level-n family.

    Read off the integer circle ranks by the rule of the module docstring;
    the endpoint convention never changes a word, so it is not a key.  Eight
    entries hold one slope's whole oracle ladder (64, 128, ..., 2000), and
    at n = 2000 each entry takes about 4 MB.
    """
    if n < 1:
        raise ValueError("factor length must be >= 1")
    order = _level_order(alpha, n)[0]
    size = n + 1
    rank = [0] * size
    for r, j in enumerate(order):
        rank[j] = r
    # the rank rule of the module docstring at r = 0
    letters = bytearray(
        b"01"[-rank[i + 1] % size < (rank[i] - rank[i + 1]) % size] for i in range(n)
    )
    words = [letters.decode()]
    for j in order[1:]:
        letters[j - 1] = 49  # ord("1"): entering the arc of letter j-1
        if j < n:
            letters[j] = 48  # ord("0"): leaving the arc of letter j
        words.append(letters.decode())
    return tuple(words)


@lru_cache(maxsize=8)
def factors_of_length(
    alpha: QuadReal, n: int, convention: EndpointConvention = LEFT_CLOSED
) -> tuple[tuple[str, Interval], ...]:
    """All length-n factors of the slope's coding, with their intervals.

    Returns (word, interval) pairs in circle order of the level-n family;
    there are exactly n+1 of them.  The word attached to an interval is the
    coding of its interior points, read off the circle ranks of the cuts,
    so the endpoint convention changes the intervals' ownership of their
    endpoints but never a word.
    """
    words = _factor_words(alpha, n)
    return tuple(zip(words, level_intervals(alpha, n, convention).intervals))


def occurrences(w: str, u: str) -> int:
    """Number of (possibly overlapping) occurrences of u in w."""
    if not u:
        raise ValueError("pattern must be nonempty")
    count = 0
    i = w.find(u)
    while i != -1:
        count += 1
        i = w.find(u, i + 1)
    return count


_SIGMA = {"0": "02", "1": "1"}


def sigma_image(w: str) -> str:
    """Image under the substitution 0 -> 02, 1 -> 1."""
    try:
        return "".join(_SIGMA[ch] for ch in w)
    except KeyError:
        raise ValueError("substitution acts on binary words") from None


@lru_cache(maxsize=64)
def sigma_factors_of_length(alpha: QuadReal, n: int) -> tuple[str, ...]:
    """All length-n factors of the substituted coding, sorted.

    Every length-n window of sigma(s) sits inside the image of a length
    n+1 factor of s, and conversely every window of such an image occurs
    in sigma(s), so collecting windows over all of them is exact.
    """
    if n < 1:
        raise ValueError("factor length must be >= 1")
    seen = set()
    for w in _factor_words(alpha, n + 1):
        img = sigma_image(w)
        for i in range(len(img) - n + 1):
            seen.add(img[i : i + n])
    return tuple(sorted(seen))


def is_balanced_pair(u: str, v: str) -> bool:
    """Equal length and the counts of '0' differ by at most one."""
    if len(u) != len(v):
        raise ValueError("balance is defined for equal-length words")
    if (set(u) | set(v)) - {"0", "1"}:
        raise ValueError("balance check expects binary words")
    return abs(u.count("0") - v.count("0")) <= 1
