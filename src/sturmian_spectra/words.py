"""Rotation codings and their factor languages.

A slope alpha in (0, 1) and an intercept x define the binary word whose
i-th letter says which side of the two-interval partition {I(0, 1-alpha),
I(1-alpha, 1)} the point x + i*alpha (mod 1) falls on, i.e. whether x lies
in the arc from {-(i+1)*alpha} to {-i*alpha}.

Every letter is read off one rational rotation, by the lemma in the
geometry module docstring.  Spell x over alpha's radicand as
(A + B*alpha)/D with D > 0, and take the first convergent p/q of alpha
with q > |B| + D*n.  For 0 <= i <= n the lemma, applied to the pairs
(A - t*D) + (B + i*D)*alpha, gives floor(x + i*alpha) =
floor((K + i*D*p)/(D*q)) with K = A*q + B*p, and x + i*alpha is an integer
only when D*q divides K + i*D*p.  So with r_i = (K + i*D*p) mod D*q, the
point {x + i*alpha} lies in [1-alpha, 1) exactly when r_i >= D*(q - p),
which is letter i = 1 under the left-closed convention, and in
(1-alpha, 1], with 0 taken as 1, exactly when r_i > D*(q - p) or r_i = 0,
which is letter i = 1 under the right-closed one.  Both say that the
rotation wraps past a multiple of D*q on its step from r_i, so _code_pair
places each letter 1 by one floor division at its wrap and never steps
letter by letter.  It is the only coder: prefixes, language first words
and exponent witnesses all call it on their integer pair.

Factors of length n need nothing more: the level-n family, cut at
{-j*alpha} for 0 <= j <= n, has one interval per length-n factor, and
geometry orders those cuts by the same lemma.  The first interval starts
at cut 0, so its word is the coding of intercept 0 (K = 0, D = 1, with
the order's p and q), and crossing the cut {-j*alpha} only turns letter
j-1 into 1 and letter j into 0.  So a language is kept as its first word
and crossing order, O(n), and one bytearray walked through the crossings
holds each factor in turn: no sampling, no sign tests, and no QuadReal.
Decoding every factor takes (n+1)*n symbols, refused past
LANGUAGE_SYMBOL_CAP; the brute oracle decodes only the blocks a crossing
touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .geometry import (
    EndpointConvention,
    Interval,
    LEFT_CLOSED,
    _convergent_past,
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


DEFAULT_ORACLE_CAP = 2000  # longest factor the brute oracle (spectra) enumerates
LANGUAGE_SYMBOL_CAP = 10**8  # symbols in one decoded factor language


class ResourceCapExceeded(RuntimeError):
    """A computation would exceed its budget: the enumeration oracle's
    symbol cap, a decoded language's symbols, or linfty's digit limit."""

    def __init__(self, needed: int, cap: int, message: str | None = None):
        super().__init__(
            message or f"enumeration would need factors of length {needed}, cap is {cap}"
        )
        self.needed = needed
        self.cap = cap


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


def _code_pair(alpha: QuadReal, a: int, b: int, d: int, n: int, zero_in_i0: bool) -> str:
    """The first n letters from the intercept (a + b*alpha)/d, d > 0, read
    off the rotation r -> r + d*(p mod q) on Z/(d*q) from r = a*q + b*p for
    the first convergent p/q past |b| + d*n (see the module docstring);
    p mod q makes a slope outside (0, 1) the rotation by its fractional part.

    Letter i is 1 exactly when the rotation wraps on its step from
    r + i*step past a multiple t*mod: one in (r + i*step, r + (i+1)*step]
    left-closed, in [r + i*step, r + (i+1)*step) right-closed.  So with
    u = r + 1 left-closed and u = r right-closed, each x = t*mod - u in
    [0, n*step) is a letter 1 at i = x // step, one floor division each."""
    p, q = _convergent_past(alpha, abs(b) + d * n)
    step, mod = d * (p % q), d * q
    u = (a * q + b * p) % mod + zero_in_i0
    letters = bytearray(b"0" * n)
    for x in range(-u % mod, n * step, mod):
        letters[x // step] = 49  # ord("1")
    return letters.decode()


def sturmian_prefix(spec: SturmianSpec, n: int) -> str:
    """First n letters of the coding described by spec."""
    if n < 0:
        raise ValueError("length must be >= 0")
    alpha, x = _common_radicand(spec.alpha, spec.intercept)
    # x = (A + B*alpha)/D over alpha's radicand, D > 0
    a, b, d = x.p * alpha.q - x.q * alpha.p, x.q * alpha.r, x.r * alpha.q
    if d < 0:
        a, b, d = -a, -b, -d
    return _code_pair(alpha, a, b, d, n, spec.convention.zero_in_I0)


@lru_cache(maxsize=8)
def _crossings(alpha: QuadReal, n: int) -> tuple[str, list[int]]:
    """The length-n language in O(n): its first word (intercept 0's coding)
    and the cuts 0..n in circle order, 0 first, sorted on -j*p mod q as in
    geometry.  The endpoint convention changes neither, so it is no key."""
    p, q = _convergent_past(alpha, n)
    order = sorted(range(n + 1), key=lambda j: -j * p % q)
    return _code_pair(alpha, 0, 0, 1, n, True), order


def _crossing_walk(alpha: QuadReal, n: int) -> Iterator[tuple[int, bytearray]]:
    """(j, letters) for each cut j in circle order: one bytearray, changed in
    place, holds the factor whose level-n interval starts at cut j."""
    first, order = _crossings(alpha, n)
    letters = bytearray(first, "ascii")
    yield 0, letters
    for j in order[1:]:
        letters[j - 1] = 49  # ord("1"): entering the arc of letter j-1
        if j < n:
            letters[j] = 48  # ord("0"): leaving the arc of letter j
        yield j, letters


def _language_walk(alpha: QuadReal, n: int) -> Iterator[tuple[int, bytearray]]:
    """_crossing_walk(alpha, n) for a walk that visits every factor: refused
    when called, before anything is sorted, past LANGUAGE_SYMBOL_CAP."""
    if n < 1:
        raise ValueError("factor length must be >= 1")
    if (n + 1) * n > LANGUAGE_SYMBOL_CAP:
        msg = f"the length-{n} language has more than {LANGUAGE_SYMBOL_CAP} symbols"
        raise ResourceCapExceeded((n + 1) * n, LANGUAGE_SYMBOL_CAP, msg)
    return _crossing_walk(alpha, n)


def _factor_words(alpha: QuadReal, n: int) -> Iterator[str]:
    """The n+1 length-n factors in circle order, decoded off the crossing
    walk; refused, before anything is sorted, past LANGUAGE_SYMBOL_CAP."""
    return (letters.decode() for _, letters in _language_walk(alpha, n))


def factors_of_length(
    alpha: QuadReal, n: int, convention: EndpointConvention = LEFT_CLOSED
) -> tuple[tuple[str, Interval], ...]:
    """All length-n factors of the slope's coding, with their intervals.

    Returns (word, interval) pairs in circle order of the level-n family;
    there are exactly n+1 of them.  The word attached to an interval is the
    coding of its interior points, read off the circle order of the cuts.
    `convention` is accepted and changes nothing: no point is coded here,
    so the cache is keyed on (alpha, n) alone.
    """
    return _factors_of_length(alpha, n)


@lru_cache(maxsize=8)
def _factors_of_length(alpha: QuadReal, n: int) -> tuple[tuple[str, Interval], ...]:
    words = _factor_words(alpha, n)  # checks the budget before anything is built
    return tuple(zip(words, level_intervals(alpha, n).intervals))


# the hit rate stays readable off the public name (bench/tracer.py reads it)
factors_of_length.cache_info = _factors_of_length.cache_info


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
    images = map(sigma_image, _factor_words(alpha, n + 1))
    windows = {img[i : i + n] for img in images for i in range(len(img) - n + 1)}
    return tuple(sorted(windows))


def is_balanced_pair(u: str, v: str) -> bool:
    """Equal length and the counts of '0' differ by at most one."""
    if len(u) != len(v):
        raise ValueError("balance is defined for equal-length words")
    if (set(u) | set(v)) - {"0", "1"}:
        raise ValueError("balance check expects binary words")
    return abs(u.count("0") - v.count("0")) <= 1
