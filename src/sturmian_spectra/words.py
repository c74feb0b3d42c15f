"""Rotation codings and their factor languages.

A slope alpha in (0, 1) and an intercept x define the binary word whose
i-th letter says which side of the two-interval partition {I(0, 1-alpha),
I(1-alpha, 1)} the point x + i*alpha (mod 1) falls on, i.e. whether x lies
in the arc from {-(i+1)*alpha} to {-i*alpha}.

Every letter is read off one rational rotation, by the lemma in the
geometry module docstring.  Spell x over alpha's radicand as
(A + B*alpha)/D with D > 0, and take a convergent p/q of alpha with
q > |B| + D*n, any one.  For 0 <= i <= n the lemma, applied to the pairs
(A - t*D) + (B + i*D)*alpha, gives floor(x + i*alpha) =
floor((K + i*D*p)/(D*q)) with K = A*q + B*p, and x + i*alpha is an integer
only when D*q divides K + i*D*p.  So with r_i = (K + i*D*p) mod D*q, the
point {x + i*alpha} lies in [1-alpha, 1) exactly when r_i >= D*(q - p),
which is letter i = 1 under the left-closed convention, and in
(1-alpha, 1], with 0 taken as 1, exactly when r_i > D*(q - p) or r_i = 0,
which is letter i = 1 under the right-closed one.  Both say that the
rotation wraps past a multiple of D*q on its step from r_i, so _code_pair
places each letter 1 by one floor division at its wrap and never steps
letter by letter.  It is the only coder: prefixes, language texts and
exponent witnesses all call it on their integer pair.

Factors of length n need nothing more: the level-n family, cut at
{-j*alpha} for 0 <= j <= n, has one interval per length-n factor, and
geometry orders those cuts by the same lemma.  Window lemma: the factor of
the interval that starts at cut j is the window text[n-j : 2n-j] of the 2n
letters coded from intercept -n*alpha.  Indeed the coding is constant on
[{-j*alpha}, next cut) under the left-closed convention, so that factor is
the coding of intercept -j*alpha, whose letter i codes the point
(i-j)*alpha, and so does letter n-j+i of the text.  So a language is kept
as its text (K = -n*p, D = 1) and crossing order, O(n), coded and sorted
with one convergent past 3n that also cuts the level family, and each
factor is one slice: no sampling, no sign tests, and no QuadReal.  Slicing
every factor takes (n+1)*n symbols, refused past LANGUAGE_SYMBOL_CAP; the
brute oracle slices none, as it reads the length-m factors' integers as
shifts of the text's integer and walks a longer language on class ids
alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from ._record import Record
from .cf import _convergent_past, _quotients_of
from .geometry import EndpointConvention, Interval, LEFT_CLOSED, _circle_order, _orbit_family
from .quadreal import QuadReal, _common_radicand

__all__ = [
    "SturmianSpec",
    "sturmian_prefix",
    "factors_of_length",
    "occurrences",
    "sigma_image",
    "sigma_factors_of_length",
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


class SturmianSpec(Record):
    """Slope, intercept and endpoint convention for one rotation coding;
    the intercept is kept reduced mod 1."""

    __slots__ = {"alpha": "QuadReal", "intercept": "QuadReal", "convention": "EndpointConvention"}

    def __init__(
        self, alpha: QuadReal, intercept: QuadReal, convention: EndpointConvention = LEFT_CLOSED
    ):
        if alpha.q == 0:
            raise ValueError("slope must be irrational")
        if alpha <= 0 or alpha >= 1:
            raise ValueError("slope must lie in (0, 1)")
        super().__init__(alpha, intercept.frac(), convention)


def _code_pair(p: int, q: int, a: int, b: int, d: int, n: int, zero_in_i0: bool) -> str:
    """The first n letters from the intercept (a + b*alpha)/d, d > 0, read
    off the rotation r -> r + d*(p mod q) on Z/(d*q) from r = a*q + b*p for
    any convergent p/q of alpha past |b| + d*n (see the module docstring),
    which the caller expands; p mod q makes a slope outside
    (0, 1) the rotation by its fractional part.

    Letter i is 1 exactly when the rotation wraps on its step from
    r + i*step past a multiple t*mod: one in (r + i*step, r + (i+1)*step]
    left-closed, in [r + i*step, r + (i+1)*step) right-closed.  So with
    u = r + 1 left-closed and u = r right-closed, each x = t*mod - u in
    [0, n*step) is a letter 1 at i = x // step, one floor division each."""
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
    p, q = _convergent_past(_quotients_of(alpha), abs(b) + d * n)
    return _code_pair(p, q, a, b, d, n, spec.convention.zero_in_I0)


@lru_cache(maxsize=8)
def _crossings(alpha: QuadReal, n: int) -> tuple[str, list[int], int, int]:
    """The length-n language in O(n): its text, the 2n letters from intercept
    -n*alpha whose window text[n-j : 2n-j] is the factor at cut j (see the
    module docstring), the cuts 0..n in circle order, 0 first, and the first
    convergent p/q past 3n, which codes the text and orders the cuts, as in
    geometry.  The coder and the level family share this one order and
    convergent.  The endpoint convention changes none of them, so it is no
    key."""
    p, q = _convergent_past(_quotients_of(alpha), 3 * n)
    return _code_pair(p, q, 0, -n, 1, 2 * n, True), _circle_order(range(n + 1), p, q), p, q


def _crossing_walk(alpha: QuadReal, n: int) -> Iterator[tuple[int, str]]:
    """(j, word) for each cut j in circle order, word the factor whose
    level-n interval starts at cut j, sliced off the text of _crossings."""
    text, order, _, _ = _crossings(alpha, n)
    for j in order:
        yield j, text[n - j : 2 * n - j]


def _language_walk(alpha: QuadReal, n: int) -> Iterator[tuple[int, str]]:
    """_crossing_walk(alpha, n) for a walk that visits every factor: refused
    when called, before anything is sorted, past LANGUAGE_SYMBOL_CAP."""
    if n < 1:
        raise ValueError("factor length must be >= 1")
    if (n + 1) * n > LANGUAGE_SYMBOL_CAP:
        msg = f"the length-{n} language has more than {LANGUAGE_SYMBOL_CAP} symbols"
        raise ResourceCapExceeded((n + 1) * n, LANGUAGE_SYMBOL_CAP, msg)
    return _crossing_walk(alpha, n)


def _factor_words(alpha: QuadReal, n: int) -> Iterator[str]:
    """The n+1 length-n factors in circle order, off the crossing walk;
    refused, before anything is sorted, past LANGUAGE_SYMBOL_CAP."""
    return (word for _, word in _language_walk(alpha, n))


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
    _, order, p, q = _crossings(alpha, n)
    return tuple(zip(words, _orbit_family(alpha, order, p, q).intervals))


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


def sigma_image(w: str) -> str:
    """Image under the substitution 0 -> 02, 1 -> 1."""
    if w.count("0") + w.count("1") != len(w):
        raise ValueError("substitution acts on binary words")
    return w.replace("0", "02")


def sigma_factors_of_length(alpha: QuadReal, n: int) -> tuple[str, ...]:
    """All length-n factors of the substituted coding, sorted.

    A window of sigma(s) starts on a letter's image or on the 2 of a 0's
    image, so it is img[0:n] or img[1:n+1] of the image of the length-(n+1)
    factor that starts there, which has at least n+1 letters.  Each such
    slice occurs in sigma(s), so these two windows per image are the
    language (at an image that starts with 1, the slice at 1 is the slice
    at 0 of the factor one letter on).  The n+2 images have at most
    2(n+1) letters each, so the budget of the length-(n+1) language, which
    is sliced and refused past LANGUAGE_SYMBOL_CAP, bounds this one too.
    """
    if n < 1:
        raise ValueError("factor length must be >= 1")
    images = map(sigma_image, _factor_words(alpha, n + 1))
    return tuple(sorted({img[i : i + n] for img in images for i in (0, 1)}))
