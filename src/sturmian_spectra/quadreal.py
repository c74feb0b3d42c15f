"""Exact arithmetic in real quadratic fields.

A value is (p + q*sqrt(d)) / r with arbitrary-precision integers p, q, r
and a radicand d.  Circle points, interval lengths, Lagrange constants and
spectrum values are all instances of this one type, so every comparison
made by the package is an exact integer sign computation and floating
point never enters any decision.

The constructor pulls the squares of the primes below 1000 out of d and
then tests what is left for being a perfect square, so q == 0 exactly when
the value is rational.  It never factors d in full: a printed d may keep
the square of a larger prime.  One value can therefore have more than one
spelling, and equality, hashing and arithmetic go by value, not by the
components.

Addition, subtraction, multiplication and division require both operands
to live in the same field (rationals, having q == 0, are compatible with
everything).  Comparisons work across distinct radicands as well, via sign
analysis of the difference; see :func:`QuadReal.compare`.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, ldexp, prod

__all__ = ["QuadReal", "MixedRadicandError", "sqrt", "dist_to_int"]


class MixedRadicandError(ValueError):
    """Arithmetic attempted between values of distinct quadratic fields."""


_SMALL_PRIME_LIMIT = 1000
_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n >= 2, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


_SMALL_PRIMES = _primes_below(_SMALL_PRIME_LIMIT)
_SMALL_PRIMORIAL = prod(_SMALL_PRIMES)


@lru_cache(maxsize=1024)
def _split_radicand(n: int) -> tuple[int, int]:
    """Write n >= 1 as f*f*d; d == 1 exactly when n is a perfect square.

    The primes below _SMALL_PRIME_LIMIT come out by gcds in layers: g_1 =
    gcd(n, their product), and g_(e+1) = gcd(n / (g_1*...*g_e), g_e), so
    g_e is the product of the small primes that divide n at least e times.
    Such a prime of exponent v lies in g_1..g_v, so f takes the product of
    the even layers and d each odd layer's g_e / g_(e+1).  One isqrt test
    on the cofactor decides whether it is a square.  Any d > 1 then has no
    square prime factor below _SMALL_PRIME_LIMIT but may keep a larger one.
    """
    f = d = 1
    g, e = gcd(n, _SMALL_PRIMORIAL), 1
    while g > 1:
        n //= g
        h = gcd(n, g)
        if e % 2:
            d *= g // h
        else:
            f *= g
        g, e = h, e + 1
    s = isqrt(n)
    if s * s == n:
        return f * s, d
    return f, d * n


def _common_radicand(x: "QuadReal", y: "QuadReal") -> tuple["QuadReal", "QuadReal"]:
    """x and y spelled over one radicand (a rational fits any radicand).

    Two radicands name the same field exactly when their product is a
    square, i.e. when both are a square times their gcd; then both values
    are rewritten over that gcd.
    """
    if x.q == 0 or y.q == 0 or x.d == y.d:
        return x, y
    g = gcd(x.d, y.d)
    u, v = isqrt(x.d // g), isqrt(y.d // g)
    if u * u * g != x.d or v * v * g != y.d:
        raise MixedRadicandError(f"cannot mix sqrt({x.d}) with sqrt({y.d}) arithmetic")
    return QuadReal(x.p, x.q * u, g, x.r), QuadReal(y.p, y.q * v, g, y.r)


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _sign_pair(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d), for integers a, b and d >= 0."""
    if b == 0 or d == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    s = _sign(a * a - b * b * d)
    return s if a > 0 else -s


def _floor_parts(p: int, q: int, d: int, r: int) -> int:
    """floor((p + q*sqrt(d)) / r) with r > 0, with no sign test.

    q*sqrt(d) is sqrt(m) or -sqrt(m) for m = q*q*d, so its floor t is
    isqrt(m) for q > 0, and for q < 0 it is -isqrt(m), less one unless m is
    a square.  For an integer p and an integer r > 0, floor(p + y) = p +
    floor(y) and floor(x/r) = floor(floor(x)/r), so the floor is (p + t) // r.
    """
    if q == 0 or d == 0:
        return p // r
    m = q * q * d
    s = isqrt(m)
    t = s if q > 0 else (-s if s * s == m else -s - 1)
    return (p + t) // r


class QuadReal:
    """Immutable exact real (p + q*sqrt(d)) / r."""

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int = 0, d: int = 0, r: int = 1):
        if r == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if q == 0 or d == 0:
            q = 0
            d = 0
        else:
            f, d = _split_radicand(d)
            q *= f
            if d == 1:
                p += q
                q = 0
                d = 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(p, q), r)
        if g > 1:
            p //= g
            q //= g
            r //= g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError("QuadReal is immutable")

    def __reduce__(self):
        # rebuilt by the constructor, which keeps a normalised spelling as
        # it is: the default restore of the slots would go through
        # __setattr__, which refuses
        return type(self), (self.p, self.q, self.d, self.r)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_fraction(cls, fr: Fraction | int) -> "QuadReal":
        from fractions import Fraction

        fr = Fraction(fr)
        return cls(fr.numerator, 0, 0, fr.denominator)

    def to_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError("value is irrational")
        from fractions import Fraction

        return Fraction(self.p, self.r)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = _common_radicand(self, other)
        return QuadReal(
            a.p * b.r + b.p * a.r,
            a.q * b.r + b.q * a.r,
            a.d or b.d,
            a.r * b.r,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return QuadReal(-self.p, -self.q, self.d, self.r)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = _common_radicand(self, other)
        d = a.d or b.d
        return QuadReal(
            a.p * b.p + a.q * b.q * d,
            a.p * b.q + a.q * b.p,
            d,
            a.r * b.r,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "QuadReal":
        den = self.p * self.p - self.q * self.q * self.d
        if den == 0:
            raise ZeroDivisionError("division by zero")
        return QuadReal(self.r * self.p, -self.r * self.q, self.d, den)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self._inverse()

    def __abs__(self):
        return -self if self.compare(_ZERO) < 0 else self

    # -- comparison ----------------------------------------------------------

    def compare(self, other) -> int:
        """Exact sign of self - other; works across distinct radicands."""
        other = _coerce(other)
        if other is None:
            raise TypeError(f"cannot compare QuadReal with {type(other)!r}")
        if self.q == 0 or other.q == 0 or self.d == other.d:
            d = self.d if self.q else other.d
            a = self.p * other.r - other.p * self.r
            b = self.q * other.r - other.q * self.r
            return _sign_pair(a, b, d)
        # Distinct radicands: sign of X + Y with X = A + B*sqrt(d1) and
        # Y = C*sqrt(d2).  When the two parts pull in opposite directions,
        # squaring lands back in the first field.
        a = self.p * other.r - other.p * self.r
        b = self.q * other.r
        c = -other.q * self.r
        sx = _sign_pair(a, b, self.d)  # never 0: b != 0 and d > 1 is no square
        sy = _sign(c)
        if sy == 0 or sx == sy:
            return sx
        s = _sign_pair(a * a + b * b * self.d - c * c * other.d, 2 * a * b, self.d)
        if s > 0:
            return sx
        if s < 0:
            return sy
        return 0

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.d == other.d:
            return self.p == other.p and self.q == other.q and self.r == other.r
        return self.compare(other) == 0

    def __hash__(self):
        # Every spelling of a value shares its rational part p/r and the
        # square q*q*d/r*r of its irrational part, with the sign of q; as
        # r > 0, a gcd brings each to one spelling, with no Fraction built
        # (every lru_cache lookup keyed on a slope hashes it).  A rational
        # value p/r hashes like the Fraction it equals, by Python's numeric
        # hash rule for rationals: |p| times the inverse of r modulo the
        # prime P = sys.hash_info.modulus (sys.hash_info.inf when P divides
        # r), reduced mod P, with the sign of p; hash() itself reads -1 as -2.
        if self.q == 0:
            P = _HASH_MODULUS
            h = abs(self.p) % P * pow(self.r, -1, P) % P if self.r % P else _HASH_INF
            return h if self.p >= 0 else -h
        g, s, rr = gcd(self.p, self.r), self.q * self.q * self.d, self.r * self.r
        h = gcd(s, rr)
        return hash((self.p // g, self.r // g, s // h, rr // h, self.q > 0))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def sign(self) -> int:
        return _sign_pair(self.p, self.q, self.d)

    # -- integer part --------------------------------------------------------

    def floor(self) -> int:
        return _floor_parts(self.p, self.q, self.d, self.r)

    __floor__ = floor

    def frac(self) -> "QuadReal":
        """Fractional part, exact, in [0, 1)."""
        n = self.floor()
        return QuadReal(self.p - n * self.r, self.q, self.d, self.r)

    # -- rendering -----------------------------------------------------------

    def decimal(self, digits: int = 40) -> str:
        """Correctly rounded positional decimal with `digits` significant digits."""
        if digits < 1:
            raise ValueError("need at least one significant digit")
        if not self:
            return "0"
        x = abs(self)
        ip = x.floor()
        if ip > 0:
            e = len(str(ip)) - 1
        else:
            e = 0
            scale = 10
            while _floor_parts(x.p * scale, x.q * scale, x.d, x.r) == 0:
                e -= 1
                scale *= 10
            e -= 1
        shift = digits - 1 - e
        if shift >= 0:
            sp, sq, sr = x.p * 10**shift, x.q * 10**shift, x.r
        else:
            sp, sq, sr = x.p, x.q, x.r * 10**-shift
        # round half up: floor((2*scaled + 1) / 2)
        n = _floor_parts(2 * sp + sr, 2 * sq, x.d, 2 * sr)
        if n >= 10**digits:
            n //= 10
            e += 1
        s = str(n)
        sign = "-" if self.compare(_ZERO) < 0 else ""
        if e >= digits - 1:
            return sign + s + "0" * (e - digits + 1)
        if e >= 0:
            return sign + s[: e + 1] + "." + s[e + 1 :]
        return sign + "0." + "0" * (-e - 1) + s

    def __float__(self):
        """Correctly rounded: float() of an exact floor of |x| * 2**s."""
        if self.q == 0:
            return self.p / self.r  # int / int is correctly rounded
        sign = self.sign()
        p, q, r = sign * self.p, sign * self.q, self.r
        size = max(abs(p).bit_length(), (q * q * self.d).bit_length() // 2)
        s = 64 + r.bit_length() - size
        while True:
            if s >= 0:
                n = _floor_parts(p << s, q << s, self.d, r)
            else:
                n = _floor_parts(p, q, self.d, r << -s)
            if n.bit_length() >= 60:
                break
            s += 61 - n.bit_length() if n else 64  # cancellation: look deeper
        # |x| * 2**s is irrational, so it lies strictly between n and n + 1;
        # with n at least 60 bits wide a set low bit rounds exactly like it.
        return sign * ldexp(float(n | 1), -s)

    def __str__(self):
        if self.q == 0:
            return str(self.p) if self.r == 1 else f"{self.p}/{self.r}"
        if self.q == 1:
            root = f"sqrt({self.d})"
        elif self.q == -1:
            root = f"-sqrt({self.d})"
        else:
            root = f"{self.q}*sqrt({self.d})"
        body = root if self.p == 0 else f"{self.p}{'+' if self.q > 0 else ''}{root}"
        return body if self.r == 1 else f"({body})/{self.r}"

    def __repr__(self):
        return f"QuadReal({self})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": str(self.p),
            "q": str(self.q),
            "d": str(self.d),
            "r": str(self.r),
            "decimal": self.decimal(40),
        }


def _coerce(x) -> QuadReal | None:
    if isinstance(x, QuadReal):
        return x
    if isinstance(x, int):
        return QuadReal(x)
    # no Fraction exists before the fractions module is loaded, so x is
    # checked against it only if it is loaded, and it is not loaded here
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return QuadReal(x.numerator, 0, 0, x.denominator)
    return None


_ZERO = QuadReal(0)


def sqrt(n: int) -> QuadReal:
    """Exact square root of a nonnegative integer."""
    return QuadReal(0, 1, n, 1)


def dist_to_int(x: QuadReal) -> QuadReal:
    """Distance from x to the nearest integer, exact."""
    f = x.frac()
    other = QuadReal(f.r - f.p, -f.q, f.d, f.r)  # 1 - f
    return f if f.compare(other) <= 0 else other
