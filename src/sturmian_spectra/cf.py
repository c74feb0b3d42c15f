"""Eventually periodic continued fractions with exact values.

The text form is ``[a0; a1, a2, (b1, b2)]``: a finite list of partial
quotients with an optional parenthesized repeating block at the end.
Whitespace is insignificant on input; rendering is canonical.

Convergents, values, denominators and Lagrange constants come from one
integer fold, the convergent recurrence over a quotient list (`_folds`,
and its last step `_moebius`), and each value builds a single
:class:`~sturmian_spectra.quadreal.QuadReal` at the end.  It is the
package's only convergent recurrence but one, and every slope is expanded
here: it folds a continued fraction's own quotients (`_quotients`) or
`_quotients_of`, the integer quotient stream of a QuadReal, and
`_convergent_past` reads the first convergent past a level off either.
The other is spectra.construct_linfty_slope, which steps
q_k = a_k q_{k-1} + q_{k-2} itself because it plants each quotient from
the denominators before it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, cycle
from math import isqrt

from .quadreal import QuadReal

__all__ = [
    "ContinuedFraction",
    "Convergent",
    "CFSyntaxError",
]


class CFSyntaxError(ValueError):
    """Malformed continued fraction text."""


Convergent = namedtuple("Convergent", "t p q")


def _primitive_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """The shortest prefix whose repeats make the nonempty cycle; at the
    latest, length n matches."""
    n = len(cycle)
    for length in range(1, n + 1):
        if n % length == 0 and cycle[:length] * (n // length) == cycle:
            return cycle[:length]


class ContinuedFraction:
    """Canonical eventually periodic continued fraction.

    ``preperiod`` always holds at least the integer part a0; ``period`` is
    empty exactly for rational values.  Construction canonicalizes: the
    period is reduced to its primitive cycle and rotated out of the
    preperiod as far as possible, and rational expansions never end in 1
    (except for [1] itself).
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: Iterable[int], period: Iterable[int] = ()):
        pre = [int(a) for a in preperiod]
        per = [int(b) for b in period]
        if not pre:
            raise ValueError("continued fraction needs an integer part")
        if any(a < 1 for a in pre[1:]) or any(b < 1 for b in per):
            raise ValueError("partial quotients beyond a0 must be >= 1")
        if per:
            per = list(_primitive_cycle(tuple(per)))
            while len(pre) >= 2 and pre[-1] == per[-1]:
                pre.pop()
                per = [per[-1]] + per[:-1]
        elif len(pre) >= 2 and pre[-1] == 1:
            pre.pop()
            pre[-1] += 1
        object.__setattr__(self, "preperiod", tuple(pre))
        object.__setattr__(self, "period", tuple(per))

    def __setattr__(self, name, value):
        raise AttributeError("ContinuedFraction is immutable")

    def __reduce__(self):
        # rebuilt by the constructor: the default restore of the slots
        # would go through __setattr__, which refuses
        return type(self), (self.preperiod, self.period)

    # -- basics ----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not self.period

    def partial_quotient(self, t: int) -> int:
        """a_t, with the period unrolled for t past the preperiod."""
        if t < 0:
            raise IndexError("negative index")
        if t < len(self.preperiod):
            return self.preperiod[t]
        if not self.period:
            raise IndexError(f"rational expansion has no term a_{t}")
        return self.period[(t - len(self.preperiod)) % len(self.period)]

    def _quotients(self) -> Iterator[int]:
        """a_0, a_1, ...: the preperiod, then the period without end."""
        return chain(self.preperiod, cycle(self.period))

    def __eq__(self, other):
        if not isinstance(other, ContinuedFraction):
            return NotImplemented
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __repr__(self):
        return f"ContinuedFraction({self.render()!r})"

    # -- text form ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ContinuedFraction":
        """The continued fraction spelled by text.

        The grammar, once every whitespace character is dropped (those
        `str.split()` splits on, Unicode ones such as U+0085 included), is
        ``[a0]`` or ``[a0;tail]``.  a0 is a run of decimal digits with an
        optional leading ``-``; tail is ``d,...,d``, ``d,...,d,(d,...,d)``
        or ``(d,...,d)``, each d a run of decimal digits.  A decimal digit
        is a character for which `str.isdecimal()` holds, so Unicode digits
        such as U+0663 read as their values, while U+00B2 is no digit.
        Text that is not ``[a0]`` or ``[a0;...]`` with a nonempty tail is
        "not a continued fraction"; a tail outside the grammar is a
        "malformed quotient list"; and a quotient past a0 below 1 is
        refused last.  Each refusal is a CFSyntaxError.
        """
        compact = "".join(text.split())
        head, semi, tail = compact[1:-1].partition(";")
        bracketed = compact[:1] == "[" and compact[-1:] == "]"
        if not (bracketed and head.removeprefix("-").isdecimal()) or (semi and not tail):
            raise CFSyntaxError(f"not a continued fraction: {text!r}")
        pre, per = [int(head)], []
        if semi:
            lead, paren, cycle = tail.partition("(")
            if paren:  # "(d,...)" or "d,...,(d,...)": drop the "," and the ")"
                lists = [lead[:-1], cycle[:-1]] if lead else [cycle[:-1]]
                ok = lead[-1:] in ("", ",") and cycle[-1:] == ")"
            else:
                lists, ok = [tail], True
            runs = [part.split(",") for part in lists]
            if not (ok and all(x.isdecimal() for run in runs for x in run)):
                raise CFSyntaxError(f"malformed quotient list in {text!r}")
            quotients = [list(map(int, run)) for run in runs]
            if paren:
                per = quotients.pop()
            if quotients:
                pre += quotients[0]
        if any(a < 1 for a in pre[1:]) or any(b < 1 for b in per):
            raise CFSyntaxError(f"partial quotients beyond a0 must be >= 1: {text!r}")
        return cls(pre, per)

    def render(self) -> str:
        parts = [str(a) for a in self.preperiod[1:]]
        if self.period:
            parts.append("(" + ", ".join(str(b) for b in self.period) + ")")
        if not parts:
            return f"[{self.preperiod[0]}]"
        return f"[{self.preperiod[0]}; " + ", ".join(parts) + "]"

    __str__ = render

    # -- value ---------------------------------------------------------------

    def value(self) -> QuadReal:
        """Exact value as a QuadReal (rational values have q == 0).

        The preperiod folds to z -> (a*z + b)/(c*z + d): a rational
        expansion is a/c, and a periodic one is that map at the value
        (P + sqrt(D))/R of its purely periodic tail, rationalised.
        """
        a, b, c, d = _moebius(self.preperiod)
        if self.is_rational:
            return QuadReal(a, 0, 0, c)
        P, D, R = _purely_periodic_value(self.period)
        u, v = a * P + b * R, c * P + d * R
        return QuadReal(u * v - a * c * D, (a * d - b * c) * R, D, v * v - c * c * D)

    # -- convergents -----------------------------------------------------

    def convergents(self, t_max: int) -> list[Convergent]:
        """Convergents p_t/q_t for t = 0..t_max via the standard recurrence."""
        if t_max < 0:
            raise ValueError("t_max must be >= 0")
        folds = _folds(map(self.partial_quotient, range(t_max + 1)))
        return [Convergent(t, p, q) for t, (p, _, q, _) in enumerate(folds)]

    # -- Lagrange constant -------------------------------------------------

    def lagrange_constant(self) -> QuadReal:
        """limsup_t ( [a_{t+1}; a_{t+2}, ...] + [0; a_t, ..., a_1] ), exact.

        Along the periodic tail the forward term at cycle offset j is the
        purely periodic x_j = (a - d + sqrt(disc)) / (2c), the fixed point
        of the j-th rotation of the cycle folded to (a, b, c, d).  By
        Galois' theorem the backward term [0; a_{j-1}, a_{j-2}, ...] is
        -x'_j, the negated conjugate, so forward + backward is
        x_j - x'_j = sqrt(disc) / c.  disc = (a - d)^2 + 4bc is
        trace^2 - 4*det and so the same for every rotation: the limsup is
        sqrt(disc) over the least c among the rotations, with no
        comparison of irrationals.  The fold of the next rotation is the
        fold conjugated by the first quotient x's matrix ((x, 1), (1, 0)),
        so the rotations cost O(L) steps in all, not O(L^2).
        """
        if self.is_rational:
            raise ValueError("Lagrange constant needs an irrational value")
        cycle = self.period
        a, b, c, d = _moebius(cycle)
        disc, least = (a - d) * (a - d) + 4 * b * c, c
        for x in cycle[:-1]:
            a, b, c, d = x * c + d, c, x * (a - x * c) + b - x * d, a - x * c
            least = min(least, c)
        return QuadReal(0, 1, disc, least)

    # -- equivalence -------------------------------------------------------

    def equivalent(self, other: "ContinuedFraction") -> bool:
        """True when the expansions eventually share a common tail."""
        if self.is_rational or other.is_rational:
            raise ValueError("tail equivalence is defined for periodic expansions")
        a, b = self.period, other.period
        if len(a) != len(b):
            return False
        doubled = a + a
        return any(doubled[i : i + len(b)] == b for i in range(len(a)))


def _folds(quotients: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    """The convergent recurrence over `quotients` x_0, x_1, ...: after each
    x_t, yields (p_t, p_{t-1}, q_t, q_{t-1}) =: (a, b, c, d), so that
    z -> (a*z + b)/(c*z + d) is [x_0; x_1, ..., x_t, z]."""
    a, b, c, d = 1, 0, 0, 1
    for x in quotients:
        a, b, c, d = a * x + b, a, c * x + d, c
        yield a, b, c, d


def _quotients_of(alpha: QuadReal) -> Iterator[int]:
    """The partial quotients a_0, a_1, ... of the irrational alpha, without
    end.

    alpha is spelled (P + sqrt(D))/Q with Q dividing D - P*P, a form every
    complete quotient keeps: the next one is (P' + sqrt(D))/Q' with
    P' = a*Q - P and Q' = (D - P'*P')/Q, where a = floor((P + sqrt(D))/Q)
    is read off isqrt(D), since D is not a square.  Only integers are used.
    """
    if alpha.q == 0:
        raise ValueError("slope must be irrational")
    sign = 1 if alpha.q > 0 else -1
    P, Q, D = sign * alpha.p, sign * alpha.r, alpha.q * alpha.q * alpha.d
    if (D - P * P) % Q:
        P, Q, D = P * abs(Q), Q * abs(Q), D * Q * Q
    root = isqrt(D)
    while True:
        # sqrt(D) lies strictly between root and root + 1
        a = (P + root + (Q < 0)) // Q
        yield a
        P = a * Q - P
        Q = (D - P * P) // Q


def _convergent_past(quotients: Iterable[int], n: int) -> tuple[int, int]:
    """The first convergent (p, q) of _folds(quotients) with q > n >= 0,
    for an endless quotient stream."""
    if n < 0:
        raise ValueError("level must be >= 0")
    for p, _, q, _ in _folds(quotients):
        if q > n:
            return p, q


def _moebius(quotients: Iterable[int]) -> tuple[int, int, int, int]:
    """The last of `_folds(quotients)`, or the identity for no quotients."""
    fold = 1, 0, 0, 1
    for fold in _folds(quotients):
        pass
    return fold


def _purely_periodic_value(cycle: tuple[int, ...]) -> tuple[int, int, int]:
    """Value of the purely periodic expansion [c0; c1, ..., c0, c1, ...],
    spelled as integers (P, D, R) for (P + sqrt(D))/R.

    The repeating block folds to a Moebius map z -> (az + b)/(cz + d); the
    value is its positive fixed point.
    """
    a, b, c, d = _moebius(cycle)
    return a - d, (a - d) * (a - d) + 4 * b * c, 2 * c
