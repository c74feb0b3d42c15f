"""k-abelian equivalence of words and its geometric classification.

Two words of equal length are k-abelian equivalent when every nonempty
word of length at most k occurs in both the same number of times.  For
words of length at least k-1 this is the same as sharing the length-(k-1)
prefix and suffix and having equal counts of length-k blocks, which is
what the signature below records; the raw all-lengths count check is kept
alongside for cross-validation.

For factors of a rotation coding the classes have a geometric shape: two
length-m factors are equivalent at order k exactly when their level-m
intervals land in the same interval of the coarse family cut at the first
and last few orbit points.  The coarse cuts are level-m cuts, so this is a
question about circle ranks alone: the factor at rank r belongs to the
coarse cut of largest rank <= r.  classify_by_intervals exploits that and
classify_brute ignores it, so the two can be played against each other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .geometry import EndpointConvention, LEFT_CLOSED, _coarse_indices
from .quadreal import QuadReal, dist_to_int
from .words import SturmianSpec, _crossings, _factor_words, sigma_factors_of_length

__all__ = [
    "KAbelianSignature",
    "signature",
    "kab_equivalent",
    "kab_equivalent_counts",
    "FactorClass",
    "classify_brute",
    "classify_by_intervals",
    "prefix_suffix_sufficient",
    "TernaryReport",
    "verify_ternary_property",
]


@dataclass(frozen=True)
class KAbelianSignature:
    """Prefix, suffix and length-k block counts deciding equivalence.

    For words shorter than k-1 the prefix and suffix degenerate to the
    word itself and the counts are empty, so signature equality is word
    equality, which is the right notion there.
    """

    k: int
    length: int
    prefix: str
    suffix: str
    counts: tuple[tuple[str, int], ...]


def signature(u: str, k: int) -> KAbelianSignature:
    if k < 1:
        raise ValueError("order k must be >= 1")
    m = len(u)
    edge = min(m, k - 1)
    counts: tuple[tuple[str, int], ...] = ()
    if m >= k:
        counts = tuple(sorted(Counter(u[i : i + k] for i in range(m - k + 1)).items()))
    return KAbelianSignature(k, m, u[:edge], u[m - edge :] if edge else "", counts)


def kab_equivalent(u: str, v: str, k: int) -> bool:
    """Equivalence at order k; words must have equal length."""
    if len(u) != len(v):
        raise ValueError("k-abelian equivalence compares equal-length words")
    return signature(u, k) == signature(v, k)


def kab_equivalent_counts(u: str, v: str, k: int) -> bool:
    """The raw definition: equal counts of every factor of length <= k."""
    if len(u) != len(v):
        raise ValueError("k-abelian equivalence compares equal-length words")
    if k < 1:
        raise ValueError("order k must be >= 1")
    for ell in range(1, k + 1):
        cu = Counter(u[i : i + ell] for i in range(len(u) - ell + 1))
        cv = Counter(v[i : i + ell] for i in range(len(v) - ell + 1))
        if cu != cv:
            return False
    return True


@dataclass(frozen=True)
class FactorClass:
    k: int
    length: int
    members: tuple[str, ...]
    interval_index: int | None = None


def classify_brute(words: Iterable[str], k: int) -> list[FactorClass]:
    """Partition equal-length words by signature, no geometry involved.

    Classes are ordered by their lexicographically smallest member and
    members are sorted, so the output is deterministic for set inputs.
    """
    groups: dict[KAbelianSignature, list[str]] = {}
    length = None
    for w in words:
        if length is None:
            length = len(w)
        elif len(w) != length:
            raise ValueError("all words must share one length")
        groups.setdefault(signature(w, k), []).append(w)
    classes = [
        FactorClass(k, length if length is not None else 0, tuple(sorted(g)))
        for g in groups.values()
    ]
    classes.sort(key=lambda c: c.members[0])
    return classes


def classify_by_intervals(
    alpha: QuadReal, k: int, m: int, convention: EndpointConvention = LEFT_CLOSED
) -> list[FactorClass]:
    """Group the length-m factors through the coarse interval family.

    The coarse cuts are a subset of the level-m cuts, so each factor's
    level-m interval lies in the coarse interval whose cut has the largest
    circle rank not above the factor's own; ranks are integers (see
    geometry), and no interval is built.  Classes come back in circle order,
    one per coarse interval of ikm_intervals(alpha, k, m).  `convention` is
    accepted and changes nothing: no point is coded here.
    """
    coarse = _coarse_indices(k, m)
    words = _factor_words(alpha, m)  # checks the budget before anything is sorted
    members: list[list[str]] = []
    for j, word in zip(_crossings(alpha, m)[1], words):
        if j in coarse:  # a coarse cut opens the next class; j == 0 comes first
            members.append([])
        members[-1].append(word)
    return [FactorClass(k, m, tuple(ws), i) for i, ws in enumerate(members)]


def prefix_suffix_sufficient(alpha: QuadReal, k: int) -> bool:
    """Whether shared prefix+suffix of length k-1 alone decides equivalence
    of equal-length factors, which happens iff 2(k-1)*dist(alpha) > 1."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    return 2 * (k - 1) * dist_to_int(alpha) > 1


@dataclass
class TernaryReport:
    k: int
    max_len: int
    pairs_checked: int
    counterexamples: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_ternary_property(spec: SturmianSpec, k: int, max_len: int) -> TernaryReport:
    """Check, over the substituted coding sigma(s), that order-k equivalence
    of equal-length factors is exactly sharing prefix and suffix of length
    min(len, k-1).

    Requires k >= 2 and a slope whose coding contains 00 (true for any
    slope below 1/2), since the substituted word must contain 020.
    """
    if k < 2:
        raise ValueError("the substituted coding property needs k >= 2")
    if "00" not in _factor_words(spec.alpha, 2):
        raise ValueError("slope's coding must contain 00 (slope below 1/2)")
    report = TernaryReport(k, max_len, 0)
    for ell in range(1, max_len + 1):
        words = sigma_factors_of_length(spec.alpha, ell)
        edge = min(ell, k - 1)
        for i, u in enumerate(words):
            for v in words[i + 1 :]:
                report.pairs_checked += 1
                same_ends = u[:edge] == v[:edge] and u[len(u) - edge :] == v[len(v) - edge :]
                if kab_equivalent(u, v, k) != same_ends:
                    report.counterexamples.append((u, v))
    return report
