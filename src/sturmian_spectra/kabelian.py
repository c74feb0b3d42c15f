"""k-abelian equivalence of words and its geometric classification.

Two words of equal length are k-abelian equivalent when every nonempty
word of length at most k occurs in both the same number of times.  For
words of length at least k-1 this is the same as sharing the length-(k-1)
prefix and suffix and having equal counts of length-k blocks, which is
what the signature below records; the raw all-lengths count check is kept
alongside for cross-validation.

The length-k blocks are counted on integer bit masks, not on string
slices.  Each letter c of a length-m word u gets the mask whose bit m-1-i
is set where u[i] == c (for a word over {0,1} that is int(u, 2) and its
complement).  Bit b of the mask shifted right by k-1-j then says whether
letter j of the window starting at m-k-b is c.  Starting from all m-k+1
window starts, ANDing in one shifted letter mask per offset j = 0..k-1
splits the windows by their blocks, a tree whose nonzero leaves are the
blocks that occur, each leaf's popcount its number of occurrences.  The
letters are tried in sorted order at every depth and all blocks have
length k, so the leaves come out in lexicographic order of their blocks:
the sorted count tuple, with no sort.  A word costs one AND of m-bit
integers per tree node, and a Sturmian factor has at most j+1 distinct
blocks of length j, so that is O(k^2) of them in place of m-k+1 slices.

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
from typing import Iterable, Iterator

from .geometry import EndpointConvention, LEFT_CLOSED, _coarse_indices
from .quadreal import QuadReal, dist_to_int
from .words import SturmianSpec, _factor_words, _language_walk, sigma_factors_of_length

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


def _block_counts(u: str, k: int) -> tuple[tuple[str, int], ...]:
    """Sorted (block, count) pairs of the length-k blocks of u, k <= len(u),
    counted on bit masks (see the module docstring)."""
    m = len(u)
    if not u.strip("01"):  # int() would also take "_", "0b", a sign or spaces
        ones = int(u, 2)
        masks = (("0", ones ^ ((1 << m) - 1)), ("1", ones))
    else:
        letters = sorted(set(u))
        masks = [
            (c, int(u.translate({ord(x): "1" if x == c else "0" for x in letters}), 2))
            for c in letters
        ]
    nodes = [("", (1 << (m - k + 1)) - 1)]
    for shift in range(k - 1, -1, -1):
        nodes = [
            (block + c, child)
            for block, node in nodes
            for c, mask in masks
            if (child := node & (mask >> shift))
        ]
    # from a list: tuple() of a generator grows and shrinks its result, and
    # the freed sizes raised the oracle sweep's peak RSS by about 0.5 MB
    return tuple([(block, node.bit_count()) for block, node in nodes])


def _signature_key(u: str, k: int) -> tuple[str, str, tuple[tuple[str, int], ...]]:
    """(prefix, suffix, counts) of u at order k: the signature of u among
    words of its length, as a plain tuple to group and hash on."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    m = len(u)
    edge = min(m, k - 1)
    counts = _block_counts(u, k) if m >= k else ()
    return u[:edge], u[m - edge :] if edge else "", counts


def signature(u: str, k: int) -> KAbelianSignature:
    return KAbelianSignature(k, len(u), *_signature_key(u, k))


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
    groups: dict[tuple, list[str]] = {}
    length = None
    for w in words:
        if length is None:
            length = len(w)
        elif len(w) != length:
            raise ValueError("all words must share one length")
        groups.setdefault(_signature_key(w, k), []).append(w)
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
    members: list[list[str]] = []
    for opens, letters in _class_walk(alpha, k, m):
        if opens:
            members.append([])
        members[-1].append(letters.decode())
    return [FactorClass(k, m, tuple(ws), i) for i, ws in enumerate(members)]


def _class_walk(alpha: QuadReal, k: int, m: int) -> Iterator[tuple[bool, bytearray]]:
    """(opens, letters) for each length-m factor in circle order, off the
    words module's crossing walk: `letters` is the walk's one buffer, and
    `opens` says that the factor's cut is a coarse cut, so that it opens the
    next class (cut 0, which comes first, always does).  The budget and the
    coarse indices are checked when this is called, before any word."""
    coarse = set(_coarse_indices(k, m))
    return ((j in coarse, letters) for j, letters in _language_walk(alpha, m))


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
