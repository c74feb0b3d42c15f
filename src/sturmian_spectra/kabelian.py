"""k-abelian equivalence of words and its geometric classification.

Two words of equal length are k-abelian equivalent when every nonempty
word of length at most k occurs in both the same number of times.  For
words of length at least k-1 this is the same as sharing the length-(k-1)
prefix and suffix and having equal counts of length-k blocks (Karhumaki,
Saarela & Zamboni 2013).  The suffix follows from the other two: for a
word of length m >= k, a (k-1)-factor u occurs
    sum_a c(ua) + [u is the suffix] = sum_a c(au) + [u is the prefix]
times, c counting length-k blocks, so the key below is the prefix and the
counts alone.

Words are keyed as integers of digits.  The words keyed in one call (one
word list, one pair, one length) share a digit map: a letter's digit is
its index among all their letters, sorted, with 0 and 1 always counted,
and each digit takes `width` bits, the fewest that hold them all.  Binary
text is its own digit string at width 1, so int() reads it as it is; any
other text goes through one str.translate.  In a length-m word letter i
fills the width bits from bit width*(m-1-i) up.  Number the length-k
windows b = 0..m-k from the right: window b starts at letter m-k-b, and
its block fills the width*k bits from bit width*b up.  The prefix is the
word shifted right by width*(m-k+1).

A word list is keyed in runs of whole words, at most _RUN_BITS bits each,
on one counting tree per run.  A run lays its words side by side in
fields of whole bytes, the first word lowest, as one integer built by one
bytes join.  The tree's root is the window-start mask, with one bit at
each window start of every word: in each field bits 0, width, ...,
width*(m-k), the repunit of m-k+1 digits in base 2^width, so no window
crosses a field.  Bit width*b + s of a field is bit s of window b's
block, so ANDing the mask with the run shifted right by s, for s =
width*k-1 down to 0, splits the windows by the bits of their blocks: a
node is a block's leading bits and the set of windows whose blocks start
with them.  The nonzero leaves are the blocks that occur in the run, each
under the integer of its digits, in increasing order, that is in
lexicographic order of the blocks, with no sort.  A node whose windows
all have the same bit passes on whole; only a node that splits costs an
XOR.  A word's count of a block is the popcount of its field in the leaf,
and one pass reads them all: bytes.translate puts each byte's popcount in
its place, and one multiplication by the field's repunit of bytes sums
each field into its top byte (a field of at most 31 bytes counts at most
248 windows, so no sum carries).  So a run costs one AND of run-sized
integers per node, and a handful of linear passes per leaf, whatever its
number of words.  A Sturmian language has j+1 factors of length j, one of
them right special, so a run of binary Sturmian factors takes O(k^2)
ANDs and k XORs.  A word of more than 31 bytes, or a list of fewer than 8
bytes in all, where the passes cost more than they save, is a run of its
own, read by int.bit_count.

A key is spelled by the blocks' digits and counts alone, (prefix,
((block, count), ...)) with the blocks that do not occur left out, and
not by the leaves of the run it came from, so keys of one word list, one
digit map, compare across runs and calls.  A run builds each spelling
once per distinct row of counts, and its words share it.

For factors of a rotation coding the classes have a geometric shape: two
length-m factors are equivalent at order k exactly when their level-m
intervals land in the same interval of the coarse family cut at the first
and last few orbit points.  The coarse cuts are level-m cuts, so this is a
question about circle ranks alone: the factor at rank r belongs to the
coarse cut of largest rank <= r.  classify_by_intervals exploits that and
classify_brute ignores it, so the two can be played against each other.
The brute oracle of the spectra module ignores it too.  It keys the m+1
length-m factors of its slope up front, as integers read off one text by
the window lemma of the words module docstring, every m-block of a longer
factor being one of them, and takes from the keys alone the moves: the
level-m cuts where the class changes, in circle order.  An m-block of a
longer factor is the length-m factor at a shifted point, so it changes
class only where that point crosses a move, and the walk along a longer
language visits those crossings and no other, with no string and no sort
of the language.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat

from ._record import Record
from .geometry import EndpointConvention, LEFT_CLOSED, _coarse_indices
from .quadreal import QuadReal
from .words import SturmianSpec, _factor_words, _language_walk, sigma_factors_of_length

__all__ = [
    "kab_equivalent",
    "FactorClass",
    "classify_brute",
    "classify_by_intervals",
    "TernaryReport",
    "verify_ternary_property",
]


_RUN_BITS = 4096  # most bits of words keyed on one counting tree
_POPCOUNT = bytes(map(int.bit_count, range(256)))  # each byte value's popcount


def _digits(words: Sequence[str]) -> tuple[int, list[int]]:
    """(width, digits) of words keyed in one call: the bits per letter, and
    each word as the integer of its letters' indices in their sorted
    alphabet with 0 and 1 in it (see the module docstring)."""
    text = "".join(words)
    # counted, not int()'s test: int() alone would also take "_", "0b", a sign or spaces
    if text.count("0") + text.count("1") == len(text):
        return 1, [int(w or "0", 2) for w in words]
    letters = sorted(set(text).union("01"))
    width = (len(letters) - 1).bit_length()
    table = {ord(c): format(i, f"0{width}b") for i, c in enumerate(letters)}
    return width, [int(w.translate(table), 2) for w in words]


def _leaves(digits: int, mask: int, width: int, k: int) -> list[tuple[int, int]]:
    """The nonzero leaves (block, windows) of the counting tree of `digits`
    rooted at the window starts `mask`, in increasing order of block (see
    the module docstring)."""
    nodes = [(0, mask)]
    for shift in range(width * k - 1, -1, -1):
        o, children = digits >> shift, []
        for b, node in nodes:
            one = node & o  # the windows whose bit here is 1
            if one == node:
                children.append((2 * b + 1, node))
            elif one:
                children.append((2 * b, node ^ one))
                children.append((2 * b + 1, one))
            else:
                children.append((2 * b, node))
        nodes = children
    return nodes


def _keys(words: Sequence[int], m: int, k: int, width: int = 1) -> list:
    """The keys at order k >= 1 of the length-m words whose digits, `width`
    bits each, are `words` (see the module docstring): each word itself
    when m < k, else (prefix, counts), each length-k block that occurs
    counted under the integer of its digits, in increasing order."""
    if m < k:
        return list(words)
    top = width * (m - k + 1)
    unit = ((1 << top) - 1) // ((1 << width) - 1)  # one word's window starts
    size = -(-width * m // 8)  # the bytes of a word's field
    per_run = _RUN_BITS // (8 * size) if size < 32 else 1
    keys = []
    if per_run < 2 or len(words) * size < 8:
        # equal keys share one tuple: the oracle holds m+1 keys at once, 4.6 MB
        # more at m = 10 001 if each kept its own
        seen: dict[tuple, tuple] = {}
        for w in words:
            # from a list: tuple() of a generator grows and shrinks its result, and
            # the freed sizes raised the oracle sweep's peak RSS by about 0.5 MB
            key = (w >> top, tuple([(b, node.bit_count()) for b, node in _leaves(w, unit, width, k)]))
            keys.append(seen.setdefault(key, key))
        return keys
    field_ones = int.from_bytes(b"\1" * size, "little")
    for i in range(0, len(words), per_run):
        part = words[i : i + per_run]
        n = len(part)
        fields = b"".join(map(int.to_bytes, reversed(part), repeat(size), repeat("big")))
        mask = int.from_bytes(unit.to_bytes(size, "big") * n, "big")
        blocks, nodes = zip(*_leaves(int.from_bytes(fields, "big"), mask, width, k))
        counts = [  # per leaf, each word's count, off the top byte of its field
            (int.from_bytes(node.to_bytes(n * size, "little").translate(_POPCOUNT), "little")
             * field_ones).to_bytes((n + 1) * size, "little")[size - 1 : n * size : size]
            for node in nodes
        ]
        rows = list(zip(map(int.__rshift__, part, repeat(top)), *counts))
        key_of = {  # one spelling per distinct row of this run's leaves
            row: (row[0], tuple([(b, c) for b, c in zip(blocks, row[1:]) if c]))
            for row in set(rows)
        }
        keys += map(key_of.__getitem__, rows)
    return keys


def kab_equivalent(u: str, v: str, k: int) -> bool:
    """Equivalence at order k; words must have equal length."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    if len(u) != len(v):
        raise ValueError("k-abelian equivalence compares equal-length words")
    width, digits = _digits([u, v])
    a, b = _keys(digits, len(u), k, width)
    return a == b


class FactorClass(Record):
    __slots__ = {
        "k": "int",
        "length": "int",
        "members": "tuple[str, ...]",
        "interval_index": "int | None",
    }
    _defaults = (None,)


def classify_brute(words: Iterable[str], k: int) -> list[FactorClass]:
    """Partition equal-length words by their key, no geometry involved.

    Classes are ordered by their lexicographically smallest member and
    members are sorted, so the output is deterministic for set inputs.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    words = list(words)
    length = len(words[0]) if words else 0
    if any(len(w) != length for w in words):
        raise ValueError("all words must share one length")
    width, digits = _digits(words)
    groups: dict[int | tuple, list[str]] = {}
    for w, key in zip(words, _keys(digits, length, k, width)):
        groups.setdefault(key, []).append(w)
    classes = [FactorClass(k, length, tuple(sorted(g))) for g in groups.values()]
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
    for opens, word in _class_walk(alpha, k, m):
        if opens:
            members.append([])
        members[-1].append(word)
    return [FactorClass(k, m, tuple(ws), i) for i, ws in enumerate(members)]


def _class_walk(alpha: QuadReal, k: int, m: int) -> Iterator[tuple[bool, str]]:
    """(opens, word) for each length-m factor in circle order, off the words
    module's crossing walk: `opens` says that the factor's cut is a coarse
    cut, so that it opens the next class (cut 0, which comes first, always
    does).  The budget and the coarse indices are checked when this is
    called, before any word."""
    coarse = set(_coarse_indices(k, m))
    return ((j in coarse, word) for j, word in _language_walk(alpha, m))


class TernaryReport(Record):
    __slots__ = {
        "k": "int",
        "max_len": "int",
        "pairs_checked": "int",
        "counterexamples": "list[tuple[str, str]]",
    }

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
    pairs, found = 0, []
    for ell in range(1, max_len + 1):
        words = sigma_factors_of_length(spec.alpha, ell)
        width, digits = _digits(words)
        edge = min(ell, k - 1)
        word_ends = [(w[:edge], w[ell - edge :]) for w in words]
        rows = list(zip(words, _keys(digits, ell, k, width), word_ends))
        pairs += len(words) * (len(words) - 1) // 2
        for i, (u, key, ends) in enumerate(rows):
            for v, other_key, other_ends in rows[i + 1 :]:
                if (key == other_key) != (ends == other_ends):
                    found.append((u, v))
    return TernaryReport(k, max_len, pairs, found)
