"""Generic references, independent of the package's fast paths: interval
families by exact sorting and subtraction on QuadReal points, ignoring the
integer circle order; the longest length of a family of orbit cuts by
sorting the cut indices and building a pair for every length;
k-abelian equivalence by its raw definition,
signatures by counting string slices, ignoring the bit masks, and keys
on a counting tree of their own for each word, not one per run; whether
shared ends alone decide equivalence, from the slope's distance to an
integer; the pair coder one letter at a time; bound reports with one
exponent per period; the least Lagrange denominator by folding every
rotation of the cycle afresh; the output of `classes` built whole before
it is written; a command line parsed whole by the top-level parser; the
balance of two binary words by counting; continued fraction text parsed
by two regular expressions; the sigma-image language by every window of
every image; the ternary report by four slices per pair; the factors at
the level cuts by one buffer flipped two bits per crossing, and the
oracle's length-m blocks by integers flipped alike; and a radicand's
square part by trial division."""

import io
import json
import re
from collections import Counter
from functools import cache
from math import isqrt

from sturmian_spectra.cf import (
    CFSyntaxError,
    ContinuedFraction,
    _convergent_past,
    _moebius,
    _quotients_of,
)
from sturmian_spectra.cli import _build_parser
from sturmian_spectra.geometry import (
    Interval,
    IntervalFamily,
    _checked_coarse_indices,
    _circle_order,
    _dist_rank,
    _rank_gaps,
    ikm_intervals,
)
from sturmian_spectra.kabelian import TernaryReport, _digits, _keys, classify_by_intervals
from sturmian_spectra.quadreal import _SMALL_PRIMES, dist_to_int
from sturmian_spectra.spectra import BoundReport, _covered_floor
from sturmian_spectra.words import _code_pair, factors_of_length, sigma_image


def sorted_family(points):
    """The circle cut at the distinct points, all in [0, 1): sorted,
    deduplicated, and each length the gap to the next cut, the last one
    wrapping through 1."""
    ordered = sorted(points)
    # equal values sort next to each other whatever their spelling
    cuts = ordered[:1] + [b for a, b in zip(ordered, ordered[1:]) if b != a]
    ends = cuts[1:] + [1 + cuts[0]]
    return IntervalFamily(tuple(Interval(a, b - a) for a, b in zip(cuts, ends)))


def midpoint(interval):
    """The circle point halfway along the interval."""
    return (interval.start + interval.length / 2).frac()


def kab_equivalent_counts(u, v, k):
    """The raw definition of k-abelian equivalence: equal counts of every
    factor of length <= k."""
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


def counter_signature(u, k):
    """The signature of u at order k, (length, prefix, suffix, counts): the
    ends of length min(len(u), k-1) and the length-k blocks counted by a
    Counter over slices, sorted by block.  Two words of equal length are
    k-abelian equivalent exactly when their signatures are equal."""
    m = len(u)
    edge = min(m, k - 1)
    counts = ()
    if m >= k:
        counts = tuple(sorted(Counter(u[i : i + k] for i in range(m - k + 1)).items()))
    return m, u[:edge], u[m - edge :] if edge else "", counts


def tree_key(word, m, k, width=1):
    """The key at order k of the length-m word whose digits, `width` bits
    each, are `word`, on a counting tree of its own: the word itself when
    m < k, else (prefix, counts), each length-k block counted under the
    integer of its digits, in increasing order, blocks that do not occur
    left out.  The root has a bit at each window start, and the word
    shifted right by s splits each node by bit s of its windows' blocks,
    for s = width*k-1 down to 0."""
    if m < k:
        return word
    nodes = [(0, ((1 << width * (m - k + 1)) - 1) // ((1 << width) - 1))]
    for shift in range(width * k - 1, -1, -1):
        o, children = word >> shift, []
        for b, node in nodes:
            one = node & o
            if node ^ one:
                children.append((2 * b, node ^ one))
            if one:
                children.append((2 * b + 1, one))
        nodes = children
    return word >> width * (m - k + 1), tuple((b, node.bit_count()) for b, node in nodes)


def is_balanced_pair(u, v):
    """Equal length and the counts of '0' differ by at most one."""
    if len(u) != len(v):
        raise ValueError("balance is defined for equal-length words")
    if (set(u) | set(v)) - {"0", "1"}:
        raise ValueError("balance check expects binary words")
    return abs(u.count("0") - v.count("0")) <= 1


def prefix_suffix_sufficient(alpha, k):
    """Whether shared prefix+suffix of length k-1 alone decides equivalence
    of equal-length factors, which happens iff 2(k-1)*dist(alpha) > 1."""
    if k < 1:
        raise ValueError("order k must be >= 1")
    return 2 * (k - 1) * dist_to_int(alpha) > 1


def code_pair_by_letter(alpha, a, b, d, n, zero_in_i0):
    """words._code_pair one letter at a time: step the residue r of the
    rotation on Z/(d*q) and compare it with the cut d*(q - p mod q)."""
    p, q = _convergent_past(_quotients_of(alpha), abs(b) + d * n)
    step, mod = d * (p % q), d * q
    cut, r = mod - step, (a * q + b * p) % mod
    letters = []
    for _ in range(n):
        letters.append("1" if ((r >= cut) if zero_in_i0 else (r > cut or r == 0)) else "0")
        r = (r + step) % mod
    return "".join(letters)


def longest_by_index_sort(indices, p, q):
    """The rank G of the first longest length of the circle cut at
    {-j*alpha}, j in `indices` (which hold 0), with its cut (c, j) and pair
    (A, B), for a convergent p/q past every index: the indices sorted on
    their ranks, every cut and length turned into pairs, and the first
    length of the greatest rank A*q + B*p kept."""
    cuts = [(-(-j * p // q), j) for j in _circle_order(indices, p, q)]
    ends = cuts[1:] + [(1, 0)]  # the last length wraps to 1 - 0*alpha
    lengths = [(cb - ca, a - b) for (ca, a), (cb, b) in zip(cuts, ends)]
    gaps = [a * q + b * p for a, b in lengths]
    i = gaps.index(max(gaps))
    return gaps[i], cuts[i], lengths[i]


def kab_exponent(k, m, p, q):
    """A_k(m) = G // S + (G != S) for one period, its coarse family ranked
    afresh."""
    g, s = max(_rank_gaps(_checked_coarse_indices(k, m), p, q)), _dist_rank(m, p, q)
    return _covered_floor(g, s, m, m, q) + (g != s)


def bound_check_by_period(cf, k, t_range):
    """exponent_bound_check with one kab_exponent call per period, cached,
    every period tested again for each t, on a convergent past
    2*q_{T+2}*(q_{T+1} + 1) + 4k."""
    alpha = cf.value()
    ts = sorted(set(t_range))
    convs = cf.convergents(max(ts) + 2)
    p, q = _convergent_past(_quotients_of(alpha), 2 * convs[-1].q * (convs[-2].q + 1) + 4 * k)
    level = _rank_gaps(range(2 * k - 1), p, q)
    shortest, longest = min(level), max(level)
    report = BoundReport(k, [], [], [], [])
    monotone = []  # the (t, m) with m < q_t and A_1(m) >= A_1(q_t)
    exponent = cache(lambda m: kab_exponent(k, m, p, q))
    for t in ts:
        q_t = convs[t].q
        if _dist_rank(q_t, p, q) >= shortest:
            continue
        report.t_checked.append(t)
        a_qt = exponent(q_t)
        bound = a_qt + 2
        for m in range(1, convs[t + 1].q):
            a_m = exponent(m)
            if a_m > bound:
                report.convergent_slack_violations.append((t, m))
            elif a_m == bound:
                report.improved_slack_exceedances.append((t, m))
            s = _dist_rank(m, p, q)
            if s < shortest:
                diff = a_m - _covered_floor(longest, s, m, 2 * k - 2, q)
                if not -1 <= diff <= 2 and m not in report.approx_window_violations:
                    report.approx_window_violations.append(m)
            if k == 1 and m < q_t and a_m >= a_qt:
                monotone.append((t, m))
    assert monotone == [], monotone  # A_1 grows along convergent denominators
    return report


def least_rotation_denominator(cycle):
    """The least c of the fold (a, b, c, d) over the rotations of the
    cycle, each rotation folded afresh."""
    return min(_moebius(cycle[j:] + cycle[:j])[2] for j in range(len(cycle)))


def classes_output(cf, k, m, output, emit_circle):
    """The stdout of `classes` for the irrational cf, built whole: the
    classes as a list, then json.dumps of the whole document, or one print
    per class with its words joined."""
    alpha = cf.value()
    classes = classify_by_intervals(alpha, k, m)
    fam = ikm_intervals(alpha, k, m)
    out = io.StringIO()
    if output == "json":
        doc = {
            "cf": cf.render(),
            "k": k,
            "m": m,
            "classes": [
                {
                    "words": list(c.members),
                    "interval": {
                        "index": c.interval_index,
                        **fam.intervals[c.interval_index].to_json(),
                    },
                }
                for c in classes
            ],
        }
        if emit_circle:
            doc["cuts"] = [cut.to_json() for cut in fam.cuts]
        print(json.dumps(doc), file=out)
    else:
        print(f"cf: {cf.render()}  k={k}  m={m}  classes={len(classes)}", file=out)
        for c in classes:
            iv = fam.intervals[c.interval_index]
            words = " ".join(c.members)
            print(
                f"class {c.interval_index}: {{{words}}}  "
                f"start={iv.start.decimal(12)} length={iv.length.decimal(12)}",
                file=out,
            )
        if emit_circle:
            print("cuts:", file=out)
            for i, cut in enumerate(fam.cuts):
                print(f"  {i}: {cut} = {cut.decimal()}", file=out)
    return out.getvalue()


def full_parse(argv):
    """The namespace of argv parsed whole by the top-level parser, whose
    subparsers action hands the command's arguments on to its parser."""
    return _build_parser().parse_args(argv)


_CF_OUTER = re.compile(r"\[(-?\d+)(?:;(.+))?\]")
_CF_TAIL = re.compile(r"(?:(\d+(?:,\d+)*),)?\((\d+(?:,\d+)*)\)|(\d+(?:,\d+)*)")


def regex_parse(text):
    """ContinuedFraction.parse(text) by two regular expressions, one for the
    brackets and a0 and one for the quotient list, on the text with every
    whitespace run removed."""
    compact = re.sub(r"\s+", "", text)
    m = _CF_OUTER.fullmatch(compact)
    if not m:
        raise CFSyntaxError(f"not a continued fraction: {text!r}")
    pre = [int(m.group(1))]
    tail = m.group(2)
    per: list[int] = []
    if tail is not None:
        tm = _CF_TAIL.fullmatch(tail)
        if not tm:
            raise CFSyntaxError(f"malformed quotient list in {text!r}")
        if tm.group(3) is not None:
            pre += [int(x) for x in tm.group(3).split(",")]
        else:
            if tm.group(1):
                pre += [int(x) for x in tm.group(1).split(",")]
            per = [int(x) for x in tm.group(2).split(",")]
    if any(a < 1 for a in pre[1:]) or any(b < 1 for b in per):
        raise CFSyntaxError(f"partial quotients beyond a0 must be >= 1: {text!r}")
    return ContinuedFraction(pre, per)


def sigma_window_scan(alpha, n):
    """sigma_factors_of_length by every window: every length-n window of the
    image of each length-(n+1) factor, deduplicated and sorted."""
    if n < 1:
        raise ValueError("factor length must be >= 1")
    images = (sigma_image(w) for w, _ in factors_of_length(alpha, n + 1))
    windows = {img[i : i + n] for img in images for i in range(len(img) - n + 1)}
    return tuple(sorted(windows))


def ternary_by_pairs(spec, k, max_len, language=sigma_window_scan):
    """verify_ternary_property over `language`(alpha, ell) for each length
    ell, with four slices per pair: each pair of words whose equal keys
    disagree with equal ends of length min(ell, k-1) is a counterexample."""
    if k < 2:
        raise ValueError("the substituted coding property needs k >= 2")
    if "00" not in {w for w, _ in factors_of_length(spec.alpha, 2)}:
        raise ValueError("slope's coding must contain 00 (slope below 1/2)")
    pairs, found = 0, []
    for ell in range(1, max_len + 1):
        words = language(spec.alpha, ell)
        width, digits = _digits(words)
        keys = _keys(digits, ell, k, width)
        edge = min(ell, k - 1)
        pairs += len(words) * (len(words) - 1) // 2
        for i, u in enumerate(words):
            for j in range(i + 1, len(words)):
                v = words[j]
                same_ends = u[:edge] == v[:edge] and u[ell - edge :] == v[ell - edge :]
                if (keys[i] == keys[j]) != same_ends:
                    found.append((u, v))
    return TernaryReport(k, max_len, pairs, found)


def crossing_walk_by_flips(alpha, n):
    """(j, letters) for each cut j in circle order, on the first convergent
    past n: one bytearray, changed in place, holds the factor whose level-n
    interval starts at cut j, the coding of intercept 0 at cut 0 and two
    letters flipped per crossing after it."""
    p, q = _convergent_past(_quotients_of(alpha), n)
    order = _circle_order(range(n + 1), p, q)
    letters = bytearray(_code_pair(p, q, 0, 0, 1, n, True), "ascii")
    yield 0, letters
    for j in order[1:]:
        letters[j - 1] = 49  # ord("1"): entering the arc of letter j-1
        if j < n:
            letters[j] = 48  # ord("0"): leaving the arc of letter j
        yield j, letters


def block_classes_by_flips(alpha, m, keys):
    """spectra._block_classes with each length-m factor's integer flipped
    two bits per crossing off the first word, in the order of
    crossing_walk_by_flips."""
    p, q = _convergent_past(_quotients_of(alpha), m)
    order = _circle_order(range(m + 1), p, q)
    top = 1 << (m - 1)
    block = int(_code_pair(p, q, 0, 0, 1, m, True), 2)
    blocks = [block]
    for j in order[1:]:
        block |= top >> (j - 1)  # entering the arc of letter j-1
        if j < m:
            block &= ~(top >> j)  # leaving the arc of letter j
        blocks.append(block)
    ids = {}
    circle = [ids.setdefault(key, len(ids)) for key in keys(blocks)]
    at = [0] * (m + 1)
    for j, c in zip(order, circle):
        at[j] = c
    moves = [j for j, c, before in zip(order, circle, circle[-1:] + circle) if c != before]
    return dict(zip(blocks, circle)), at, moves


def split_radicand_by_trial(n):
    """quadreal._split_radicand by trial division: each prime below 1000
    divided out while it divides n, up to the first whose square passes the
    cofactor, then one isqrt test on the cofactor."""
    f = d = 1
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            f *= p ** (e // 2)
            d *= p ** (e % 2)
    s = isqrt(n)
    if s * s == n:
        return f * s, d
    return f, d * n
