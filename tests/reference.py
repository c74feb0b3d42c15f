"""Generic references, independent of the package's fast paths: interval
families by exact sorting and subtraction on QuadReal points, ignoring the
integer circle order; k-abelian signatures by counting string slices,
ignoring the bit masks; the pair coder one letter at a time; bound reports
with one exponent per period; and the least Lagrange denominator by
folding every rotation of the cycle afresh."""

from collections import Counter
from functools import cache

from sturmian_spectra.cf import _moebius
from sturmian_spectra.geometry import (
    Interval,
    IntervalFamily,
    _checked_coarse_indices,
    _convergent_past,
    _dist_rank,
    _rank_gaps,
)
from sturmian_spectra.kabelian import KAbelianSignature
from sturmian_spectra.spectra import BoundReport, _covered_floor


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


def counter_signature(u, k):
    """The signature of u at order k with its length-k blocks counted by a
    Counter over slices, sorted by block."""
    m = len(u)
    edge = min(m, k - 1)
    counts = ()
    if m >= k:
        counts = tuple(sorted(Counter(u[i : i + k] for i in range(m - k + 1)).items()))
    return KAbelianSignature(k, m, u[:edge], u[m - edge :] if edge else "", counts)


def code_pair_by_letter(alpha, a, b, d, n, zero_in_i0):
    """words._code_pair one letter at a time: step the residue r of the
    rotation on Z/(d*q) and compare it with the cut d*(q - p mod q)."""
    p, q = _convergent_past(alpha, abs(b) + d * n)
    step, mod = d * (p % q), d * q
    cut, r = mod - step, (a * q + b * p) % mod
    letters = []
    for _ in range(n):
        letters.append("1" if ((r >= cut) if zero_in_i0 else (r > cut or r == 0)) else "0")
        r = (r + step) % mod
    return "".join(letters)


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
    p, q = _convergent_past(alpha, 2 * convs[-1].q * (convs[-2].q + 1) + 4 * k)
    level = _rank_gaps(range(2 * k - 1), p, q)
    shortest, longest = min(level), max(level)
    report = BoundReport(k, [], [], [], [], [])
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
                report.k1_monotone_violations.append((t, m))
    return report


def least_rotation_denominator(cycle):
    """The least c of the fold (a, b, c, d) over the rotations of the
    cycle, each rotation folded afresh."""
    return min(_moebius(cycle[j:] + cycle[:j])[2] for j in range(len(cycle)))
