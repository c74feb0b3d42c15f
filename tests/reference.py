"""Generic references, independent of the package's fast paths: interval
families by exact sorting and subtraction on QuadReal points, ignoring the
integer circle order, and k-abelian signatures by counting string slices,
ignoring the bit masks."""

from collections import Counter

from sturmian_spectra.geometry import Interval, IntervalFamily
from sturmian_spectra.kabelian import KAbelianSignature


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
