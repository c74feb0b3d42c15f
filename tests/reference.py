"""Generic references for interval families, independent of the package's
integer circle order: exact sorting and subtraction on QuadReal points."""

from sturmian_spectra.geometry import Interval, IntervalFamily


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
