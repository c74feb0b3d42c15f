"""Circle partitions: exact cut families, locating, the three-distance law."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmian_spectra.geometry import (
    LEFT_CLOSED,
    RIGHT_CLOSED,
    _coarse_indices,
    ikm_intervals,
    level_intervals,
)
from sturmian_spectra.quadreal import QuadReal

from reference import midpoint, sorted_family

FIB_SLOPE = QuadReal(3, -1, 5, 2)
SILVER_SLOPE = QuadReal(-1, 1, 2, 1)  # sqrt 2 - 1
ALT_SLOPE = QuadReal(-1, 1, 3, 1)  # sqrt 3 - 1

points_in_unit = st.fractions(
    min_value=0, max_value=Fraction(199, 200), max_denominator=200
).map(QuadReal.from_fraction)


def _contains(fam, i, x, conv):
    """Whether interval i of fam contains circle point x, per the convention."""
    iv = fam.intervals[i]
    end = iv.start + iv.length
    for lift in (x, x + 1):
        if conv.zero_in_I0:
            if iv.start <= lift < end:
                return True
        elif iv.start < lift <= end:
            return True
    return False


def test_level_family_shape_and_lengths():
    fam = level_intervals(FIB_SLOPE, 2)
    assert len(fam) == 3
    assert min(fam.lengths) == QuadReal(-2, 1, 5, 1)  # sqrt5 - 2
    assert max(fam.lengths) == FIB_SLOPE


def test_lengths_tile_the_whole_circle():
    for n in [1, 2, 7, 30]:
        fam = level_intervals(FIB_SLOPE, n)
        total = fam.lengths[0]
        for length in fam.lengths[1:]:
            total = total + length
        assert total == 1


def test_levels_refine_each_other():
    """Cuts of level n stay cuts at level n+1."""
    prev = level_intervals(SILVER_SLOPE, 4)
    for n in range(5, 9):
        fam = level_intervals(SILVER_SLOPE, n)
        assert set(prev.cuts) < set(fam.cuts)
        prev = fam


def test_three_distance_law():
    """Each level family shows at most three lengths, largest = sum of others."""
    for alpha in [FIB_SLOPE, SILVER_SLOPE, ALT_SLOPE]:
        for n in range(1, 121):
            distinct = sorted(set(level_intervals(alpha, n).lengths))
            assert len(distinct) <= 3
            if len(distinct) == 3:
                assert distinct[2] == distinct[0] + distinct[1]


def test_rotating_all_cuts_preserves_lengths():
    base = level_intervals(FIB_SLOPE, 9)
    shift = QuadReal.from_fraction(Fraction(2, 7))
    moved = sorted_family([(c + shift).frac() for c in base.cuts])
    assert sorted(moved.lengths) == sorted(base.lengths)


def test_coarse_family_sizes():
    """And the coarse cut indices come ascending and each once: 0..j and
    the same run shifted by m - j, for j = min(m, k-1)."""
    for k in range(1, 6):
        for m in range(1, 13):
            fam = ikm_intervals(FIB_SLOPE, k, m)
            assert len(fam) == min(2 * k, m + 1)
            j = min(m, k - 1)
            assert list(_coarse_indices(k, m)) == sorted({*range(j + 1), *range(m - j, m + 1)})


def test_coarse_cuts_are_a_subfamily_of_the_fine_cuts():
    for k in range(1, 5):
        for m in range(k, 12):
            coarse = set(ikm_intervals(ALT_SLOPE, k, m).cuts)
            fine = set(level_intervals(ALT_SLOPE, m).cuts)
            assert coarse <= fine


def test_locate_zero_respects_convention():
    fam = level_intervals(FIB_SLOPE, 3)
    zero = QuadReal(0)
    assert fam.locate(zero) == 0  # zero opens the first interval
    assert fam.locate(zero, LEFT_CLOSED) == 0
    assert fam.locate(zero, RIGHT_CLOSED) == len(fam) - 1  # zero closes the last one


def test_conventions_agree_off_the_cuts():
    fam = level_intervals(SILVER_SLOPE, 6)
    x = QuadReal.from_fraction(Fraction(1, 3))
    assert x not in set(fam.cuts)
    assert fam.locate(x, LEFT_CLOSED) == fam.locate(x, RIGHT_CLOSED)
    cut = fam.cuts[2]
    assert fam.locate(cut, LEFT_CLOSED) == 2
    assert fam.locate(cut, RIGHT_CLOSED) == 1


def test_orbit_points_are_reduced_mod_one():
    """The cuts {-j*alpha}, built from ceil(j*p/q) - j*alpha, lie in [0, 1),
    also for slopes outside (0, 1)."""
    for alpha in (FIB_SLOPE, FIB_SLOPE + 2, -FIB_SLOPE):
        pts = level_intervals(alpha, 5).cuts
        assert all(0 <= p < 1 for p in pts)
        assert pts[0] == 0
        assert (-alpha).frac() in pts
    assert 1 - FIB_SLOPE in level_intervals(FIB_SLOPE, 5).cuts


def test_family_rejects_bad_input():
    with pytest.raises(ValueError):
        level_intervals(QuadReal.from_fraction(Fraction(1, 3)), 4)
    with pytest.raises(ValueError):
        ikm_intervals(FIB_SLOPE, 0, 5)


@given(points_in_unit, st.integers(1, 40))
@settings(max_examples=100)
def test_locate_is_total_and_correct(x, n):
    """Every circle point lands in exactly one interval of each family."""
    fam = level_intervals(FIB_SLOPE, n)
    for conv in (LEFT_CLOSED, RIGHT_CLOSED):
        i = fam.locate(x, conv)
        assert _contains(fam, i, x, conv)
        assert sum(1 for j in range(len(fam)) if _contains(fam, j, x, conv)) == 1


def test_midpoints_locate_to_their_own_interval():
    fam = level_intervals(ALT_SLOPE, 11)
    for conv in (LEFT_CLOSED, RIGHT_CLOSED):
        for i, iv in enumerate(fam.intervals):
            assert fam.locate(midpoint(iv), conv) == i
