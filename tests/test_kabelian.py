"""Order-k equivalence of words and the interval-driven classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmian_spectra.kabelian import (
    _class_walk,
    classify_brute,
    classify_by_intervals,
    _keys,
    kab_equivalent,
    verify_ternary_property,
)
from sturmian_spectra.quadreal import QuadReal
from sturmian_spectra.words import SturmianSpec, factors_of_length

from reference import counter_signature, kab_equivalent_counts, prefix_suffix_sufficient

FIB_SLOPE = QuadReal(3, -1, 5, 2)
SILVER_SLOPE = QuadReal(-1, 1, 2, 1)
FIB_WORD = SturmianSpec(FIB_SLOPE, FIB_SLOPE)


def _binary(n):
    return st.text(alphabet="01", min_size=n, max_size=n)


word_pairs = st.integers(0, 22).flatmap(lambda n: st.tuples(_binary(n), _binary(n)))


def test_key_known_value():
    """01001 at order 2: the prefix 0, then the blocks 00, 01 (twice) and
    10, each under the integer of its letters, in increasing order."""
    assert _keys([0b01001], 5, 2) == [(0b0, ((0b00, 1), (0b01, 2), (0b10, 1)))]
    # and the same, read off one counting tree for eight words at once
    assert _keys([0b01001] * 8, 5, 2) == [(0b0, ((0b00, 1), (0b01, 2), (0b10, 1)))] * 8


def test_keys_of_different_runs_do_not_mix():
    """Each run reads its rows of counts against its own leaves: 64 words
    of 0s fill one run, whose one leaf is the block 0, and 64 words of 1s
    the next, whose one leaf is 1, and both runs' rows read (0, 64)."""
    keys = _keys([0] * 64 + [(1 << 64) - 1] * 64, 64, 1)
    assert keys == [(0, ((0b0, 64),))] * 64 + [(0, ((0b1, 64),))] * 64


def test_words_of_32_bytes_are_keyed_one_tree_each():
    """A word of 256 letters fills a 32-byte field, one byte past what a
    run's byte sum can carry (a count of 256 would wrap to 0), so each is
    keyed on a tree of its own, and 256 ones stay apart from 256 zeros."""
    assert not kab_equivalent("1" * 256, "0" * 256, 1)
    assert len(classify_brute(["1" * 256, "0" * 256], 1)) == 2


def test_key_degenerates_below_order():
    """Below the order the key is the word itself, so equivalence is
    equality."""
    assert _keys([0b01], 2, 4) == [0b01]
    assert kab_equivalent("01", "01", 4)
    assert not kab_equivalent("01", "10", 4)


def test_order_one_is_letter_counting():
    assert kab_equivalent("0110", "1010", 1)
    assert not kab_equivalent("0110", "1110", 1)


def test_equivalence_requires_equal_length():
    with pytest.raises(ValueError):
        kab_equivalent("0", "00", 2)
    with pytest.raises(ValueError):
        kab_equivalent_counts("0", "00", 2)


def test_known_classes_of_the_fibonacci_factors():
    """Length-5 factors split into four order-2 classes."""
    words = [w for w, _ in factors_of_length(FIB_SLOPE, 5)]
    classes = classify_brute(words, 2)
    assert [c.members for c in classes] == [
        ("00100",),
        ("00101", "01001"),
        ("01010",),
        ("10010", "10100"),
    ]


def test_interval_classification_matches_brute_force():
    """The coarse-family grouping is the signature partition, in circle order."""
    for alpha in (FIB_SLOPE, SILVER_SLOPE):
        for k in range(1, 5):
            for m in range(1, 26):
                words = [w for w, _ in factors_of_length(alpha, m)]
                by_interval = classify_by_intervals(alpha, k, m)
                brute = classify_brute(words, k)
                got = sorted(c.members for c in by_interval if c.members)
                want = sorted(c.members for c in brute)
                assert got == want


@pytest.mark.parametrize(
    "words",
    [["0_1", "001", "011", "0_1"], [" 01", "001", "0 1"], ["-01", "001", "101"], ["0b1", "001", "b01"]],
)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_text_that_int_reads_is_keyed_letter_by_letter(words, k):
    """int(w, 2) reads "0_1", " 01" and "0b1" as 1, the value of "001", and
    "-01" as -1, so these words must be keyed on their letters, each "_",
    " ", "-" or "b" a letter of its own, as the Counter signature counts
    them."""
    groups = {}
    for w in words:
        groups.setdefault(counter_signature(w, k), []).append(w)
    want = sorted(tuple(sorted(g)) for g in groups.values())
    assert sorted(c.members for c in classify_brute(words, k)) == want


def test_interval_classes_carry_their_interval_index():
    classes = classify_by_intervals(FIB_SLOPE, 2, 5)
    assert [c.interval_index for c in classes] == [0, 1, 2, 3]
    assert all(c.k == 2 and c.length == 5 for c in classes)


def test_a_listed_class_walk_holds_each_factor_once():
    """Each step of the walk hands out a word of its own, so a list of the
    whole walk holds the m+1 distinct factors in circle order, not m+1
    references to one buffer that ends as the last factor."""
    for alpha, k, m in (FIB_SLOPE, 2, 5), (SILVER_SLOPE, 3, 40):
        words = [w for _, w in list(_class_walk(alpha, k, m))]
        assert words == [w for w, _ in factors_of_length(alpha, m)]
        assert len(set(words)) == m + 1


def test_shared_ends_decide_order_three_on_fibonacci_factors():
    """At k=3 the slope is steep enough that the two ends say everything."""
    assert prefix_suffix_sufficient(FIB_SLOPE, 3)
    for m in range(2, 21):
        words = [w for w, _ in factors_of_length(FIB_SLOPE, m)]
        edge = min(m, 2)
        for i, u in enumerate(words):
            for v in words[i + 1 :]:
                same_ends = u[:edge] == v[:edge] and u[-edge:] == v[-edge:]
                assert kab_equivalent(u, v, 3) == same_ends


def test_shared_ends_do_not_decide_order_two():
    assert not prefix_suffix_sufficient(FIB_SLOPE, 2)
    assert not prefix_suffix_sufficient(SILVER_SLOPE, 2)
    # and the criterion genuinely fails at order 2: same ends, different counts
    found = False
    for m in range(2, 15):
        words = [w for w, _ in factors_of_length(FIB_SLOPE, m)]
        for i, u in enumerate(words):
            for v in words[i + 1 :]:
                if u[0] == v[0] and u[-1] == v[-1] and not kab_equivalent(u, v, 2):
                    found = True
    assert found


def test_ternary_image_classes_are_decided_by_their_ends():
    for k in (2, 3):
        report = verify_ternary_property(FIB_WORD, k, 12)
        assert report.ok
        assert report.counterexamples == []
        assert report.pairs_checked > 100
    report = verify_ternary_property(FIB_WORD, 3, 80)
    assert report.pairs_checked == 91880 and report.counterexamples == []


def test_ternary_check_validation():
    with pytest.raises(ValueError):
        verify_ternary_property(FIB_WORD, 1, 5)
    with pytest.raises(ValueError):  # the order is refused before any word is read
        classify_brute([], 0)
    steep = SturmianSpec(QuadReal(-1, 1, 5, 2), QuadReal(0))  # slope 0.618...
    with pytest.raises(ValueError):
        verify_ternary_property(steep, 2, 5)


@given(word_pairs, st.integers(1, 4))
@settings(max_examples=100)
def test_signature_equality_matches_raw_counts(pair, k):
    """Prefix + suffix + top-order counts carry all lower-order counts."""
    u, v = pair
    assert kab_equivalent(u, v, k) == kab_equivalent_counts(u, v, k)


@given(word_pairs, st.integers(1, 3))
@settings(max_examples=100)
def test_higher_order_refines_lower_order(pair, k):
    u, v = pair
    if kab_equivalent(u, v, k + 1):
        assert kab_equivalent(u, v, k)


@given(word_pairs, st.text("01", max_size=6), st.text("01", max_size=6),
       st.integers(1, 3))
@settings(max_examples=100)
def test_equivalence_is_a_congruence(pair, x, y, k):
    """Wrapping both words in one context preserves equivalence."""
    u, v = pair
    if kab_equivalent(u, v, k):
        assert kab_equivalent(x + u + y, x + v + y, k)
