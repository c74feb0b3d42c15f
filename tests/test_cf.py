"""Continued fractions: parsing, exact values, convergents, Lagrange constants."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmian_spectra.cf import CFSyntaxError, ContinuedFraction
from sturmian_spectra.quadreal import QuadReal, sqrt

from reference import regex_parse

FIB = ContinuedFraction.parse("[0; 2, (1)]")
GOLDEN_TAIL = ContinuedFraction.parse("[0; (1)]")
SILVER = ContinuedFraction.parse("[0; (2)]")
SPIKE = ContinuedFraction.parse("[0; 3, 1, 1, 1, 100, (1)]")
ALT = ContinuedFraction.parse("[0; (1, 2)]")


def _truncation(cf, depth):
    """Finite truncation evaluated exactly as a Fraction (backward fold)."""
    quots = [cf.partial_quotient(t) for t in range(depth + 1)]
    acc = Fraction(quots[-1])
    for a in reversed(quots[:-1]):
        acc = a + 1 / acc
    return acc


def test_parse_render_round_trip_known_texts():
    for text in ["[0; 2, (1)]", "[1; (2, 3)]", "[-1; 2, 7]", "[3]", "[0; (1, 2)]"]:
        assert ContinuedFraction.parse(text).render() == text


def test_canonical_form_identities():
    """Different spellings of one number collapse to the same object."""
    assert ContinuedFraction.parse("[0; 2, 1, (1)]") == FIB
    assert ContinuedFraction.parse("[0; (1, 1)]") == GOLDEN_TAIL
    assert ContinuedFraction.parse("[0; (2, 2, 2)]") == SILVER
    assert ContinuedFraction.parse("[0; 2, 1]") == ContinuedFraction.parse("[0; 3]")
    assert ContinuedFraction((0, 2, 1), (1,)) == FIB


def test_parse_rejects_malformed_text():
    for text in ["", "fib", "[0; ]", "[0; (0)]", "[0; -2]", "[0; (1), 2]",
                 "0; 1, 2", "[0; 1.5]", "[0; ()]"]:
        with pytest.raises(CFSyntaxError):
            ContinuedFraction.parse(text)


def test_values_satisfy_their_minimal_polynomials():
    """Exact algebraic checks, independent of any numeric evaluation."""
    v = FIB.value()
    assert (2 * v - 3) * (2 * v - 3) == 5  # v = (3 - sqrt 5)/2
    g = GOLDEN_TAIL.value()
    assert g * g + g == 1
    s = SILVER.value()
    assert (s + 1) * (s + 1) == 2
    a = ALT.value()
    assert a * a + 2 * a == 2  # v = sqrt 3 - 1


def test_rational_value_is_exact():
    assert ContinuedFraction.parse("[0; 3]").value() == Fraction(1, 3)
    assert ContinuedFraction.parse("[2; 1, 4]").value() == Fraction(14, 5)
    assert ContinuedFraction.parse("[-1; 2]").value() == Fraction(-1, 2)


def test_value_matches_deep_truncation():
    eps = QuadReal.from_fraction(Fraction(1, 10**25))
    for cf in [FIB, GOLDEN_TAIL, SILVER, SPIKE, ALT]:
        approx = QuadReal.from_fraction(_truncation(cf, 70))
        assert abs(cf.value() - approx) < eps


def test_convergent_denominators_frozen():
    assert [c.q for c in FIB.convergents(5)] == [1, 2, 3, 5, 8, 13]
    assert [c.q for c in GOLDEN_TAIL.convergents(4)] == [1, 1, 2, 3, 5]
    assert [c.p for c in GOLDEN_TAIL.convergents(4)] == [0, 1, 1, 2, 3]
    assert [c.q for c in SILVER.convergents(4)] == [1, 2, 5, 12, 29]


def test_a_convergent_is_a_plain_triple():
    """Convergent keeps its fields, repr and tuple equality, and a slot-less
    instance: no per-convergent dict."""
    conv = FIB.convergents(3)[-1]
    assert conv._fields == ("t", "p", "q")
    assert repr(conv) == "Convergent(t=3, p=2, q=5)"
    assert conv == (3, 2, 5)
    assert not hasattr(conv, "__dict__")


def test_convergents_match_direct_evaluation():
    for cf in [FIB, SILVER, SPIKE, ALT]:
        for conv in cf.convergents(9):
            assert Fraction(conv.p, conv.q) == _truncation(cf, conv.t)


def test_convergents_alternate_around_the_value():
    for cf in [FIB, GOLDEN_TAIL, ALT]:
        v = cf.value()
        for conv in cf.convergents(8):
            gap = v - QuadReal.from_fraction(Fraction(conv.p, conv.q))
            assert gap.sign() == (1 if conv.t % 2 == 0 else -1)
            assert abs(gap) < Fraction(1, conv.q * conv.q)


def test_rational_expansion_ends():
    third = ContinuedFraction.parse("[0; 3]")
    assert third.partial_quotient(1) == 3
    with pytest.raises(IndexError):
        third.partial_quotient(2)
    with pytest.raises(IndexError):
        third.convergents(5)


def test_lagrange_constants_exact():
    assert FIB.lagrange_constant() == sqrt(5)
    assert GOLDEN_TAIL.lagrange_constant() == sqrt(5)
    assert SPIKE.lagrange_constant() == sqrt(5)
    assert SILVER.lagrange_constant() == sqrt(8)
    assert ALT.lagrange_constant() == sqrt(12)


def test_lagrange_matches_two_sided_truncation():
    """Forward tail plus reversed head, maximized over a late cycle window."""
    eps = QuadReal.from_fraction(Fraction(1, 10**30))
    rng = random.Random(20261018)
    periods = [[rng.randint(1, 9) for _ in range(rng.randint(1, 5))] for _ in range(12)]
    for cf in [FIB, SILVER, ALT] + [ContinuedFraction([0], per) for per in periods]:
        period = len(cf.period)
        best = None
        for t in range(120, 120 + 2 * period):
            fwd = [cf.partial_quotient(i) for i in range(t + 1, t + 90)]
            acc = Fraction(fwd[-1])
            for a in reversed(fwd[:-1]):
                acc = a + 1 / acc
            back = [0] + [cf.partial_quotient(i) for i in range(t, 0, -1)]
            bacc = Fraction(back[-1])
            for a in reversed(back[:-1]):
                bacc = a + 1 / bacc
            term = acc + bacc
            if best is None or term > best:
                best = term
        assert abs(cf.lagrange_constant() - QuadReal.from_fraction(best)) < eps


def test_equivalence_is_tail_sharing():
    assert FIB.equivalent(GOLDEN_TAIL)
    assert FIB.equivalent(SPIKE)
    assert not FIB.equivalent(SILVER)
    assert not ALT.equivalent(GOLDEN_TAIL)
    assert ALT.equivalent(ContinuedFraction.parse("[5; 9, (2, 1)]"))
    with pytest.raises(ValueError):
        FIB.equivalent(ContinuedFraction.parse("[0; 3]"))


def test_equivalent_slopes_share_the_lagrange_constant():
    pairs = [(FIB, SPIKE), (FIB, GOLDEN_TAIL),
             (ALT, ContinuedFraction.parse("[0; 7, (2, 1)]"))]
    for a, b in pairs:
        assert a.equivalent(b)
        assert a.lagrange_constant() == b.lagrange_constant()


def test_hurwitz_floor_on_random_periodic_slopes():
    """Every irrational's approximation constant is at least sqrt 5."""
    rng = random.Random(20260819)
    root5 = sqrt(5)
    for _ in range(100):
        pre = [0] + [rng.randint(1, 9) for _ in range(rng.randint(0, 2))]
        per = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        cf = ContinuedFraction(pre, per)
        assert cf.lagrange_constant().compare(root5) >= 0


cf_texts = st.tuples(
    st.integers(-3, 3),
    st.lists(st.integers(1, 9), max_size=3),
    st.lists(st.integers(1, 9), max_size=4),
).map(lambda t: ContinuedFraction((t[0], *t[1]), tuple(t[2])))


@given(cf_texts)
@settings(max_examples=100)
def test_render_parse_round_trip(cf):
    """Rendering then parsing reproduces the canonical object."""
    assert ContinuedFraction.parse(cf.render()) == cf


# characters that stand for a digit: Unicode decimal digits, which the grammar
# reads as digits; a superscript that isdigit() takes for one and isdecimal()
# does not; "+" and "_", which int() accepts and the grammar does not; 0, which
# no quotient past a0 may be; and 7
DIGIT_STANDINS = ["\u0663", "\uff13", "\u00b2", "+", "_", "0", "7"]
# grammar characters, whitespace (Unicode included), empty groups and
# trailing commas
PARSE_FRAGMENTS = [
    "[", "]", ";", ",", "(", ")", "-", " ", "\x1c", "\x85", "\n", "()", ",)", ",]", ",(", "",
]


@st.composite
def mutated_cf_texts(draw):
    """A rendered continued fraction with one of its digits replaced by a
    digit stand-in, or the stand-in put before it, and then up to two of its
    spans (each up to one character, or empty) replaced by a fragment."""
    text = draw(cf_texts).render()
    k = draw(st.sampled_from([k for k, c in enumerate(text) if c.isdigit()]))
    text = text[:k] + draw(st.sampled_from(DIGIT_STANDINS)) + text[k + draw(st.integers(0, 1)) :]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(i + 1, len(text))))
        text = text[:i] + draw(st.sampled_from(PARSE_FRAGMENTS)) + text[j:]
    return text


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def test_parse_agrees_with_the_regex_reference_on_edge_texts():
    for text in [
        "", "[", "]", "[]", "[-]", "[--1]", "[+1]", "[1_0]", "[\u00b2]", "[0;\u00b2]",
        "[\u0663; \uff13, (1)]", "\x1c[0;\x85(1)]\n", "[0; 1 0]", "[0;]", "[0; ]",
        "[0;1;2]", "[0;1]]", "[[0]", "[0; -1]", "[0; (0)]", "[0; ()]", "[0; 1, ()]",
        "[0;,(1)]", "[0;(1),]", "[0; 1,]", "[0; 1,,2]", "[0; (1,)]", "[0; 1(2)]",
        "[0; (1)(2)]", "[0; (1), (2)]", "[0; ((1))]", "[0; 1)]", "[-0; 2, (1)]",
    ]:
        assert _parse_outcome(ContinuedFraction.parse, text) == _parse_outcome(regex_parse, text)


@given(cf_texts.map(ContinuedFraction.render) | mutated_cf_texts())
@settings(max_examples=400)
def test_parse_agrees_with_the_regex_reference(text):
    """The parser gives the continued fraction the regex reference gives, or
    raises the same exception with the same message."""
    assert _parse_outcome(ContinuedFraction.parse, text) == _parse_outcome(regex_parse, text)


@given(cf_texts)
@settings(max_examples=100)
def test_value_in_first_quotient_bracket(cf):
    """a_0 <= value < a_0 + 1, with equality only for the integer itself."""
    v = cf.value()
    a0 = cf.partial_quotient(0)
    assert v >= a0
    if cf.period or len(cf.preperiod) > 1:
        assert v > a0
    assert v < a0 + 1


@given(st.lists(st.integers(1, 99), min_size=1, max_size=13))
@settings(max_examples=60, deadline=2000)
def test_long_periods_finish_with_consistent_digits(period):
    """Discriminants of long periods are never factored, only trial-divided."""
    cf = ContinuedFraction([0], period)
    for x in (cf.value(), cf.lagrange_constant()):
        assert abs(float(x.decimal(40)) - float(x)) <= 2 * math.ulp(float(x))
