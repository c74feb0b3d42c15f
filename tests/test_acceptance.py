"""Acceptance gate: ten end-to-end checks, one test (and one line) each.

Each test carries the time budget it must meet; the exact values asserted
here were fixed up front against independent computations (brute-force
scans of the coded words, high-precision decimal arithmetic, hand-checked
continued fraction tables).
"""

import json
import random
import time
from fractions import Fraction

from sturmian_spectra.cf import ContinuedFraction
from sturmian_spectra.cli import main
from sturmian_spectra.geometry import (
    LEFT_CLOSED,
    RIGHT_CLOSED,
    level_intervals,
)
from sturmian_spectra.kabelian import (
    classify_brute,
    classify_by_intervals,
    kab_equivalent,
    verify_ternary_property,
)
from sturmian_spectra.quadreal import QuadReal, dist_to_int, sqrt
from sturmian_spectra.spectra import (
    ResourceCapExceeded,
    brute_kab_exponent,
    construct_linfty_slope,
    exponent_bound_check,
    max_kab_exponent,
    sample_spectrum,
    theta_k,
    theta_limsup_estimate,
)
from sturmian_spectra.words import SturmianSpec, factors_of_length, occurrences, sturmian_prefix

FIB = ContinuedFraction.parse("[0; 2, (1)]")
BETA = ContinuedFraction.parse("[0; 3, 1, 1, 1, 100, (1)]")
SLOPES = [
    FIB,
    ContinuedFraction.parse("[0; (1)]"),
    ContinuedFraction.parse("[0; (2)]"),
    BETA,
    ContinuedFraction.parse("[0; (1, 2)]"),
]


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"


def test_criterion_01_fibonacci_length5_classes(capsys):
    """Four order-2 classes of the length-5 factors, through the CLI."""
    budget = _Budget(1)
    code = main(["classes", "[0; 2, (1)]", "-k", "2", "-m", "5",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    classes = [tuple(c["words"]) for c in json.loads(out)["classes"]]
    assert classes == [
        ("00100",), ("00101", "01001"), ("01010",), ("10010", "10100")]
    budget.check()


def test_criterion_02_exponent_values_and_pinned_witness():
    """Known order-2 exponents on both slopes; the classical witness checks out."""
    budget = _Budget(5)
    alpha, beta = FIB.value(), BETA.value()
    assert max_kab_exponent(alpha, 2, 5, with_witness=False).exponent == 5
    assert max_kab_exponent(alpha, 2, 7, with_witness=False).exponent == 1
    assert max_kab_exponent(beta, 2, 4, with_witness=False).exponent == 6
    assert max_kab_exponent(beta, 2, 7, with_witness=False).exponent == 5
    witness = "10100" * 2 + "10010" * 3
    blocks = [witness[i * 5 : (i + 1) * 5] for i in range(5)]
    assert all(kab_equivalent(u, v, 2) for u in blocks for v in blocks)
    prefix = sturmian_prefix(SturmianSpec(alpha, alpha), 2000)
    assert occurrences(prefix, witness) >= 1
    budget.check()


def test_criterion_03_oracle_equivalence_suite():
    """Interval classification and exponent formula agree with brute force."""
    budget = _Budget(60)
    mismatches = 0
    for cf in SLOPES:
        alpha = cf.value()
        for k in range(1, 5):
            for m in range(1, 61):
                words = [w for w, _ in factors_of_length(alpha, m)]
                got = sorted(
                    c.members for c in classify_by_intervals(alpha, k, m) if c.members)
                want = sorted(c.members for c in classify_brute(words, k))
                if got != want:
                    mismatches += 1
    skipped = 0
    for cf in SLOPES:
        alpha = cf.value()
        for k in range(1, 4):
            for m in range(1, 41):
                want = max_kab_exponent(alpha, k, m, with_witness=False).exponent
                try:
                    got = brute_kab_exponent(alpha, k, m)
                except ResourceCapExceeded:
                    skipped += 1
                    continue
                if got != want:
                    mismatches += 1
    assert mismatches == 0
    assert skipped < 25  # a handful of slow spots hit the symbol cap
    budget.check()


def test_criterion_04_lagrange_constants_exact():
    """The two classical constants, and invariance under tail equivalence."""
    budget = _Budget(1)
    golden = ContinuedFraction.parse("[0; (1)]")
    silver = ContinuedFraction.parse("[0; (2)]")
    assert golden.lagrange_constant() == sqrt(5)
    assert silver.lagrange_constant() == sqrt(8)
    assert FIB.lagrange_constant() == golden.lagrange_constant()
    budget.check()


def test_criterion_05_order_two_constant_and_its_estimate():
    """Exact closed form, and the finite estimate lands within a thousandth."""
    budget = _Budget(30)
    exact = theta_k(FIB, 2)
    assert exact == QuadReal(-5, 3, 5, 2)
    est = theta_limsup_estimate(FIB, 2, 25)
    gap = abs(QuadReal.from_fraction(est.estimate) - exact)
    assert gap < Fraction(1, 1000)
    budget.check()


def test_criterion_06_spectrum_band_and_spread():
    """200 order-2 samples stay strictly inside the band and spread across it."""
    budget = _Budget(120)
    points = sample_spectrum(2, ContinuedFraction.parse("[0; (1)]"), 200)
    assert len(points) == 200
    lo, hi = sqrt(5) / 3, sqrt(5)
    low_end = QuadReal(0, 9, 5, 10)  # 0.9 * sqrt 5
    high_end = QuadReal(0, 6, 5, 10)  # 0.6 * sqrt 5
    below = above = 0
    for p in points:
        assert p.theta.compare(lo) > 0
        assert p.theta.compare(hi) < 0
        if p.theta.compare(low_end) < 0:
            below += 1
        if p.theta.compare(high_end) > 0:
            above += 1
    assert below >= 50
    assert above >= 50
    budget.check()


def test_criterion_07_convergent_bounds_zero_violations():
    """Slack and window bounds along the convergents hold on both slopes."""
    budget = _Budget(120)
    for cf in (FIB, BETA):
        report = exponent_bound_check(cf, 2, range(1, 9))
        assert report.ok
        assert report.convergent_slack_violations == []
        assert report.approx_window_violations == []
    budget.check()


def test_criterion_08_linfty_stage_inequalities():
    """Each construction stage approximates its target within 2^-t, exactly."""
    budget = _Budget(10)
    for target in (Fraction(1, 2), Fraction(1), Fraction(7, 3)):
        report = construct_linfty_slope(target, 4)
        assert len(report.stages) == 4
        for stage in report.stages:
            assert stage.ratio == Fraction(stage.a_next + 2, stage.q)
            assert abs(target - stage.ratio) < Fraction(1, 2**stage.t)
        assert report.padding_ok
    budget.check()


def test_criterion_09_ternary_image_classes():
    """No counterexamples to the ends-only classification on the image word."""
    budget = _Budget(300)
    alpha = FIB.value()
    word = SturmianSpec(alpha, alpha)
    for k in (2, 3):
        report = verify_ternary_property(word, k, 30)
        assert report.ok
        assert report.counterexamples == []
        assert report.pairs_checked > 1000
    budget.check()


def test_criterion_10_property_suites():
    """Three-distance, best approximations, congruence, conventions, floor."""
    alpha = FIB.value()

    # at most three gap lengths at every level, largest = sum of other two
    for n in range(1, 501):
        distinct = sorted(set(level_intervals(alpha, n).lengths))
        assert len(distinct) <= 3
        if len(distinct) == 3:
            assert distinct[2] == distinct[0] + distinct[1]

    # record-setting denominators are exactly the convergent denominators
    records = []
    best = None
    for q in range(1, 10001):
        d = dist_to_int(q * alpha)
        if best is None or d.compare(best) < 0:
            best = d
            records.append(q)
    denominators = {c.q for c in FIB.convergents(19) if c.q <= 10000}
    assert set(records) == denominators

    # order k+1 classes refine order k ones, and equivalence survives wrapping
    for m in (6, 10, 14):
        for k in (1, 2):
            for cls in classify_by_intervals(alpha, k + 1, m):
                members = cls.members
                for u, v in zip(members, members[1:]):
                    assert kab_equivalent(u, v, k)
                    assert kab_equivalent("01" + u + "10", "01" + v + "10", k)

    # the two endpoint conventions produce the same languages and classes
    for n in range(1, 21):
        left = {w for w, _ in factors_of_length(alpha, n, LEFT_CLOSED)}
        right = {w for w, _ in factors_of_length(alpha, n, RIGHT_CLOSED)}
        assert left == right
    for k in (1, 2, 3):
        for m in range(1, 13):
            l_cls = sorted(
                c.members for c in classify_by_intervals(alpha, k, m, LEFT_CLOSED)
                if c.members)
            r_cls = sorted(
                c.members for c in classify_by_intervals(alpha, k, m, RIGHT_CLOSED)
                if c.members)
            assert l_cls == r_cls

    # no slope approximates worse than the golden one
    rng = random.Random(99173)
    root5 = sqrt(5)
    for _ in range(100):
        pre = [0] + [rng.randint(1, 9) for _ in range(rng.randint(0, 2))]
        per = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        cf = ContinuedFraction(pre, per)
        assert cf.lagrange_constant().compare(root5) >= 0
