"""The package namespace: one spelling per public name."""

import copy
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import sturmian_spectra
from sturmian_spectra import cf, geometry, kabelian, quadreal, spectra, words
from sturmian_spectra._record import Record

SUBMODULES = (cf, geometry, kabelian, quadreal, spectra, words)


def test_public_names_are_exactly_the_submodules_exports():
    names = sturmian_spectra.__all__
    assert len(names) == len(set(names))
    exported = set().union(*(mod.__all__ for mod in SUBMODULES))
    assert set(names) == exported | {"__version__"}
    for mod in SUBMODULES:
        assert len(mod.__all__) == len(set(mod.__all__))
        for name in mod.__all__:
            assert getattr(sturmian_spectra, name) is getattr(mod, name)


def test_the_command_line_loads_no_typing():
    """Annotations come from collections.abc and the records are not
    dataclasses, so importing the command line in a fresh `python -S` loads
    neither `typing` nor `dataclasses` and the modules it pulls in."""
    src = os.path.dirname(os.path.dirname(sturmian_spectra.__file__))
    unused = ("typing", "dataclasses", "inspect", "ast", "dis", "tokenize")
    code = (
        "import sturmian_spectra.cli, sys; "
        f"loaded = [m for m in {unused!r} if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr


def test_the_library_loads_no_re_enum_or_fractions():
    """In a fresh `python -S`, the library loads none of `re`, `enum`,
    `fractions`, `decimal` or `numbers`, and the command line, whose
    argparse and json load `re`, none of `fractions`, `decimal`, `numbers`
    or `csv`.  The functions that build a Fraction, and the CSV writer,
    then import what they need themselves."""
    src = os.path.dirname(os.path.dirname(sturmian_spectra.__file__))
    code = textwrap.dedent("""
        import sys
        import sturmian_spectra
        unused = ("re", "enum", "fractions", "decimal", "numbers")
        loaded = [m for m in unused if m in sys.modules]
        assert not loaded, loaded
        import sturmian_spectra.cli as cli
        loaded = [m for m in ("fractions", "decimal", "numbers", "csv") if m in sys.modules]
        assert not loaded, loaded

        from sturmian_spectra import ContinuedFraction, QuadReal
        from sturmian_spectra import construct_linfty_slope, theta_limsup_estimate
        fib = ContinuedFraction.parse("[0; 2, (1)]")
        estimate = theta_limsup_estimate(fib, 2, 5)
        report = construct_linfty_slope("7/3", 3)
        half = QuadReal(1, 0, 0, 2).to_fraction()
        argv = ["spectrum", "-k", "2", "--base", "[0; (1)]", "--pool", "2", "--format", "csv"]
        assert cli.main(argv) == 0

        from fractions import Fraction
        assert isinstance(estimate.estimate, Fraction) and isinstance(estimate.slack, Fraction)
        assert isinstance(report.target, Fraction) and report.target == Fraction(7, 3)
        assert all(isinstance(stage.ratio, Fraction) for stage in report.stages)
        assert isinstance(half, Fraction) and half == Fraction(1, 2)
    """)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("cf,k,theta_decimal\n"), done.stdout


RECORDS = {
    geometry.EndpointConvention: ("zero_in_I0",),
    geometry.IntervalFamily: ("intervals",),
    words.SturmianSpec: ("alpha", "intercept", "convention"),
    kabelian.FactorClass: ("k", "length", "members", "interval_index"),
    kabelian.TernaryReport: ("k", "max_len", "pairs_checked", "counterexamples"),
    spectra.ExponentRecord: (
        "k", "m", "exponent", "max_interval_length", "step", "witness_intercept", "witness"
    ),
    spectra.BoundReport: (
        "k",
        "t_checked",
        "convergent_slack_violations",
        "approx_window_violations",
        "improved_slack_exceedances",
    ),
    spectra.LimsupEstimate: ("k", "t_max", "window_start", "estimate", "slack", "terms"),
    spectra.SpectrumPoint: ("cf", "k", "theta"),
    spectra.LinftyStage: ("t", "k", "q", "r", "s", "a_next", "ratio", "error", "bound"),
    spectra.LinftyReport: ("target", "stages", "quotients", "prefix", "padding_ok"),
}


def test_records_are_slotted_values():
    """Every record's slots are its fields in order (the bench digest reads
    them), and records compare by class and fields, print as
    Name(field=value, ...), and refuse assignment and hash by their fields,
    so the two reports that hold lists are unhashable."""
    public = [getattr(sturmian_spectra, name) for name in sturmian_spectra.__all__]
    assert {x for x in public if isinstance(x, type) and issubclass(x, Record)} == set(RECORDS)
    for cls, fields in RECORDS.items():
        assert tuple(cls.__slots__) == fields
    one = kabelian.FactorClass(2, 3, ("010", "101"), 1)
    assert one == kabelian.FactorClass(k=2, length=3, members=("010", "101"), interval_index=1)
    assert one != kabelian.FactorClass(2, 3, ("010", "101"))
    assert kabelian.FactorClass(2, 3, ()).interval_index is None
    assert one != spectra.SpectrumPoint(2, 3, ("010", "101"))  # same values, other class
    assert hash(one) == hash((2, 3, ("010", "101"), 1))
    assert len({one, kabelian.FactorClass(2, 3, ("010", "101"), 1)}) == 1
    assert repr(one) == "FactorClass(k=2, length=3, members=('010', '101'), interval_index=1)"
    assert not hasattr(one, "__dict__")
    assert pickle.loads(pickle.dumps(one)) == one
    with pytest.raises(AttributeError):
        one.k = 5
    with pytest.raises(AttributeError):
        del one.members
    with pytest.raises(TypeError):
        kabelian.FactorClass(2, 3)
    assert geometry.EndpointConvention() == geometry.LEFT_CLOSED
    assert geometry.EndpointConvention(zero_in_I0=False) == geometry.RIGHT_CLOSED
    values = (1, 2, 3, 1, 0, 1, Fraction(1), Fraction(0), Fraction(1, 2))
    assert hash(spectra.LinftyStage(*values)) == hash(values)

    report = kabelian.TernaryReport(3, 5, 1, [("0", "1")])
    assert report == kabelian.TernaryReport(3, 5, 1, [("0", "1")]) and not report.ok
    assert kabelian.TernaryReport(3, 5, 0, []).ok
    bound = spectra.BoundReport(2, [1, 2], [], [], [])
    assert repr(bound) == (
        "BoundReport(k=2, t_checked=[1, 2], convergent_slack_violations=[], "
        "approx_window_violations=[], improved_slack_exceedances=[])"
    )
    alpha = cf.ContinuedFraction.parse("[0; 2, (1)]").value()
    instances = {
        geometry.EndpointConvention: geometry.LEFT_CLOSED,
        geometry.IntervalFamily: geometry.IntervalFamily(()),
        words.SturmianSpec: words.SturmianSpec(alpha, alpha),
        kabelian.FactorClass: one,
        kabelian.TernaryReport: report,
        spectra.ExponentRecord: spectra.ExponentRecord(2, 3, 1, 1, 1),
        spectra.BoundReport: bound,
        spectra.LimsupEstimate: spectra.LimsupEstimate(2, 5, 1, 1, 1, ()),
        spectra.SpectrumPoint: spectra.SpectrumPoint(None, 2, 1),
        spectra.LinftyStage: spectra.LinftyStage(*values),
        spectra.LinftyReport: spectra.LinftyReport(1, (), (), None, True),
    }
    assert set(instances) == set(RECORDS)
    for cls, record in instances.items():
        for name in RECORDS[cls]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    for unhashable in (report, bound):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_exact_values_and_the_records_that_hold_them_copy_and_pickle():
    """QuadReal and ContinuedFraction are rebuilt through their constructors,
    so they, and the records that hold them, survive copy, deepcopy and
    pickling, each QuadReal with its spelling (p, q, d, r) kept, also one
    whose radicand keeps the square of a prime past the trial division."""
    fib = cf.ContinuedFraction.parse("[0; 2, (1)]")
    record = spectra.max_kab_exponent(fib.value(), 2, 5)
    point = spectra.sample_spectrum(2, fib, 2)[1]
    big = quadreal.QuadReal(1, 1, 1009 * 1009 * 1013, 3)
    for x in (record, point, fib, big):
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(twin) is type(x) and twin == x
    for v in (big, record.step, record.witness_intercept, point.theta):
        twin = pickle.loads(pickle.dumps(v))
        assert (twin.p, twin.q, twin.d, twin.r) == (v.p, v.q, v.d, v.r)
