"""The golden cases, and the script that checks or rewrites their digests.

Each case is a CLI call, run in-process through cli.main, or a library
call, digested through its repr.  transcript.txt holds one line per case:
its id and the SHA-256 of its exit code, stdout and stderr (for a library
call, of its repr).  argparse words its usage messages differently from one
Python version to the next, so a usage error pins only its exit code and
its error type.  Every case runs with STURMIAN_SPECTRA_CAP unset unless it
sets it, and under the default int-to-str limit of 4300 digits.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py          # print changed ids
    PYTHONPATH=src python tests/golden/regen.py --write  # and rewrite

It prints the id of every case whose digest differs from the transcript,
and of every case added or dropped; it exits 1 when one differs, unless
--write rewrote the file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from sturmian_spectra import cli
from sturmian_spectra.cf import ContinuedFraction
from sturmian_spectra.geometry import RIGHT_CLOSED
from sturmian_spectra.kabelian import verify_ternary_property
from sturmian_spectra.quadreal import QuadReal
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
from sturmian_spectra.words import SturmianSpec, sigma_factors_of_length

TRANSCRIPT = Path(__file__).with_name("transcript.txt")
CAP_ENV = "STURMIAN_SPECTRA_CAP"
FIB, SILVER, SPIKE = "[0; 2, (1)]", "[0; (2)]", "[0; 3, 1, 1, 1, 100, (1)]"
SLOPES = {"fib": FIB, "silver": SILVER, "spike": SPIKE, "shifted": "[-2; 1, (1, 3)]"}

# id -> (argv, STURMIAN_SPECTRA_CAP or None)
CLI_CASES = {
    "cli/cf/text": (["cf", FIB], None),
    "cli/cf/json": (["cf", SILVER, "--t-max", "6", "--format", "json"], None),
    "cli/cf/csv": (["cf", SPIKE, "--t-max", "12", "--format", "csv"], None),
    "cli/cf/rational": (["cf", "[1; 3, 4]"], None),
    "cli/classes/text": (["classes", FIB, "-k", "2", "-m", "5"], None),
    "cli/classes/json": (["classes", SPIKE, "-k", "3", "-m", "9", "--format", "json"], None),
    "cli/classes/emit-circle/text": (["classes", SILVER, "-k", "2", "-m", "7", "--emit-circle"], None),
    "cli/classes/emit-circle/json": (
        ["classes", SILVER, "-k", "2", "-m", "7", "--emit-circle", "--format", "json"], None),
    "cli/classes/right": (["classes", FIB, "-k", "2", "-m", "5", "--convention", "right"], None),
    "cli/exponent/text": (["exponent", FIB, "-k", "2", "-m", "5"], None),
    "cli/exponent/json": (["exponent", FIB, "-k", "3", "-m", "10", "--format", "json"], None),
    "cli/exponent/long-period": (["exponent", "[0; (1, 5)]", "-k", "3", "-m", "2000"], None),
    "cli/exponent/right/text": (["exponent", FIB, "-k", "2", "-m", "13", "--convention", "right"], None),
    "cli/exponent/right/json": (
        ["exponent", SILVER, "-k", "1", "-m", "5", "--convention", "right", "--format", "json"], None),
    "cli/exponent/verify/text": (["exponent", SILVER, "-k", "3", "-m", "7", "--verify"], None),
    "cli/exponent/verify/json": (
        ["exponent", SPIKE, "-k", "2", "-m", "4", "--verify", "--format", "json"], None),
    "cli/exponent/outside-unit": (["exponent", "[-1; (2)]", "-k", "2", "-m", "5"], None),
    "cli/exponent/no-witness": (["exponent", FIB, "-k", "2", "-m", "8"], "20"),
    "cli/theta/text": (["theta", SPIKE, "-k", "3"], None),
    "cli/theta/json": (["theta", FIB, "-k", "2", "--format", "json"], None),
    "cli/theta/order-one": (["theta", SILVER, "-k", "1"], None),
    "cli/spectrum/text": (["spectrum", "-k", "2", "--base", FIB, "--pool", "5"], None),
    "cli/spectrum/json": (["spectrum", "-k", "3", "--base", SILVER, "--pool", "4", "--format", "json"], None),
    "cli/spectrum/csv": (["spectrum", "-k", "2", "--base", "[0; (5, 1)]", "--pool", "3", "--format", "csv"], None),
    "cli/spectrum/pool-zero": (["spectrum", "-k", "1", "--base", FIB, "--pool", "0"], None),
    "cli/linfty/text": (["linfty", "7/3", "--stages", "4"], None),
    "cli/linfty/json": (["linfty", "1/2", "--stages", "3", "--format", "json"], None),
    "cli/exit2/parse-cf": (["cf", "[0; 2, (1"], None),
    "cli/exit2/parse-rational-slope": (["exponent", "[0; 3]", "-k", "2", "-m", "5"], None),
    "cli/exit2/parse-target": (["linfty", "seven"], None),
    "cli/exit2/invalid-cap": (["exponent", FIB, "-k", "1", "-m", "5", "--verify"], "abc"),
    "cli/exit2/invalid-base": (["spectrum", "-k", "2", "--base", "[0; 3]"], None),
    "cli/exit2/usage-missing": (["exponent", FIB, "-k", "2"], None),
    "cli/exit2/usage-format": (["cf", FIB, "--format", "xml"], None),
    "cli/exit2/usage-order": (["theta", FIB, "-k", "0"], None),
    "cli/exit2/usage-command": (["nonesuch"], None),
    "cli/exit3/oracle-cap": (["exponent", FIB, "-k", "1", "-m", "51", "--verify"], "40"),
    "cli/exit3/oracle-cap-json": (["exponent", SPIKE, "-k", "1", "-m", "11", "--verify", "--format", "json"], None),
    "cli/exit3/digit-limit": (["cf", "[0; (1)]", "--t-max", "20577"], None),
    "cli/exit3/pool": (["spectrum", "-k", "2", "--base", FIB, "--pool", "100001"], None),
}

# id -> (slope, k, m) of a brute oracle call: ladders that end at the rungs
# 64, 256, 1024 and the default cap 2000, and one refusal at that cap
BRUTE_CASES = {
    "rung64": (FIB, 1, 5),
    "rung256": (FIB, 1, 8),
    "rung1024": (FIB, 1, 21),
    "rung2000": ("[0; (1, 3, 1, 8)]", 1, 39),
    "cap": ("[0; (60)]", 1, 60),
}


def _brute_or_refusal(alpha, k, m):
    """brute_kab_exponent, or its refusal digested as (needed, cap)."""
    try:
        return brute_kab_exponent(alpha, k, m)
    except ResourceCapExceeded as exc:
        return exc.needed, exc.cap


def _library_cases() -> dict:
    """id -> a call whose repr is digested."""
    cases = {}
    for name, text in SLOPES.items():
        cf = ContinuedFraction.parse(text)
        alpha = cf.value()
        for k, m in (1, 3), (2, 5), (2, 13), (3, 4), (3, 40), (5, 8):
            cases[f"lib/max_kab_exponent/{name}/k{k}/m{m}"] = (
                lambda alpha=alpha, k=k, m=m: max_kab_exponent(alpha, k, m))
        cases[f"lib/max_kab_exponent/{name}/sweep"] = lambda alpha=alpha: [
            max_kab_exponent(alpha, k, m) for k in range(1, 7) for m in range(1, 81)]
        cases[f"lib/max_kab_exponent/{name}/right"] = (
            lambda alpha=alpha: max_kab_exponent(alpha, 2, 21, RIGHT_CLOSED))
        cases[f"lib/theta_k/{name}"] = lambda cf=cf: [theta_k(cf, k) for k in range(1, 9)]
        for k in 1, 2, 3:
            cases[f"lib/exponent_bound_check/{name}/k{k}"] = (
                lambda cf=cf, k=k: exponent_bound_check(cf, k, range(1, 10)))
        cases[f"lib/theta_limsup_estimate/{name}"] = lambda cf=cf: theta_limsup_estimate(cf, 2, 9)
        cases[f"lib/sample_spectrum/{name}"] = lambda cf=cf: sample_spectrum(3, cf, 5)
        cases[f"lib/brute_kab_exponent/{name}/sweep"] = lambda alpha=alpha: [
            _brute_or_refusal(alpha, k, m) for k in range(1, 5) for m in range(1, 41)]
        for n in 1, 2, 7, 40, 150:
            cases[f"lib/sigma_factors_of_length/{name}/n{n}"] = (
                lambda alpha=alpha, n=n: sigma_factors_of_length(alpha, n))
    for name in "fib", "spike":
        spec = SturmianSpec(ContinuedFraction.parse(SLOPES[name]).value(), QuadReal(0))
        for k in 2, 3:
            for max_len in 30, 60:
                cases[f"lib/verify_ternary_property/{name}/k{k}/len{max_len}"] = (
                    lambda spec=spec, k=k, max_len=max_len: verify_ternary_property(spec, k, max_len))
    for name, (text, k, m) in BRUTE_CASES.items():
        cases[f"lib/brute_kab_exponent/{name}"] = (
            lambda text=text, k=k, m=m: _brute_or_refusal(ContinuedFraction.parse(text).value(), k, m))
    for target in "7/3", "1/2", "5":
        cases[f"lib/construct_linfty_slope/{target}"] = (
            lambda target=target: construct_linfty_slope(target, 4))
    return cases


LIBRARY_CASES = _library_cases()
CASES = [*CLI_CASES, *LIBRARY_CASES]


@contextlib.contextmanager
def _pinned_environment(cap):
    """STURMIAN_SPECTRA_CAP set to `cap` (unset for None) and the default
    int-to-str limit, both restored on exit."""
    old_cap = os.environ.pop(CAP_ENV, None)
    if cap is not None:
        os.environ[CAP_ENV] = cap
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    old_limit = get_limit() if get_limit else None
    if get_limit:
        sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        os.environ.pop(CAP_ENV, None)
        if old_cap is not None:
            os.environ[CAP_ENV] = old_cap
        if get_limit:
            sys.set_int_max_str_digits(old_limit)


def _transcript_of(case: str) -> str:
    """The text a case's digest is taken of."""
    if case in LIBRARY_CASES:
        with _pinned_environment(None):
            return repr(LIBRARY_CASES[case]())
    argv, cap = CLI_CASES[case]
    out, err = io.StringIO(), io.StringIO()
    with _pinned_environment(cap), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    if err.startswith('{"error": {"type": "usage_error"'):
        err = "usage_error"  # argparse's wording varies with the Python version
    return json.dumps([code, out.getvalue(), err])


def digest(case: str) -> str:
    return hashlib.sha256(_transcript_of(case).encode()).hexdigest()


def read_transcript() -> dict[str, str]:
    """Case id -> recorded digest."""
    return dict(line.split() for line in TRANSCRIPT.read_text().splitlines())


def changed_cases(recorded: dict[str, str], digests: dict[str, str]) -> list[str]:
    """The ids whose digest differs, or that only one side has, in case order
    and then the dropped ones."""
    return [c for c in digests if recorded.get(c) != digests[c]] + [c for c in recorded if c not in digests]


def main(argv: list[str]) -> int:
    digests = {case: digest(case) for case in CASES}
    recorded = read_transcript() if TRANSCRIPT.exists() else {}
    changed = changed_cases(recorded, digests)
    for case in changed:
        print(case)
    if "--write" in argv:
        TRANSCRIPT.write_text("".join(f"{case} {d}\n" for case, d in digests.items()))
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
