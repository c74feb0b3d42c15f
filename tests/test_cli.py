"""Command line surface: output schemas, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sturmian_spectra
from sturmian_spectra import cli, geometry
from sturmian_spectra.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_STDOUT_CLOSED,
    EXIT_USAGE,
    main,
)
from sturmian_spectra.spectra import DIGIT_BUDGET, SPECTRUM_POOL_CAP

from golden.regen import CLI_CASES
from reference import full_parse

FIB = "[0; 2, (1)]"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cf_json_schema(capsys):
    code, out, err = _run(capsys, "cf", FIB, "--format", "json")
    assert code == EXIT_OK and err == ""
    obj = json.loads(out)
    assert obj["cf"] == FIB
    assert obj["value"]["decimal"].startswith("0.3819660112501051")
    assert obj["lambda"]["decimal"].startswith("2.2360679774997896")
    assert [int(c["q"]) for c in obj["convergents"][:6]] == [1, 2, 3, 5, 8, 13]


def test_cf_rational_has_no_lambda(capsys):
    code, out, _ = _run(capsys, "cf", "[0; 3]", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["lambda"] is None
    assert obj["value"]["decimal"].startswith("0.3333333")


def test_cf_text_mentions_the_constant(capsys):
    code, out, _ = _run(capsys, "cf", FIB)
    assert code == EXIT_OK
    assert "2.236067977499789696409173668731276235441" in out


def test_classes_json_matches_known_partition(capsys):
    code, out, _ = _run(capsys, "classes", FIB, "-k", "2", "-m", "5",
                        "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["k"] == 2 and obj["m"] == 5
    members = [tuple(c["words"]) for c in obj["classes"]]
    assert members == [
        ("00100",), ("00101", "01001"), ("01010",), ("10010", "10100")]
    for c in obj["classes"]:
        assert "decimal" in c["interval"]["length"]


def test_classes_emit_circle_lists_the_cuts(capsys):
    code, out, _ = _run(capsys, "classes", FIB, "-k", "2", "-m", "5",
                        "--emit-circle", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert len(obj["cuts"]) == 4
    assert obj["cuts"][0]["decimal"] == "0"


@pytest.mark.parametrize("cf", [FIB, "[0; (2)]", "[0; 3, (1, 4)]"])
def test_classes_output_does_not_depend_on_the_convention(capsys, cf):
    """--convention is accepted by classes and changes no byte of stdout."""
    for k, m in [(1, 4), (2, 5), (3, 12), (5, 7)]:
        for extra in ([], ["--format", "json"], ["--emit-circle"],
                      ["--emit-circle", "--format", "json"]):
            argv = ["classes", cf, "-k", str(k), "-m", str(m), *extra]
            left = _run(capsys, *argv, "--convention", "left")
            assert left[0] == EXIT_OK
            assert _run(capsys, *argv, "--convention", "right") == left


# (cf, k, m, convention) -> exponent, witness, witness intercept (p, q, d, r)
FROZEN_WITNESSES = {
    (FIB, "2", "5", "left"): (
        5, "0100101001010010010100101", ("-63", "29", "5", "4")),
    (FIB, "2", "5", "right"): (
        5, "0100101001010010010100101", ("-63", "29", "5", "4")),
    ("[0; 3, 1, 1, 1, 100, (1)]", "2", "4", "left"): (
        6, "001000100010010001000100", ("549029", "12", "5", "2426302")),
    ("[0; 3, 1, 1, 1, 100, (1)]", "2", "4", "right"): (
        6, "001000100010010001000100", ("549029", "12", "5", "2426302")),
}


def test_exponent_json_with_verification(capsys):
    code, out, _ = _run(capsys, "exponent", FIB, "-k", "2", "-m", "5",
                        "--verify", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["exponent"] == 5
    assert obj["witness"] == "0100101001010010010100101"
    assert obj["verified"] is True
    assert obj["step"]["decimal"].startswith("0.0901699437")
    for (text, k, m, conv), (exponent, witness, x) in FROZEN_WITNESSES.items():
        code, out, err = _run(capsys, "exponent", text, "-k", k, "-m", m,
                              "--convention", conv, "--verify", "--format", "json")
        assert code == EXIT_OK and err == ""
        obj = json.loads(out)
        assert (obj["exponent"], obj["witness"], obj["verified"]) == (exponent, witness, True)
        intercept = obj["witness_intercept"]
        assert tuple(intercept[f] for f in "pqdr") == x


SPIKE = "[0; 3, 1, 1, 1, 100, (1)]"

# Verified exponents whose oracle climbs the ladder past its first length
# (64): (exponent + 1) * m is 154, 150 and 144 letters.  Output taken from
# the rescanning oracle this one replaced.
FROZEN_VERIFIED_TEXT = {
    ("[0; (1, 5)]", "3", "7", "left"): """\
cf: [0; (1, 5)]  k=3  m=7
exponent: 21
max_interval_length: (21-9*sqrt(5))/2 = 0.4376941012509463661587184907092569405172
step: (47-21*sqrt(5))/2 = 0.02128623625220818770367647832159952787351
witness_intercept: (989-441*sqrt(5))/4 = 0.7235054806481859708886030223767950426718
witness: 111101111110111111011111101111110111111011111101111101111110111111011111101111110111111011111101111101111110111111011111101111110111111011111101111
verify: oracle agrees (21)
""",
    (SPIKE, "1", "15", "right"): """\
cf: [0; 3, 1, 1, 1, 100, (1)]  k=1  m=15
exponent: 10
max_interval_length: (2202725+15*sqrt(5))/2426302 = 0.9078665974061194759949281406869511582414
step: (223577-15*sqrt(5))/2426302 = 0.09213340259388052400507185931304884175856
witness_intercept: (95266+75*sqrt(5))/2426302 = 0.03933298703059737997464070343475579120722
witness: 000100010010001000100100010001001000100010010001000100100010001001000100010010001000100100010001001000100010010001000100100010001001000100010010001000
verify: oracle agrees (10)
""",
}
FROZEN_VERIFIED_JSON = {
    (FIB, "1", "8", "right"): {
        "cf": "[0; 2, (1)]", "k": 1, "m": 8, "exponent": 17,
        "max_interval_length": {
            "p": "-8", "q": "4", "d": "5", "r": "1",
            "decimal": "0.9442719099991587856366946749251049417625"},
        "step": {
            "p": "9", "q": "-4", "d": "5", "r": "1",
            "decimal": "0.05572809000084121436330532507489505823753"},
        "witness": "00100101001001010010100100101001010010010100100101001010010010"
                   "10010010100101001001010010100100101001001010010100100101001010"
                   "010010100100",
        "witness_intercept": {
            "p": "-76", "q": "34", "d": "5", "r": "1",
            "decimal": "0.02631123499284967791190473686339200498102"},
        "verified": True,
    },
}


def test_verified_exponent_output_is_frozen(capsys, monkeypatch):
    monkeypatch.delenv("STURMIAN_SPECTRA_CAP", raising=False)
    for (text, k, m, conv), want in FROZEN_VERIFIED_TEXT.items():
        got = _run(capsys, "exponent", text, "-k", k, "-m", m,
                   "--convention", conv, "--verify")
        assert got == (EXIT_OK, want, "")
    for (text, k, m, conv), want in FROZEN_VERIFIED_JSON.items():
        got = _run(capsys, "exponent", text, "-k", k, "-m", m,
                   "--convention", conv, "--verify", "--format", "json")
        assert got == (EXIT_OK, json.dumps(want) + "\n", "")


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("text, k, m, needed", [
    (FIB, "2", "89", 2047),  # the ladder climbs 512, 1024, 2000
    (SPIKE, "1", "11", 2002),  # 64 up to 2000: 181 equal blocks at the cap
])
def test_verified_exponent_past_the_cap_is_frozen(capsys, monkeypatch, output,
                                                  text, k, m, needed):
    monkeypatch.delenv("STURMIAN_SPECTRA_CAP", raising=False)
    code, out, err = _run(capsys, "exponent", text, "-k", k, "-m", m,
                          "--verify", "--format", output)
    assert (code, out) == (EXIT_RESOURCE, "")
    assert json.loads(err) == {"error": {
        "type": "resource_cap",
        "message": f"enumeration would need factors of length {needed}, cap is 2000",
        "needed": needed,
        "cap": 2000,
    }}


def test_exponent_accepts_slopes_outside_the_unit_interval(capsys):
    """[1; (2)] and [-1; (2)] are the rotation of [0; (2)]: the same
    exponent, witness and oracle check, whatever m is."""
    argv = ("-k", "2", "-m", "5", "--verify")
    code, want, _ = _run(capsys, "exponent", "[0; (2)]", *argv)
    assert code == EXIT_OK and "witness: " in want
    for text in ("[1; (2)]", "[-1; (2)]"):
        code, out, err = _run(capsys, "exponent", text, *argv)
        assert code == EXIT_OK and err == ""
        assert out.splitlines()[1:] == want.splitlines()[1:]


def test_oracle_disagreement_is_exit_4_with_json(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_kab_exponent", lambda *args: 0)
    code, out, err = _run(capsys, "exponent", FIB, "-k", "2", "-m", "5",
                          "--verify")
    assert code == EXIT_INTERNAL
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "oracle_mismatch"
    assert (payload["k"], payload["m"]) == (2, 5)


def test_theta_json_is_exact_and_decimal(capsys):
    code, out, _ = _run(capsys, "theta", FIB, "-k", "2", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    theta = obj["theta"]
    assert (theta["p"], theta["q"], theta["d"], theta["r"]) == ("-5", "3", "5", "2")
    assert theta["decimal"] == "0.8541019662496845446137605030969143531609"


def test_spectrum_json_is_one_object_per_line(capsys):
    code, out, _ = _run(capsys, "spectrum", "-k", "2", "--base", "[0; (1)]",
                        "--pool", "4", "--format", "json")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first["cf"] == "[0; (1)]"
    assert first["theta"]["decimal"].startswith("0.8541019662")
    assert all(json.loads(line)["k"] == 2 for line in lines)


def test_spectrum_csv_shape(capsys):
    code, out, _ = _run(capsys, "spectrum", "-k", "2", "--base", "[0; (1)]",
                        "--pool", "5", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "cf,k,theta_decimal"
    assert len(lines) == 6
    assert lines[1].startswith("[0; (1)],2,0.85410196624968454461")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_spectrum_pool_past_its_cap_is_a_resource_cap(capsys, fmt):
    """--pool 10^9 would take hours of theta_k: refused with exit 3 and
    empty stdout before any slope is built."""
    code, out, err = _run(capsys, "spectrum", "-k", "2", "--base", "[0; (1)]",
                          "--pool", "1000000000", "--format", fmt)
    assert (code, out) == (EXIT_RESOURCE, "")
    payload = json.loads(err)["error"]
    assert payload["type"] == "resource_cap"
    assert (payload["needed"], payload["cap"]) == (10**9, SPECTRUM_POOL_CAP)


def test_linfty_json_schema(capsys):
    code, out, _ = _run(capsys, "linfty", "7/3", "--stages", "4",
                        "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["quotients"] == [1, 1, 2, 9, 107, 11744]
    assert obj["padding_ok"] is True
    assert obj["prefix"] == "[0; 1, 1, 2, 9, 107, 11744]"
    last = obj["stages"][-1]
    assert last["error"]["decimal"] == "0"


@pytest.mark.parametrize("stages", ["15", "16"])
def test_linfty_past_the_digit_limit_is_a_resource_cap(capsys, stages):
    """Stage 15 for 7/3 needs a denominator of more than 4300 digits: refused
    before anything is printed, not cut off mid-table as a usage error."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever the environment set
    try:
        code, out, err = _run(capsys, "linfty", "7/3", "--stages", stages)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == EXIT_RESOURCE
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "resource_cap"
    assert payload["cap"] == 4300


@pytest.mark.parametrize("t_max", ["21000", "1000000000"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_cf_past_the_digit_limit_is_a_resource_cap(capsys, fmt, t_max):
    """q_21000 of the golden slope has about 4390 digits: the table is
    refused before anything is printed, not cut off as a usage error, and
    before a far longer table is folded out."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever the environment set
    try:
        code, out, err = _run(capsys, "cf", "[0; (1)]", "--t-max", t_max, "--format", fmt)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == EXIT_RESOURCE
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "resource_cap"
    assert payload["cap"] == 4300


def test_cf_digit_limit_is_sharp(capsys):
    """Under the least digit limit, 640, q_3063 of the golden slope has 640
    digits and prints; q_3064 has 641 and is refused."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        last = _run(capsys, "cf", "[0; (1)]", "--t-max", "3063", "--format", "csv")
        past = _run(capsys, "cf", "[0; (1)]", "--t-max", "3064", "--format", "csv")
    finally:
        sys.set_int_max_str_digits(old)
    assert last[0] == EXIT_OK and len(last[1].splitlines()) == 3065
    assert past[0] == EXIT_RESOURCE and past[1] == ""
    assert json.loads(past[2])["error"]["cap"] == 640


@pytest.mark.parametrize(
    "argv", [("cf", "[0; (1)]", "--t-max", "21000", "--format", "csv"),
             ("linfty", "7/3", "--stages", "15")])
def test_no_interpreter_digit_limit_falls_back_to_the_package_budget(capsys, argv):
    """An interpreter limit of 0 means none: the package's own DIGIT_BUDGET
    bounds the output instead, and the refusal names that budget."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = _run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == EXIT_RESOURCE
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "resource_cap"
    assert payload["cap"] == DIGIT_BUDGET
    assert "the package's digit budget" in payload["message"]
    assert "interpreter" not in payload["message"]


# limit -> (argv, exit code, the refusal's cap or None) for cf and linfty at
# the t and stage where each is refused
_SHARP_DIGIT_LIMITS = {
    640: [(("cf", "[0; (1)]", "--t-max", "3063"), EXIT_OK, None),
          (("cf", "[0; (1)]", "--t-max", "3064"), EXIT_RESOURCE, 640),
          (("linfty", "7/3", "--stages", "11"), EXIT_OK, None),
          (("linfty", "7/3", "--stages", "12"), EXIT_RESOURCE, 640)],
    4300: [(("cf", "[0; (1)]", "--t-max", "3064"), EXIT_OK, None),
           (("cf", "[0; (1)]", "--t-max", "21000"), EXIT_RESOURCE, 4300),
           (("linfty", "7/3", "--stages", "14"), EXIT_OK, None),
           (("linfty", "7/3", "--stages", "15"), EXIT_RESOURCE, 4300)],
}
_SHARP_DIGIT_LIMITS[0] = [(argv, code, cap and DIGIT_BUDGET)
                          for argv, code, cap in _SHARP_DIGIT_LIMITS[4300]]


def test_every_digit_limit_set_in_one_process_is_followed(capsys):
    """The limit is read afresh by each call, so a process that changes it
    is refused at each limit's own t and stage, under the name of its own
    limit, and a power of ten kept from an earlier limit changes nothing."""
    old = sys.get_int_max_str_digits()
    try:
        for limit in 640, 4300, 0, 640:
            sys.set_int_max_str_digits(limit)
            for argv, want, cap in _SHARP_DIGIT_LIMITS[limit]:
                code, out, err = _run(capsys, *argv)
                assert code == want, (limit, argv)
                if cap is None:
                    assert out and not err, (limit, argv)
                    continue
                payload = json.loads(err)["error"]
                assert out == "" and payload["cap"] == cap, (limit, argv)
                assert ("the package's digit budget" in payload["message"]) == (limit == 0)
    finally:
        sys.set_int_max_str_digits(old)


def test_linfty_many_stages_stop_quickly():
    cmd = [sys.executable, "-m", "sturmian_spectra", "linfty", "7/3",
           "--stages", "30"]
    done = subprocess.run(cmd, capture_output=True, timeout=5)
    assert done.returncode == EXIT_RESOURCE
    assert done.stdout == b""


def test_parse_error_is_json_on_stderr(capsys):
    code, out, err = _run(capsys, "cf", "not-a-cf")
    assert code == EXIT_USAGE
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "parse_error"


@pytest.mark.parametrize("argv", [
    ["classes", "[0; 3]", "-k", "2", "-m", "5"],
    ["exponent", "[0; 3]", "-k", "2", "-m", "5"],
    ["theta", "[0; 3]", "-k", "2"],
    ["spectrum", "--base", "[0; 3]", "-k", "2"],
], ids=lambda argv: argv[0])
def test_rational_slope_is_the_same_parse_error_on_every_command(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert json.loads(err)["error"] == {
        "type": "parse_error",
        "message": "slope must be irrational, got rational [0; 3]",
    }


def test_nonpositive_length_is_rejected_by_the_parser(capsys):
    code, out, err = _run(capsys, "classes", FIB, "-k", "2", "-m", "0")
    assert code == EXIT_USAGE
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "usage_error"
    assert "-m" in payload["message"]


@pytest.mark.parametrize("argv", [
    ["theta", "[0;(1)]", "-k", "0"],
    ["theta", FIB, "-k", "x"],
    ["exponent", FIB, "-k", "2"],
    ["classes", FIB, "-k", "2", "-m", "5", "--convention", "middle"],
    ["cf", FIB, "--format", "xml"],
    ["theta", FIB, "-k", "2", "--bogus"],
    ["nonesuch"],
    [],
])
def test_usage_errors_return_2_with_json_on_stderr(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "usage_error"
    assert payload["message"].startswith("sturmian-spectra")


def test_classes_help_says_the_convention_has_no_effect(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = _exit_and_streams(capsys, ["classes", "--help"])
    assert code == EXIT_OK
    text = " ".join(out.split())
    assert "--convention {left,right} accepted and has no effect" in text
    _, out, _ = _exit_and_streams(capsys, ["exponent", "--help"])
    assert "endpoint convention for the coding intervals" in " ".join(out.split())


def test_resource_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("STURMIAN_SPECTRA_CAP", "40")
    code, out, err = _run(capsys, "exponent", FIB, "-k", "1", "-m", "51",
                          "--verify")
    assert code == EXIT_RESOURCE
    payload = json.loads(err)
    assert payload["error"]["type"] == "resource_cap"
    assert payload["error"]["cap"] == 40


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_bad_cap_in_the_environment_is_a_named_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("STURMIAN_SPECTRA_CAP", value)
    code, out, err = _run(capsys, "exponent", FIB, "-k", "1", "-m", "5",
                          "--verify")
    assert code == EXIT_USAGE
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "invalid_argument"
    assert "STURMIAN_SPECTRA_CAP" in payload["message"]


def test_memory_exhaustion_is_a_resource_cap(capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "cf", exhausted)
    code, out, err = _run(capsys, "cf", FIB)
    assert code == EXIT_RESOURCE
    assert out == ""
    assert json.loads(err)["error"]["type"] == "resource_cap"


def _exit_and_streams(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # only --help leaves through argparse, with 0
        assert exc.code == EXIT_OK, argv
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call_like_a_fresh_process(capsys, monkeypatch):
    """Consecutive in-process calls with different subcommands, --help and
    usage errors included, print what fresh processes print."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    calls = [
        ["theta", FIB, "-k", "2"],
        ["exponent", FIB, "-k", "2", "-m", "5", "--format", "json"],
        ["classes", FIB, "-k", "2", "-m", "0"],
        ["cf", FIB, "--t-max", "3", "--format", "csv"],
        ["--help"],
        ["exponent", "--help"],
        ["exponent", FIB, "-k", "2"],
        ["nonesuch"],
    ]
    for argv in calls:
        got = _exit_and_streams(capsys, argv)
        fresh = subprocess.run([sys.executable, "-m", "sturmian_spectra", *argv],
                               capture_output=True, text=True, env=os.environ)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._build_parser() is cli._build_parser()


_PARSE_ARGVS = [argv for argv, _ in CLI_CASES.values()] + [
    ["theta", FIB, "-k", "2", "--bogus"],
    ["theta", FIB, "extra", "-k", "2"],
    ["theta", FIB, "-k", "2", "--", "x"],
    ["theta", "--", FIB, "-k", "2"],
    ["theta", FIB],
    ["theta", FIB, "-k", "2", "--format", "csv"],
    ["theta", FIB, "-k", "0"],
    ["theta", FIB, "-k", "2", "-k", "3"],
    ["theta", FIB, "-k2"],
    ["spectrum", "-k", "2", "--base", FIB, "--pool=2"],
    ["theta", FIB, "-k", "2", "--form", "json"],
    ["theta", FIB, "-k", "2", "--he"],
    ["exponent", "--help"],
    ["--help"],
    [],
    ["nonesuch"],
    ["--format", "json", "theta", FIB, "-k", "2"],
    # what the reader takes: options in any order, flags, a value that is
    # empty or that int() reads though it is no ASCII numeral, an empty
    # positional
    ["theta", "-k", "2", FIB],
    ["classes", FIB, "--emit-circle", "-m", "5", "--convention", "right", "-k", "2"],
    ["theta", FIB, "-k", " 4"],
    ["theta", FIB, "-k", "\uff14"],
    ["theta", "", "-k", "2"],
    ["spectrum", "-k", "2", "--base", ""],
    # what the reader hands argparse
    ["theta", FIB, "-k", "2", "--format=json"],
    ["theta", FIB, "-k"],
    ["theta", FIB, "-k", "-1"],
    ["theta", "-", "-k", "2"],
    ["theta", "-1", "-k", "2"],
    ["theta", FIB, "-k", "2", "-h"],
    ["classes", FIB, "-k", "2", "-m", "5", "--emit-circle", "--emit-circle"],
    ["classes", FIB, "-k", "2", "-m", "5", "--emit-circle=1"],
    ["spectrum", "-k", "2"],
    ["spectrum", "-k", "2", "--base", FIB, FIB],
    ["spectrum", "-k", "2", "--base", "-x"],
    ["linfty", "7/3", "--stages", "x"],
    ["linfty", "7/3", "--stages", "2", "--format", "csv"],
    ["cf", FIB, "--t-max", ""],
]


def _parse_outcome(capsys, parse, argv):
    """The namespace parse gives argv, as a dict, or its usage error, or the
    code it exits with; and what it printed."""
    try:
        outcome = vars(parse(argv))
    except cli._UsageError as exc:
        outcome = str(exc)
    except SystemExit as exc:  # --help
        outcome = exc.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", _PARSE_ARGVS)
def test_one_pass_parse_matches_the_full_parse(capsys, monkeypatch, argv):
    """Parsing a command on its own parser gives the namespace, the usage
    error (named by the same prog), the help text and the exit code of the
    full top-level parse."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    assert _parse_outcome(capsys, cli._parse, argv) == _parse_outcome(capsys, full_parse, argv)


# one well-formed request per command, in chunks: an option and its value, a
# flag or a positional
_CHUNKS = {
    "cf": [(FIB,), ("--t-max", "3"), ("--format", "csv")],
    "classes": [(FIB,), ("-k", "2"), ("-m", "5"), ("--emit-circle",),
                ("--convention", "right"), ("--format", "json")],
    "exponent": [(FIB,), ("-k", "2"), ("-m", "5"), ("--verify",),
                 ("--convention", "right"), ("--format", "json")],
    "theta": [(FIB,), ("-k", "2"), ("--format", "json")],
    "spectrum": [("-k", "2"), ("--base", FIB), ("--pool", "2"), ("--format", "csv")],
    "linfty": [("7/3",), ("--stages", "1"), ("--format", "json")],
}
# what may be put among them: every option string with a value of each kind,
# good and bad, and tokens only argparse reads
_OPTION_VALUES = {
    "-k": ["2", "0", "x", " 4", "\uff14", ""],
    "-m": ["5", "0"],
    "--t-max": ["3", "0"],
    "--format": ["json", "csv", "xml"],
    "--convention": ["right", "middle"],
    "--base": [FIB],
    "--pool": ["2"],
    "--stages": ["1"],
}
_TOKENS = [FIB, "7/3", "", "--emit-circle", "--verify", "--format=json", "-k3", "--form",
           "--", "-", "-h", "-1", "--help", "--bogus", "-k", "--format", "--base"]
_VALUES = sorted({value for values in _OPTION_VALUES.values() for value in values}
                 | {"-x", "-1", "--verify"})
_EXTRA_CHUNKS = st.one_of(
    st.sampled_from(sorted(_OPTION_VALUES)).flatmap(
        lambda opt: st.tuples(st.just(opt), st.sampled_from(_OPTION_VALUES[opt]))),
    st.sampled_from(_TOKENS).map(lambda token: (token,)),
)


@st.composite
def _argvs(draw):
    """A command's well-formed request in any order, about one chunk in six
    dropped and one in six given another value, and up to two chunks put in
    anywhere."""
    command = draw(st.sampled_from([*_CHUNKS, "nonesuch", "-h"]))
    chunks = []
    for chunk in draw(st.permutations(_CHUNKS.get(command, []))):
        change = draw(st.integers(0, 5))
        if change == 1:
            continue
        if change == 2 and not chunk[-1].startswith("-"):  # a value or a positional
            chunk = (*chunk[:-1], draw(st.sampled_from(_VALUES)))
        chunks.append(chunk)
    for _ in range(draw(st.integers(0, 2))):
        chunks.insert(draw(st.integers(0, len(chunks))), draw(_EXTRA_CHUNKS))
    return [command] + [token for chunk in chunks for token in chunk]


@given(_argvs())
@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_reader_matches_the_full_parse(capsys, monkeypatch, argv):
    """On any argv, the reader's namespace or argparse's own answer is the
    namespace, usage error, help text and exit of the full parse."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    assert _parse_outcome(capsys, cli._parse, argv) == _parse_outcome(capsys, full_parse, argv)


def test_the_reader_knows_every_action():
    """The reader reads store and store_true actions; help, whose default
    is SUPPRESS, it leaves to argparse.  An action of another kind would
    need the reader taught first."""
    for parser in cli._build_parser().commands.values():
        for action in parser._actions:
            assert (type(action) in (argparse._StoreAction, argparse._StoreTrueAction)
                    or action.default is argparse.SUPPRESS), action


def test_the_reader_takes_every_cli_mix_request(monkeypatch):
    """Every request of the benchmark's cli-mix op lists for seeds 1-3 is
    read without argparse, into the namespace of the full parse."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "bench"))
    import workloads

    for seed in 1, 2, 3:  # at 25 s, the benchmark's run length
        for op in workloads.generate("cli-mix", seed, 25, sturmian_spectra):
            args = cli._read(op["argv"])
            assert args is not None and args == full_parse(op["argv"]), op["argv"]


_QUOTIENTS = st.lists(st.integers(1, 9), max_size=3)
_CF_TEXTS = st.one_of(
    st.tuples(st.integers(-2, 2), _QUOTIENTS, _QUOTIENTS.filter(bool)).map(
        lambda t: f"[{t[0]}; " + "".join(f"{a}, " for a in t[1])
        + f"({', '.join(map(str, t[2]))})]"),
    st.tuples(st.integers(-2, 2), _QUOTIENTS).map(
        lambda t: f"[{t[0]}; {', '.join(map(str, t[1]))}]"),  # rational
    st.text("[];,() -0123456789", max_size=10),
)
_K = st.integers(1, 40).map(str)
_REQUESTS = st.one_of(
    st.tuples(st.just("cf"), _CF_TEXTS, st.just("--t-max"), st.integers(0, 40).map(str),
              st.just("--format"), st.sampled_from(["text", "json", "csv"])),
    st.tuples(st.just("classes"), _CF_TEXTS, st.just("-k"), _K,
              st.just("-m"), st.integers(1, 400).map(str),
              st.sampled_from([(), ("--emit-circle",), ("--convention", "right")]),
              st.just("--format"), st.sampled_from(["text", "json"])),
    st.tuples(st.just("exponent"), _CF_TEXTS, st.just("-k"), _K,
              st.just("-m"), st.integers(1, 400).map(str),
              st.sampled_from([(), ("--verify",), ("--convention", "right")]),
              st.just("--format"), st.sampled_from(["text", "json"])),
    st.tuples(st.just("theta"), _CF_TEXTS, st.just("-k"), _K,
              st.just("--format"), st.sampled_from(["text", "json"])),
    st.tuples(st.just("spectrum"), st.just("-k"), _K, st.just("--base"), _CF_TEXTS,
              st.just("--pool"), st.integers(0, 20).map(str),
              st.just("--format"), st.sampled_from(["text", "json", "csv"])),
    st.tuples(st.just("linfty"), st.one_of(
        st.tuples(st.integers(-3, 30), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.text("/.-0123456789 x", max_size=6)),
        st.just("--stages"), st.integers(1, 6).map(str),
        st.just("--format"), st.sampled_from(["text", "json"])),
).map(lambda parts: [token for part in parts
                     for token in (part if isinstance(part, tuple) else (part,))])


@given(_REQUESTS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_small_request_answers_or_refuses_cleanly(capsys, monkeypatch, argv):
    """A request with k <= 40, m <= 400, --t-max <= 40, --pool <= 20 and
    --stages <= 6, on a well-formed or malformed slope or target, exits 0
    with nothing on stderr, or refuses (2 or 3) with nothing on stdout and
    a typed JSON error on stderr."""
    monkeypatch.delenv("STURMIAN_SPECTRA_CAP", raising=False)
    code, out, err = _run(capsys, *argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_RESOURCE), (argv, err)
    if code == EXIT_OK:
        assert err == "", argv
    else:
        assert out == "", argv
        assert json.loads(err)["error"]["type"], argv


def test_repeated_runs_are_identical(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = _run(capsys, "spectrum", "-k", "2", "--base", "[0; (1)]",
                            "--pool", "6", "--format", "json")
        assert code == EXIT_OK
        outputs.add(out)
    assert len(outputs) == 1


def _scramble_orbit(monkeypatch):
    """Every coarse cut index collapses onto 0, so the coarse family is too
    small."""
    monkeypatch.setattr(geometry, "_coarse_indices", lambda k, m: {0})


@pytest.mark.parametrize("breakage", [_scramble_orbit])
def test_invariant_failure_is_exit_4_with_json(capsys, monkeypatch, breakage):
    breakage(monkeypatch)
    code, out, err = _run(capsys, "classes", FIB, "-k", "2", "-m", "5")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert json.loads(err)["error"]["type"] == "invariant_violation"


def test_long_period_slope_finishes_quickly():
    """A 13-term period with a 44-digit discriminant, which full
    factorisation could not split within this budget."""
    cmd = [sys.executable, "-m", "sturmian_spectra", "cf",
           "[0; (20, 33, 55, 28, 73, 93, 97, 7, 64, 88, 51, 92, 82)]"]
    done = subprocess.run(cmd, capture_output=True, timeout=5)
    assert done.returncode == EXIT_OK
    assert b"lambda: " in done.stdout


def test_classes_past_the_symbol_budget_are_a_resource_cap():
    """20000001 factors of length 20000000 would be 4e14 symbols; the
    budget refuses them before anything is sorted."""
    cmd = [sys.executable, "-m", "sturmian_spectra", "classes", "[0;(1)]",
           "-k", "2", "-m", "20000000"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=5)
    assert (done.returncode, done.stdout) == (EXIT_RESOURCE, "")
    payload = json.loads(done.stderr)["error"]
    assert payload["type"] == "resource_cap"
    assert (payload["needed"], payload["cap"]) == (20000001 * 20000000, 10**8)


def test_long_factor_language_classes_finish_quickly():
    """3001 factors of length 3000, read off circle ranks, well inside 5 s."""
    cmd = [sys.executable, "-m", "sturmian_spectra", "classes", "[0; (1)]",
           "-k", "2", "-m", "3000", "--format", "json"]
    done = subprocess.run(cmd, capture_output=True, timeout=5)
    assert done.returncode == EXIT_OK
    classes = json.loads(done.stdout)["classes"]
    assert sum(len(c["words"]) for c in classes) == 3001


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "cf, m, code",
    [("[0; 3]", "5", EXIT_USAGE), (FIB, "0", EXIT_USAGE), (FIB, "10000", EXIT_RESOURCE)],
    ids=["rational-slope", "m-0", "m-10000"],
)
def test_classes_refuse_before_the_first_byte(capsys, cf, m, code, fmt):
    """A rational slope, m = 0 and m = 10000, the first length past the
    symbol budget, are refused with nothing on stdout: every check runs
    before the words are written."""
    got, out, err = _run(capsys, "classes", cf, "-k", "2", "-m", m, "--format", fmt)
    assert (got, out) == (code, "")
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "argv",
    [["classes", "[0; (1)]", "-k", "2", "-m", "3000"], ["cf", "[0; (1)]", "--t-max", "3000"]],
    ids=["classes", "cf"],
)
def test_a_closed_stdout_is_exit_1_without_a_traceback(argv):
    """A reader that takes 20 bytes and closes the pipe, as `| head -c 20`
    does, ends the command with exit 1 and nothing on stderr."""
    with subprocess.Popen([sys.executable, "-m", "sturmian_spectra", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=10) == EXIT_STDOUT_CLOSED
        finally:
            proc.kill()  # a no-op once it has exited
    assert b"Traceback" not in err
    assert err == b""


# The child reports its own peak.  RUSAGE_CHILDREN would give the largest
# of all earlier children, and on Linux even the child's ru_maxrss counts
# the peak of the process that spawned it (the test runner), so there the
# child reads VmHWM, the peak of its own image.  Elsewhere it falls back to
# ru_maxrss, in bytes on macOS and in KB on other systems.
_PEAK_RSS = """
import resource, sys
from sturmian_spectra.cli import main
code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as status:
        kb = [int(line.split()[1]) for line in status if line.startswith("VmHWM:")]
    peak = kb[0] * 1024
except (OSError, IndexError):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak *= 1 if sys.platform == "darwin" else 1024
print(code, peak, file=sys.stderr)
"""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classes_stream_in_linear_memory(fmt):
    """m = 9999, just inside the symbol budget: 10^8 letters written under
    50 MB of peak RSS.  Building the whole output first took over 300 MB."""
    cmd = [sys.executable, "-c", _PEAK_RSS, "classes", "[0; (1)]", "-k", "1",
           "-m", "9999", "--format", fmt]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=30)
    code, peak = map(int, done.stderr.split())
    assert code == EXIT_OK
    assert peak < 50 * 2**20


def test_console_script_round_trip():
    """The installed entry point produces byte-identical repeated output."""
    cmd = [sys.executable, "-m", "sturmian_spectra", "theta", FIB, "-k", "2",
           "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["theta"]["d"] == "5"
