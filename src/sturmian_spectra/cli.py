"""Command-line surface for the exact Sturmian repetition toolkit.

Every command prints deterministic output: no timestamps, no hash seeds,
no float round-trips.  Numeric results carry the exact component form and
a 40-digit correctly rounded decimal, in text and JSON alike.

Exit codes: 0 success, 1 stdout closed by its reader before the output
ended (the rest is dropped, with no message), 2 usage or parse error,
3 resource cap hit or memory exhausted, 4 internal invariant violation
(oracle disagreement or a failed geometric invariant; should never fire).
Every refusal (2, 3 or 4) comes before the first byte of stdout.

`classes` writes its words as the crossing walk reaches them, one at a
time, so its memory stays O(m) however long the output.

A request is parsed on one of two paths.  The reader (_read) takes an argv
that starts with a command and whose later tokens are each a whole option
string of that command (each at most once), the value after an option
that takes one, or a positional, where only the option strings start with
"-".  It builds the namespace from tables taken once from the command's
argparse actions, so the grammar is written only in _build_parser.  It
declines a value that fails its type or choices and a missing required
argument too.  argparse decides every argv the reader declines -- -h, "--",
--opt=value, -k3, an abbreviation, a negative number, a missing or
repeated option, an extra positional, a bad value, an unknown command --
in one full parse, so every exit code, usage message and help text stays
argparse's own, whatever the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from functools import cache

from .cf import CFSyntaxError, ContinuedFraction, Convergent, _folds
from .geometry import LEFT_CLOSED, RIGHT_CLOSED, ikm_intervals
from .kabelian import _class_walk
from .quadreal import QuadReal
from .spectra import (
    ResourceCapExceeded,
    brute_kab_exponent,
    construct_linfty_slope,
    max_kab_exponent,
    sample_spectrum,
    theta_k,
)
from .spectra import _digit_cap, _digit_limit, _power_of_ten

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

_CONVENTIONS = {"left": LEFT_CLOSED, "right": RIGHT_CLOSED}


def _error(code: int, kind: str, message: str, **extra) -> int:
    payload = {"error": {"type": kind, "message": message, **extra}}
    print(json.dumps(payload), file=sys.stderr)
    return code


def _frac_json(x: Fraction) -> dict:
    return QuadReal.from_fraction(x).to_json()


def _show(x: QuadReal) -> str:
    return f"{x} = {x.decimal()}"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _UsageError(Exception):
    """A command line argparse would refuse with a usage message."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error by raising, so main can answer in JSON with
    exit 2; --help still prints and exits as argparse does."""

    commands: dict[str, argparse.ArgumentParser]  # on the top-level parser: each command's parser

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


@cache  # built once per process; parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="sturmian-spectra",
        description="Exact repetition thresholds of Sturmian words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, *choices: str) -> None:
        p.add_argument(
            "--format",
            dest="output",
            choices=choices,
            default="text",
            help="output format (default: text)",
        )

    def add_convention(p: argparse.ArgumentParser, text: str) -> None:
        p.add_argument(
            "--convention", choices=sorted(_CONVENTIONS), default="left", help=text
        )

    p_cf = sub.add_parser("cf", help="value, convergents and Lagrange constant")
    p_cf.add_argument("cf_text", metavar="CF", help='e.g. "[0; 2, (1)]"')
    p_cf.add_argument("--t-max", dest="t_max", type=_nonneg_int, default=10)
    add_format(p_cf, "text", "json", "csv")

    p_classes = sub.add_parser("classes", help="k-abelian classes of length-m factors")
    p_classes.add_argument("cf_text", metavar="CF")
    p_classes.add_argument("-k", type=_positive_int, required=True)
    p_classes.add_argument("-m", type=_positive_int, required=True)
    p_classes.add_argument(
        "--emit-circle",
        action="store_true",
        help="include circle cut coordinates for plotting",
    )
    add_convention(
        p_classes,
        "accepted and has no effect: classes and their intervals do not "
        "depend on the endpoint convention",
    )
    add_format(p_classes, "text", "json")

    p_exp = sub.add_parser("exponent", help="max k-abelian power exponent of period m")
    p_exp.add_argument("cf_text", metavar="CF")
    p_exp.add_argument("-k", type=_positive_int, required=True)
    p_exp.add_argument("-m", type=_positive_int, required=True)
    p_exp.add_argument(
        "--verify",
        action="store_true",
        help="cross-check against the brute-force oracle",
    )
    add_convention(p_exp, "endpoint convention for the coding intervals")
    add_format(p_exp, "text", "json")

    p_theta = sub.add_parser("theta", help="exact k-abelian critical exponent")
    p_theta.add_argument("cf_text", metavar="CF")
    p_theta.add_argument("-k", type=_positive_int, required=True)
    add_format(p_theta, "text", "json")

    p_spec = sub.add_parser("spectrum", help="sample theta_k over equivalent slopes")
    p_spec.add_argument("-k", type=_positive_int, required=True)
    p_spec.add_argument("--base", dest="cf_text", required=True, metavar="CF")
    p_spec.add_argument("--pool", type=_nonneg_int, default=200)
    add_format(p_spec, "text", "json", "csv")

    p_lin = sub.add_parser(
        "linfty", help="stagewise slope construction hitting a rational target"
    )
    p_lin.add_argument("target", metavar="LAMBDA", help='positive rational, e.g. "7/3"')
    p_lin.add_argument("--stages", type=_positive_int, default=4)
    add_format(p_lin, "text", "json")

    parser.commands = sub.choices
    return parser


@cache  # one per command, built on its first request
def _tables(command: str) -> tuple[dict, list, dict, set]:
    """The command's option string -> action map, its positionals, the
    namespace of its defaults and its required actions, all read off its
    parser's actions; --help, whose default is SUPPRESS, is left out."""
    options, positionals, defaults, required = {}, [], {"command": command}, set()
    for action in _build_parser().commands[command]._actions:
        if action.default is argparse.SUPPRESS:
            continue
        defaults[action.dest] = action.default
        options.update(dict.fromkeys(action.option_strings, action))
        if not action.option_strings:
            positionals.append(action)
        if action.required:
            required.add(action)
    return options, positionals, defaults, required


def _read(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace _build_parser().parse_args(argv) gives, read off the
    command's tables, or None where argparse must decide (see the module
    docstring)."""
    if not argv or argv[0] not in _build_parser().commands:
        return None
    options, positionals, defaults, required = _tables(argv[0])
    values, seen = dict(defaults), set()
    tokens, free = iter(argv[1:]), iter(positionals)
    for token in tokens:
        if token.startswith("-"):
            action = options.get(token)
            if action is not None and action.nargs != 0:  # it takes the next token
                token = next(tokens, "-")  # a missing value declines as an option does
                if token.startswith("-"):
                    return None
        else:
            action = next(free, None)
        if action is None or action in seen:
            return None
        seen.add(action)
        if action.nargs == 0:  # a flag
            values[action.dest] = action.const
            continue
        try:
            value = token if action.type is None else action.type(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values) if seen >= required else None


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """What _build_parser().parse_args(argv) gives (see the module docstring)."""
    args = _read(argv)
    return _build_parser().parse_args(argv) if args is None else args


def _cmd_cf(args: argparse.Namespace) -> int:
    cf = ContinuedFraction.parse(args.cf_text)
    value = cf.value()
    t_max = args.t_max
    if cf.is_rational:  # a finite expansion just ends early
        t_max = min(t_max, len(cf.preperiod) - 1)
    digits, whose = _digit_limit()
    limit, convs = _power_of_ten(digits), []
    for t, (p, _, q, _) in enumerate(_folds(map(cf.partial_quotient, range(t_max + 1)))):
        if max(q, abs(p)) >= limit:  # refused before printing or folding any further
            raise _digit_cap(digits, whose, f"the convergent table to t = {t_max}")
        convs.append(Convergent(t, p, q))
    lam = None if cf.is_rational else cf.lagrange_constant()
    if args.output == "json":
        doc = {
            "cf": cf.render(),
            "value": value.to_json(),
            "lambda": None if lam is None else lam.to_json(),
            "convergents": [
                {"t": c.t, "p": str(c.p), "q": str(c.q)} for c in convs
            ],
        }
        print(json.dumps(doc))
    elif args.output == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["t", "p", "q"])
        for c in convs:
            writer.writerow([c.t, c.p, c.q])
    else:
        print(f"cf: {cf.render()}")
        print(f"value: {_show(value)}")
        if lam is not None:
            print(f"lambda: {_show(lam)}")
        print("t\tp\tq")
        for c in convs:
            print(f"{c.t}\t{c.p}\t{c.q}")
    return EXIT_OK


def _interval_doc(fam, index: int) -> dict:
    return {"index": index, **fam.intervals[index].to_json()}


def _write_classes(walk, open_class, between: str, close_class) -> None:
    """Write each word of the class walk as it comes: open_class(i) before
    the first word of class i, `between` between two words of one class and
    close_class(i) after its last word, so no word outlives its write."""
    write = sys.stdout.write
    i = -1
    for opens, word in walk:
        if opens:
            if i >= 0:
                write(close_class(i))
            i += 1
            write(open_class(i))
        else:
            write(between)
        write(word)
    write(close_class(i))


def _cmd_classes(args: argparse.Namespace) -> int:
    cf = ContinuedFraction.parse(args.cf_text)
    alpha = _irrational(cf).value()
    # every refusal (budget, coarse family) is raised here, before any output
    fam = ikm_intervals(alpha, args.k, args.m)
    walk = _class_walk(alpha, args.k, args.m)
    write = sys.stdout.write
    if args.output == "json":
        # the words are ASCII 0s and 1s, which JSON needs no escape for, so
        # they are written as they are; json.dumps serialises everything else
        cf_json = json.dumps(cf.render())
        write(f'{{"cf": {cf_json}, "k": {args.k}, "m": {args.m}, "classes": [')
        _write_classes(
            walk,
            lambda i: ', {"words": ["' if i else '{"words": ["',
            '", "',
            lambda i: f'"], "interval": {json.dumps(_interval_doc(fam, i))}}}',
        )
        write("]")
        if args.emit_circle:
            write(f', "cuts": {json.dumps([cut.to_json() for cut in fam.cuts])}')
        write("}\n")
    else:
        write(f"cf: {cf.render()}  k={args.k}  m={args.m}  classes={len(fam)}\n")

        def close_class(i: int) -> str:
            iv = fam.intervals[i]
            return f"}}  start={iv.start.decimal(12)} length={iv.length.decimal(12)}\n"

        _write_classes(walk, lambda i: f"class {i}: {{", " ", close_class)
        if args.emit_circle:
            write("cuts:\n")
            for i, cut in enumerate(fam.cuts):
                write(f"  {i}: {_show(cut)}\n")
    return EXIT_OK


def _cmd_exponent(args: argparse.Namespace) -> int:
    cf = ContinuedFraction.parse(args.cf_text)
    alpha = _irrational(cf).value()
    convention = _CONVENTIONS[args.convention]
    record = max_kab_exponent(alpha, args.k, args.m, convention)
    brute = None
    if args.verify:
        brute = brute_kab_exponent(alpha, args.k, args.m)
        if brute != record.exponent:
            return _error(
                EXIT_INTERNAL,
                "oracle_mismatch",
                f"interval formula gave {record.exponent}, oracle gave {brute}",
                k=args.k,
                m=args.m,
            )
    if args.output == "json":
        doc = {
            "cf": cf.render(),
            "k": args.k,
            "m": args.m,
            "exponent": record.exponent,
            "max_interval_length": record.max_interval_length.to_json(),
            "step": record.step.to_json(),
            "witness": record.witness,
            "witness_intercept": (
                None
                if record.witness_intercept is None
                else record.witness_intercept.to_json()
            ),
            "verified": None if brute is None else True,
        }
        print(json.dumps(doc))
    else:
        print(f"cf: {cf.render()}  k={args.k}  m={args.m}")
        print(f"exponent: {record.exponent}")
        print(f"max_interval_length: {_show(record.max_interval_length)}")
        print(f"step: {_show(record.step)}")
        if record.witness is not None:
            print(f"witness_intercept: {_show(record.witness_intercept)}")
            print(f"witness: {record.witness}")
        if brute is not None:
            print(f"verify: oracle agrees ({brute})")
    return EXIT_OK


def _cmd_theta(args: argparse.Namespace) -> int:
    cf = ContinuedFraction.parse(args.cf_text)
    theta = theta_k(_irrational(cf), args.k)
    if args.output == "json":
        doc = {"cf": cf.render(), "k": args.k, "theta": theta.to_json()}
        print(json.dumps(doc))
    else:
        print(f"cf: {cf.render()}  k={args.k}")
        print(f"theta: {_show(theta)}")
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    base = ContinuedFraction.parse(args.cf_text)
    points = sample_spectrum(args.k, _irrational(base), args.pool)
    if args.output == "json":
        for p in points:
            print(
                json.dumps(
                    {"cf": p.cf.render(), "k": p.k, "theta": p.theta.to_json()}
                )
            )
    elif args.output == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["cf", "k", "theta_decimal"])
        for p in points:
            writer.writerow([p.cf.render(), p.k, p.theta.decimal()])
    else:
        print(f"base: {base.render()}  k={args.k}  points={len(points)}")
        for p in points:
            print(f"{p.cf.render()}\t{p.theta.decimal()}")
    return EXIT_OK


def _cmd_linfty(args: argparse.Namespace) -> int:
    from fractions import Fraction

    try:
        lam = Fraction(args.target)
    except (ValueError, ZeroDivisionError) as exc:
        raise CFSyntaxError(f"bad rational target {args.target!r}: {exc}") from exc
    report = construct_linfty_slope(lam, args.stages)
    if args.output == "json":
        doc = {
            "target": _frac_json(report.target),
            "stages": [
                {
                    "t": s.t,
                    "k": s.k,
                    "q": str(s.q),
                    "a_next": str(s.a_next),
                    "ratio": _frac_json(s.ratio),
                    "error": _frac_json(s.error),
                    "bound": _frac_json(s.bound),
                }
                for s in report.stages
            ],
            "quotients": list(report.quotients),
            "prefix": report.prefix.render(),
            "padding_ok": report.padding_ok,
        }
        print(json.dumps(doc))
    else:
        print(f"target: {_show(QuadReal.from_fraction(report.target))}")
        print("t\tk\tq\ta_next\tratio\terror\tbound")
        for s in report.stages:
            print(
                f"{s.t}\t{s.k}\t{s.q}\t{s.a_next}\t{s.ratio}\t{s.error}\t{s.bound}"
            )
        print(f"quotients: {list(report.quotients)}")
        print(f"prefix: {report.prefix.render()}")
        print(f"padding_ok: {report.padding_ok}")
    return EXIT_OK


def _irrational(cf: ContinuedFraction) -> ContinuedFraction:
    """cf, refused as a parse error when rational: every subcommand that
    reads a slope refuses a rational one in these words."""
    if cf.is_rational:
        raise CFSyntaxError(f"slope must be irrational, got rational {cf.render()}")
    return cf


_HANDLERS = {
    "cf": _cmd_cf,
    "classes": _cmd_classes,
    "exponent": _cmd_exponent,
    "theta": _cmd_theta,
    "spectrum": _cmd_spectrum,
    "linfty": _cmd_linfty,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        return _error(EXIT_USAGE, "usage_error", str(exc))
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe must show here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is left buffered to devnull, so
        # the flush at shutdown finds no pipe to complain about
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    except CFSyntaxError as exc:
        return _error(EXIT_USAGE, "parse_error", str(exc))
    except ResourceCapExceeded as exc:
        return _error(
            EXIT_RESOURCE, "resource_cap", str(exc), needed=exc.needed, cap=exc.cap
        )
    except ValueError as exc:
        return _error(EXIT_USAGE, "invalid_argument", str(exc))
    except AssertionError as exc:
        return _error(EXIT_INTERNAL, "invariant_violation", str(exc))
    except MemoryError:  # the last resort behind every explicit budget
        return _error(EXIT_RESOURCE, "resource_cap", "out of memory")


if __name__ == "__main__":
    sys.exit(main())
