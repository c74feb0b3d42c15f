"""Seeded op lists, op bodies, output checks and canonical output text.

Every workload is a closed loop: one client in one process issues the next
op only after the previous one returned.  A run executes a fixed op list
that depends only on the workload, the seed and the run length, so two runs
with the same arguments do the same work; the run ends when the list ends.

Op lists are generated in the harness process.  Ops run in a fresh worker
process: ``prepare`` turns an op into a zero-argument callable outside the
timed span, the worker times the call, and ``check`` inspects the result
afterwards, again outside the timed span.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("oracle-sweep", "formula-sweep", "cli-mix")

# Op-list size per second of --seconds, measured on a 2-core x86 machine
# with Python 3.11 at the commit that introduced the benchmark, in a slow
# phase of that machine.  The op count depends on --seconds only, never on
# elapsed time.
ORACLE_GROUPS_PER_S = 1.5
FORMULA_GROUPS_PER_S = 58
CLI_ROUNDS_PER_S = 3.4

ORACLE_CAP = 2000  # brute_kab_exponent's default cap
ORACLE_CELLS_PER_SLOPE = 10
# The criterion-03 grid: classes for k 1-4, m 1-60; the exponent oracle for
# k 1-3, m 1-40 (the oracle cells).
ORACLE_GRID = tuple((k, m) for k in range(1, 5) for m in range(1, 61))
# A slope's cost is set by the deepest factor language its oracle cells
# build (the ladder 64, 128, ..., 2000, each built once per slope).  Its
# ladder class is that depth, with 256 and below as one class.  One block of
# 24 slopes holds each class in proportion to its measured share among
# slopes with ORACLE_CELLS_PER_SLOPE uniformly sampled cells (bench/census.py:
# 2000 0.079, 1024 0.123, 512 0.242, <=256 0.555 over 4800 slopes).  Heavy
# classes are spread out so that a part block stays light.
ORACLE_CLASSES = (
    256, 512, 256, 1024, 256, 512, 256, ORACLE_CAP, 256, 512, 256, 256,
    256, 512, 256, 1024, 256, 512, 256, ORACLE_CAP, 256, 512, 256, 1024,
)


# -- slopes ---------------------------------------------------------------------


class SlopeSource:
    """Fresh slopes [0; pre, (per)], their canonical shapes dealt out evenly.

    Shapes (preperiod length, period length) come in a seeded cyclic order,
    so any run of len(shapes) consecutive slopes covers every shape once.
    A slope is never handed out twice in a run.  A shape with no fresh slope
    left (period 1 without preperiod has only `top` of them) is skipped.
    """

    def __init__(self, S, rng, pre_lens, per_lens, top):
        self.S, self.rng, self.top = S, rng, top
        self.shapes = [(a, b) for a in pre_lens for b in per_lens]
        rng.shuffle(self.shapes)
        self.used: set = set()
        self.exhausted: set = set()
        self.count = 0

    def draw(self, shape):
        """A random slope of `shape` not handed out yet, or None if none turns up."""
        pre_len, per_len = shape
        for _ in range(500):
            pre = [0] + [self.rng.randint(1, self.top) for _ in range(pre_len)]
            per = [self.rng.randint(1, self.top) for _ in range(per_len)]
            cf = self.S.ContinuedFraction(pre, per)
            key = (cf.preperiod, cf.period)
            if len(cf.preperiod) == pre_len + 1 and len(cf.period) == per_len and key not in self.used:
                return cf
        return None

    def take(self, cf):
        """Hand out `cf`: it is never drawn again in this run."""
        self.used.add((cf.preperiod, cf.period))
        return cf

    def next(self, shape=None):
        """The next fresh slope, of `shape` or else of the next shape in turn."""
        if shape is None:
            shape = self.shapes[self.count % len(self.shapes)]
            self.count += 1
        if len(self.exhausted) == len(self.shapes):
            raise RuntimeError("every slope shape is exhausted")
        while shape in self.exhausted:
            shape = self.shapes[(self.shapes.index(shape) + 1) % len(self.shapes)]
        cf = self.draw(shape)
        if cf is None:
            self.exhausted.add(shape)
            return self.next(shape)
        return self.take(cf)


def _cf_json(cf) -> dict:
    return {"pre": list(cf.preperiod), "per": list(cf.period)}


def _cli_text(cf) -> str:
    """The slope as CLI text, built from its fields, not by the package."""
    parts = [str(a) for a in cf.preperiod[1:]]
    parts.append("(" + ", ".join(str(b) for b in cf.period) + ")")
    return f"[{cf.preperiod[0]}; " + ", ".join(parts) + "]"


def oracle_ladder_depth(exponent: int, m: int, cap: int = ORACLE_CAP) -> int:
    """Longest factor language brute_kab_exponent builds to certify `exponent`.

    Mirrors the oracle's documented ladder: powers of two from 64 (at least
    4m), doubled until (exponent + 1) * m fits, clipped at the cap.  A query
    that needs more than the cap raises ResourceCapExceeded at depth `cap`.
    """
    length = 64
    while length < 4 * m and length < cap:
        length *= 2
    length = min(length, cap)
    while (exponent + 1) * m > length and length < cap:
        length = min(cap, length * 2)
    return length


def is_oracle_cell(k: int, m: int) -> bool:
    return k <= 3 and m <= 40


def ladder_class(S, alpha, cells) -> int:
    """The deepest oracle ladder length the cells build; 256 and below give 256."""
    depths = [
        oracle_ladder_depth(S.max_kab_exponent(alpha, k, m, with_witness=False).exponent, m)
        for k, m in cells
        if is_oracle_cell(k, m)
    ]
    return max([256] + depths)


# -- generation -------------------------------------------------------------------


def generate(workload: str, seed: int, seconds: float, S) -> list[dict]:
    """The fixed op list of one run.  S is the imported package."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle-sweep":
        groups = max(1, round(seconds * ORACLE_GROUPS_PER_S))
        if groups >= len(ORACLE_CLASSES):  # whole blocks of the class pattern
            groups = len(ORACLE_CLASSES) * round(groups / len(ORACLE_CLASSES))
        return _oracle_ops(S, rng, groups)
    if workload == "formula-sweep":
        return _formula_ops(S, rng, max(1, round(seconds * FORMULA_GROUPS_PER_S)))
    if workload == "cli-mix":
        return _cli_ops(S, rng, max(1, round(seconds * CLI_ROUNDS_PER_S)))
    raise ValueError(f"unknown workload {workload!r}")


def _oracle_ops(S, rng, groups):
    """Criterion-03 queries, slope by slope.

    Slopes have quotients 1-9, preperiod 0-2 and period 1-4; each half of a
    block of ORACLE_CLASSES covers the 12 shapes once, the halves offset so
    that equal classes get different shapes.  Each slope gets
    ORACLE_CELLS_PER_SLOPE cells drawn uniformly from the grid, run in grid
    order.  Slope and cells are drawn together until their ladder class is
    the block position's class, so within a class they keep their natural
    distribution (a shape that yields none in 300 draws passes to the next).
    """
    source = SlopeSource(S, rng, range(3), range(1, 5), 9)
    n = len(source.shapes)
    ops = []
    for g in range(groups):
        i = g % len(ORACLE_CLASSES)
        first = (i + (i // n) * (n // 2)) % n
        for attempt in range(300 * n):
            cf = source.draw(source.shapes[(first + attempt // 300) % n])
            if cf is None:
                continue
            cells = sorted(rng.sample(ORACLE_GRID, ORACLE_CELLS_PER_SLOPE))
            if ladder_class(S, cf.value(), cells) == ORACLE_CLASSES[i]:
                break
        else:
            raise RuntimeError(f"no slope of ladder class {ORACLE_CLASSES[i]}")
        source.take(cf)
        for k, m in cells:
            ops.append(
                {"kind": "query", "group": g, **_cf_json(cf), "k": k, "m": m,
                 "oracle": is_oracle_cell(k, m)}
            )
    return ops


def _formula_ops(S, rng, groups):
    """Closed-form path on a fresh slope per group.

    Slopes have quotients 1-30, preperiod 0-2 and period 1-8; the 24 shapes
    are dealt out evenly.  exponent_bound_check runs over the t whose
    q_{t+1} stays at most 300, since its cost grows with q_{t+1}.
    """
    source = SlopeSource(S, rng, range(3), range(1, 9), 30)
    ops = []
    for g in range(groups):
        cf = source.next()
        base = {"group": g, **_cf_json(cf)}
        k = rng.randint(1, 4)
        ops.append({"kind": "lagrange", **base})
        ops.append({"kind": "theta", **base, "k": k})
        for _ in range(4):
            ops.append(
                {"kind": "exponent", **base, "k": rng.randint(1, 4), "m": rng.randint(1, 200)}
            )
        ops.append({"kind": "limsup", **base, "k": k, "t_max": 10})
        qs = _denominators(cf, 40)
        t_range = [t for t in range(40) if qs[t + 1] <= 300]
        ops.append({"kind": "boundcheck", **base, "t_range": t_range})
        ops.append({"kind": "spectrum", **base, "k": k, "pool": rng.randint(2, 4)})
    return ops


def _denominators(cf, t_max):
    """q_0..q_t_max of the slope's convergents, from its partial quotients."""
    quotients = list(cf.preperiod[1:])
    while len(quotients) < t_max:
        quotients.extend(cf.period)
    q_prev, q = 0, 1
    qs = [q]
    for a in quotients[:t_max]:
        q_prev, q = q, a * q + q_prev
        qs.append(q)
    return qs


_CLI_FORMATS = {
    "classes": ("text", "json"),
    "exponent": ("text", "json"),
    "theta": ("text", "json"),
    "cf": ("text", "json", "csv"),
    "spectrum": ("text", "json", "csv"),
    "linfty": ("text", "json"),
}


def _cli_ops(S, rng, rounds):
    """All six subcommands, each round once, every request on a fresh slope.

    `classes` dominates the cost (it builds a language of length m), so its
    m values are a log-spaced grid over 100-1500, one per round, and the
    round also fixes its k, format, flags (a quarter each with
    --emit-circle and with --convention right) and slope shape (the number
    of quotients sets the size of the integers it codes with): every seed
    then puts the same kind of request at each rank, and only the quotients
    vary.  Every m is fresh too, so no factor language is ever reused.
    Rounds run in ascending `classes` m, so the factor-language cache holds
    the largest languages when the run ends and peak RSS compares across
    seeds.
    """
    source = SlopeSource(S, rng, range(3), range(1, 5), 9)
    used_m: set = set()
    span = math.log(1500 / 100)
    class_ms = []
    for i in range(rounds):
        m = round(100 * math.exp(span * (i + 0.5) / rounds))
        while m in used_m:
            m += 1
        used_m.add(m)
        class_ms.append(m)
    shapes = sorted(source.shapes)
    class_cfs = [source.next(shapes[r % len(shapes)]) for r in range(rounds)]
    ops = []

    def fresh_m(lo, hi):
        while True:
            m = rng.randint(lo, hi)
            if m not in used_m:
                used_m.add(m)
                return m

    for r in range(rounds):
        kinds = list(_CLI_FORMATS)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "classes":
                fmt = _CLI_FORMATS[kind][r % 2]
            else:
                fmt = rng.choice(_CLI_FORMATS[kind])
            op = {"kind": kind, "format": fmt}
            if kind == "classes":
                op["m"] = class_ms[r]
                argv = ["classes", _cli_text(class_cfs[r]), "-k", str(1 + r % 4),
                        "-m", str(op["m"])]
                if r % 4 == 1:
                    argv.append("--emit-circle")
                if r % 4 == 3:
                    argv += ["--convention", "right"]
            elif kind == "exponent":
                cf = source.next()
                k, m = rng.randint(1, 4), fresh_m(1, 200)
                argv = ["exponent", _cli_text(cf), "-k", str(k), "-m", str(m)]
                exponent = S.max_kab_exponent(cf.value(), k, m, with_witness=False).exponent
                # --verify only where the oracle ladder stays small
                op["verify"] = oracle_ladder_depth(exponent, m) <= 256
                if op["verify"]:
                    argv.append("--verify")
            elif kind == "theta":
                argv = ["theta", _cli_text(source.next()), "-k", str(rng.randint(1, 4))]
            elif kind == "cf":
                argv = ["cf", _cli_text(source.next()), "--t-max", str(rng.randint(5, 40))]
            elif kind == "spectrum":
                argv = ["spectrum", "-k", str(rng.randint(1, 4)), "--base",
                        _cli_text(source.next()), "--pool", str(rng.randint(2, 8))]
            else:
                target = f"{rng.randint(1, 30)}/{rng.randint(1, 9)}"
                argv = ["linfty", target, "--stages", str(rng.randint(1, 5))]
            op["argv"] = argv + ["--format", fmt]
            ops.append(op)
    return ops


# -- op bodies ----------------------------------------------------------------------


class Slope:
    """Per-group input: the slope, and its value once an op has computed it."""

    __slots__ = ("cf", "_alpha")

    def __init__(self, cf):
        self.cf = cf
        self._alpha = None

    def alpha(self):
        if self._alpha is None:
            self._alpha = self.cf.value()
        return self._alpha


def slopes(S, ops) -> dict:
    """The Slope of every group, built before any op runs."""
    out = {}
    for op in ops:
        if "group" in op and op["group"] not in out:
            out[op["group"]] = Slope(S.ContinuedFraction(op["pre"], op["per"]))
    return out


def prepare(S, op, slopes: dict):
    """Zero-argument callable that performs the op; built outside the timed span."""
    kind = op["kind"]
    if "argv" in op:
        main, argv = S.cli.main, list(op["argv"])
        return lambda: main(argv)
    slope = slopes[op["group"]]
    cf = slope.cf
    if kind == "query":
        return _oracle_query(S, slope, op["k"], op["m"], op["oracle"])
    if kind == "lagrange":
        def call():
            lam = cf.lagrange_constant()
            return lam, lam.decimal(40)
        return call
    if kind == "theta":
        def call():
            theta = S.theta_k(cf, op["k"])
            return theta, theta.decimal(40)
        return call
    if kind == "exponent":
        return lambda: S.max_kab_exponent(slope.alpha(), op["k"], op["m"])
    if kind == "limsup":
        return lambda: S.theta_limsup_estimate(cf, op["k"], op["t_max"])
    if kind == "boundcheck":
        return lambda: S.exponent_bound_check(cf, 2, op["t_range"])
    if kind == "spectrum":
        return lambda: S.sample_spectrum(op["k"], cf, op["pool"])
    raise ValueError(f"unknown op kind {kind!r}")


def _oracle_query(S, slope, k, m, oracle):
    def call():
        alpha = slope.alpha()
        words = [w for w, _ in S.factors_of_length(alpha, m)]
        by_intervals = S.classify_by_intervals(alpha, k, m)
        brute = S.classify_brute(words, k)
        if not oracle:
            return words, by_intervals, brute, None, None
        formula = S.max_kab_exponent(alpha, k, m, with_witness=False).exponent
        try:
            found = S.brute_kab_exponent(alpha, k, m)
        except S.ResourceCapExceeded as exc:  # the documented outcome, not a failure
            found = ("capped", exc.needed, exc.cap)
        return words, by_intervals, brute, formula, found

    return call


def is_capped(op, result) -> bool:
    """An oracle query that stopped at the symbol cap, as documented."""
    return op["kind"] == "query" and isinstance(result[4], tuple)


# -- checks -------------------------------------------------------------------------


def check(S, op, result, stdout: str, stderr: str) -> str | None:
    """None when the op's output is right, else a one-line reason."""
    kind = op["kind"]
    if "argv" in op:
        return _check_cli(op, result, stdout, stderr)
    if kind == "query":
        words, by_intervals, brute, formula, found = result
        if len(words) != op["m"] + 1:
            return f"{len(words)} factors of length {op['m']}"
        got = sorted(c.members for c in by_intervals if c.members)
        want = sorted(c.members for c in brute)
        if got != want:
            return "interval classes differ from brute-force classes"
        if formula is not None and not isinstance(found, tuple) and found != formula:
            return f"formula exponent {formula}, oracle {found}"
        return None
    if kind in ("lagrange", "theta"):
        value, text = result
        if value.sign() <= 0:
            return f"{kind} is not positive"
        return _decimal_mismatch(value, text)
    if kind == "exponent":
        return _check_witness(S, op, result)
    if kind == "limsup":
        tail = [v for t, v in result.terms if t >= result.window_start]
        if len(result.terms) != op["t_max"] or result.estimate != max(tail):
            return "estimate is not the max of its tail terms"
        return None
    if kind == "boundcheck":
        return None if result.ok else "exponent bound violated"
    if kind == "spectrum":
        cfs = [p.cf for p in result]
        if len(result) != op["pool"] or len(set(cfs)) != len(cfs):
            return f"{len(result)} spectrum points for pool {op['pool']}"
        base = S.ContinuedFraction(op["pre"], op["per"])
        if cfs[0] != base or not all(cf.equivalent(base) for cf in cfs):
            return "spectrum slope outside the base's tail class"
        for p in result:
            if p.theta.sign() <= 0:
                return "spectrum value is not positive"
            bad = _decimal_mismatch(p.theta, p.theta.decimal(40))
            if bad:
                return bad
        return None
    raise ValueError(f"unknown op kind {kind!r}")


def _decimal_mismatch(x, text: str) -> str | None:
    """decimal() must agree with float() to float precision."""
    scale = (abs(x.p) + abs(x.q) * math.sqrt(x.d)) / x.r
    if abs(float(Fraction(text)) - float(x)) > 1e-12 * max(scale, 1e-300):
        return f"decimal {text} disagrees with float {float(x)!r}"
    return None


def _check_witness(S, op, rec):
    m = op["m"]
    if rec.exponent < 1:
        return f"exponent {rec.exponent}"
    if rec.witness is None:
        return None if rec.exponent * m > ORACLE_CAP else "witness missing"
    if len(rec.witness) != rec.exponent * m:
        return f"witness length {len(rec.witness)} for {rec.exponent} blocks of {m}"
    blocks = [rec.witness[i : i + m] for i in range(0, len(rec.witness), m)]
    # equivalence is an equivalence relation, so first-vs-each covers every pair
    if not all(S.kab_equivalent(blocks[0], b, op["k"]) for b in blocks[1:]):
        return "witness blocks are not pairwise k-abelian equivalent"
    return None


def _check_cli(op, code, stdout, stderr):
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}"
    if stderr or not stdout:
        return "unexpected stderr or empty stdout"
    fmt, kind = op["format"], op["kind"]
    try:
        if fmt == "json":
            docs = [json.loads(line) for line in stdout.splitlines()]
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(stdout)))
            if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
                return "ragged or empty csv"
            return None
        else:
            docs = None
    except json.JSONDecodeError as exc:
        return f"unparseable json: {exc}"
    if kind == "exponent" and op["verify"]:
        if docs is None and "verify: oracle agrees" not in stdout:
            return "oracle did not agree"
        if docs is not None and docs[0].get("verified") is not True:
            return "verified is not true"
    if kind == "classes" and docs is not None:
        n_words = sum(len(c["words"]) for c in docs[0]["classes"])
        if n_words != op["m"] + 1:
            return f"{n_words} factors of length {op['m']}"
    return None


# -- digest ---------------------------------------------------------------------------


def canon(x) -> str:
    """Deterministic text of an op's output, built from attributes only.

    No package method is called, so the traced run's digest costs no span
    and must equal the untraced run's digest byte for byte.
    """
    if x is None or isinstance(x, (bool, int, str)):
        return repr(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + canon(
            [getattr(x, f.name) for f in dataclasses.fields(x)]
        )
    slots = getattr(type(x), "__slots__", ())
    if slots:  # QuadReal, ContinuedFraction
        return type(x).__name__ + canon([getattr(x, s) for s in slots])
    raise TypeError(f"no canonical form for {type(x).__name__}")
