"""Benchmark harness for sturmian_spectra: one workload, one seed, one run.

    python3 bench/run.py --workload oracle-sweep --seed 1 --seconds 25 --trace 0

Generates the workload's fixed op list from the seed (its size follows
--seconds; the run ends when the list ends, never on a clock), runs it in a
fresh worker process and prints, as the last line of stdout, one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

--trace 0  end-to-end metrics: throughput, median and tail op latency and
           peak RSS of the worker, plus the median set-up time of several
           fresh processes.  Times are CPU times normalised by a speed probe
           run between the ops (worker.py), read as on the reference machine.
--trace 1  per-layer metrics: the same op list runs once untraced and once
           with span wrappers installed around every public function and
           method of the package, each in a fresh worker.

A full record (run metadata, every metric, the layer table, failures and the
output digest) is written to bench/results/.  Exit status: 0 when every
check passed, 1 when a check failed or a worker died, 2 when the package in
src/ cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

sys.dont_write_bytecode = True  # leave no __pycache__ in src/ or bench/
sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

SETUP_SAMPLES = 15
# The speed probe's (worker.speed_probe) median time on the reference
# machine in a quiet phase.  Every time is reported as it would read there.
REF_PROBE_S = 0.001
WORKER_TIMEOUT_S = 160
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# name -> (unit, better); the README maps each to the end-to-end metric and
# workload it should move.
PER_LAYER = {
    "quadreal.new.calls": ("count", "lower"),
    "quadreal.new.self_s": ("s", "lower"),
    "quadreal.compare.calls": ("count", "lower"),
    "quadreal.compare.self_s": ("s", "lower"),
    "quadreal.arith.calls": ("count", "lower"),
    "quadreal.floor.calls": ("count", "lower"),
    "quadreal.decimal.self_s": ("s", "lower"),
    "ntheory.squarefree_split.calls": ("count", "lower"),
    "ntheory.squarefree_split.self_s": ("s", "lower"),
    "ntheory.factorize.calls": ("count", "lower"),
    "cf.value.self_s": ("s", "lower"),
    "cf.lagrange_constant.self_s": ("s", "lower"),
    "cf.convergents.calls": ("count", "lower"),
    "geometry.level_intervals.calls": ("count", "lower"),
    "geometry.level_intervals.self_s": ("s", "lower"),
    "geometry.level_intervals.points": ("count", "lower"),
    "geometry.ikm_intervals.calls": ("count", "lower"),
    "geometry.ikm_intervals.self_s": ("s", "lower"),
    "words.factors_of_length.calls": ("count", "lower"),
    "words.factors_of_length.misses": ("count", "lower"),
    "words.factors_of_length.cache_hit_ratio": ("ratio", "higher"),
    "words.factors_of_length.self_s": ("s", "lower"),
    "words.symbols_coded": ("count", "lower"),
    "words.sturmian_prefix.self_s": ("s", "lower"),
    "kabelian.signature.calls": ("count", "lower"),
    "kabelian.signature.self_s": ("s", "lower"),
    "kabelian.classify_brute.self_s": ("s", "lower"),
    "kabelian.classify_by_intervals.self_s": ("s", "lower"),
    "spectra.brute_kab_exponent.calls": ("count", "lower"),
    "spectra.brute_kab_exponent.self_s": ("s", "lower"),
    "spectra.oracle.capped_ratio": ("ratio", "lower"),
    "spectra.oracle.max_length": ("letters", "lower"),
    "spectra.max_kab_exponent.self_s": ("s", "lower"),
    "spectra.theta_k.self_s": ("s", "lower"),
    "spectra.exponent_bound_check.self_s": ("s", "lower"),
    "spectra.theta_limsup_estimate.self_s": ("s", "lower"),
    "spectra.sample_spectrum.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("B", "lower"),
    **{f"layer.{layer}.self_share": ("ratio", "lower") for layer in tracer.LAYERS.values()},
    "trace.uncovered_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class BenchError(RuntimeError):
    """A worker died or misbehaved; no result can be reported."""


# -- workers ----------------------------------------------------------------------


def _worker(job: dict) -> dict:
    """Run bench/worker.py in a fresh interpreter (no site hooks, no .pyc writes)."""
    cmd = [sys.executable, "-S", "-B", str(BENCH / "worker.py")]
    try:
        proc = subprocess.run(
            cmd,
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{job['mode']} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _run_ops(workload: str, ops: list, trace: bool, clock: str = "cpu") -> dict:
    return _worker(
        {"mode": "run", "workload": workload, "src": str(SRC), "ops": ops, "trace": trace,
         "clock": clock}
    )


def normalise(seconds: float, probes: list[float]) -> float:
    """A time taken while the speed probe took `probes`, as read at REF_PROBE_S."""
    return seconds * REF_PROBE_S / statistics.median(probes)


def _normalised_times(run: dict) -> list[float]:
    """Each op's time against the PROBES_AROUND probes on either side of it."""
    probes, k = run["probes"], worker.PROBES_AROUND
    return [
        normalise(t, probes[max(0, at - k) : at + k])
        for t, at in zip(run["times"], run["probe_at"])
    ]


def _setup_samples(workload: str, first_op: dict) -> list[float]:
    """Normalised set-up times of SETUP_SAMPLES fresh workers."""
    job = {"mode": "setup", "workload": workload, "src": str(SRC), "op": first_op}
    samples = [_worker(job) for _ in range(SETUP_SAMPLES)]
    return [normalise(s["setup_s"], s["probes"]) for s in samples]


# -- metrics ----------------------------------------------------------------------


def _rank(n: int, percent: int) -> int:
    """Nearest-rank position (1-based) of a whole percentile."""
    return max(1, -(-percent * n // 100))


def tail_percent(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n ops above it."""
    fits = [p for p in range(50, 100) if n - _rank(n, p) >= TAIL_BEYOND]
    return fits[-1] if fits else 100


def tail_ms(sorted_times: list[float]) -> float:
    """latency_tail_ms: the tail percentile of the op times (nearest rank), in ms."""
    return sorted_times[_rank(len(sorted_times), tail_percent(len(sorted_times))) - 1] * 1e3


def end_to_end(run: dict, setups: list[float]) -> dict:
    times = sorted(run["times"])
    return {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": tail_ms(times),
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(traced: dict, plain: dict) -> dict:
    report = traced["trace"]
    spans, counters = report["spans"], report["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    factors = calls("words.factors_of_length")
    misses = counters["words.factors_of_length.misses"]
    op_s = report["op_s"]
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls(span)
        elif field == "self_s":
            out[name] = self_s(span)
        elif name in counters:
            out[name] = counters[name]
    out.update(
        {
            "words.factors_of_length.cache_hit_ratio": ratio(factors - misses, factors),
            "spectra.oracle.capped_ratio": ratio(
                counters["spectra.oracle.capped"], calls("spectra.brute_kab_exponent")
            ),
            "cli.stdout_bytes": traced["stdout_bytes"],
            "trace.uncovered_frac": ratio(report["uncovered_s"], op_s),
            "trace.overhead_frac": op_s / sum(plain["times"]) - 1,
        }
    )
    for layer, secs in report["layer_self_s"].items():
        out[f"layer.{layer}.self_share"] = ratio(secs, op_s)
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise BenchError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}


def _by_kind(ops: list, times: list[float]) -> dict:
    """Op count, summed, median and longest time per op kind."""
    groups: dict[str, list[float]] = {}
    for op, t in zip(ops, times):
        groups.setdefault(op["kind"], []).append(t)
    return {
        kind: {"ops": len(ts), "sum_s": sum(ts), "median_s": statistics.median(ts), "max_s": max(ts)}
        for kind, ts in groups.items()
    }


# -- run metadata -------------------------------------------------------------------


def machine_probe_ms() -> float:
    """Median time of the speed probe in the harness process, in ms."""
    return statistics.median(worker.speed_probe() for _ in range(51)) * 1e3


def _commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def metadata(S) -> dict:
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "sturmian_spectra").glob("*.py"))
    )
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "worker_executable": sys.executable,
        "worker_executable_is_shim": "/shims/" in sys.executable,
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "src_lines": src_lines,
        "public_names": len(S.__all__),
        "loadavg": os.getloadavg(),
    }


# -- main -------------------------------------------------------------------------------


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        import sturmian_spectra
    except ImportError as exc:
        print(
            f"bench: cannot import sturmian_spectra from {SRC}: {exc}\n"
            "bench: run from the root of a checkout that contains src/sturmian_spectra",
            file=sys.stderr,
        )
        return None
    return sturmian_spectra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="run length; sets the size of the fixed op list",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    S = _import_package()
    if S is None:
        return 2
    meta = metadata(S)
    meta["probe_before_ms"] = machine_probe_ms()
    t0 = time.perf_counter()
    ops = W.generate(args.workload, args.seed, args.seconds, S)
    generate_s = time.perf_counter() - t0

    try:
        traced = None
        if args.trace:
            plain = _run_ops(args.workload, ops, trace=False, clock="wall")
            traced = _run_ops(args.workload, ops, trace=True, clock="wall")
            metrics = per_layer(traced, plain)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            plain = _run_ops(args.workload, ops, trace=False)
            plain["raw_times"] = plain["times"]
            plain["times"] = _normalised_times(plain)
            setups = _setup_samples(args.workload, ops[0])
            metrics = end_to_end(plain, setups)
            units = END_TO_END
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    meta["probe_after_ms"] = machine_probe_ms()

    failures = plain["failures"] + (traced["failures"] if traced else [])
    if traced and traced["digest"] != plain["digest"]:
        failures.append({"op": None, "kind": "trace", "error": "traced outputs differ"})
    correct = not failures
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": meta,
        "ops": len(ops),
        "generate_s": generate_s,
        "op_time_s": sum(plain["times"]),
        "raw_op_time_s": sum(plain.get("raw_times", plain["times"])),
        "worker_probe_ms": statistics.median(plain["probes"]) * 1e3,
        "tail_percentile": tail_percent(len(ops)),
        "oracle_capped": plain["capped"],
        "digest": plain["digest"],
        "failures": failures[:50],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "by_kind": _by_kind(ops, plain["times"]),
        "slowest_ops": sorted(
            ({"s": t, **op} for t, op in zip(plain["times"], ops)), key=lambda r: -r["s"]
        )[:20],
        "trace_report": traced["trace"] if traced else None,
    }
    if not args.trace:
        record["setup_samples_s"] = setups
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for f in failures[:10]:
        print(f"bench: failed op {f['op']} ({f['kind']}): {f['error']}", file=sys.stderr)
    print(f"bench: {len(ops)} ops, record in {out.relative_to(ROOT)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": len({f["op"] for f in failures}),
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
