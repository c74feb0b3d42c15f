"""Steadiness report: run each workload N times on one commit, one seed each.

    python3 bench/steadiness.py --runs 10 [--first-seed 1]

Runs bench/run.py on every workload in BENCHMARK.json, once per seed
(first-seed .. first-seed + N - 1), with the run length from BENCHMARK.json,
then prints, for every end-to-end metric, the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median and that spread as a share of the metric's bound.  The
machine-speed probe taken before and after each run is summarised too, so a
slow machine phase shows next to the figures it moved.  This is the evidence
for the bounds in BENCHMARK.json.  Exit status is 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        probes = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [
                sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED\n{proc.stderr.strip()[-1500:]}")
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            record = json.loads(
                (BENCH / "results" / f"{workload}-seed{seed}-trace0.json").read_text()
            )
            meta = record["metadata"]
            probes += [meta["probe_before_ms"], meta["probe_after_ms"]]
            print(
                f"{workload} seed {seed}: "
                + "  ".join(f"{n}={v[-1]:.4g}" for n, v in values.items())
                + f"  probe={meta['probe_before_ms']:.3f}/{meta['probe_after_ms']:.3f} ms"
                + f"  wall={wall:.1f} s",
                flush=True,
            )
        if not probes:
            continue
        print(f"\n{workload}: {len(probes) // 2} runs, --seconds {seconds}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'/bound':>8}")
        for name, vals in values.items():
            q1, med, q3 = _quartiles(vals)
            spread = (q3 - q1) / med
            print(
                f"  {name:<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                f"{spread:>9.3f}{spread / bounds[name]:>8.2f}"
            )
        q1, med, q3 = _quartiles(probes)
        print(f"  {'probe_ms':<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{(q3 - q1) / med:>9.3f}\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
