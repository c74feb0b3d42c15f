"""Smoke test of the benchmark harness itself, at a tiny size.

    python3 bench/smoke.py

For every workload in BENCHMARK.json it checks that
  * --trace 0 prints every end-to-end metric with its unit, and --trace 1
    every per-layer metric with its unit, both with correct results;
  * two traced runs with the same seed give exactly the same per-layer
    counts (calls, misses, coded symbols, points, bytes and count ratios);
and that the harness exits non-zero, with a message and without a result
line, in a directory holding only BENCHMARK.json and bench/ (no package to
import).  Prints one line per problem; exit status 0 when there is none.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SMOKE_SECONDS = "0.5"
SEED = "7"
EXACT_UNITS = ("count", "letters", "B")
EXACT_RATIOS = ("words.factors_of_length.cache_hit_ratio", "spectra.oracle.capped_ratio")


def _bench(cwd: Path, workload: str, trace: int) -> tuple[int, str, str]:
    cmd = [
        sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
        "--seed", SEED, "--seconds", SMOKE_SECONDS, "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def _result(workload: str, trace: int, problems: list[str]) -> dict | None:
    code, out, err = _bench(ROOT, workload, trace)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        problems.append(f"{workload} trace {trace}: exit {code}: {err.strip()[-500:]}")
        return None
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace {trace}: {result['failed']} failed ops")
    return result


def _check_metrics(label: str, metrics: dict, want: dict, problems: list[str]) -> None:
    if set(metrics) != set(want):
        problems.append(f"{label}: metrics differ: {sorted(set(metrics) ^ set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {name} printed as {got}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    exact = [n for n, u in layer.items() if u in EXACT_UNITS or n in EXACT_RATIOS]
    problems: list[str] = []
    for w in (w["name"] for w in spec["workloads"]):
        result = _result(w, 0, problems)
        if result:
            _check_metrics(f"{w} trace 0", result["metrics"], e2e, problems)
        counts = []
        for _ in range(2):
            result = _result(w, 1, problems)
            if result:
                _check_metrics(f"{w} trace 1", result["metrics"], layer, problems)
                counts.append({n: result["metrics"].get(n, {}).get("value") for n in exact})
        if len(counts) == 2 and counts[0] != counts[1]:
            moved = [n for n in exact if counts[0][n] != counts[1][n]]
            problems.append(f"{w}: per-layer counts differ between equal seeds: {moved}")
        print(f"smoke: {w} done", flush=True)

    (BENCH / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "results") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        code, out, err = _bench(bare, spec["workloads"][0]["name"], 0)
        if code == 0 or out.strip() or "cannot import" not in err:
            problems.append(f"without a package: exit {code}, stdout {out!r}, stderr {err!r}")

    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
