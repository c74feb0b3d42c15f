"""One fresh benchmark process: time the package's set-up, or run an op list.

The harness (run.py) starts this file with the interpreter itself, never a
shell shim, passing a JSON job on stdin and reading one JSON line back:

    setup  time `import sturmian_spectra` (`.cli` for cli-mix) until the
           first op's input is built; nothing else is imported first
    run    run every op of the list in order, untraced or traced, and report
           per-op times, failed checks, an output digest and peak RSS

Times are the worker thread's CPU time (time.thread_time): the package is
single-threaded and does no I/O here, so on an idle machine that is its wall
time, but time spent descheduled (other processes, or the host running
another guest on this CPU) is left out.  A run may ask for wall time
instead (`"clock": "wall"`); traced runs do, to match the span wrappers,
which time with perf_counter because thread_time costs four times as much
per call.

Both modes also time a speed probe, a fixed piece of pure-Python work, around
what they measure: before and after the set-up, and between ops at least
every PROBE_EVERY_S of the run.  The harness divides each time by the
probes taken nearest to it (run.py, `normalise`), so a slow phase of the
machine, which slows probe and package alike, cancels out.

Only json, sys, time and importlib.machinery are loaded before the set-up
clock starts, so the package pays for the rest of the standard library it
imports, and every module of the package is compiled from source.
"""

import json
import sys
import time

CLOCKS = {"cpu": time.thread_time, "wall": time.perf_counter}
PROBE_EVERY_S = 0.05  # least clock time between two probes in a run
PROBES_AROUND = 9  # probes taken before and after a set-up, and at a run's ends


def speed_probe(clock=time.thread_time) -> float:
    """Seconds taken by a fixed piece of pure-Python work, about 1 ms.

    Integer arithmetic, string slicing and a dict, as in the package's
    language builds; it loads nothing, so it may run before the set-up clock.
    """
    t0 = clock()
    acc, seen = 0, {}
    text = "abaababaabaab" * 40
    for i in range(3000):
        acc += (i * 7919) ** 3 % 1000003
        w = text[i % 200 : i % 200 + 64]
        seen[w] = seen.get(w, 0) + len(w)
    return clock() - t0


def _compile_src_from_source(src: str) -> None:
    """Make imports from `src` compile every module from source.

    Whatever bytecode lies in src/ (a test run may leave a __pycache__), set-up
    then always includes compiling the package.  The standard library still
    loads from its installed bytecode.
    """
    from importlib.machinery import SOURCE_SUFFIXES, FileFinder, SourceFileLoader

    class SourceOnlyLoader(SourceFileLoader):
        def get_code(self, fullname):
            path = self.get_filename(fullname)
            return self.source_to_code(self.get_data(path), path)

    for path in (src, f"{src}/sturmian_spectra"):
        sys.path_importer_cache[path] = FileFinder(path, (SourceOnlyLoader, SOURCE_SUFFIXES))


def setup(job: dict) -> dict:
    op = job["op"]
    sys.path.insert(0, job["src"])
    _compile_src_from_source(job["src"])
    before = [speed_probe() for _ in range(PROBES_AROUND)]
    t0 = time.thread_time()
    if job["workload"] == "cli-mix":
        import sturmian_spectra.cli  # noqa: F401

        list(op["argv"])
    else:
        import sturmian_spectra

        sturmian_spectra.ContinuedFraction(op["pre"], op["per"])
    setup_s = time.thread_time() - t0
    after = [speed_probe() for _ in range(PROBES_AROUND)]
    return {"setup_s": setup_s, "probes": before + after}


def run(job: dict) -> dict:
    import hashlib
    import io
    import resource
    from contextlib import redirect_stderr, redirect_stdout

    sys.path.insert(0, job["src"])
    import sturmian_spectra as S

    if job["workload"] == "cli-mix":
        import sturmian_spectra.cli  # noqa: F401
    import workloads as W

    ops = job["ops"]
    slopes = W.slopes(S, ops)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    clock = CLOCKS[job["clock"]]
    times, failures = [], []
    # probe_at[i]: probes taken before op i; probes[:probe_at[i]] ran before it
    probes = [speed_probe(clock) for _ in range(PROBES_AROUND)]
    probe_at, last_probe = [], clock()
    capped = stdout_bytes = 0
    digest = hashlib.sha256()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        for i, op in enumerate(ops):
            if clock() - last_probe >= PROBE_EVERY_S:
                probes.append(speed_probe(clock))
                last_probe = clock()
            probe_at.append(len(probes))
            call = W.prepare(S, op, slopes)
            out.seek(0)
            out.truncate()
            err.seek(0)
            err.truncate()
            if tracer:
                tracer.begin_op()
            t0 = clock()
            try:
                result, error = call(), None
            except Exception as exc:  # a failed op; the run goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            if tracer:
                tracer.end_op(dt)
            times.append(dt)
            stdout, stderr = out.getvalue(), err.getvalue()
            stdout_bytes += len(stdout.encode())
            if error is None:
                capped += W.is_capped(op, result)
                if tracer is None:
                    error = W.check(S, op, result, stdout, stderr)
            if error:
                failures.append({"op": i, "kind": op["kind"], "error": error})
            if "argv" in op:
                text = f"{result!r}\0{stdout}\0{stderr}"
            else:
                text = error if result is None else W.canon(result)
            digest.update(text.encode() + b"\n")
    probes += [speed_probe(clock) for _ in range(PROBES_AROUND)]
    return {
        "times": times,
        "probes": probes,
        "probe_at": probe_at,
        "failures": failures,
        "capped": capped,
        "stdout_bytes": stdout_bytes,
        "digest": digest.hexdigest(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }


def main() -> None:
    job = json.loads(sys.stdin.read())
    result = setup(job) if job["mode"] == "setup" else run(job)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
