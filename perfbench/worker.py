"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --spawned T [--trace] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this interpreter (a system-wide clock on Linux), so set-up time covers
interpreter start, the package import and the input generation or file
reading.  The worker then runs whole passes over the workload's items
until ``--seconds`` of timed pipeline work have passed, checks every
answer outside the timed region, and prints one JSON object as its last
line.

The host's speed drifts: the same corpus pass took 50 ms in some seconds
and 105 ms in others, with CPU time tracking wall time.  Slowdowns from
other load only ever add time, so each instance is timed in every pass
and its fastest pipeline time and fastest ``diagnose`` time are kept.
``instances_per_s`` is the instance count over the sum of the fastest
pipeline times; the diagnose percentiles are nearest-rank percentiles of
the fastest diagnose times.  With ``--trace`` the tracer is installed for
even passes only, and the tracing overhead compares the fastest traced
and untraced pipeline times of the same interpreter.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench"


def nearest_rank(sorted_values: list, p: float) -> float:
    """The smallest sample with at least a share ``p`` of samples at or below it."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "dualcheck" / "__init__.py").is_file():
        print(f"no dualcheck sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import oracle
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()

    timed = 0.0
    best_run: dict = {}
    best_traced: dict = {}
    best_diag: dict = {}
    attempted = failed = wrong = passes = 0
    first_error = None
    while passes < (2 if tracer else 1) or timed < args.seconds:
        # With --trace, even passes run traced and odd ones untraced, so both
        # sides of the tracing overhead see the same drift of the host.
        traced = tracer is not None and passes % 2 == 0
        if traced:
            tracer.install()
            tracer.begin_pass()
        best = best_traced if traced else best_run
        for key, item in enumerate(wl.items):
            attempted += 1
            t0 = time.perf_counter()
            try:
                t_diag, out = tracer.run_instance(wl.run, item) if traced else wl.run(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                t_diag, out = None, exc
            elapsed = time.perf_counter() - t0
            timed += elapsed
            if traced:
                tracer.end_instance()
            if isinstance(out, Exception):
                failed += 1
                first_error = first_error or f"{type(out).__name__}: {out}"
                continue
            best[key] = min(elapsed, best.get(key, elapsed))
            if t_diag is not None and not traced:
                best_diag[key] = min(t_diag, best_diag.get(key, t_diag))
            try:
                wl.check(item, out)
            except oracle.CheckError as exc:
                wrong += 1
                first_error = first_error or f"wrong answer: {exc}"
        if traced:
            tracer.uninstall()
        passes += 1

    diag = sorted(best_diag.values())
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "metrics": {
            "setup_s": setup_s,
            "instances_per_s": len(best_run) / sum(best_run.values()),
            "diagnose_p50_ms": 1e3 * nearest_rank(diag, 0.5),
            "diagnose_p90_ms": 1e3 * nearest_rank(diag, 0.9),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if first_error:
        print(first_error, file=sys.stderr)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["trace.overhead_pct"] = 100.0 * (sum(best_traced.values()) / sum(best_run.values()) - 1.0)
        tracer.write(TRACE_DIR / f"trace-{args.workload}.tsv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
