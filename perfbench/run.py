"""Benchmark entry point.

    python3 perfbench/run.py --workload corpus|l1-ladder --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it starts four fresh
interpreters that only set up (import plus inputs), then one that runs
the workload for S seconds of timed work, then four more that only set
up, and prints the end-to-end metrics named in BENCHMARK.json.
``setup_s`` is the fastest set-up time of all nine: other load on the
host only ever adds time, so the minimum is the figure that repeats.
With ``--trace 1`` it runs the workload in one fresh interpreter that
alternates traced and untraced passes, and prints the per-layer metrics
with the tracing overhead.
The last line of standard output is one JSON object; any failure to run
exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # set-up-only interpreters before and again after the measuring one
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def spawn(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    # A fixed hash seed keeps set and dict iteration, and so the per-layer
    # counts, the same in every interpreter.
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        *extra,
    ]
    proc = subprocess.Popen([*cmd, "--spawned", repr(time.monotonic())], stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {' '.join(extra) or 'run'} passed the {DEADLINE_S:.0f} s deadline")
    finally:  # also on SIGTERM, which main turns into SystemExit
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {' '.join(extra) or 'run'} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dualcheck benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            run = spawn(args, deadline, "--trace")
            values = run["layers"]
            wanted = spec["per_layer"]
        else:
            # probes on both sides of the run sample two moments of the host's drift
            setups = [spawn(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
            run = spawn(args, deadline)
            setups += [spawn(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
            values = dict(run["metrics"])
            values["setup_s"] = min(setups + [values["setup_s"]])
            wanted = spec["end_to_end"]
    except RunError as exc:
        print(exc, file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
