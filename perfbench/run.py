"""Benchmark command: one run of one workload.

    python3 perfbench/run.py --workload dichotomy --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  The program is imported from the
checkout's src/ (nothing to build).  The workload runs in one fresh,
single-threaded process (workloads.py).  Set-up time is sampled in further
fresh processes that stop after imports and input generation.  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, with times scaled to nominal
machine speed by a reference loop (reference.py); --trace 1 reports the
per-layer metrics of a separate traced run (tracing.py).  Details, raw
times included, go to perfbench/out/.
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

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# Fresh processes timed for set-up, after one discarded warm-up that also
# leaves the bytecode cache written.
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class RunError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a workload process; return its start time and its JSON line."""
    cmd = [sys.executable, str(HERE / "workloads.py")] + args
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - t0), text=True)
    except subprocess.TimeoutExpired:
        raise RunError("workload process timed out")
    if proc.returncode != 0:
        raise RunError(f"workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("workload process printed no result")
    return t0, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rvcocycle benchmark: one run")
    ap.add_argument("--workload", choices=("dichotomy", "refine", "bounded"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rvcocycle" / "__init__.py").is_file():
        print(f"error: no rvcocycle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Set-up times divided by the machine's slowdown sampled just before
    # each process starts (see reference.py).
    setup, slowdowns = [], []
    try:
        for i in range(0 if args.trace else SETUP_SAMPLES + 1):
            slow = reference.slowdown([reference.sample() for _ in range(3)])
            t0, res = spawn(base + ["--setup-only"], deadline)
            if i:
                setup.append(res["ready"] - t0)
                slowdowns.append(slow)
        slowdowns.append(reference.slowdown([reference.sample() for _ in range(3)]))
        t0, res = spawn(base, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(res["ready"] - t0)
    res["setup_samples_s"] = setup
    res["setup_slowdown"] = slowdowns

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                [s / slow for s, slow in zip(setup, slowdowns)]), "unit": "s"},
            "items_per_s": {"value": res["items_per_s"], "unit": "1/s"},
            "item_p50_ms": {"value": res["item_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    detail.write_text(json.dumps(res, indent=1))
    if res["error"]:
        print(f"check failed: {res['error']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {res['rounds']} round(s), "
          f"outcomes {res['outcomes']}", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
