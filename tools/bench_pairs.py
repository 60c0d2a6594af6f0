"""Compare two source checkouts on the benchmark in alternating pairs.

    python3 tools/bench_pairs.py BASE HEAD --label pr11

BASE and HEAD are the roots of two source checkouts, each with its own
perfbench/.  Pair i of the PAIRS pairs runs every workload of HEAD's
BENCHMARK.json once on each checkout with seed i + 1; even pairs run BASE
first, odd pairs HEAD first.  Each run is `python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0` in the checkout, T being
BENCHMARK.json's run_seconds.  Besides the run's end-to-end metrics, the
tool reads the run's perfbench/out/result-*.json for the machine's median
slowdown and the raw round times, whose minimum is the harness margin: the
harness dies when a round and its checks take under its reference period.
Each run also counts its rounds shorter than that period (REF_PERIOD_S),
which only the checks between rounds keep alive.

The summary goes to BENCH_<label>.json at the root of this repository: per
workload and metric, each side's median and quartiles, the change of the
median, and how many pairs each side won (ties count for neither side);
each side's failed share, median slowdown, raw min/median round time and
its rounds in all and under the reference period; the machine; and every
run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
PAIRS = 10  # a claimed gain must win at least 9 of them
# perfbench/workloads.py's REF_PERIOD_S: the harness takes no sample of the
# machine's slowdown in a round and its checks shorter than this.
REF_PERIOD_S = 0.1
STDERR_TAIL = 40  # lines of a failed run's stderr that its record keeps


def round_summary(rounds: list[float]) -> dict:
    """The raw round times of one run: least, median, how many rounds, and
    how many of them were shorter than REF_PERIOD_S."""
    return {"min": min(rounds), "median": statistics.median(rounds),
            "rounds": len(rounds), "short": sum(r < REF_PERIOD_S for r in rounds)}


def run_error(returncode: int, stderr: str) -> dict:
    """The record of a run that printed no result: the last STDERR_TAIL
    lines of its stderr, which hold the workload's traceback ahead of
    run.py's own last line, else its exit code."""
    err = stderr.strip().splitlines()[-STDERR_TAIL:]
    return {"error": "\n".join(err) if err else f"exit {returncode}"}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in checkout: its metrics, counts and raw rounds,
    or {"error": ...} when the run printed no result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # run.py's warm-up process writes the bytecode caches that its timed
    # set-up processes read.  With writing off, a checkout whose caches are
    # stale compiles its modules at every start and reads a longer setup_s.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return run_error(proc.returncode, proc.stderr)
    res = json.loads(lines[-1])
    detail = json.loads((checkout / "perfbench" / "out" /
                         f"result-{workload}-s{seed}-t0.json").read_text())
    return {"metrics": {k: v["value"] for k, v in res["metrics"].items()},
            "correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "median_slowdown": detail["median_slowdown"],
            "round_s": round_summary(detail["round_s"])}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Aggregate runs {"workload", "pair", "side", "result"} per workload.

    metrics maps each end-to-end metric to "lower" or "higher" (the better
    direction).  A pair counts for a metric only when both of its runs
    gave a result."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair: dict[int, dict[str, dict]] = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        ok = {side: [r["result"] for r in mine
                     if r["side"] == side and "error" not in r["result"]]
              for side in SIDES}
        entry = {"errors": {side: sum(r["side"] == side and "error" in r["result"]
                                      for r in mine) for side in SIDES},
                 "metrics": {}}
        for name, better in metrics.items():
            sides = {side: quartiles([r["metrics"][name] for r in ok[side]])
                     for side in SIDES if ok[side]}
            wins = {side: 0 for side in SIDES}
            for pair in by_pair.values():
                if any(side not in pair or "error" in pair[side] for side in SIDES):
                    continue
                b, h = (pair[side]["metrics"][name] for side in SIDES)
                if b != h:
                    head_better = h < b if better == "lower" else h > b
                    wins["head" if head_better else "base"] += 1
            m = {"better": better, **sides, "head_wins": wins["head"],
                 "base_wins": wins["base"]}
            if len(sides) == 2:
                base = sides["base"]
                m["change"] = sides["head"]["median"] / base["median"] - 1.0
                m["base_iqr"] = base["q3"] - base["q1"]
            entry["metrics"][name] = m
        for side in SIDES:
            res = ok[side]
            if not res:
                continue
            attempted = sum(r["attempted"] for r in res)
            entry.setdefault("failed_share", {})[side] = (
                sum(r["failed"] for r in res) / attempted if attempted else 0.0)
            entry.setdefault("correct", {})[side] = all(r["correct"] for r in res)
            entry.setdefault("median_slowdown", {})[side] = statistics.median(
                r["median_slowdown"] for r in res)
            entry.setdefault("raw_round_s", {})[side] = {
                "min": min(r["round_s"]["min"] for r in res),
                "median": statistics.median(r["round_s"]["median"] for r in res),
                "rounds": sum(r["round_s"]["rounds"] for r in res),
                "short": sum(r["round_s"]["short"] for r in res)}
        out[workload] = entry
    return out


def machine() -> dict:
    import numpy
    return {"system": platform.system(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="root of the baseline checkout")
    ap.add_argument("head", type=Path, help="root of the changed checkout")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = ap.parse_args(argv)
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    checkouts = {"base": args.base.resolve(), "head": args.head.resolve()}
    runs = []
    for pair in range(PAIRS):
        seed = pair + 1
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in (w["name"] for w in spec["workloads"]):
            for side in order:
                result = run_once(checkouts[side], workload, seed, seconds)
                runs.append({"workload": workload, "pair": pair, "seed": seed,
                             "side": side, "result": result})
                shown = result.get("error") or result["metrics"]
                print(f"pair {pair} {workload} {side}: {shown}", file=sys.stderr)
    doc = {"label": args.label, "pairs": PAIRS, "seconds": seconds,
           "order": "even pairs run base first, odd pairs head first",
           "machine": machine(), "workloads": summarize(runs, metrics),
           "runs": runs}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
