"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/report.py

Runs run.py on every workload for seeds 1 to 10 (untraced, for the
run_seconds of BENCHMARK.json), then alternating untraced and traced runs
per workload on seed 1, and prints
Markdown tables: medians and quartiles of the end-to-end metrics, outcome
counts, input make-up, the per-layer shares and the tracing overhead.
Takes about 25 minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
WORKLOADS = ("dichotomy", "refine", "bounded")
E2E = ("setup_s", "items_per_s", "item_p50_ms", "peak_rss_mb")
SHARES = ("lyapunov.direct_exponent.s", "cocycle.cone_certificate.s",
          "iet.run_steps.s", "lyapunov.renorm_decision.s",
          "lyapunov.renorm_decision.self_s", "spectrum.mcg_trajectory.self_s",
          "cli.main.self_s")
OVERHEAD_PAIRS = 3


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"result-{workload}-s{seed}-t{trace}.json")
                        .read_text())
    return result, detail


def main() -> int:
    print(f"Seeds {SEEDS[0]}-{SEEDS[-1]}, --seconds {SECONDS}.\n")
    print("| workload | metric | median | q1 | q3 | (q3-q1)/median "
          "| raw median | raw (q3-q1)/median |")
    print("|---|---|---|---|---|---|---|---|")
    summary = {}
    for wl in WORKLOADS:
        values = {m: [] for m in E2E}
        raw = {m: [] for m in E2E}
        outcomes: dict[str, int] = {}
        shares = set()
        rounds = []
        inputs = []
        for seed in SEEDS:
            result, detail = run(wl, seed, 0)
            if not result["correct"]:
                raise SystemExit(f"{wl} seed {seed}: {detail['error']}")
            for m in E2E:
                values[m].append(result["metrics"][m]["value"])
            raw["setup_s"].append(statistics.median(detail["setup_samples_s"]))
            raw["items_per_s"].append(detail["raw_items_per_s"])
            raw["item_p50_ms"].append(detail["raw_item_p50_ms"])
            raw["peak_rss_mb"].append(detail["peak_rss_mb"])
            for k, n in detail["outcomes"].items():
                outcomes[k] = outcomes.get(k, 0) + n // detail["rounds"]
            shares.add(f"{result['failed']}/{result['attempted']}")
            rounds.append(detail["rounds"])
            if "inputs" in detail:
                inputs.append(detail["inputs"])
        for m in E2E:
            q1, med, q3 = statistics.quantiles(values[m], n=4)
            r1, rmed, r3 = statistics.quantiles(raw[m], n=4)
            print(f"| {wl} | {m} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} "
                  f"| {rmed:.4g} | {(r3 - r1) / rmed:.3f} |")
        summary[wl] = (values, outcomes, shares, rounds, inputs)

    print("\n| workload | outcomes per round, summed over seeds | failed/attempted per run | rounds per run |")
    print("|---|---|---|---|")
    for wl, (_, outcomes, shares, rounds, _) in summary.items():
        print(f"| {wl} | {json.dumps(outcomes)} | {', '.join(sorted(shares))} "
              f"| {min(rounds)}-{max(rounds)} |")
    inputs = summary["bounded"][4][0]
    print(f"\nbounded inputs (the same for every seed): near-rational share "
          f"{inputs['near_rational_share']:.3f}; elementary steps per item (first 60 runs) "
          f"{inputs['elementary_steps_per_item']:.0f}.")

    print(f"\nTracing overhead from {OVERHEAD_PAIRS} alternating untraced/traced runs "
          f"on seed {SEEDS[0]}; per-layer shares of the traced round time.")
    print("\n| workload | untraced items/s | traced items/s | overhead | "
          + " | ".join(s.rsplit(".", 1)[0].split(".", 1)[1] + " " + s.rsplit(".", 1)[1]
                       for s in SHARES) + " |")
    print("|---" * (4 + len(SHARES)) + "|")
    for wl in WORKLOADS:
        untraced, traced = [], []
        for _ in range(OVERHEAD_PAIRS):
            result, _ = run(wl, SEEDS[0], 0)
            untraced.append(result["metrics"]["items_per_s"]["value"])
            result, detail = run(wl, SEEDS[0], 1)
            traced.append(detail["items_per_s"])
        layers = result["metrics"]
        round_s = layers["round.s"]["value"]
        cells = [f"{layers[s]['value'] / round_s:.1%}" for s in SHARES]
        u, t = statistics.median(untraced), statistics.median(traced)
        print(f"| {wl} | {u:.4g} | {t:.4g} | {u / t - 1:+.1%} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
