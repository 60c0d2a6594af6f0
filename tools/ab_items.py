"""Time one benchmark workload's items on two source checkouts, side by side
in one process, in alternating rounds.

    python3 tools/ab_items.py BASE HEAD --workload bounded --rounds 20

BASE and HEAD are the roots of two source checkouts.  Each side's
src/rvcocycle is copied to a temporary directory under its own package
name (rvcocycle_base0, rvcocycle_head0), so both import in one process.
A copy imported first can run faster than one imported second, so the
whole measurement is made twice: once importing BASE first, and once from
fresh copies (rvcocycle_head1, rvcocycle_base1) importing HEAD first.  The
items are built as perfbench/workloads.py builds them, from HEAD's copy of
it, of which only the pure helpers and constants are used (near_rational,
float_runs, unimodular, the draw seeds and budgets); the item order is
unshuffled.  Each side runs every item once untimed, and the outputs are
compared by repr: every float in a repr round-trips, so equal reprs mean
equal bits.  Then each round times every item once per side, BASE first
in even rounds and HEAD first in odd ones, with a garbage collection before
each side's pass.  For each import order the summary is each side's sum
over the items of the item's least time, and their ratio head / base;
beside it, the same ratio over the first and over the second half of the
rounds, whose spread shows how far the ratio moves within one call, and
each side's least and median round sum, the sum of its item
times in one round.  A benchmark harness that needs rounds of some least
length reads the raw round sums, not the per-item minima.  The balanced
summary is the geometric mean of the two orders' sums and ratios, which
cancels a factor that favours whichever copy was imported first.

Below the timings' resolution of about 2%, each side also reports its work
counts: the line events and the Python calls in its own package's frames
over one untimed pass of the items, traced with sys.settrace.  They are
the same on every run, whatever the machine's load, but count neither the
arithmetic within a line nor C builtins, so they back "no more work", not
a speed-up.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "head")
ORDERS = (SIDES, SIDES[::-1])  # the import order of each measurement
WORKLOADS = ("dichotomy", "refine", "bounded")


def load_package(checkout: Path, tag: str, where: Path) -> str:
    """Copy checkout's src/rvcocycle to where as rvcocycle_<tag> and return
    that package name; where must be on sys.path."""
    name = f"rvcocycle_{tag}"
    shutil.copytree(checkout / "src" / "rvcocycle", where / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return name


def bounded_angles(wl) -> list[float]:
    """The bounded workload's angles, drawn as workloads.Bounded draws them."""
    rng = random.Random(wl.BOUNDED_DRAW_SEED)
    n_near = round(wl.BOUNDED_ITEMS * wl.NEAR_SHARE)
    lo, hi = wl.NEAR_DIGIT
    bigs = [0] * (wl.BOUNDED_ITEMS - n_near) + [
        lo + int((hi - lo) * (j + rng.random()) / n_near) for j in range(n_near)]
    angles = []
    for big in bigs:
        while True:
            alpha = wl.near_rational(rng, big) if big else rng.uniform(0.05, 0.95)
            total = sum(wl.float_runs(alpha, wl.BOUNDED_BUDGET,
                                      big + wl.EXCESS_STEP_CAP + 1))
            if total - big <= wl.EXCESS_STEP_CAP:
                break
        angles.append(alpha)
    return angles


def items(wl, pkg: str, workload: str, out_path: Path) -> list:
    """The workload's items as zero-argument calls into the package pkg."""
    cli, cocycle, iet, lyapunov, mat2, spectrum = (
        importlib.import_module(f"{pkg}.{m}")
        for m in ("cli", "cocycle", "iet", "lyapunov", "mat2", "spectrum"))
    if workload == "bounded":
        rep = spectrum.Representation(mat2.rotation(1.0), mat2.rotation(math.sqrt(2.0)))
        budget = lyapunov.DecisionBudget(max_accel_steps=wl.BOUNDED_BUDGET)

        def run(alpha):
            try:
                return spectrum.mcg_trajectory(rep, alpha, wl.BOUNDED_TWISTS, budget)
            except cocycle.DegeneratePairError as exc:
                return str(exc)
        return [functools.partial(run, a) for a in bounded_angles(wl)]
    if workload == "dichotomy":
        budget = lyapunov.DecisionBudget(max_accel_steps=wl.DICHOTOMY_BUDGET)
        rng = random.Random(42)
        draws = []
        while len(draws) < wl.DICHOTOMY_PAIRS:
            pair = cocycle.CocyclePair(wl.unimodular(rng, mat2.Matrix2),
                                       wl.unimodular(rng, mat2.Matrix2))
            if cocycle.trace_coords(pair).c <= 2.0:
                continue
            alpha = rng.uniform(0.05, 0.95)
            if abs(alpha - 0.5) >= 1e-3:
                draws.append((pair, alpha))

        def run(pair, alpha):
            try:
                trace = lyapunov.renorm_decision(pair, alpha, budget)
            except cocycle.DegeneratePairError:
                return None
            est = None
            if trace.verdict.kind in ("UniformlyHyperbolic", "CertifiedBounded"):
                est = lyapunov.direct_exponent(pair, iet.Rotation2IET(alpha),
                                               wl.AUDIT_ITERS)
            return trace, est
        return [functools.partial(run, *d) for d in draws]
    lo, hi = wl.REFINE_RANGE
    n = wl.REFINE_SUBRANGES
    edges = [lo + (hi - lo) * i / n for i in range(n + 1)]

    def run(lo, hi):
        code = cli.main(["refine", "--fixture", "generic-elliptic",
                         "--max-steps", str(wl.REFINE_BUDGET), "--format", "json",
                         "--out", str(out_path), "--theta", f"{lo!r}:{hi!r}",
                         "--depth", str(wl.REFINE_DEPTH)])
        return code, out_path.read_text()
    return [functools.partial(run, *e) for e in zip(edges[:-1], edges[1:])]


def time_rounds(calls: dict[str, list], rounds: int,
                clock=time.perf_counter) -> dict[str, list[list[float]]]:
    """{side: one list of item times per round}; the sides alternate which
    goes first, in the order of calls in even rounds."""
    times: dict[str, list[list[float]]] = {side: [] for side in calls}
    order = list(calls)
    for r in range(rounds):
        for side in order if r % 2 == 0 else order[::-1]:
            gc.collect()
            row = []
            for call in calls[side]:
                start = clock()
                call()
                row.append(clock() - start)
            times[side].append(row)
    return times


def work_counts(calls: list, package: str) -> dict[str, int]:
    """The line events and the Python calls (a generator's resume is one)
    in the frames of package's modules, over one pass of calls traced with
    sys.settrace; frames of other modules are not traced line by line."""
    counts = {"lines": 0, "calls": 0}
    inside = package + "."

    def lines(frame, event, arg):
        if event == "line":
            counts["lines"] += 1
        return lines

    def calls_into(frame, event, arg):
        name = frame.f_globals.get("__name__", "")
        if name == package or name.startswith(inside):
            counts["calls"] += 1
            return lines
        return None

    before = sys.gettrace()
    sys.settrace(calls_into)
    try:
        for call in calls:
            call()
    finally:
        sys.settrace(before)
    return counts


def summarize(times: dict[str, list[list[float]]]) -> dict:
    """Each side's sum over the items of the item's least time over the
    rounds, and the ratio head / base of those sums."""
    sums = {side: sum(map(min, zip(*rows))) for side, rows in times.items()}
    return {**sums, "ratio": sums["head"] / sums["base"]}


def balance(summaries: list[dict]) -> dict:
    """The geometric mean over summaries (one per import order) of each
    side's sum and of the ratio head / base."""
    return {key: math.prod(s[key] for s in summaries) ** (1.0 / len(summaries))
            for key in (*SIDES, "ratio")}


def half_ratios(times: dict[str, list[list[float]]]) -> tuple[float, float]:
    """summarize's ratio head / base over the first half of the rounds and
    over the second half (the odd round in the second); their spread shows
    how far one call's ratio moves on its own.  Needs two rounds."""
    half = len(times["base"]) // 2
    return tuple(summarize({side: rows[part] for side, rows in times.items()})["ratio"]
                 for part in (slice(None, half), slice(half, None)))


def round_sums(times: dict[str, list[list[float]]]) -> dict[str, tuple[float, float]]:
    """{side: (least, median)} of the side's round sums, each the sum of
    its item times in one round."""
    totals = {side: [sum(row) for row in rows] for side, rows in times.items()}
    return {side: (min(t), statistics.median(t)) for side, t in totals.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="root of the baseline checkout")
    ap.add_argument("head", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "head": args.head.resolve()}
    sys.path.insert(0, str(checkouts["head"] / "perfbench"))
    wl = importlib.import_module("workloads")
    passes, differ = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        sys.path.insert(0, tmp)
        for i, order in enumerate(ORDERS):
            names = {side: load_package(checkouts[side], f"{side}{i}", where)
                     for side in order}
            calls = {side: items(wl, names[side], args.workload,
                                 where / f"refine-{names[side]}.json")
                     for side in order}
            calls = {side: calls[side] for side in SIDES}
            outs = {side: [repr(call()) for call in calls[side]] for side in SIDES}
            differ += sum(b != h for b, h in zip(*outs.values()))
            if not i:
                work = {side: work_counts(calls[side], names[side]) for side in SIDES}
            passes.append(time_rounds(calls, args.rounds))
    n = len(calls["head"])
    print(f"{args.workload}: {n} items, {args.rounds} rounds per import order, "
          f"{differ} of {n * len(ORDERS)} outputs differ")
    for side in SIDES:
        print(f"work, {side}: {work[side]['lines']} line events, "
              f"{work[side]['calls']} calls in its package's frames")
    print(f"work head/base: lines {work['head']['lines'] / work['base']['lines']:.4f}, "
          f"calls {work['head']['calls'] / work['base']['calls']:.4f}")
    summaries = []
    for order, times in zip(ORDERS, passes):
        res, rounds = summarize(times), round_sums(times)
        summaries.append(res)
        print(f"{' first, '.join(order)} second: sum of per-item minima: "
              f"base {res['base']:.6f} s, head {res['head']:.6f} s, "
              f"head/base {res['ratio']:.4f}")
        if args.rounds >= 2:
            first, second = half_ratios(times)
            print(f"  head/base over the first and the second half of the rounds: "
                  f"{first:.4f}, {second:.4f}")
        for side in SIDES:
            least, median = rounds[side]
            print(f"  round sum, {side}: least {least:.6f} s, median {median:.6f} s")
    res = balance(summaries)
    print(f"balanced: sum of per-item minima: base {res['base']:.6f} s, "
          f"head {res['head']:.6f} s, head/base {res['ratio']:.4f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
