"""One workload process: builds the seeded inputs, runs whole rounds of the
item list closed-loop (one item after another, single thread), checks every
output, and prints one JSON line for run.py.

    PYTHONPATH=src python3 perfbench/workloads.py --workload bounded \\
        --seed 1 --seconds 5 --trace 0

A round is one pass over the fixed item list.  Rounds repeat until the
timed item work reaches --seconds, so every run attempts whole rounds and
its failed share is the same whatever the seed and the run length.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import reference

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# dichotomy: criterion 6's draw, 60-step budget, exponent audit length.
DICHOTOMY_PAIRS = 200
DICHOTOMY_BUDGET = 60
AUDIT_ITERS = 10_000
DICHOTOMY_CERT_SAMPLE = 6
# refine: equal sub-ranges of criterion 8's range at one depth, 40-step budget.
REFINE_RANGE = (0.05, 1.5)
REFINE_SUBRANGES = 32
REFINE_DEPTH = 4
REFINE_BUDGET = 40
REFINE_CERT_SAMPLE = 4
# bounded: commuting-elliptic twist trajectories.
BOUNDED_ITEMS = 300
BOUNDED_TWISTS = 40
BOUNDED_BUDGET = 60
NEAR_SHARE = 2 / 3
# Fixed, so that the failed share is the same for every seed.  This draw
# includes one angle whose decision run meets a degenerate pair, so that
# outcome is timed and checked in every run.
BOUNDED_DRAW_SEED = 4
NEAR_DIGIT = (1000, 3000)
# An alpha is drawn again when its float induction spends more than this
# many elementary steps outside the designed large digit in the first
# BOUNDED_BUDGET runs.  Past the float's precision the induction keeps
# producing pseudo-random digits with a 1/k tail; without the cap a single
# alpha can cost a whole round (and digits above max_digit raise, see
# CHANGES.md).
EXCESS_STEP_CAP = 1500
RATIONAL_TOL = 1e-13
# Least interval between two samples of the machine's slowdown, and the
# half-width of the window of samples that sets an item's slowdown.
REF_PERIOD_S = 0.1
REF_WINDOW_S = 0.5

BREAKDOWN_NOTE = "numerical breakdown"


def import_program():
    import rvcocycle
    where = Path(rvcocycle.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"rvcocycle imported from {where}, not from {ROOT / 'src'}")


# ---------------------------------------------------------------------------
# dichotomy


class Dichotomy:
    """Criterion 6's 200 pairs (seed-42 draw, numbered from 1):
    renorm_decision with a 60-step budget, then the direct_exponent audit of
    each decided verdict.  The seed orders the items and picks the
    certificates checked with numpy."""

    def __init__(self, seed: int):
        from rvcocycle import cocycle, iet, lyapunov
        from rvcocycle.mat2 import Matrix2
        self.cocycle, self.iet, self.lyapunov = cocycle, iet, lyapunov
        self.budget = lyapunov.DecisionBudget(max_accel_steps=DICHOTOMY_BUDGET)
        rng = random.Random(42)
        draws = []
        while len(draws) < DICHOTOMY_PAIRS:
            pair = cocycle.CocyclePair(unimodular(rng, Matrix2),
                                       unimodular(rng, Matrix2))
            if cocycle.trace_coords(pair).c <= 2.0:
                continue
            alpha = rng.uniform(0.05, 0.95)
            if abs(alpha - 0.5) < 1e-3:
                continue
            draws.append((len(draws) + 1, pair, alpha))
        self.items = draws
        self.rng = random.Random(seed)
        self.rng.shuffle(self.items)
        self.cert_sample = []

    def run(self, item):
        # Module attributes are looked up per call so that a traced run
        # reaches the wrapped functions.
        _, pair, alpha = item
        try:
            trace = self.lyapunov.renorm_decision(pair, alpha, self.budget)
        except self.cocycle.DegeneratePairError:
            return None, None
        est = None
        if trace.verdict.kind in ("UniformlyHyperbolic", "CertifiedBounded"):
            est = self.lyapunov.direct_exponent(
                pair, self.iet.Rotation2IET(alpha), AUDIT_ITERS)
        return trace, est

    @staticmethod
    def outcome(out) -> str:
        trace, _ = out
        if trace is None:
            return "degenerate"
        v = trace.verdict
        if v.kind == "Undecided" and (v.budget_note or "").startswith(BREAKDOWN_NOTE):
            return "breakdown"
        return v.kind

    def failed(self, out) -> bool:
        return self.outcome(out) == "breakdown"

    def check(self, outs, first_round: bool) -> None:
        certs = []
        for (draw, pair, alpha), (trace, est) in zip(self.items, outs):
            where = f"dichotomy draw {draw}"
            if trace is None:
                continue
            v = trace.verdict
            runs = [(s.winner.value, s.digit) for s in trace.steps
                    if s.winner is not None]
            checks.check_runs_prefix(runs, alpha, where)
            if v.kind == "UniformlyHyperbolic":
                checks.require(v.certificate is not None,
                               f"{where}: hyperbolic verdict without a certificate")
                bound = checks.exponent_lower_bound(
                    v.certificate.expansion_factor, v.at_step, alpha)
                checks.check_audit(v.kind, est.chi, est.stderr, bound, where)
                if float_determined(trace):
                    certs.append((where, pair, trace))
            elif v.kind == "CertifiedBounded":
                checks.check_audit(v.kind, est.chi, est.stderr, 0.0, where)
            else:
                checks.require(est is None, f"{where}: undecided verdict audited")
        if first_round:
            self.cert_sample = sample(self.rng, certs, DICHOTOMY_CERT_SAMPLE)

    def check_certificates(self) -> None:
        """The numpy certificate checks of the sample the first round drew."""
        for where, pair, trace in self.cert_sample:
            check_trace_certificate(matrix(pair.A), matrix(pair.B), trace, where)


def unimodular(rng: random.Random, matrix2, scale: float = 2.0):
    while True:
        e = [rng.uniform(-scale, scale) for _ in range(4)]
        if e[0] * e[3] - e[1] * e[2] > 0.05:
            return matrix2(*e)


def matrix(m) -> np.ndarray:
    return np.array([[m.a, m.b], [m.c, m.d]], dtype=float)


def sample(rng: random.Random, population: list, k: int) -> list:
    return rng.sample(population, min(k, len(population)))


def absorbing_runs(trace) -> list[tuple[str, int]]:
    """The runs reported up to the verdict's step, as (winner, length)."""
    return [(s.winner.value, s.digit) for s in trace.steps[:trace.verdict.at_step]
            if s.winner is not None]


def float_determined(trace, a_len: int = 1, b_len: int = 1) -> bool:
    """Whether the absorbing pair, moved from a pair of lengths (a_len,
    b_len) in base matrices, is short enough for float64 to determine."""
    lengths = checks.word_lengths(absorbing_runs(trace), a_len, b_len)
    return max(lengths) <= checks.MAX_CERT_WORD


def check_trace_certificate(a: np.ndarray, b: np.ndarray, trace, where: str) -> None:
    """Rebuild the absorbing pair from the input pair and the reported runs
    in numpy, then check its certificate."""
    v = trace.verdict
    la, lb = checks.pair_after_runs(a, b, absorbing_runs(trace))
    c = v.certificate
    checks.check_certificate(la, lb, c.arc_lo, c.arc_hi, c.expansion_factor,
                             c.constant, where)


# ---------------------------------------------------------------------------
# refine


def generic_elliptic() -> tuple[np.ndarray, np.ndarray]:
    """The generic-elliptic fixture, built here in numpy."""
    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    m = np.array([[1.7, 0.9], [0.0, 1.0 / 1.7]])
    return rot(1.0), m @ rot(0.9) @ np.linalg.inv(m)


class Refine:
    """In-process `rvcocycle refine` calls over equal sub-ranges of
    criterion 8's range, all at one depth.  The seed orders the sub-ranges
    and picks the hyperbolic points whose certificates are checked."""

    def __init__(self, seed: int):
        lo, hi = REFINE_RANGE
        n = REFINE_SUBRANGES
        edges = [lo + (hi - lo) * i / n for i in range(n + 1)]
        self.items = list(zip(edges[:-1], edges[1:]))
        self.rng = random.Random(seed)
        self.rng.shuffle(self.items)
        self.cert_sample = []
        from rvcocycle import cli
        self.cli = cli
        OUT_DIR.mkdir(exist_ok=True)
        self.out_path = OUT_DIR / f"refine-{os.getpid()}.json"

    def run(self, item):
        lo, hi = item
        code = self.cli.main(["refine", "--fixture", "generic-elliptic",
                              "--max-steps", str(REFINE_BUDGET), "--format", "json",
                              "--out", str(self.out_path), "--theta", f"{lo!r}:{hi!r}",
                              "--depth", str(REFINE_DEPTH)])
        return code, self.out_path.read_text()

    @staticmethod
    def outcome(out) -> str:
        return "ok" if out[0] == 0 else f"exit {out[0]}"

    def failed(self, out) -> bool:
        return out[0] != 0

    def check(self, outs, first_round: bool) -> None:
        hyperbolic = []
        n_candidates = 0
        for (lo, hi), (code, text) in zip(self.items, outs):
            where = f"refine [{lo!r}, {hi!r}]"
            checks.require(code == 0, f"{where}: exit code {code}")
            doc = json.loads(text)
            checks.check_refine(doc, lo, hi, REFINE_DEPTH, where)
            n_candidates += len(doc["candidateSpectrumPoints"])
            hyperbolic += [(where, p) for p in doc["points"]
                           if p["verdict"] == "hyperbolic"]
        checks.require(n_candidates > 0, "refine: no candidate spectrum point "
                       "in the whole range")
        if first_round:
            self.cert_sample = sample(self.rng, hyperbolic, len(hyperbolic))
        self.out_path.unlink(missing_ok=True)

    def check_certificates(self) -> None:
        """The certificates of the first REFINE_CERT_SAMPLE points of the
        sample the first round drew that float64 determines."""
        a, b = generic_elliptic()
        checked = 0
        for where, p in self.cert_sample:
            if checked == REFINE_CERT_SAMPLE:
                break
            checked += self.check_point_certificate(
                a, b, p, f"{where} theta {p['theta']!r}")

    @staticmethod
    def check_point_certificate(a, b, point, where: str) -> bool:
        """Re-derive the certificate of a hyperbolic point with the library
        and check it against a numpy chart of the fixture; False when the
        absorbing pair is too long for float64 to determine."""
        from rvcocycle.lyapunov import DecisionBudget, renorm_decision
        from rvcocycle.mat2 import Matrix2, mul, rotation
        from rvcocycle.spectrum import Representation, chart_for
        m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
        rep = Representation(rotation(1.0), mul(mul(m, rotation(0.9)), m.inv()))
        alpha, pair = chart_for(rep, point["theta"])
        trace = renorm_decision(pair, alpha, DecisionBudget(max_accel_steps=REFINE_BUDGET))
        v = trace.verdict
        checks.require(v.kind == "UniformlyHyperbolic" and v.at_step == point["steps"],
                       f"{where}: recomputed verdict {v.kind} at step {v.at_step}")
        checks.require(alpha == point["alpha"],
                       f"{where}: chart alpha {alpha} differs from {point['alpha']}")
        k = math.floor(math.tan(point["theta"]))
        runs = [(s.winner.value, s.digit) for s in trace.steps if s.winner is not None]
        checks.check_runs_prefix(runs, alpha, where)
        if not float_determined(trace, 1, 1 + k):
            return False
        check_trace_certificate(a, b @ np.linalg.matrix_power(a, k), trace, where)
        return True


# ---------------------------------------------------------------------------
# bounded


def float_runs(alpha: float, max_runs: int, max_steps: int = -1) -> list[int]:
    """Run lengths of the elementary Rauzy induction in float arithmetic,
    step for step as the program computes them; stops early once the steps
    exceed max_steps (when given)."""
    runs: list[int] = []
    cur, top, n = alpha, None, 0
    steps = 0
    while len(runs) < max_runs and steps != max_steps:
        steps += 1
        half = cur - 0.5
        if abs(half) <= RATIONAL_TOL:
            break
        w = half > 0
        nxt = (2 * cur - 1) / cur if w else cur / (1 - cur)
        if nxt <= RATIONAL_TOL or nxt >= 1.0 - RATIONAL_TOL:
            break
        if w is top:
            n += 1
        else:
            if top is not None:
                runs.append(n)
            top, n = w, 1
        cur = nxt
    if n and len(runs) < max_runs:
        runs.append(n)
    return runs


def near_rational(rng: random.Random, big: int) -> float:
    """alpha = [0; a_1, .., a_j, N + u]: one or two small digits, then the
    large digit N = big (a long run of elementary steps), then a generic
    tail."""
    prefix = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
    x = big + Fraction(rng.uniform(0.1, 0.9))
    for a in reversed(prefix):
        x = a + 1 / x
    return float(1 / x)


class Bounded:
    """mcg_trajectory of the commuting-elliptic fixture at BOUNDED_ITEMS
    angles drawn with BOUNDED_DRAW_SEED: one third generic, two thirds close
    to a rational (one designed large digit, stratified over NEAR_DIGIT).
    The seed orders the items.

    An item whose pulled-back trace norm exceeds 2 counts as failed (see
    checks.first_trace_excess).  Which items do depends on the angle, so
    the angles do not change with the seed, and every run fails the same
    share of its items."""

    def __init__(self, seed: int):
        from rvcocycle import cocycle, spectrum
        from rvcocycle.lyapunov import DecisionBudget
        from rvcocycle.mat2 import rotation
        self.cocycle, self.spectrum = cocycle, spectrum
        self.rep = spectrum.Representation(rotation(1.0), rotation(math.sqrt(2.0)))
        self.budget = DecisionBudget(max_accel_steps=BOUNDED_BUDGET)
        # The draw is the benchmark's own work, kept out of setup_s.
        start = time.perf_counter()
        rng = random.Random(BOUNDED_DRAW_SEED)
        n_near = round(BOUNDED_ITEMS * NEAR_SHARE)
        lo, hi = NEAR_DIGIT
        bigs = [0] * (BOUNDED_ITEMS - n_near) + [
            lo + int((hi - lo) * (j + rng.random()) / n_near) for j in range(n_near)]
        self.items = []
        self.steps = []
        for big in bigs:
            while True:
                alpha = near_rational(rng, big) if big else rng.uniform(0.05, 0.95)
                total = sum(float_runs(alpha, BOUNDED_BUDGET,
                                       big + EXCESS_STEP_CAP + 1))
                if total - big <= EXCESS_STEP_CAP:
                    break
            self.items.append((big > 0, alpha))
            self.steps.append(total)
        random.Random(seed).shuffle(self.items)
        self.bench_setup_s = time.perf_counter() - start

    def run(self, item):
        try:
            return self.spectrum.mcg_trajectory(self.rep, item[1], BOUNDED_TWISTS,
                                                self.budget)
        except self.cocycle.DegeneratePairError as exc:
            return str(exc)

    @classmethod
    def outcome(cls, out) -> str:
        if isinstance(out, str):
            return "degenerate"
        if cls.failed(out):
            return "trace norm > 2"
        return type(out[1]).__name__

    @staticmethod
    def failed(out) -> bool:
        return (not isinstance(out, str)
                and checks.first_trace_excess(out[1].growth_log) is not None)

    def check(self, outs, first_round: bool) -> None:
        for (_, alpha), out in zip(self.items, outs):
            where = f"bounded alpha {alpha!r}"
            if isinstance(out, str):
                checks.require("parabolic locus" in out,
                               f"{where}: unexpected degenerate pair: {out}")
                continue
            traj, witness = out
            if isinstance(witness, self.spectrum.BoundedWitness):
                max_norm = witness.max_trace_norm
            else:
                checks.require(math.isnan(witness.mu),
                               f"{where}: cone certificate for commuting rotations")
                max_norm = None
            checks.check_trajectory(alpha, traj.twist_word, traj.matrices,
                                    traj.convergent_denominators,
                                    witness.growth_log, max_norm, where)

    def check_certificates(self) -> None:
        """Commuting rotations have no cone certificate to check."""

    def describe(self) -> dict:
        """Share of near-rational angles and the elementary steps of the
        first BOUNDED_BUDGET runs per item."""
        return {"near_rational_share": sum(n for n, _ in self.items) / len(self.items),
                "elementary_steps_per_item": statistics.mean(self.steps)}


WORKLOADS = {"dichotomy": Dichotomy, "refine": Refine, "bounded": Bounded}


# ---------------------------------------------------------------------------


def local_slowdowns(spans: list[tuple[float, float]],
                    samples: list[tuple[float, float]]) -> list[float]:
    """For each item span (start, end): the machine's slowdown from the
    reference samples (time, seconds) taken within REF_WINDOW_S of the
    item's midpoint, or from the nearest sample when none is that close."""
    times = [t for t, _ in samples]
    out = []
    for start, end in spans:
        mid = 0.5 * (start + end)
        lo = bisect.bisect_left(times, mid - REF_WINDOW_S)
        hi = bisect.bisect_right(times, mid + REF_WINDOW_S)
        near = [s for _, s in samples[lo:hi]]
        if not near:
            near = [min(samples, key=lambda ts: abs(ts[0] - mid))[1]]
        out.append(reference.slowdown(near))
    return out


def run_rounds(wl, seconds: float, tracer=None) -> dict:
    """Whole rounds until the timed item work reaches `seconds`.

    Between items, at most every REF_PERIOD_S, the machine's slowdown is
    sampled with the reference loop (outside the item timings).  The
    reported rate and median divide each item's time by the slowdown
    sampled around it; the raw values are kept alongside.  The peak RSS is
    read after the last round's items, before their outputs are checked.
    """
    item_s: list[float] = []
    norm_item_s: list[float] = []
    slowdowns: list[float] = []
    round_s: list[float] = []
    rounds = attempted = failed = 0
    outcomes: dict[str, int] = {}
    error = None
    last_sample = 0.0
    while rounds == 0 or sum(round_s) < seconds:
        outs = []
        spans = []
        samples = []
        for item in wl.items:
            start = time.perf_counter()
            out = wl.run(item)
            end = time.perf_counter()
            spans.append((start, end))
            outs.append(out)
            if end - last_sample >= REF_PERIOD_S:
                samples.append((time.perf_counter(), reference.sample()))
                last_sample = time.perf_counter()
        times = [end - start for start, end in spans]
        slow = local_slowdowns(spans, samples)
        item_s += times
        norm_item_s += [t / s for t, s in zip(times, slow)]
        slowdowns += slow
        round_s.append(sum(times))
        rounds += 1
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
        for out in outs:
            key = wl.outcome(out)
            outcomes[key] = outcomes.get(key, 0) + 1
            failed += wl.failed(out)
        attempted += len(outs)
        try:
            wl.check(outs, first_round=rounds == 1)
        except checks.CheckError as exc:
            error = str(exc)
            break
        finally:
            if tracer is not None:
                tracer.install()
        del outs
        gc.collect()
    if tracer is not None:
        tracer.uninstall()
    measured = sum(round_s)
    return {"correct": error is None, "error": error, "attempted": attempted,
            "failed": failed, "rounds": rounds, "measured_s": measured,
            "round_s": round_s, "median_slowdown": statistics.median(slowdowns),
            "items_per_s": attempted / sum(norm_item_s),
            "item_p50_ms": 1000.0 * statistics.median(norm_item_s),
            "raw_items_per_s": attempted / measured,
            "raw_item_p50_ms": 1000.0 * statistics.median(item_s),
            "peak_rss_mb": peak_rss_kb / 1024.0, "outcomes": outcomes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after imports and input generation")
    args = ap.parse_args(argv)

    import_program()
    wl = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic() - getattr(wl, "bench_setup_s", 0.0)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    result = run_rounds(wl, args.seconds, tracer)
    result["ready"] = ready
    if result["correct"]:
        # After the RSS reading: the numpy enumerations peak above the
        # program.
        try:
            wl.check_certificates()
        except checks.CheckError as exc:
            result["correct"], result["error"] = False, str(exc)
    if hasattr(wl, "describe"):
        result["inputs"] = wl.describe()
    if tracer is not None:
        round_s = result["measured_s"] / result["rounds"]
        result["layers"] = tracer.metrics(result["rounds"])
        result["layers"]["round.s"] = {"value": round_s, "unit": "s/round"}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
