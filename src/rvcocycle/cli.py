"""Command-line interface: pair classification, renormalization traces,
exponent estimates, spectrum scans, twist trajectories, and the geometric
lemma verification suite.

Exit codes: 0 success, 1 runtime or I/O error, 2 usage error, 3 lemma-suite
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

import numpy as np

from . import hypgeom
from .cocycle import (
    CocyclePair,
    DegeneratePairError,
    classify_pair,
    k_membership,
    trace_coords,
)
from .iet import BudgetExceededError, Rotation2IET
from .lyapunov import (
    DecisionBudget,
    RenormTrace,
    direct_exponent,
    renorm_decision,
)
from .mat2 import (
    ENTRY_LIMIT,
    Matrix2,
    NonUnimodularError,
    classify,
    diagonal,
    mul,
    rotation,
)
from .spectrum import (
    BoundedWitness,
    ChartBoundaryError,
    HyperbolicityWitness,
    Representation,
    ScanPoint,
    ScanResult,
    mcg_trajectory,
    refine_spectrum,
    scan_grid,
    verdict_code,
)

DET_TOL_CLI = 1e-6


class UsageError(Exception):
    pass


def _fixtures() -> dict[str, tuple[Matrix2, Matrix2]]:
    # generic-elliptic: two non-commuting elliptics with commutator trace
    # well above 2, the standard Cantor-spectrum test representation.
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    return {
        "commuting-hyperbolic": (diagonal(2.0), diagonal(2.0)),
        "commuting-elliptic": (rotation(1.0), rotation(math.sqrt(2.0))),
        "generic-elliptic": (rotation(1.0),
                             mul(mul(m, rotation(0.9)), m.inv())),
    }


def parse_rep(spec: str) -> tuple[Matrix2, Matrix2]:
    parts = spec.split(",")
    if len(parts) != 8:
        raise UsageError("--rep needs 8 comma-separated reals (A row-major, then B)")
    try:
        vals = [float(x) for x in parts]
    except ValueError as exc:
        raise UsageError(f"bad --rep entry: {exc}")
    for v in vals:
        if not abs(v) <= ENTRY_LIMIT:
            raise UsageError(f"--rep entry {v} is not a finite real of size at most 2^500")
    mats = []
    for i in (0, 4):
        a, b, c, d = vals[i:i + 4]
        det = a * d - b * c
        if abs(det - 1.0) > DET_TOL_CLI:
            raise UsageError(f"matrix {'A' if i == 0 else 'B'} has determinant "
                             f"{det}, expected 1")
        mats.append(Matrix2(a, b, c, d))
    return mats[0], mats[1]


def parse_theta_range(spec: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = spec.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise UsageError("--theta must look like lo:hi")
    if not lo < hi:
        raise UsageError("--theta needs lo < hi")
    return lo, hi


def load_config(path: str) -> dict[str, str]:
    cfg = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line: {line!r}")
                key, _, value = line.partition("=")
                cfg[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return cfg


def resolve(args, cfg: dict[str, str], name: str, default, conv=str):
    """Flag value if given, else config-file value, else default."""
    v = getattr(args, name, None)
    if v is not None:
        return v
    if name in cfg:
        try:
            return conv(cfg[name])
        except ValueError as exc:
            raise UsageError(f"bad config value for {name}: {exc}")
    return default


def get_pair(args, cfg) -> tuple[Matrix2, Matrix2]:
    rep = resolve(args, cfg, "rep", None)
    fixture = resolve(args, cfg, "fixture", None)
    if rep is not None and fixture is not None:
        raise UsageError("give --rep or --fixture, not both")
    if rep is not None:
        return parse_rep(rep)
    if fixture is not None:
        table = _fixtures()
        if fixture not in table:
            raise UsageError(f"unknown fixture {fixture!r}; choose from "
                             + ", ".join(sorted(table)))
        return table[fixture]
    raise UsageError("a representation is required: --rep or --fixture")


def get_budget(args, cfg) -> DecisionBudget:
    try:
        return DecisionBudget(
            max_accel_steps=resolve(args, cfg, "max_steps", 60, int),
            max_digit=resolve(args, cfg, "max_digit", 10**6, int),
            trace_bound=resolve(args, cfg, "trace_bound", None, float),
        )
    except ValueError as exc:
        raise UsageError(f"bad --max-steps, --max-digit or --trace-bound: {exc}")


def _sink(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w"), True


# ---------------------------------------------------------------------------
# Serialization


def fmt12(x: float) -> str:
    """12 significant digits, trailing zeros kept."""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    s = np.format_float_positional(float(x), precision=12, unique=False,
                                   fractional=False)
    # numpy trims trailing zeros; pad back to a fixed significant-digit count
    # so columns stay aligned and output is byte-stable.
    sig = len(s.replace("-", "").replace(".", "").lstrip("0"))
    if sig == 0:
        return ("-" if s.startswith("-") else "") + "0." + "0" * 12
    if sig < 12:
        if "." not in s:
            s += "."
        s += "0" * (12 - sig)
    return s


def emit_scan_csv(result: ScanResult, sink) -> None:
    sink.write("theta,alpha,verdict,chi,steps,mu_lower\n")
    for p in sorted(result.points, key=lambda q: q.theta):
        sink.write(f"{fmt12(p.theta)},{fmt12(p.alpha)},{p.verdict},"
                   f"{fmt12(p.chi)},{p.steps},{fmt12(p.mu_lower)}\n")


def _finite_or_null(x: float) -> float | None:
    # Strict JSON has no Infinity or NaN.
    return x if math.isfinite(x) else None


def renorm_json_doc(trace: RenormTrace) -> dict:
    # finite_in and finite_out both print as "finite"; the certificate
    # carries the membership.
    code = verdict_code(trace)
    doc = {
        "verdict": "finite" if code.startswith("finite") else code,
        "steps": [
            {
                "n": s.index,
                "digit": s.digit,
                "winner": s.winner.value if s.winner is not None else "-",
                "type": s.pair_type,
                "x": _finite_or_null(s.coords.x),
                "y": _finite_or_null(s.coords.y),
                "z": _finite_or_null(s.coords.z),
                "inK": s.in_k_escort,
            }
            for s in trace.steps
        ],
    }
    v = trace.verdict
    if v.kind == "UniformlyHyperbolic" and v.certificate is not None:
        doc["certificate"] = {
            "arcLo": v.certificate.arc_lo,
            "arcHi": v.certificate.arc_hi,
            "mu": v.certificate.expansion_factor,
            "C": v.certificate.constant,
        }
    elif v.kind == "FiniteOrder":
        doc["certificate"] = {"spectrumMember": bool(v.spectrum_member)}
    return doc


def emit_renorm_json(trace: RenormTrace, sink) -> None:
    sink.write(json.dumps(renorm_json_doc(trace), indent=2))
    sink.write("\n")


def scan_json_doc(result: ScanResult) -> dict:
    def pt(p: ScanPoint):
        return {"theta": p.theta, "alpha": p.alpha, "verdict": p.verdict,
                "chi": None if math.isnan(p.chi) else p.chi,
                "steps": p.steps, "boundedSteps": p.bounded_steps}
    return {
        "points": [pt(p) for p in sorted(result.points, key=lambda q: q.theta)],
        "certifiedHyperbolicIntervals": [
            {"thetaLo": c.theta_lo, "thetaHi": c.theta_hi,
             "samples": c.samples, "atStep": c.at_step}
            for c in result.certified_hyperbolic_intervals
        ],
        "candidateSpectrumPoints": [
            pt(p) for p in result.candidate_spectrum_points
        ],
    }


# ---------------------------------------------------------------------------
# Commands


def cmd_classify(args, cfg) -> int:
    a, b = get_pair(args, cfg)
    pair = CocyclePair(a, b)
    t = classify_pair(pair)
    tc = trace_coords(pair)
    km = k_membership(pair)
    doc = {"type": t.code, "x": tc.x, "y": tc.y, "z": tc.z, "c": tc.c,
           "residual": tc.residual, "inK": km.in_k,
           "ellipticWitnesses": sorted(km.elliptic_witnesses)}
    if t.reason:
        doc["reason"] = t.reason
    print(json.dumps(doc, indent=2))
    return 0


def cmd_renorm(args, cfg) -> int:
    a, b = get_pair(args, cfg)
    alpha = resolve(args, cfg, "alpha", None, float)
    if alpha is None or not 0.0 < alpha < 1.0:
        raise UsageError("--alpha in (0,1) is required")
    trace = renorm_decision(CocyclePair(a, b), alpha, get_budget(args, cfg))
    sink, close = _sink(resolve(args, cfg, "out", None))
    try:
        emit_renorm_json(trace, sink)
    finally:
        if close:
            sink.close()
    return 0


def cmd_lyapunov(args, cfg) -> int:
    a, b = get_pair(args, cfg)
    alpha = resolve(args, cfg, "alpha", None, float)
    if alpha is None or not 0.0 < alpha < 1.0:
        raise UsageError("--alpha in (0,1) is required")
    n_iters = resolve(args, cfg, "iters", 100000, int)
    if n_iters < 1:
        raise UsageError("--iters must be >= 1")
    n_samples = resolve(args, cfg, "samples", 8, int)
    if n_samples < 1:
        raise UsageError("--samples must be >= 1")
    seed = resolve(args, cfg, "seed", 0, int)
    if seed < 0:
        raise UsageError("--seed must be >= 0")
    est = direct_exponent(CocyclePair(a, b), Rotation2IET(alpha),
                          n_iters=n_iters, n_samples=n_samples, seed=seed)
    print(json.dumps({"chi": est.chi, "nIters": est.n_iters,
                      "samplePoints": est.sample_points,
                      "stderr": est.stderr}, indent=2))
    return 0


def cmd_scan(args, cfg) -> int:
    a, b = get_pair(args, cfg)
    rep = Representation(a, b)
    lo, hi = parse_theta_range(resolve(args, cfg, "theta", "0.05:1.5"))
    n = resolve(args, cfg, "grid", 64, int)
    if n < 2:
        raise UsageError("--grid must be >= 2")
    budget = get_budget(args, cfg)
    chi_iters = resolve(args, cfg, "chi_iters", 2000, int)
    if chi_iters < 0:
        raise UsageError("--chi-iters must be >= 0")
    result = scan_grid(rep, lo, hi, n, budget, chi_iters)
    return _write_scan(args, cfg, result)


def cmd_refine(args, cfg) -> int:
    a, b = get_pair(args, cfg)
    rep = Representation(a, b)
    lo, hi = parse_theta_range(resolve(args, cfg, "theta", "0.05:1.5"))
    depth = resolve(args, cfg, "depth", 8, int)
    if depth < 1:
        raise UsageError("--depth must be >= 1")
    result = refine_spectrum(rep, lo, hi, depth, get_budget(args, cfg))
    return _write_scan(args, cfg, result)


def _write_scan(args, cfg, result: ScanResult) -> int:
    fmt = resolve(args, cfg, "format", "csv")
    if fmt not in ("csv", "json"):
        raise UsageError("--format must be csv or json")
    sink, close = _sink(resolve(args, cfg, "out", None))
    try:
        if fmt == "csv":
            emit_scan_csv(result, sink)
        else:
            sink.write(json.dumps(scan_json_doc(result), indent=2))
            sink.write("\n")
    finally:
        if close:
            sink.close()
    return 0


def cmd_mcg(args, cfg) -> int:
    a, b = get_pair(args, cfg)
    alpha = resolve(args, cfg, "alpha", None, float)
    if alpha is None or not 0.0 < alpha < 1.0:
        raise UsageError("--alpha in (0,1) is required")
    n_steps = resolve(args, cfg, "steps", 20, int)
    traj, witness = mcg_trajectory(Representation(a, b), alpha, n_steps,
                                   get_budget(args, cfg))
    if isinstance(witness, HyperbolicityWitness):
        wdoc = {"kind": "hyperbolic", "stepIndex": witness.step_index,
                "mu": None if math.isnan(witness.mu) else witness.mu,
                "growthLog": list(witness.growth_log)}
    else:
        mt = witness.max_trace_norm
        wdoc = {"kind": "bounded",
                "maxTraceNorm": None if math.isnan(mt) else mt,
                "growthLog": list(witness.growth_log)}
    doc = {
        "twistWord": [{"generator": g, "power": p} for g, p in traj.twist_word],
        "matrices": [[list(row) for row in m] for m in traj.matrices],
        "normsL1": list(traj.norms_l1),
        "convergentDenominators": list(traj.convergent_denominators),
        "witness": wdoc,
    }
    sink, close = _sink(resolve(args, cfg, "out", None))
    try:
        sink.write(json.dumps(doc, indent=2))
        sink.write("\n")
    finally:
        if close:
            sink.close()
    return 0


# ---------------------------------------------------------------------------
# Lemma verification suites


def _check_rr(rng: random.Random) -> str | None:
    theta_a = rng.uniform(1.2, 2.8)
    d1 = rng.uniform(1.5, 2.5)
    d2 = d1 + rng.uniform(0.3, 1.0)
    th1 = hypgeom.elliptic_product_threshold(d1, theta_a)
    th2 = hypgeom.elliptic_product_threshold(d2, theta_a)
    for d, th in ((d1, th1), (d2, th2)):
        a = hypgeom.rotation_about(1j, theta_a)
        bmat = hypgeom.rotation_about(math.exp(d) * 1j, th)
        res = abs(abs(mul(a, bmat).trace) - 2.0)
        if res > 1e-8:
            return f"residual {res:.2e} at threshold (d={d:.3f})"
    if th2 > th1 + 1e-12:
        return f"threshold grew with distance: {th1:.6f} -> {th2:.6f}"
    return None


def _check_hr(rng: random.Random) -> str | None:
    t = rng.uniform(0.3, 1.5)
    d = rng.uniform(0.2, 0.8)
    lo, hi = hypgeom.mixed_product_interval(t, d)
    a = Matrix2(math.exp(t / 2.0), 0.0, 0.0, math.exp(-t / 2.0))
    p = math.sinh(d) + 1j
    for edge in (lo, hi):
        res = abs(abs(mul(a, hypgeom.rotation_about(p, edge)).trace) - 2.0)
        if res > 1e-8:
            return f"residual {res:.2e} at interval edge"
    mid = 0.5 * (lo + hi)
    if abs(mul(a, hypgeom.rotation_about(p, mid)).trace) >= 2.0:
        return "product not elliptic inside the interval"
    for outside in (lo - 0.05, hi + 0.05):
        if not 0.0 < outside < 2.0 * math.pi:
            continue
        if abs(mul(a, hypgeom.rotation_about(p, outside)).trace) <= 2.0:
            return "product not hyperbolic outside the interval"
    return None


def _check_hh(rng: random.Random) -> str | None:
    d = rng.uniform(0.5, 2.0)
    # The three-regime structure needs e^{t_b/2} > coth(d/2).
    t_b = 2.0 * math.log(1.0 / math.tanh(d / 2.0)) + rng.uniform(0.3, 1.5)
    t1, t2 = hypgeom.hh_minus_thresholds(t_b, d)
    if not 0.0 < t1 <= t2:
        return f"thresholds out of order: {t1}, {t2}"

    def ab(t_a):
        a, b = hypgeom.hh_minus_canonical_pair(t_a, t_b, d)
        return a, mul(a, b)

    for t, target in ((t1, 2.0), (t2, -2.0)):
        _, prod = ab(t)
        if abs(prod.trace - target) > 1e-8:
            return f"residual {abs(prod.trace - target):.2e} at threshold"
    a_mid, prod_mid = ab(0.5 * (t1 + t2))
    if abs(prod_mid.trace) >= 2.0:
        return "middle regime not elliptic"
    a_lo, prod_lo = ab(0.5 * t1)
    if abs(prod_lo.trace) <= 2.0:
        return "low regime not hyperbolic"
    if classify_pair(CocyclePair(a_lo, prod_lo)).code != "HH-":
        return "low regime pair (A, AB) is not HH-"
    a_hi, prod_hi = ab(t2 + 1.0)
    if abs(prod_hi.trace) <= 2.0:
        return "high regime not hyperbolic"
    if classify_pair(CocyclePair(a_hi, prod_hi)).code != "HH+":
        return "high regime pair (A, AB) is not HH+"
    return None


LEMMA_SUITES = (
    ("elliptic-product-threshold", _check_rr),
    ("mixed-product-interval", _check_hr),
    ("alternating-translation-thresholds", _check_hh),
)


def cmd_verify_lemmas(args, cfg) -> int:
    draws = resolve(args, cfg, "draws", 100, int)
    seed = resolve(args, cfg, "seed", 0, int)
    all_ok = True
    for name, check in LEMMA_SUITES:
        rng = random.Random(seed)
        failures = []
        for i in range(draws):
            msg = check(rng)
            if msg is not None:
                failures.append((i, msg))
        if failures:
            all_ok = False
            print(f"{name}: FAIL ({len(failures)}/{draws} draws)")
            for i, msg in failures[:5]:
                print(f"  draw {i}: {msg}")
        else:
            print(f"{name}: pass ({draws} draws)")
    return 0 if all_ok else 3


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvcocycle",
        description="Renormalization toolkit for SL(2,R) cocycles over "
                    "2-interval exchanges")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--rep", help="8 comma-separated reals: A row-major, then B")
        sp.add_argument("--fixture", help="named representation fixture")
        sp.add_argument("--config", help="key = value config file; flags win")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--max-steps", dest="max_steps", type=int)
        sp.add_argument("--max-digit", dest="max_digit", type=int)
        sp.add_argument("--trace-bound", dest="trace_bound", type=float)

    sp = sub.add_parser("classify", help="pair type and trace coordinates")
    common(sp)

    sp = sub.add_parser("renorm", help="renormalization trace as JSON")
    common(sp)
    sp.add_argument("--alpha", type=float)

    sp = sub.add_parser("lyapunov", help="direct exponent estimate")
    common(sp)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--iters", type=int)
    sp.add_argument("--samples", type=int)

    sp = sub.add_parser("scan", help="grid scan over slope angles")
    common(sp)
    sp.add_argument("--theta", help="range lo:hi")
    sp.add_argument("--grid", type=int)
    sp.add_argument("--chi-iters", dest="chi_iters", type=int)

    sp = sub.add_parser("refine", help="adaptive spectrum refinement")
    common(sp)
    sp.add_argument("--theta", help="range lo:hi")
    sp.add_argument("--depth", type=int)

    sp = sub.add_parser("mcg", help="twist trajectory along a slope")
    common(sp)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--steps", type=int)

    sp = sub.add_parser("verify-lemmas", help="geometric threshold lemma suite")
    common(sp)
    sp.add_argument("--draws", type=int)

    return parser


COMMANDS = {
    "classify": cmd_classify,
    "renorm": cmd_renorm,
    "lyapunov": cmd_lyapunov,
    "scan": cmd_scan,
    "refine": cmd_refine,
    "mcg": cmd_mcg,
    "verify-lemmas": cmd_verify_lemmas,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        return COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, ChartBoundaryError, DegeneratePairError,
            NonUnimodularError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
