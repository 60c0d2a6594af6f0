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
from dataclasses import dataclass
from typing import Any, Callable

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
    Kind,
    RenormTrace,
    direct_exponent,
    renorm_decision,
)
from .mat2 import (
    ENTRY_LIMIT,
    Matrix2,
    NonUnimodularError,
    diagonal,
    mul,
    rotation,
)
from .spectrum import (
    ChartBoundaryError,
    HyperbolicityWitness,
    ScanPoint,
    ScanResult,
    mcg_trajectory,
    refine_spectrum,
    scan_grid,
)

DET_TOL_CLI = 1e-6


class UsageError(Exception):
    pass


def parse_fixture(name: str) -> CocyclePair:
    # generic-elliptic: two non-commuting elliptics with commutator trace
    # well above 2, the standard Cantor-spectrum test representation.
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    table = {
        "commuting-hyperbolic": (diagonal(2.0), diagonal(2.0)),
        "commuting-elliptic": (rotation(1.0), rotation(math.sqrt(2.0))),
        "generic-elliptic": (rotation(1.0),
                             mul(mul(m, rotation(0.9)), m.inv())),
    }
    if name not in table:
        raise UsageError(f"unknown fixture {name!r}; choose from "
                         + ", ".join(sorted(table)))
    return CocyclePair(*table[name])


def parse_rep(spec: str) -> CocyclePair:
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
    return CocyclePair(*mats)


def parse_theta_range(spec: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = spec.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise UsageError("--theta must look like lo:hi")
    if not (-math.pi <= lo < hi <= math.pi and hi - lo <= math.pi):
        raise UsageError("--theta needs -pi <= lo < hi <= pi and hi - lo <= pi")
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
                key = key.strip().replace("-", "_")
                if key not in OPTIONS:
                    raise UsageError(f"unknown config key {key!r}")
                cfg[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return cfg


# ---------------------------------------------------------------------------
# Options


@dataclass(frozen=True)
class Option:
    """An option of the commands named in commands.  conv reads its flag or
    config-file text and raises ValueError on text it cannot read (the
    pair and --theta parsers raise their own UsageError), ok is its valid
    range, and what, its --help line, says what a valid value is.  A
    default of None leaves it unset, so the library's own default applies."""

    commands: str
    conv: Callable[[str], Any] = str
    ok: Callable[[Any], bool] = lambda v: True
    what: str = ""
    default: Any = None
    required: bool = False


def _count(least: int):
    """conv, ok and what of an integer option whose least value is least."""
    return int, lambda v: v >= least, f"an integer >= {least}"


PAIR = "classify renorm lyapunov scan refine mcg"
BUDGET = "renorm scan refine mcg"

OPTIONS = {
    "config": Option(PAIR + " verify-lemmas",
                     what="a key = value config file; flags win"),
    "rep": Option(PAIR, parse_rep,
                  what="8 comma-separated reals: A row-major, then B"),
    "fixture": Option(PAIR, parse_fixture, what="a named representation fixture"),
    "out": Option(PAIR, what="an output path (default: stdout)"),
    "format": Option("scan refine", str, lambda v: v in ("csv", "json"),
                     "csv or json", "csv"),
    "alpha": Option("renorm lyapunov mcg", float, lambda v: 0.0 < v < 1.0,
                    "a real in (0, 1)", required=True),
    "theta": Option("scan refine", parse_theta_range,
                    what="lo:hi, -pi <= lo < hi <= pi, hi - lo <= pi",
                    default=(0.05, 1.5)),
    "iters": Option("lyapunov", *_count(1), 100000),
    "samples": Option("lyapunov", *_count(1)),
    "seed": Option("lyapunov verify-lemmas", *_count(0)),
    "grid": Option("scan", *_count(2), 64),
    "chi_iters": Option("scan", *_count(0), 2000),
    "depth": Option("refine", *_count(1), 8),
    "steps": Option("mcg", *_count(1), 20),
    "draws": Option("verify-lemmas", *_count(1), 100),
    # The decision budget: DecisionBudget's fields hold the defaults.
    "max_steps": Option(BUDGET, *_count(1)),
    "max_digit": Option(BUDGET, *_count(1)),
    "trace_bound": Option(BUDGET, float, lambda v: 0.0 < v < math.inf,
                          "a finite real > 0"),
}


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def resolve(args: argparse.Namespace, cfg: dict[str, str]) -> argparse.Namespace:
    """The options of args.command, each from its flag, else the config
    file, else its default; flag and config values are checked alike.  The
    config keys of other commands' options are ignored."""
    values = {}
    for name, opt in OPTIONS.items():
        if args.command not in opt.commands.split():
            continue
        text = getattr(args, name)
        if text is None:
            text = cfg.get(name)
        if text is None:
            if opt.required:
                raise UsageError(f"{flag(name)} is required: {opt.what}")
            values[name] = opt.default
            continue
        try:
            value = opt.conv(text)
            ok = opt.ok(value)
        except ValueError:
            ok = False
        if not ok:
            raise UsageError(f"{flag(name)} must be {opt.what}, got {text!r}")
        values[name] = value
    return argparse.Namespace(**values)


def given(**kwargs) -> dict:
    """The arguments that were set; the callee's defaults fill the rest."""
    return {k: v for k, v in kwargs.items() if v is not None}


def get_pair(o) -> CocyclePair:
    if o.rep is not None and o.fixture is not None:
        raise UsageError("give --rep or --fixture, not both")
    if o.rep is None and o.fixture is None:
        raise UsageError("a representation is required: --rep or --fixture")
    return o.rep or o.fixture


def get_budget(o) -> DecisionBudget:
    return DecisionBudget(**given(max_accel_steps=o.max_steps,
                                  max_digit=o.max_digit,
                                  trace_bound=o.trace_bound))


def write(o, doc: dict | str) -> int:
    """Send a dict as indented JSON, or a str as it is, to --out or stdout."""
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2) + "\n"
    if o.out is None:
        sys.stdout.write(text)
    else:
        with open(o.out, "w") as fh:
            fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# Serialization


def fmt12(x: float) -> str:
    """x to 12 significant digits, written out with its trailing zeros so
    columns stay aligned and output is byte-stable (zero with 12 after the
    point); infinity prints as inf.000000000."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    sign = "-" if math.copysign(1.0, x) < 0.0 else ""
    if math.isinf(x):
        return sign + "inf.000000000"
    mantissa, _, exp = f"{abs(x):.11e}".partition("e")
    digits, e = mantissa.replace(".", ""), int(exp) if x else -1
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{digits}"
    digits = digits.ljust(e + 1, "0")
    return f"{sign}{digits[:e + 1]}.{digits[e + 1:]}"


def scan_csv(result: ScanResult) -> str:
    rows = ["theta,alpha,verdict,chi,steps,mu_lower\n"]
    # chi to 12 decimal places: direct_exponent's round-off stays below
    # 1e-13 at scan's iteration counts, so a zero exponent prints as zeros
    # rather than its round-off, and reordering the orbit-product
    # arithmetic moves a printed chi only where it lies within that
    # round-off of a rounding boundary.
    for p in sorted(result.points, key=lambda q: q.theta):
        rows.append(f"{fmt12(p.theta)},{fmt12(p.alpha)},{p.verdict},"
                    f"{p.chi:.12f},{p.steps},{fmt12(p.mu_lower)}\n")
    return "".join(rows)


def _finite_or_null(x: float) -> float | None:
    # Strict JSON has no Infinity or NaN.
    return x if math.isfinite(x) else None


def renorm_json_doc(trace: RenormTrace) -> dict:
    # finite_in and finite_out both print as "finite"; the certificate
    # carries the membership.
    v = trace.verdict
    finite = v.kind == Kind.FINITE_ORDER
    doc = {
        "verdict": "finite" if finite else v.code,
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
    if v.certificate is not None:
        doc["certificate"] = {
            "arcLo": v.certificate.arc_lo,
            "arcHi": v.certificate.arc_hi,
            "mu": v.certificate.expansion_factor,
            "C": v.certificate.constant,
        }
    elif finite:
        doc["certificate"] = {"spectrumMember": bool(v.spectrum_member)}
    return doc


def scan_json_doc(result: ScanResult) -> dict:
    def pt(p: ScanPoint):
        return {"theta": p.theta, "alpha": _finite_or_null(p.alpha),
                "verdict": p.verdict, "chi": _finite_or_null(p.chi),
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
# Commands; each one's docstring is its --help line.


def cmd_classify(o) -> int:
    """pair type and trace coordinates"""
    pair = get_pair(o)
    t = classify_pair(pair)
    tc = trace_coords(pair)
    km = k_membership(tc)
    coords = {name: _finite_or_null(getattr(tc, name))
              for name in ("x", "y", "z", "c", "residual")}
    doc = {"type": t.code, **coords, "inK": km.in_k,
           "ellipticWitnesses": sorted(km.elliptic_witnesses)}
    if t.reason:
        doc["reason"] = t.reason
    return write(o, doc)


def cmd_renorm(o) -> int:
    """renormalization trace as JSON"""
    trace = renorm_decision(get_pair(o), o.alpha, get_budget(o))
    return write(o, renorm_json_doc(trace))


def cmd_lyapunov(o) -> int:
    """direct exponent estimate"""
    est = direct_exponent(get_pair(o), Rotation2IET(o.alpha),
                          n_iters=o.iters, **given(n_samples=o.samples, seed=o.seed))
    return write(o, {"chi": est.chi, "nIters": est.n_iters,
                     "samplePoints": est.sample_points, "stderr": est.stderr})


def cmd_scan(o) -> int:
    """grid scan over slope angles"""
    result = scan_grid(get_pair(o), *o.theta, o.grid, get_budget(o), o.chi_iters)
    return write(o, scan_csv(result) if o.format == "csv" else scan_json_doc(result))


def cmd_refine(o) -> int:
    """adaptive spectrum refinement"""
    result = refine_spectrum(get_pair(o), *o.theta, o.depth, get_budget(o))
    return write(o, scan_csv(result) if o.format == "csv" else scan_json_doc(result))


def cmd_mcg(o) -> int:
    """twist trajectory along a slope"""
    traj, witness = mcg_trajectory(get_pair(o), o.alpha, o.steps, get_budget(o))
    if isinstance(witness, HyperbolicityWitness):
        wdoc = {"kind": "hyperbolic", "stepIndex": witness.step_index,
                "mu": None if math.isnan(witness.mu) else witness.mu}
    else:
        mt = witness.max_trace_norm
        wdoc = {"kind": "bounded", "maxTraceNorm": None if math.isnan(mt) else mt}
    wdoc["growthLog"] = list(witness.growth_log)
    return write(o, {
        "twistWord": [{"generator": g, "power": p} for g, p in traj.twist_word],
        "matrices": [[list(row) for row in m] for m in traj.matrices],
        "normsL1": list(traj.norms_l1),
        "convergentDenominators": list(traj.convergent_denominators),
        "witness": wdoc,
    })


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


def lemma_failures(draws: int, seed: int = 0):
    """Each suite's name and its failing draws as (index, message); every
    suite draws from its own random.Random(seed)."""
    for name, check in LEMMA_SUITES:
        rng = random.Random(seed)
        failures = []
        for i in range(draws):
            msg = check(rng)
            if msg is not None:
                failures.append((i, msg))
        yield name, failures


def cmd_verify_lemmas(o) -> int:
    """geometric threshold lemma suite"""
    all_ok = True
    for name, failures in lemma_failures(o.draws, **given(seed=o.seed)):
        if failures:
            all_ok = False
            print(f"{name}: FAIL ({len(failures)}/{o.draws} draws)")
            for i, msg in failures[:5]:
                print(f"  draw {i}: {msg}")
        else:
            print(f"{name}: pass ({o.draws} draws)")
    return 0 if all_ok else 3


# ---------------------------------------------------------------------------
# Argument parsing


COMMANDS = {
    "classify": cmd_classify,
    "renorm": cmd_renorm,
    "lyapunov": cmd_lyapunov,
    "scan": cmd_scan,
    "refine": cmd_refine,
    "mcg": cmd_mcg,
    "verify-lemmas": cmd_verify_lemmas,
}


def usage_error(message: str):
    raise UsageError(message)  # argparse's error hook: one error: line, exit 2


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes, as text, the options of OPTIONS it reads."""
    parser = argparse.ArgumentParser(
        prog="rvcocycle",
        description="Renormalization toolkit for SL(2,R) cocycles over "
                    "2-interval exchanges")
    parser.error = usage_error
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        sp = sub.add_parser(command, help=run.__doc__)
        sp.error = usage_error
        for name, opt in OPTIONS.items():
            if command in opt.commands.split():
                sp.add_argument(flag(name), help=opt.what)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config) if args.config else {}
        return COMMANDS[args.command](resolve(args, cfg))
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
