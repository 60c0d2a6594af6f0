"""Slope charts from a representation to (rotation, matrix pair) instances,
grid and adaptive scanning for the set of slopes with zero exponent, and
mapping-class-group twist trajectories with divergence measurement.

Chart convention.  A slope angle theta (mod pi) with theta in (0, pi/2)
gives the rotation by alpha = frac(tan theta); the integer part k of the
slope is absorbed into the pair as the twist normalization (A, B A^k).
Angles in (pi/2, pi) use t = -tan theta and the pair (A^-1, B A^-k).
Vertical and horizontal slopes are chart boundaries.  The chart of the
reflected representation (B, A) at pi/2 - theta presents the same
foliation with the generator roles exchanged, so spectrum-membership
verdicts must agree between the two even though the matrices differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cocycle import (
    CocyclePair,
    DegeneratePairError,
    classify_pair,
    mul,
    trace_coords,
)
from .iet import Rotation2IET, Winner, continued_fraction
from .lyapunov import (
    DecisionBudget,
    RenormTrace,
    bounded_prefix,
    direct_exponent,
    renorm_decision,
    renorm_runs,
)
from .mat2 import Matrix2

CHART_TOL = 1e-12


class ChartBoundaryError(ValueError):
    """The slope is vertical or horizontal: no chart covers it."""


@dataclass(frozen=True)
class Representation:
    A: Matrix2
    B: Matrix2

    @property
    def c(self) -> float:
        return trace_coords(CocyclePair(self.A, self.B)).c

    @property
    def is_degenerate(self) -> bool:
        return self.c <= 2.0


def chart_for(rep: Representation, theta: float) -> tuple[float, CocyclePair]:
    """Map a slope angle to (alpha, pair)."""
    th = theta % math.pi
    if min(th, math.pi - th) <= CHART_TOL or abs(th - math.pi / 2.0) <= CHART_TOL:
        raise ChartBoundaryError(f"slope angle {theta} is on a chart boundary")
    if th < math.pi / 2.0:
        t = math.tan(th)
        first, second = rep.A, rep.B
        k = int(math.floor(t))
        pair = CocyclePair(first, mul(second, first.power(k)))
    else:
        t = -math.tan(th)
        first = rep.A.inv()
        k = int(math.floor(t))
        pair = CocyclePair(first, mul(rep.B, first.power(k)))
    alpha = t - math.floor(t)
    if alpha <= CHART_TOL or alpha >= 1.0 - CHART_TOL:
        raise ChartBoundaryError(f"slope angle {theta} gives an integer slope")
    return alpha, pair


# ---------------------------------------------------------------------------
# Scanning


@dataclass(frozen=True)
class ScanPoint:
    theta: float
    alpha: float          # nan for chart-boundary / degenerate points
    verdict: str          # hyperbolic | bounded | finite_in | finite_out
    #                       | undecided | degenerate
    chi: float            # nan when not estimated
    steps: int            # accelerated steps to decision (0 if immediate)
    mu_lower: float       # cone expansion factor, nan unless hyperbolic
    bounded_steps: int = 0  # leading steps tracking a bounded orbit


@dataclass(frozen=True)
class CertifiedInterval:
    theta_lo: float
    theta_hi: float
    samples: int          # sampled points supporting the certification
    at_step: int          # common absorbing step of the samples


@dataclass(frozen=True)
class ScanResult:
    points: tuple[ScanPoint, ...]
    certified_hyperbolic_intervals: tuple[CertifiedInterval, ...] = ()
    candidate_spectrum_points: tuple[ScanPoint, ...] = ()


def verdict_code(trace: RenormTrace) -> str:
    v = trace.verdict
    if v.kind == "UniformlyHyperbolic":
        return "hyperbolic"
    if v.kind == "CertifiedBounded":
        return "bounded"
    if v.kind == "FiniteOrder":
        return "finite_in" if v.spectrum_member else "finite_out"
    return "undecided"


def evaluate_slope(rep: Representation, theta: float,
                   budget: DecisionBudget | None = None,
                   chi_iters: int = 0) -> ScanPoint:
    """One scan point: chart, renormalization verdict, optional direct
    exponent estimate.  Chart boundaries and degenerate pairs yield a
    'degenerate' point instead of raising."""
    try:
        alpha, pair = chart_for(rep, theta)
    except ChartBoundaryError:
        return ScanPoint(theta, math.nan, "degenerate", math.nan, 0, math.nan)
    try:
        trace = renorm_decision(pair, alpha, budget)
    except DegeneratePairError:
        return ScanPoint(theta, alpha, "degenerate", math.nan, 0, math.nan)
    code = verdict_code(trace)
    chi = math.nan
    if chi_iters > 0:
        chi = direct_exponent(pair, Rotation2IET(alpha), chi_iters).chi
    mu = math.nan
    if code == "hyperbolic" and trace.verdict.certificate is not None:
        mu = trace.verdict.certificate.expansion_factor
    steps = trace.verdict.at_step if trace.verdict.at_step is not None \
        else len(trace.steps)
    return ScanPoint(theta=theta, alpha=alpha, verdict=code, chi=chi,
                     steps=steps, mu_lower=mu,
                     bounded_steps=bounded_prefix(trace, trace.trace_bound))


def scan_grid(rep: Representation, theta_lo: float, theta_hi: float,
              n: int, budget: DecisionBudget | None = None,
              chi_iters: int = 0) -> ScanResult:
    """Evaluate n equispaced slopes in [theta_lo, theta_hi]."""
    if n < 2:
        raise ValueError("n must be >= 2")
    h = (theta_hi - theta_lo) / (n - 1)
    points = tuple(evaluate_slope(rep, theta_lo + i * h, budget, chi_iters)
                   for i in range(n))
    candidates = tuple(p for p in points
                       if p.verdict in ("bounded", "finite_in"))
    return ScanResult(points=points, candidate_spectrum_points=candidates)


def refine_spectrum(rep: Representation, theta_lo: float, theta_hi: float,
                    depth: int, budget: DecisionBudget | None = None) -> ScanResult:
    """Adaptive bisection.  An interval whose three sampled points all decide
    hyperbolic with a common absorbing step is certified by sampling and not
    refined further; other intervals split until depth.  Candidate points are
    the samples of deepest-level intervals that resisted certification,
    reported with how many leading renormalization steps stayed bounded,
    never as proven members.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cache: dict[float, ScanPoint] = {}

    def ev(theta: float) -> ScanPoint:
        if theta not in cache:
            cache[theta] = evaluate_slope(rep, theta, budget)
        return cache[theta]

    certified: list[CertifiedInterval] = []
    candidates: dict[float, ScanPoint] = {}

    def rec(lo: float, hi: float, d: int):
        mid = 0.5 * (lo + hi)
        pts = [ev(lo), ev(mid), ev(hi)]
        if all(p.verdict == "hyperbolic" for p in pts) and \
                len({p.steps for p in pts}) == 1:
            certified.append(CertifiedInterval(lo, hi, 3, pts[0].steps))
            return
        if d >= depth:
            # Surviving pit: all three samples of an uncertifiable deepest
            # interval are candidates (their bounded_steps field records how
            # long each tracked a bounded orbit).  Samples on the shared
            # boundary with a certified interval stay candidates; certified
            # intervals certify their interior only.
            for p in pts:
                candidates[p.theta] = p
            return
        rec(lo, mid, d + 1)
        rec(mid, hi, d + 1)

    rec(theta_lo, theta_hi, 1)
    points = tuple(cache[t] for t in sorted(cache))
    cands = tuple(candidates[t] for t in sorted(candidates))
    return ScanResult(points=points,
                      certified_hyperbolic_intervals=tuple(certified),
                      candidate_spectrum_points=cands)


# ---------------------------------------------------------------------------
# Mapping-class-group trajectories


TWIST_A = ((1, 1), (0, 1))   # Dehn twist along generator a
TWIST_B = ((1, 0), (1, 1))   # twist along b (transpose convention)


def _int_mul(m1, m2):
    return ((m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
             m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
            (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
             m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]))


def _int_twist_power(twist, n: int):
    if twist is TWIST_A:
        return ((1, n), (0, 1))
    return ((1, 0), (n, 1))


def _l1(m) -> int:
    return abs(m[0][0]) + abs(m[0][1]) + abs(m[1][0]) + abs(m[1][1])


@dataclass(frozen=True)
class MCGTrajectory:
    twist_word: tuple[tuple[str, int], ...]    # (generator, power) per step
    matrices: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    norms_l1: tuple[int, ...]
    convergent_denominators: tuple[int, ...]   # q_k aligned with step k


@dataclass(frozen=True)
class HyperbolicityWitness:
    step_index: int                  # accelerated step where HH+ was reached
    mu: float                        # expansion factor of the certificate
    growth_log: tuple[float, ...]    # log max trace norm per step


@dataclass(frozen=True)
class BoundedWitness:
    max_trace_norm: float
    growth_log: tuple[float, ...]


def mcg_trajectory(rep: Representation, alpha: float, n_steps: int,
                   budget: DecisionBudget | None = None):
    """Integer twist matrices phi_n along the accelerated Rauzy path of
    alpha, together with the log-scaled trace growth of the pulled-back
    pair, classified as hyperbolic divergence or bounded return.

    A Bottom run of length N applies tau1^N to the pair and multiplies
    phi by the N-th power of the twist along a; Top runs use tau2 and the
    twist along b.  The trajectory has min(n_steps, number of runs of
    alpha) steps.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    pair = CocyclePair(rep.A, rep.B)
    t0 = classify_pair(pair)
    if t0.is_degenerate:
        raise DegeneratePairError(t0.reason)

    if budget is None:
        budget = DecisionBudget()
    phi = ((1, 0), (0, 1))
    word: list[tuple[str, int]] = []
    mats = []
    norms = []
    growth: list[float] = []
    for winner, run_len, cur in renorm_runs(pair, alpha, budget.max_digit):
        gen, twist = ("a", TWIST_A) if winner is Winner.BOTTOM else ("b", TWIST_B)
        word.append((gen, run_len))
        phi = _int_mul(_int_twist_power(twist, run_len), phi)
        mats.append(phi)
        norms.append(_l1(phi))
        growth.append(max(cur.A.log_abs_trace(), cur.B.log_abs_trace(),
                          cur.product().log_abs_trace()))
        if len(word) >= n_steps:
            break

    # q_k aligned conservatively with the run index (the first run length is
    # a_1 - 1, so the true return denominator at run k is >= this q_k).
    cf = continued_fraction(alpha, max_digits=len(word) + 2)
    qs = cf.convergent_denominators[:len(word) + 1]
    traj = MCGTrajectory(twist_word=tuple(word), matrices=tuple(mats),
                         norms_l1=tuple(norms),
                         convergent_denominators=tuple(qs))

    decision = renorm_decision(pair, alpha, budget)
    v = decision.verdict
    if v.kind == "UniformlyHyperbolic":
        mu = v.certificate.expansion_factor if v.certificate else math.nan
        witness = HyperbolicityWitness(step_index=v.at_step, mu=mu,
                                       growth_log=tuple(growth))
    elif v.kind == "CertifiedBounded":
        witness = BoundedWitness(max_trace_norm=v.max_trace_norm,
                                 growth_log=tuple(growth))
    elif v.kind == "FiniteOrder" and v.spectrum_member:
        witness = BoundedWitness(max_trace_norm=math.nan,
                                 growth_log=tuple(growth))
    else:
        witness = HyperbolicityWitness(step_index=len(word), mu=math.nan,
                                       growth_log=tuple(growth))
    return traj, witness
