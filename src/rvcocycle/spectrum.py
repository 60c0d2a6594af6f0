"""Slope charts from a representation to (rotation, matrix pair) instances,
grid and adaptive scanning for the set of slopes with zero exponent, and
mapping-class-group twist trajectories with divergence measurement.

A representation rho of the once-punctured torus's fundamental group, a
free group on a and b, is its pair of generators (A, B) = (rho(a), rho(b)):
a CocyclePair, here named Representation.

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
from dataclasses import dataclass

from .cocycle import (
    CocyclePair,
    DegeneratePairError,
    classify_pair,
    mul,
)
from .iet import BudgetExceededError, Winner
from .lyapunov import (
    DecisionBudget,
    _decide,
    _exponent,
    _Induction,
    bounded_prefix,
    is_candidate,
    renorm_decision,
)

CHART_TOL = 1e-12


class ChartBoundaryError(ValueError):
    """The slope is vertical or horizontal: no chart covers it."""


Representation = CocyclePair


def chart_for(rep: Representation, theta: float) -> tuple[float, CocyclePair]:
    """Map a slope angle to (alpha, pair)."""
    th = theta % math.pi
    if min(th, math.pi - th) <= CHART_TOL or abs(th - math.pi / 2.0) <= CHART_TOL:
        raise ChartBoundaryError(f"slope angle {theta} is on a chart boundary")
    upper = th > math.pi / 2.0
    t = -math.tan(th) if upper else math.tan(th)
    first = rep.A.inv() if upper else rep.A
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
    verdict: str          # Verdict.code, or degenerate
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


def evaluate_slope(rep: Representation, theta: float,
                   budget: DecisionBudget | None = None,
                   chi_iters: int = 0) -> ScanPoint:
    """One scan point: chart, renormalization verdict, optional direct
    exponent estimate, both read off one table of the induction, the
    decision's.  Chart boundaries and degenerate pairs yield a 'degenerate'
    point instead of raising."""
    alpha = math.nan  # until the chart gives it
    try:
        alpha, pair = chart_for(rep, theta)
        trace = renorm_decision(pair, alpha, budget)
    except (ChartBoundaryError, DegeneratePairError):
        return ScanPoint(theta, alpha, "degenerate", math.nan, 0, math.nan)
    v = trace.verdict
    chi = math.nan
    if chi_iters > 0:
        chi = _exponent(trace.table, chi_iters).chi
    mu = v.certificate.expansion_factor if v.certificate is not None else math.nan
    steps = v.at_step if v.at_step is not None else len(trace.levels)
    return ScanPoint(theta=theta, alpha=alpha, verdict=v.code, chi=chi,
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
    candidates = tuple(p for p in points if is_candidate(p.verdict))
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
            # Samples shared with a certified interval stay candidates: an
            # interval certifies its interior only.
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


@dataclass(frozen=True)
class MCGTrajectory:
    twist_word: tuple[tuple[str, int], ...]    # (generator, power) per step
    matrices: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    norms_l1: tuple[int, ...]
    convergent_denominators: tuple[int, ...]   # q_0, ..., q_len(twist_word)


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
    phi on the left by the N-th power of the twist along a, ((1, N), (0, 1)),
    which adds N times row 2 to row 1; Top runs use tau2 and the twist
    along b, ((1, 0), (N, 1)), which adds N times row 1 to row 2.  The
    trajectory has min(n_steps, number of runs of alpha) steps.

    The induction is walked once: the trajectory and the decision read one
    table of it.  The first n_steps runs are checked first, and one past
    max_digit raises BudgetExceededError before any letter is formed,
    unless the input pair is degenerate (DegeneratePairError, as the
    decision raises before any run); past them a run past max_digit leaves
    the decision Undecided.

    The convergent denominators q_0, ..., q_m of alpha (m the trajectory's
    length) are read off phi, whose entries are continuants of the digits:
    no second walk of the expansion.

    rep is the pair (A, B) of the representation, a CocyclePair, and the
    induction starts from it as it is.

    The growth log of a run is the largest of log |tr A|, log |tr B| and
    log |tr AB| of the moved pair, the table's letters of the level the run
    reaches.  A run moves one letter and keeps the other, so it takes one
    log |tr| of a letter, for the moved one (two at the first run);
    log |tr AB| is read off the table's trace coordinates of the level,
    which the decision formed as far as it went, and which are formed here
    past that.  The decision runs on this table, whose runs the digit cap
    checked first, and the witness reads its verdict alone.  The integer
    work (word, matrices, norms, denominators) and the growth log are two
    loops.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if budget is None:
        budget = DecisionBudget()
    table = _Induction(rep, alpha)
    table.run(n_steps - 1)
    runs = table.runs[:n_steps]
    if any(run > budget.max_digit for _, run in runs):
        ptype = classify_pair(rep)
        if ptype.is_degenerate:
            raise DegeneratePairError(ptype.reason)
        raise BudgetExceededError("run length exceeds the digit cap")
    table.pair(len(runs))
    decision = _decide(table, budget)

    # phi = ((a, b), (c, d)); its entries stay nonnegative, so its l1 norm
    # is their sum.  Its entries are continuants of the digits a_1, a_2, ...
    # of alpha: the row that run k updates sums to q_{k+1} when a_1 >= 2 (its
    # first run is a_1 - 1), and to q_{k+2} when a_1 = 1 (the runs start at
    # a_2, and q_1 = 1).  The last run of the expansion, a_n - 1, leaves its
    # row at q_n - q_{n-1}; with a_1 = 1 that row is past the last q taken.
    a, b, c, d = 1, 0, 0, 1
    word: list[tuple[str, int]] = []
    mats = []
    norms = []
    rows = [1]
    bottom_winner = Winner.BOTTOM
    for winner, run_len in runs:
        if winner is bottom_winner:
            a += run_len * c
            b += run_len * d
            word.append(("a", run_len))
            rows.append(a + b)
        else:
            c += run_len * a
            d += run_len * b
            word.append(("b", run_len))
            rows.append(c + d)
        mats.append(((a, b), (c, d)))
        norms.append(a + b + c + d)
    if runs and runs[0][0] is not bottom_winner:
        qs = [1, *rows[:-1]]
    else:
        qs = rows
        if runs and table.run(len(runs)) is None:
            qs[-1] += qs[-2]

    # The growth log.  A run moves one letter and keeps the other, so it
    # takes the log |tr| of the moved letter (of both at the first run), and
    # log |tr AB| off the table's trace coordinates of the level it reaches:
    # the decision's, and past its last level, formed here.
    coords = table.coords
    table.trace_coords(len(runs))
    growth: list[float] = []
    if runs:
        letter_a, letter_b = table.letters[1]
        log_a, log_b = letter_a.log_abs_trace(), letter_b.log_abs_trace()
        growth.append(max(log_a, log_b, coords[1].log_abs_z))
    for (winner, _), (letter_a, letter_b), level in zip(
            runs[1:], table.letters[2:], coords[2:]):
        if winner is bottom_winner:
            log_b = letter_b.log_abs_trace()
        else:
            log_a = letter_a.log_abs_trace()
        growth.append(max(log_a, log_b, level.log_abs_z))

    traj = MCGTrajectory(twist_word=tuple(word), matrices=tuple(mats),
                         norms_l1=tuple(norms),
                         convergent_denominators=tuple(qs))

    # A candidate's witness is bounded, with no norm at finite order; any
    # other verdict's is hyperbolic, with no mu unless it is certified.
    v = decision.verdict
    if is_candidate(v.code):
        mt = v.max_trace_norm
        return traj, BoundedWitness(max_trace_norm=math.nan if mt is None else mt,
                                    growth_log=tuple(growth))
    mu = v.certificate.expansion_factor if v.certificate else math.nan
    step = v.at_step if v.code == "hyperbolic" else len(word)
    return traj, HyperbolicityWitness(step_index=step, mu=mu,
                                      growth_log=tuple(growth))
