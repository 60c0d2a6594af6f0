"""Direct Lyapunov-exponent estimation by orbit products, and the
renormalization dichotomy: drive the matrix pair with the accelerated Rauzy
moves of the base rotation until it either reaches the absorbing uniformly
hyperbolic type (HH+ with a cone certificate), stays certified-bounded in
trace norm, or the base terminates at a rational angle.

Move bookkeeping.  Elementary induction steps are grouped into maximal
same-winner runs; a run of length N with Bottom winner applies tau1^N, with
Top winner tau2^N.  Because the accelerated digit chart closes each digit
with one step of the opposite letter, the run lengths are (a_1 - 1, a_2,
a_3, ...) where a_n are the continued-fraction digits of alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import (
    CocyclePair,
    ConeCertificate,
    DegeneratePairError,
    TraceCoords,
    classify_pair,
    cone_certificate,
    tau_power,
    trace_bound,
    trace_coords,
)
from .iet import (
    BudgetExceededError,
    Rotation2IET,
    Winner,
    continued_fraction,
    run_steps,
)

RENORM_CADENCE = 32
DEFAULT_SAMPLES = 8


@dataclass(frozen=True)
class LyapunovEstimate:
    chi: float
    n_iters: int
    sample_points: int
    stderr: float


@dataclass(frozen=True)
class DecisionBudget:
    max_accel_steps: int = 60
    max_digit: int = 10**6
    trace_bound: float | None = None  # default: bound from c, plus slack 4

    def __post_init__(self):
        if self.max_accel_steps < 1 or self.max_digit < 1:
            raise ValueError("budget fields must be positive")
        if self.trace_bound is not None and self.trace_bound <= 0:
            raise ValueError("trace_bound must be positive")


@dataclass(frozen=True)
class StepRecord:
    index: int
    digit: int
    winner: Winner | None   # None for the step-0 record of the input pair
    pair_type: str          # type code after the move
    coords: TraceCoords
    in_k_escort: bool       # pair or a one-step tau-preimage is in K


@dataclass(frozen=True)
class Verdict:
    """Tagged outcome of a renormalization run.

    kind: "UniformlyHyperbolic" (some step reached HH+; certificate and
    at_step set), "CertifiedBounded" (budget exhausted with every step's
    traces below the bound; max_trace_norm set), "FiniteOrder" (rational
    angle; last_pair and spectrum_member set), "Undecided" (budget_note
    explains).
    """

    kind: str
    at_step: int | None = None
    certificate: ConeCertificate | None = None
    max_trace_norm: float | None = None
    spectrum_member: bool | None = None
    last_pair: CocyclePair | None = None
    budget_note: str | None = None


@dataclass(frozen=True)
class RenormTrace:
    steps: tuple[StepRecord, ...] = field(default_factory=tuple)
    verdict: Verdict = None


def winner_move(w: Winner) -> int:
    """Bottom winner applies tau1, Top winner tau2."""
    return 1 if w is Winner.BOTTOM else 2


# ---------------------------------------------------------------------------
# Direct exponent


def direct_exponent(p: CocyclePair, t: Rotation2IET, n_iters: int,
                    n_samples: int = DEFAULT_SAMPLES,
                    seed: int = 0) -> LyapunovEstimate:
    """Estimate chi by iterating v -> rho(x) v along orbits of the rotation
    from n_samples random starting points, renormalizing the vectors every
    32 steps.  Negative round-off estimates are clipped at 0 (exponents of
    determinant-1 cocycles are nonnegative).
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    rng = np.random.default_rng(seed)
    alpha = float(t.alpha)
    split = 1.0 - alpha
    x = rng.random(n_samples)
    at = np.array([[p.A.a, p.A.b], [p.A.c, p.A.d]]).T
    bt = np.array([[p.B.a, p.B.b], [p.B.c, p.B.d]]).T
    v = np.zeros((n_samples, 2))
    v[:, 0] = 1.0
    logsum = np.zeros(n_samples)
    done = 0
    while done < n_iters:
        block = min(RENORM_CADENCE, n_iters - done)
        # Letters for the whole block at once.
        ks = np.arange(block)[:, None]
        xs = (x[None, :] + ks * alpha) % 1.0
        in_a = xs <= split
        for j in range(block):
            va = v @ at
            vb = v @ bt
            v = np.where(in_a[j][:, None], va, vb)
        x = (x + block * alpha) % 1.0
        norms = np.sqrt(np.sum(v * v, axis=1))
        logsum += np.log(norms)
        v /= norms[:, None]
        done += block
    per = logsum / n_iters
    chi = max(float(per.mean()), 0.0)
    stderr = float(per.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return LyapunovEstimate(chi=chi, n_iters=n_iters,
                            sample_points=n_samples, stderr=stderr)


# ---------------------------------------------------------------------------
# Renormalization dichotomy


def _k_escort(tc: TraceCoords) -> bool:
    """Whether the pair or a one-step tau-preimage lies in K (k_membership's
    test: two of A, B, AB with |trace| < 2 - 1e-9).  The preimages
    (A, B A^-1) and (B^-1 A, B) have the traces (x, xy - z, y) and
    (xy - z, y, x); forming them instead can cancel a product's float
    determinant to <= 0."""
    x, y, z = tc.x, tc.y, tc.z
    w = x * y - z
    return any(sum(abs(t) < 2.0 - 1e-9 for t in traces) >= 2
               for traces in ((x, y, z), (x, w, y), (w, y, x)))


def renorm_decision(p: CocyclePair, alpha: float,
                    budget: DecisionBudget | None = None) -> RenormTrace:
    """Run the accelerated renormalization of (alpha, p) and decide.

    Returns UniformlyHyperbolic at the first HH+ pair (with its cone
    certificate), FiniteOrder on rational termination (spectrum membership
    decided by whether the moved matrix of the final step fails to be
    hyperbolic: the first matrix for tau1, the second for tau2, and AB when
    alpha = 1/2 terminates before the first step), CertifiedBounded when
    the step budget exhausts with every recorded trace below the bound,
    Undecided when a budget (steps, max_digit or trace bound) stops it.
    """
    if budget is None:
        budget = DecisionBudget()
    t0 = classify_pair(p)
    if t0.is_degenerate:
        raise DegeneratePairError(t0.reason)
    bound = budget.trace_bound
    if bound is None:
        bound = trace_bound(trace_coords(p).c) + 4.0

    steps: list[StepRecord] = []
    if t0.code == "HH+":
        cert = cone_certificate(p)
        coords = trace_coords(p)
        rec0 = StepRecord(index=0, digit=0, winner=None, pair_type="HH+",
                          coords=coords, in_k_escort=_k_escort(coords))
        return RenormTrace(steps=(rec0,), verdict=Verdict(
            kind="UniformlyHyperbolic", at_step=0, certificate=cert))

    cur = p
    all_bounded = True
    max_norm = 0.0
    last_move = None
    terminated = False
    index = 0
    gen = run_steps(Rotation2IET(alpha), max_digit=budget.max_digit)
    try:
        for winner, run_len, _state in gen:
            move = winner_move(winner)
            cur = tau_power(cur, move, run_len)
            last_move = move
            index += 1
            ptype = classify_pair(cur)
            coords = trace_coords(cur)
            escort = _k_escort(coords)
            steps.append(StepRecord(index=index, digit=run_len, winner=winner,
                                    pair_type=ptype.code, coords=coords,
                                    in_k_escort=escort))
            if ptype.is_degenerate:
                raise DegeneratePairError(ptype.reason)
            if ptype.code == "HH+":
                cert = cone_certificate(cur)
                return RenormTrace(tuple(steps), Verdict(
                    kind="UniformlyHyperbolic", at_step=index,
                    certificate=cert))
            norm = max(abs(coords.x), abs(coords.y), abs(coords.z))
            max_norm = max(max_norm, norm)
            if norm > bound:
                all_bounded = False
            if index >= budget.max_accel_steps:
                break
        else:
            terminated = True
    except BudgetExceededError:
        return RenormTrace(tuple(steps), Verdict(
            kind="Undecided", budget_note="run length exceeded max_digit"))

    if terminated:
        if last_move is None:
            # alpha = 1/2: period 2, whose return product BA has the trace of AB.
            checked = cur.product()
        else:
            checked = cur.A if last_move == 1 else cur.B
        member = abs(checked.trace) <= 2.0
        return RenormTrace(tuple(steps), Verdict(
            kind="FiniteOrder", at_step=index, last_pair=cur,
            spectrum_member=member))
    if all_bounded:
        return RenormTrace(tuple(steps), Verdict(
            kind="CertifiedBounded", at_step=index, max_trace_norm=max_norm))
    return RenormTrace(tuple(steps), Verdict(
        kind="Undecided",
        budget_note="trace bound exceeded without reaching HH+"))


def bounded_prefix(trace: RenormTrace, bound: float) -> int:
    """Number of leading recorded steps whose trace coordinates all stay
    within the bound; measures how long the run tracked a bounded orbit."""
    n = 0
    for s in trace.steps:
        if max(abs(s.coords.x), abs(s.coords.y), abs(s.coords.z)) > bound:
            break
        n += 1
    return n


def exponent_lower_bound(trace: RenormTrace, alpha: float) -> float:
    """Certified lower bound on chi from a UniformlyHyperbolic verdict:
    the expansion factor mu of the absorbing step, spread over the first
    return time of the induced interval, ln(mu) / (q_m + q_{m-1}).  Returns
    0.0 when the bound is not computable (no certificate or too-deep step).
    """
    v = trace.verdict
    if v.kind != "UniformlyHyperbolic" or v.certificate is None:
        return 0.0
    m = v.at_step + 1
    cf = continued_fraction(alpha, max_digits=m + 2)
    qs = cf.convergent_denominators
    if m + 1 > len(qs) - 1:
        m = len(qs) - 2
    if m < 1:
        return 0.0
    return math.log(v.certificate.expansion_factor) / (qs[m + 1] + qs[m])


# ---------------------------------------------------------------------------
# Bounded renormalization implies zero exponent (observable check)


def boundedness_implies_zero(p: CocyclePair, t: Rotation2IET,
                             trace: RenormTrace, n_check: int,
                             x0: float = 0.2137) -> float:
    """Direct norm-growth audit for a CertifiedBounded run: accumulate the
    full 2x2 orbit product up to n_check and return the maximum over the
    checkpoints n_check, n_check/2, n_check/4, ... (down to 1000) of
    log||product_n|| / n.  Bounded renormalization predicts decay to 0.
    """
    if trace.verdict.kind != "CertifiedBounded":
        raise ValueError("requires a CertifiedBounded renormalization trace")
    if n_check < 1:
        raise ValueError("n_check must be >= 1")
    checkpoints = set()
    n = n_check
    while n >= min(1000, n_check):
        checkpoints.add(n)
        n //= 2
    alpha = float(t.alpha)
    split = 1.0 - alpha
    a = np.array([[p.A.a, p.A.b], [p.A.c, p.A.d]])
    b = np.array([[p.B.a, p.B.b], [p.B.c, p.B.d]])
    prod = np.eye(2)
    log_scale = 0.0
    x = x0 % 1.0
    worst = -math.inf
    for k in range(1, n_check + 1):
        m = a if x <= split else b
        prod = m @ prod
        x = (x + alpha) % 1.0
        nrm = np.linalg.norm(prod, 2)
        if nrm > 1e100 or nrm < 1e-100:
            log_scale += math.log(nrm)
            prod /= nrm
            nrm = 1.0
        if k in checkpoints:
            worst = max(worst, (log_scale + math.log(nrm)) / k)
    return worst
