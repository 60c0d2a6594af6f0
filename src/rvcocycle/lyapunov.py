"""Direct Lyapunov-exponent estimation by orbit products, and the
renormalization dichotomy: drive the matrix pair with the accelerated Rauzy
moves of the base rotation until it either reaches the absorbing uniformly
hyperbolic type (HH+ with a cone certificate), stays certified-bounded in
trace norm, or the base terminates at a rational angle.

Move bookkeeping.  Elementary induction steps are grouped into maximal
same-winner runs; a run of length N with Bottom winner applies tau1^N, with
Top winner tau2^N.  Because the accelerated digit chart closes each digit
with one step of the opposite letter, the run lengths are (a_1 - 1, a_2,
a_3, ..., a_n - 1) where a_n are the continued-fraction digits of alpha.
They come exactly from iet.run_steps: a float alpha means its binary value,
which is rational, so every float angle ends in FiniteOrder once the step
budget outlasts its expansion (53 digits for the golden float).
renorm_runs walks the moves once for both renorm_decision and
spectrum.mcg_trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

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
from .mat2 import Matrix2, identity, mul

ORBIT_CHUNK = 1024
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
        # NaN and inf would certify every run that reaches the step budget.
        if self.trace_bound is not None and not 0.0 < self.trace_bound < math.inf:
            raise ValueError("trace_bound must be positive and finite")


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
    trace_bound: float | None = None  # the bound the decision applied


def winner_move(w: Winner) -> int:
    """Bottom winner applies tau1, Top winner tau2."""
    return 1 if w is Winner.BOTTOM else 2


def renorm_runs(p: CocyclePair, alpha: float | Fraction, max_digit: int):
    """The accelerated renormalization of (alpha, p): yield (winner,
    run_len, pair) for each run of iet.run_steps, where pair is p moved by
    every run so far, one tau_power per run.  Stops where the expansion of
    alpha ends; BudgetExceededError (a run past max_digit) propagates.
    """
    for winner, run_len in run_steps(Rotation2IET(alpha), max_digit):
        p = tau_power(p, winner_move(winner), run_len)
        yield winner, run_len, p


# ---------------------------------------------------------------------------
# Direct exponent


def _letter_entries(m: Matrix2) -> tuple[tuple[float, ...], float]:
    """The entries of m divided by the largest one, and the log of the
    factor taken out (including m's own log scale)."""
    top = max(abs(e) for e in m.entries())
    return tuple(e / top for e in m.entries()), m.log_scale + math.log(top)


def _orbit_chunks(p: CocyclePair, alpha: float, x: np.ndarray, n: int):
    """Yield the orbit products of the cocycle over n steps from the starts
    x, one chunk of at most ORBIT_CHUNK steps at a time, in orbit order.

    Each yield is (m, log): m is the four entry arrays (a, b, c, d), one
    value per start, with largest |entry| 1, and the product
    rho(T^(k-1) y) ... rho(y) over the chunk's k steps from its first orbit
    point y is e^log * m.  A chunk is reduced by a
    pairwise tree: its letters become normalized leaf matrices, padded with
    identities to a power of two, and each level multiplies neighbouring
    pairs (later @ earlier) entrywise on whole arrays, then divides each
    product by its largest |entry| and adds the log.  So no product leaves
    the float range, whatever the chunk length or the letters' size.
    """
    ea, la = _letter_entries(p.A)
    eb, lb = _letter_entries(p.B)
    # Rows: entries; columns: letter A, letter B, identity padding.
    table = np.array([ea, eb, (1.0, 0.0, 0.0, 1.0)]).T
    split = 1.0 - alpha
    for start in range(0, n, ORBIT_CHUNK):
        k = min(ORBIT_CHUNK, n - start)
        in_b = (x + np.arange(k)[:, None] * alpha) % 1.0 > split
        x = (x + k * alpha) % 1.0
        letters = np.full((1 << (k - 1).bit_length(), len(x)), 2)
        letters[:k] = in_b
        n_b = in_b.sum(axis=0)
        log = (k - n_b) * la + n_b * lb
        m0, m1, m2, m3 = table[:, letters]
        while len(m0) > 1:
            e0, e1, e2, e3 = m0[0::2], m1[0::2], m2[0::2], m3[0::2]
            l0, l1, l2, l3 = m0[1::2], m1[1::2], m2[1::2], m3[1::2]
            m0 = l0 * e0 + l1 * e2
            m1 = l0 * e1 + l1 * e3
            m2 = l2 * e0 + l3 * e2
            m3 = l2 * e1 + l3 * e3
            top = np.maximum(np.maximum(np.abs(m0), np.abs(m1)),
                             np.maximum(np.abs(m2), np.abs(m3)))
            m0 /= top
            m1 /= top
            m2 /= top
            m3 /= top
            log += np.log(top).sum(axis=0)
        yield (m0[0], m1[0], m2[0], m3[0]), log


def direct_exponent(p: CocyclePair, t: Rotation2IET, n_iters: int,
                    n_samples: int = DEFAULT_SAMPLES,
                    seed: int = 0) -> LyapunovEstimate:
    """Estimate chi as log|rho_n(x) e_1| / n along orbits of the rotation
    from n_samples random starting points.  The orbit is taken in chunks of
    ORBIT_CHUNK steps; each chunk's product comes from a pairwise tree of
    normalized matrices (see _orbit_chunks) and is applied to the orbit
    vectors once, which are then renormalized.  Negative round-off
    estimates are clipped at 0 (exponents of determinant-1 cocycles are
    nonnegative).
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.random(n_samples)
    v0 = np.ones(n_samples)
    v1 = np.zeros(n_samples)
    logsum = np.zeros(n_samples)
    for (a, b, c, d), log in _orbit_chunks(p, float(t.alpha), x, n_iters):
        w0 = a * v0 + b * v1
        w1 = c * v0 + d * v1
        norm = np.hypot(w0, w1)
        v0 = w0 / norm
        v1 = w1 / norm
        logsum += log + np.log(norm)
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


def renorm_decision(p: CocyclePair, alpha: float | Fraction,
                    budget: DecisionBudget | None = None) -> RenormTrace:
    """Run the accelerated renormalization of (alpha, p) and decide.

    Returns UniformlyHyperbolic at the first HH+ pair (with its cone
    certificate), FiniteOrder where the expansion of alpha ends (spectrum
    membership decided by whether the moved matrix of the final step fails
    to be hyperbolic: the first matrix for tau1, the second for tau2, and AB
    when alpha = 1/2 terminates before the first step), CertifiedBounded
    when the step budget exhausts with every recorded trace below the bound,
    Undecided when a budget (steps, max_digit or trace bound) stops it.  The
    trace carries the bound it applied.
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

    def done(verdict: Verdict) -> RenormTrace:
        return RenormTrace(tuple(steps), verdict, bound)

    if t0.code == "HH+":
        coords = trace_coords(p)
        steps.append(StepRecord(index=0, digit=0, winner=None, pair_type="HH+",
                                coords=coords, in_k_escort=_k_escort(coords)))
        return done(Verdict(kind="UniformlyHyperbolic", at_step=0,
                            certificate=cone_certificate(p)))

    cur = p
    all_bounded = True
    max_norm = 0.0
    last_winner = None
    terminated = False
    index = 0
    try:
        for winner, run_len, cur in renorm_runs(p, alpha, budget.max_digit):
            last_winner = winner
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
                return done(Verdict(kind="UniformlyHyperbolic", at_step=index,
                                    certificate=cone_certificate(cur)))
            norm = max(abs(coords.x), abs(coords.y), abs(coords.z))
            max_norm = max(max_norm, norm)
            if norm > bound:
                all_bounded = False
            if index >= budget.max_accel_steps:
                break
        else:
            terminated = True
    except BudgetExceededError:
        return done(Verdict(kind="Undecided",
                            budget_note="run length exceeded max_digit"))

    if terminated:
        if last_winner is None:
            # alpha = 1/2: period 2, whose return product BA has the trace of AB.
            checked = cur.product()
        else:
            checked = cur.A if last_winner is Winner.BOTTOM else cur.B
        member = abs(checked.trace) <= 2.0
        return done(Verdict(kind="FiniteOrder", at_step=index, last_pair=cur,
                            spectrum_member=member))
    if all_bounded:
        return done(Verdict(kind="CertifiedBounded", at_step=index,
                            max_trace_norm=max_norm))
    return done(Verdict(kind="Undecided",
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
    checkpoints = []
    n = n_check
    while n >= min(1000, n_check):
        checkpoints.append(n)
        n //= 2
    alpha = float(t.alpha)
    x = np.array([x0 % 1.0])
    prod = identity()
    done = 0
    worst = -math.inf
    for k in reversed(checkpoints):
        for (a, b, c, d), log in _orbit_chunks(p, alpha, x, k - done):
            chunk = Matrix2(float(a[0]), float(b[0]), float(c[0]), float(d[0]),
                            float(log[0]))
            prod = mul(chunk, prod)
        x = (x + (k - done) * alpha) % 1.0
        done = k
        nrm = np.linalg.norm(np.reshape(prod.entries(), (2, 2)), 2)
        worst = max(worst, (prod.log_scale + math.log(nrm)) / k)
    return worst
