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
renorm_runs walks the moves, one tau_power per run, and each caller walks
it once.  renorm_decision is _decide on a fresh renorm_runs generator;
spectrum.mcg_trajectory hands _decide its own generator, records the runs
the decision takes, and walks the same generator on when the decision
stops before the trajectory's length.  The orbit products pick their
level from the run lengths of run_steps alone, and move the pair through
that level's runs only.

Each step of a decision forms one product, AB, for z = tr AB.  The
commutator trace c = tr [A, B] is taken once, from the input pair: the
tau moves keep it exactly, since [A, B A] = [A, B].

Orbit products.  After the first k runs, the first return of the rotation
to the induced interval I_k is again a rotation, and its two letters are
the return words that renorm_runs moves the pair to (Rauzy 1979).  So
direct_exponent and boundedness_implies_zero walk an n-step orbit as base
steps into I_k, whole returns of the induced rotation, and base steps for
the rest, at the level k that minimizes that count: about sqrt(n) letters
instead of n.  Level 0 is the per-step walk.  The three segments of an
orbit are packed into one column of letter indices, built for all orbits
at once, and the columns' products are taken by one pairwise tree on whole
arrays, with each letter held as its two rows, one complex number each.
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
    _classify_letters,
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
IDENTITY = 4  # index of the identity among _orbit_chunks' letters
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


@dataclass(slots=True)
class StepRecord:
    """One step of a renormalization run.  coords are the moved pair's x, y,
    z from one product AB, with c the input pair's commutator trace, which
    the tau moves keep; residual is the drift of (x, y, z) off c's level
    set.  Slotted and not frozen, as Matrix2: the walk builds one per step."""

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


def _induced_level(p: CocyclePair, alpha: float, n: int):
    """The level of the Rauzy induction of alpha at which n-step orbit
    products cost least, and the first-return rotation there.

    After the first k runs of renorm_runs the first return of the rotation
    by alpha to I_k = [0, beta_k] is, in the coordinate y = x / beta_k, the
    rotation by alpha_k, and its two letters are the return words A_k, B_k
    of the pair moved by those runs, |A_k| and |B_k| base steps long.  An
    orbit takes fewer than max(|A_k|, |B_k|) base steps into I_k, about
    n / min(|A_k|, |B_k|) returns, and fewer than max(...) base steps after
    its last whole return, so the level minimizes
    2 max(|A_k|, |B_k|) + n / min(|A_k|, |B_k|).  Level 0 (alpha_0 = alpha,
    beta_0 = 1, both lengths 1) is the per-step walk.

    alpha_k and beta_k are exact: in units of 1/denominator(alpha) the
    lengths of I_k's two pieces are integers, the remainders of the Euclid
    that run_steps takes.  The level is picked from the run lengths alone;
    then the pair is moved through exactly its k runs, one tau_power each.
    Returns (k, pair_k, alpha_k, beta_k, lengths).
    """
    exact = Fraction(alpha)
    pieces = (exact.denominator - exact.numerator, exact.numerator)
    lengths = (1, 1)
    runs = []
    best_cost, best = n + 2, (0, pieces, lengths)
    try:
        for winner, run in run_steps(Rotation2IET(alpha), n):
            runs.append((winner, run))
            (piece_a, piece_b), (len_a, len_b) = pieces, lengths
            if winner is Winner.BOTTOM:
                pieces = (piece_a - run * piece_b, piece_b)
                lengths = (len_a, len_b + run * len_a)
            else:
                pieces = (piece_a, piece_b - run * piece_a)
                lengths = (len_a + run * len_b, len_b)
            if 2 * max(lengths) >= best_cost:
                break
            cost = 2 * max(lengths) + n / min(lengths)
            if cost < best_cost:
                best_cost, best = cost, (len(runs), pieces, lengths)
    except BudgetExceededError:
        pass  # a run longer than n: its level costs more than level 0
    k, (piece_a, piece_b), lengths = best
    for winner, run in runs[:k]:
        p = tau_power(p, winner_move(winner), run)
    total = piece_a + piece_b
    return (k, p, Fraction(piece_b, total),
            Fraction(total, exact.denominator), lengths)


def _frac(v: np.ndarray) -> np.ndarray:
    """v % 1.0 for v >= 0, bit for bit (v - floor(v) is exact by Sterbenz's
    lemma), at a tenth of the cost of numpy's float modulo."""
    return v - np.floor(v)


def _induced_counts(start: np.ndarray, angle: Fraction,
                    lengths: tuple[int, int], room: np.ndarray):
    """The number of letters of the rotation by angle along the orbits from
    start whose lengths (A, B) fit in room, and the length they take.  The
    letter sums are taken at most ORBIT_CHUNK letters at a time."""
    split, angle = float(1 - angle), float(angle)
    len_a, len_b = lengths
    taken = np.zeros(len(start), dtype=np.int64)
    used = np.zeros(len(start), dtype=np.int64)
    live = np.ones(len(start), dtype=bool)
    while live.any():
        # One letter more than the room of the roomiest orbit can hold.
        span = min(ORBIT_CHUNK, int((room - used)[live].max()) // min(lengths) + 1)
        in_b = _frac(start + (taken + np.arange(span)[:, None]) * angle) > split
        steps = np.where(in_b, len_b, len_a)
        fits = (used + np.cumsum(steps, axis=0) <= room) & live
        taken += fits.sum(axis=0)
        used += np.where(fits, steps, 0).sum(axis=0)
        live = fits[-1]
    return taken, used


def _letter_rows(x: np.ndarray, alpha: float, into: np.ndarray,
                 start: np.ndarray, alpha_k: Fraction, taken: np.ndarray,
                 tail: np.ndarray, ends: np.ndarray):
    """Yield the letters of the orbits from x, one column per orbit and at
    most ORBIT_CHUNK rows at a time, as indices among _orbit_chunks'
    letters.  Column s holds into[s] base letters from x (0 for A, 1 for
    B, where the point lies past 1 - alpha), then taken[s] induced letters
    from start[s] (2 for A_k, 3 for B_k, by the rotation by alpha_k), then
    base letters from tail[s] up to row ends[s], then IDENTITY.
    """
    split, split_k, angle_k = 1.0 - alpha, float(1 - alpha_k), float(alpha_k)
    returns = into + taken
    rows = int(ends.max())
    for r0 in range(0, rows, ORBIT_CHUNK):
        j = np.arange(r0, min(r0 + ORBIT_CHUNK, rows))[:, None]
        entry = j < into
        step = j - np.where(entry, 0, returns)
        base = _frac(np.where(entry, x, tail) + step * alpha) > split
        induced = _frac(start + (j - into) * angle_k) > split_k
        yield np.where(j < returns, np.where(entry, base, 2 + induced),
                       np.where(j < ends, base, IDENTITY))


def _entry_steps(x: np.ndarray, alpha: float, beta: float, n: int,
                 span: int) -> np.ndarray:
    """The steps the orbits of the rotation by alpha from x take to enter
    [0, beta), at most n; scanned span steps at a time."""
    steps = np.full(len(x), n, dtype=np.int64)
    for start in range(0, n, span):
        j = np.arange(start, min(start + span, n))[:, None]
        inside = _frac(x + j * alpha) < beta
        new = inside.any(axis=0) & (steps == n)
        steps[new] = start + inside.argmax(axis=0)[new]
        if (steps < n).all():
            break
    return steps


def _tree_product(table: tuple[np.ndarray, np.ndarray], logs: np.ndarray,
                  index: np.ndarray):
    """The product (later @ earlier) over the rows of index of the letters
    it picks from table, as (m, log) per column: m is the four real entry
    arrays (a, b, c, d) with largest |entry| 1.

    table holds each letter (a, b, c, d) as its two rows (r1, r2) = (a +
    ib, c + id), so the product of (r1, r2) after (s1, s2) is (Re r1 s1 +
    Im r1 s2, Re r2 s1 + Im r2 s2): the entry arithmetic of a real 2x2
    product on two complex arrays instead of four real ones.  Coordinates
    that mix the entries (Cayley's, say) would take an entry far below the
    largest, such as the diagonal of a long unipotent product, from
    cancelling terms and lose its precision.  Each level of a pairwise tree
    multiplies neighbouring rows on whole arrays and carries an odd last
    row up unchanged; each product is divided by the larger modulus of its
    rows, whose log is kept, so no product leaves the float range, whatever
    the length or the letters' size."""
    r1, r2 = np.take(table[0], index), np.take(table[1], index)
    tops = [np.take(logs, index)]
    while len(r1) > 1:
        pairs = len(r1) // 2
        s1, s2 = r1[0:2 * pairs:2], r2[0:2 * pairs:2]
        later1, later2 = r1[1::2], r2[1::2]
        p1 = later1.real * s1 + later1.imag * s2
        p2 = later2.real * s1 + later2.imag * s2
        top = np.maximum(np.abs(p1), np.abs(p2))
        p1 /= top
        p2 /= top
        tops.append(np.log(top))
        if len(r1) % 2:
            p1, p2 = np.concatenate([p1, r1[-1:]]), np.concatenate([p2, r2[-1:]])
        r1, r2 = p1, p2
    m = (r1[0].real, r1[0].imag, r2[0].real, r2[0].imag)
    top = np.maximum(np.maximum(np.abs(m[0]), np.abs(m[1])),
                     np.maximum(np.abs(m[2]), np.abs(m[3])))
    log = np.concatenate(tops).sum(axis=0) + np.log(top)
    return tuple(e / top for e in m), log


def _orbit_chunks(p: CocyclePair, alpha: float, x: np.ndarray, n: int):
    """Yield the orbit products of the cocycle over n steps from the starts
    x, in orbit order, through the rotation induced at the cheapest level
    of the Rauzy induction (see _induced_level).

    Each yield is (m, log): m is the four entry arrays (a, b, c, d), one
    value per start, with largest |entry| 1, and e^log * m is the product
    rho(T^(k-1) y) ... rho(y) over the k steps the chunk covers from its
    first orbit point y (k may differ between starts).  An orbit walks
    three segments: base letters until it enters I_k (fewer than
    max(|A_k|, |B_k|) steps), the letters A_k, B_k of the rotation by
    alpha_k on I_k while the next whole return fits in n, and base letters
    for the rest.  The three are packed into one column per start
    (_letter_rows), so a chunk is a block of at most ORBIT_CHUNK rows of
    those columns, reduced by _tree_product.  The level pair is moved from
    A and B divided by their largest entries (the factors kept in
    log_scale), so tau_power stays in range for letters of any size.  At
    level 0 the first and last segments are empty and the middle one is
    the per-step walk.
    """
    ea, la = _letter_entries(p.A)
    eb, lb = _letter_entries(p.B)
    base = CocyclePair(Matrix2(*ea, la), Matrix2(*eb, lb))
    _, pair, alpha_k, beta, lengths = _induced_level(base, alpha, n)
    (eak, lak), (ebk, lbk) = _letter_entries(pair.A), _letter_entries(pair.B)
    # Letters: A, B, A_k, B_k, identity (IDENTITY), each as its two rows.
    a, b, c, d = np.array([ea, eb, eak, ebk, (1.0, 0.0, 0.0, 1.0)]).T
    table = (a + 1j * b, c + 1j * d)
    logs = np.array([la, lb, lak, lbk, 0.0])
    beta = float(beta)
    into = _entry_steps(x, alpha, beta, n, min(ORBIT_CHUNK, max(lengths)))
    start = _frac(x + into * alpha) / beta
    taken, used = _induced_counts(start, alpha_k, lengths, n - into)
    tail = _frac(start + taken * float(alpha_k)) * beta
    ends = n - used + taken  # into + taken + the n - into - used tail steps
    for index in _letter_rows(x, alpha, into, start, alpha_k, taken, tail,
                              ends):
        yield _tree_product(table, logs, index)


def direct_exponent(p: CocyclePair, t: Rotation2IET, n_iters: int,
                    n_samples: int = DEFAULT_SAMPLES,
                    seed: int = 0) -> LyapunovEstimate:
    """Estimate chi as log|rho_n(x) e_1| / n along orbits of the rotation
    from n_samples random starting points.  The orbit products come from
    _orbit_chunks, which walks each orbit through the rotation induced at a
    level of the Rauzy induction with return times near sqrt(n), so a call
    multiplies O(sqrt(n)) letters rather than n; each chunk's product is
    applied to the orbit vectors once, which are then renormalized.
    Negative round-off estimates are clipped at 0 (exponents of
    determinant-1 cocycles are nonnegative).
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
    determinant to <= 0.  All three triples hold x and y, so two elliptic
    letters decide, and with one the third trace of either triple does."""
    limit = 2.0 - 1e-9
    ex, ey = abs(tc.x) < limit, abs(tc.y) < limit
    if ex and ey:
        return True
    if not (ex or ey):
        return False
    return abs(tc.z) < limit or abs(tc.x * tc.y - tc.z) < limit


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
    return _decide(p, renorm_runs(p, alpha, budget.max_digit), budget)


def _decide(p: CocyclePair, runs, budget: DecisionBudget) -> RenormTrace:
    """renorm_decision on the runs (winner, run_len, pair) of renorm_runs
    (p, ...), taken one at a time and no further than the decision needs,
    so that a caller can keep walking the same iterator."""
    ptype, *letters = _classify_letters(p, 1e-9)
    if ptype.is_degenerate:
        raise DegeneratePairError(ptype.reason)
    coords = trace_coords(p)
    kappa = coords.c  # every tau move keeps tr [A, B]
    bound = budget.trace_bound
    if bound is None:
        bound = trace_bound(kappa) + 4.0
    steps: list[StepRecord] = []

    def done(verdict: Verdict) -> RenormTrace:
        return RenormTrace(tuple(steps), verdict, bound)

    if ptype.code == "HH+":
        steps.append(StepRecord(index=0, digit=0, winner=None, pair_type="HH+",
                                coords=coords, in_k_escort=_k_escort(coords)))
        return done(Verdict(kind="UniformlyHyperbolic", at_step=0,
                            certificate=cone_certificate(p, letters)))

    cur = p
    all_bounded = True
    max_norm = 0.0
    last_winner = None
    terminated = False
    index = 0
    try:
        for winner, run_len, cur in runs:
            last_winner = winner
            index += 1
            coords = trace_coords(cur, kappa)
            ptype, *letters = _classify_letters(cur, 1e-9, (coords.x, coords.y))
            steps.append(StepRecord(index=index, digit=run_len, winner=winner,
                                    pair_type=ptype.code, coords=coords,
                                    in_k_escort=_k_escort(coords)))
            if ptype.is_degenerate:
                raise DegeneratePairError(ptype.reason)
            if ptype.code == "HH+":
                return done(Verdict(kind="UniformlyHyperbolic", at_step=index,
                                    certificate=cone_certificate(cur, letters)))
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
