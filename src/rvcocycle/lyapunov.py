"""Direct Lyapunov-exponent estimation by orbit products, and the
renormalization dichotomy: drive the matrix pair with the accelerated Rauzy
moves of the base rotation until it reaches one of the verdicts of Kind.

The induction.  Elementary induction steps are grouped into maximal
same-winner runs; a run of length N with Bottom winner applies tau1^N, with
Top winner tau2^N.  Because the accelerated digit chart closes each digit
with one step of the opposite letter, the run lengths are (a_1 - 1, a_2,
a_3, ..., a_n - 1) where a_n are the continued-fraction digits of alpha.
They come exactly from iet.run_steps: a float alpha means its binary value,
which is rational, so every float angle ends in FiniteOrder once the step
budget outlasts its expansion (53 digits for the golden float).  One table
of the induction (_Induction) is walked once per (pair, alpha), as far as
its readers ask: the decision, mcg_trajectory, orbits and the bound.

Orbit products.  After the first k runs, the first return of the rotation
to the induced interval I_k is again a rotation, and its two letters are
the return words that the runs move the pair to (Rauzy 1979; Zorich 1996).
So direct_exponent walks an n-step orbit through every level whose return
times fit in n: down, each level's entry into I_{k+1}; then up, each
level's part of the next longer letter that still fits.  Each is at most
one power of a letter and one letter of the other kind, and each power is
taken as its squares, so an orbit takes O(sum of log a_k) factors over
those levels, whatever n and however close alpha is to a rational.  Each
call views the table in its own exact unit (_orbit_levels): the pieces of
each I_k and the orbit points as integers.  The factors are the table's
letters and the squares the walk forms of them, and _orbit_product
multiplies them into rho_n(x), whose norm gives chi.

The bound.  At level k every orbit is a chain of whole return words A_k and
B_k between two partial ones, so by submultiplicativity (Furstenberg and
Kesten 1960) chi <= U_k, as exponent_upper_bound states.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .cocycle import (
    CocyclePair,
    ConeCertificate,
    DegeneratePairError,
    TraceCoords,
    _classify_letters,
    cone_certificate,
    letter_coords,
    trace_bound,
)
from .iet import (
    MAX_DIGIT,
    Rotation2IET,
    Winner,
    continued_fraction,
    run_steps,
)
from .mat2 import EPS_TRACE, NORM2_LIMIT, Matrix2, NonUnimodularError, mul

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
    max_digit: int = MAX_DIGIT
    trace_bound: float | None = None  # default: bound from c, plus slack 4

    def __post_init__(self):
        if self.max_accel_steps < 1 or self.max_digit < 1:
            raise ValueError("budget fields must be positive")
        # NaN and inf would certify every run that reaches the step budget.
        if self.trace_bound is not None and not 0.0 < self.trace_bound < math.inf:
            raise ValueError("trace_bound must be positive and finite")


@dataclass(slots=True)
class StepRecord:
    """One step of a renormalization run, built off the table by
    RenormTrace.steps.  coords are the moved pair's x, y, z from one product
    AB, with c the input pair's commutator trace, which the tau moves keep;
    residual is the drift of (x, y, z) off c's level set.  Slotted and not
    frozen, as Matrix2: reading a trace's steps builds one per step."""

    index: int
    digit: int
    winner: Winner | None   # None for the step-0 record of the input pair
    pair_type: str          # type code after the move
    coords: TraceCoords
    in_k_escort: bool       # pair or a one-step tau-preimage is in K


class _Text(str, Enum):
    """Members equal their text and print as it, under str, f-strings and
    json.dumps (Python 3.10 has no StrEnum); compare them with ==, not is."""

    __str__ = str.__str__
    __format__ = str.__format__


class Kind(_Text):
    """What a renormalization run showed, and the Verdict fields it sets.

    UNIFORMLY_HYPERBOLIC: a step reached HH+, with an invariant cone
    (at_step, certificate).  CERTIFIED_BOUNDED: the step budget ran out
    with every trace under the bound through at_step, observed and not
    proved for later steps (max_trace_norm).  FINITE_ORDER: the expansion
    of the angle ended (at_step, spectrum_member).  UNDECIDED: a
    budget stopped the run first (budget_note, its Reason).
    """

    UNIFORMLY_HYPERBOLIC = "UniformlyHyperbolic"
    CERTIFIED_BOUNDED = "CertifiedBounded"
    FINITE_ORDER = "FiniteOrder"
    UNDECIDED = "Undecided"


class Reason(_Text):
    """Why a run is Undecided."""

    MAX_DIGIT = "run length exceeded max_digit"
    TRACE_BOUND = "trace bound exceeded without reaching HH+"
    PRECISION = "float precision lost forming a level"


class PrecisionError(NonUnimodularError):
    """A moved letter of a level k >= 1 that fails the det rule or the float
    range: every tau move keeps det 1, so float precision was lost."""


_CODES = {Kind.UNIFORMLY_HYPERBOLIC: "hyperbolic", Kind.CERTIFIED_BOUNDED: "bounded",
          Kind.UNDECIDED: "undecided"}


def is_candidate(code: str) -> bool:
    """Whether a verdict code leaves its slope a spectrum candidate: bounded,
    or of finite order inside the spectrum."""
    return code in ("bounded", "finite_in")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a renormalization run; Kind says which fields are set."""

    kind: Kind
    at_step: int | None = None
    certificate: ConeCertificate | None = None
    max_trace_norm: float | None = None
    spectrum_member: bool | None = None
    budget_note: Reason | None = None

    @property
    def code(self) -> str:
        """The verdict as scan, refine, renorm and mcg print it: hyperbolic,
        bounded, finite_in, finite_out or undecided."""
        if self.kind == Kind.FINITE_ORDER:
            return "finite_in" if self.spectrum_member else "finite_out"
        return _CODES[self.kind]


@dataclass(frozen=True, repr=False)
class RenormTrace:
    """A decision as a view of its induction table: the verdict, the bound
    it applied, and the levels that are its steps (level 0 alone for HH+ at
    step 0, else 1 to the last typed), whose records steps builds on request."""

    table: _Induction
    verdict: Verdict
    trace_bound: float
    levels: range

    @property
    def steps(self) -> tuple[StepRecord, ...]:
        t = self.table  # runs[k - 1] is (winner, digit) of the run into level k
        return tuple(StepRecord(k, *(t.runs[k - 1][::-1] if k else (0, None)),
                                t.types[k], t.coords[k], _k_escort(t.coords[k]))
                     for k in self.levels)

    def __repr__(self) -> str:
        return (f"RenormTrace(steps={self.steps!r}, verdict={self.verdict!r}, "
                f"trace_bound={self.trace_bound!r})")


# ---------------------------------------------------------------------------
# The induction


def _unit_letter(m: Matrix2) -> Matrix2:
    """m with its entries divided by the largest one, whose log joins the
    log scale."""
    top = max(abs(m.a), abs(m.b), abs(m.c), abs(m.d))
    return Matrix2(m.a / top, m.b / top, m.c / top, m.d / top,
                   m.log_scale + math.log(top))


class _Induction:
    """The accelerated Rauzy induction of (alpha, p), walked once into a
    table that grows as far as its readers ask.  Level k holds runs[k], the
    run (winner, length) into level k + 1; letters[k], the pair (A_k, B_k)
    that the first k runs move p to; coords[k], their trace coordinates;
    and types[k], their type code.  A run moves one letter: mul's product,
    put through the Matrix2 constructor, so that its det rule is applied
    once per level and det drift does not compound from level to level.
    Level 0 is p as given, except that an input letter that mul would
    scale is scaled once, or its square could overflow.  coords[k] is
    letter_coords of the letters with c the input pair's tr [A, B], which
    every tau move keeps: formed once, by whichever reader asks first (the
    decision, or mcg_trajectory past the decision's last level).  types is
    keyed by level, so a second decision rewrites its entry, the same code,
    and adds none.  A reader with a digit cap checks a run before it asks
    for the level past it.  A moved letter that fails the constructor or
    the float range raises PrecisionError.
    """

    def __init__(self, p: CocyclePair, alpha: float | Fraction):
        self.alpha = alpha
        self._runs = run_steps(Rotation2IET(alpha))
        self.runs: list[tuple[Winner, int]] = []
        self.letters = [tuple(m if m.a * m.a + m.b * m.b + m.c * m.c + m.d * m.d
                              <= NORM2_LIMIT else _unit_letter(m) for m in (p.A, p.B))]
        self.coords: list[TraceCoords] = []
        self.types: dict[int, str] = {}

    def run(self, k: int) -> tuple[Winner, int] | None:
        """Run k, reading the runs before it first; None where the expansion
        of alpha ends at level k or before."""
        runs = self.runs
        while len(runs) <= k:
            run = next(self._runs, None)
            if run is None:
                return None
            runs.append(run)
        return runs[k]

    def pair(self, k: int) -> tuple[Matrix2, Matrix2]:
        """(A_k, B_k), forming the levels before it first: a Bottom run of r
        moves B to B A^r, a Top run A to B^r A, with the power Matrix2.power
        forms.  Runs 0 to k - 1 must have been read."""
        letters, bottom_winner = self.letters, Winner.BOTTOM
        while len(letters) <= k:
            j = len(letters) - 1
            a, b = letters[j]
            winner, run = self.runs[j]
            bottom = winner is bottom_winner
            power = a if bottom else b
            try:
                if run > 1:
                    power = power.power(run)
                moved = mul(b, power) if bottom else mul(power, a)
                moved = Matrix2(moved.a, moved.b, moved.c, moved.d, moved.log_scale)
            except NonUnimodularError as exc:
                raise PrecisionError(f"precision lost at level {j + 1}: {exc}") from exc
            letters.append((a, moved) if bottom else (moved, b))
        return letters[k]

    def trace_coords(self, k: int) -> TraceCoords:
        """coords[k], forming the coordinates through level k first, off
        the letters of each level (formed by pair where no reader has);
        level 0 reads tr [A, B] off its letters.  Runs 0 to k - 1 must have
        been read."""
        coords = self.coords
        while len(coords) <= k:
            j = len(coords)
            a, b = self.letters[j] if j < len(self.letters) else self.pair(j)
            coords.append(letter_coords(a, b, coords[0].c if j else None))
        return coords[k]


def _squares(letter: Matrix2, cap: int) -> list[Matrix2]:
    """[letter, letter^2, letter^4, ...] through the largest power 2^e <=
    cap, each the square of the one before; none for cap 0."""
    squares = [letter] if cap else []
    while 1 << len(squares) <= cap:
        squares.append(mul(squares[-1], squares[-1]))
    return squares


def _bits(powers: list[Matrix2], i: int) -> list[Matrix2]:
    """The squares whose product is the power i: one per set bit of i."""
    if i < 2:  # most runs are short: no loop for a power of 0 or 1
        return powers[:i]
    return [powers[e] for e in range(i.bit_length()) if i >> e & 1]


# ---------------------------------------------------------------------------
# Direct exponent


@dataclass(slots=True)
class _OrbitLevel:
    """Level k of the induction as orbits of at most n steps walk it.

    The first return of the rotation to I_k = [0, size) takes the letter
    A_k on [0, split), moving a point by size - split, and B_k on [split,
    size), moving it by -split; lengths are |A_k| and |B_k| in base steps.
    Positions and pieces are exact integers in one unit for alpha and the
    orbit starts.  letters holds the table's A_k and B_k, None for a letter
    longer than n.  winner and run give the run into level
    k + 1 (None and 0 at the last level), and powers[e] is the run's
    repeated letter to the power 2^e (A_k for Bottom, B_k for Top, A_k at a
    last level of one piece), for each 2^e <= min(run, n // its length).
    """

    split: int
    size: int
    lengths: tuple[int, int]
    letters: tuple[Matrix2 | None, Matrix2 | None]
    winner: Winner | None = None
    run: int = 0
    powers: list[Matrix2] = field(default_factory=list)


def _orbit_levels(table: _Induction, n: int, unit: int) -> list[_OrbitLevel]:
    """The levels of the induction that orbits of at most n steps reach,
    with pieces in units of 1/unit (a multiple of the denominator of
    alpha), through the first level where both letters are longer than n.

    Each run (winner, r) of the table moves the pieces and the lengths: a
    Bottom run makes B A^r of B on the piece cut from A's, a Top run B^r A
    of A.  The table forms a moved letter only as far as it fits in n, and
    each level holds the table's letters and the squares of its run's
    letter whose powers fit (_squares).  Where the expansion of alpha ends
    the two pieces are equal and the return alternates A_k and B_k; one
    closing Top run of 1 makes the last level, with one piece whose letter
    B_k A_k returns every point to itself, walked as one power.
    """
    exact = Fraction(table.alpha)
    split = (exact.denominator - exact.numerator) * (unit // exact.denominator)
    a, b = table.pair(0)
    lv = _OrbitLevel(split, unit, (1, 1), (a, b))
    levels = [lv]
    while lv.split < lv.size and min(lv.lengths) <= n:
        k = len(levels) - 1
        step = table.run(k)
        closing = step is None
        winner, run = (Winner.TOP, 1) if closing else step
        len_a, len_b = lv.lengths
        bottom = winner is Winner.BOTTOM
        cap = min(run, n // (len_a if bottom else len_b))
        lv.winner, lv.run, lv.powers = winner, run, _squares(a if bottom else b, cap)
        if bottom:
            cut, lengths = run * (lv.size - lv.split), (len_a, len_b + run * len_a)
            b = None if lengths[1] > n else table.pair(k + 1)[1]
            lv = _OrbitLevel(lv.split - cut, lv.size - cut, lengths, (lv.letters[0], b))
        else:
            cut, lengths = run * lv.split, (len_a + run * len_b, len_b)
            a = (None if lengths[0] > n
                 else mul(b, a) if closing else table.pair(k + 1)[0])
            lv = _OrbitLevel(lv.split, lv.size - cut, lengths, (a, lv.letters[1]))
        levels.append(lv)
    if lv.split == lv.size:
        lv.powers = _squares(a, n // lv.lengths[0])
    return levels


def _orbit_factors(levels: list[_OrbitLevel], y: int,
                   n: int) -> tuple[list[Matrix2], int]:
    """The factors of the n-step orbit product from y, in the order they
    act, and the point the orbit reaches; y and the levels as in
    _orbit_levels.

    Down: at each level the orbit enters I_{k+1}, by A_k^j B_k after a
    Bottom run and by B_k^j after a Top run.  It stops at a level where the
    entry does not fit in the steps left, taking the part of the entry that
    fits, or at a level none of whose letters fits.  A last level of one
    piece is walked as one power.  Up: after the last whole letter of level
    k + 1 comes the part of the next one that fits, in letters of level k:
    A_k^i of B_{k+1} = B_k A_k^r after a Bottom run, A_k then B_k^i of
    A_{k+1} = B_k^r A_k after a Top run.  Each power is its squares, one per
    set bit of the exponent.
    """
    factors: list[Matrix2] = []
    left = n
    for k, lv in enumerate(levels):  # down
        len_a, len_b = lv.lengths
        if lv.split == lv.size:
            i = left // len_a
            factors += _bits(lv.powers, i)
            left -= i * len_a
            break
        if left < len_a and left < len_b:  # nothing fits from here down
            break
        inner = levels[k + 1].size
        if y < inner:
            continue
        piece_a, piece_b = lv.split, lv.size - lv.split
        if lv.winner is Winner.BOTTOM:
            j = (piece_a - y + piece_b - 1) // piece_b
            i = min(j, left // len_a)
            factors += _bits(lv.powers, i)
            y += i * piece_b
            left -= i * len_a
            if i < j or len_b > left:
                break
            factors.append(lv.letters[1])
            y -= piece_a
            left -= len_b
        else:
            j = (y - inner) // piece_a + 1
            i = min(j, left // len_b)
            factors += _bits(lv.powers, i)
            y -= i * piece_a
            left -= i * len_b
            if i < j:
                break
    for level in range(k - 1, -1, -1):  # up
        lv, inner = levels[level], levels[level + 1]
        len_a, len_b = lv.lengths
        piece_a, piece_b = lv.split, lv.size - lv.split
        if lv.winner is Winner.BOTTOM:
            if y >= inner.split and len_a <= left:
                i = min(lv.run, left // len_a)
                factors += _bits(lv.powers, i)
                y += i * piece_b
                left -= i * len_a
        elif y < inner.split and len_a <= left:
            factors.append(lv.letters[0])
            y += piece_b
            left -= len_a
            if len_b <= left:
                i = left // len_b
                factors += _bits(lv.powers, i)
                y -= i * piece_a
                left -= i * len_b
    return factors, y


def _exact_points(alpha: float, xs: Iterable[float]) -> tuple[int, list[int]]:
    """A unit common to alpha and the floats xs in [0, 1) (the least common
    multiple of their denominators), and each x as an integer in it."""
    ratios = [float(x).as_integer_ratio() for x in xs]
    unit = math.lcm(Fraction(alpha).denominator, *(q for _, q in ratios))
    return unit, [num * (unit // q) for num, q in ratios]


def _log_norm(a: float, b: float, c: float, d: float, log: float) -> float:
    """log ||e^log [[a, b], [c, d]]||, the 2-norm taken in closed form."""
    return log + math.log((math.hypot(a + d, b - c) + math.hypot(a - d, b + c)) / 2.0)


def _orbit_product(levels: list[_OrbitLevel], y: int, n: int) -> float:
    """log ||rho_n(y)||; y and the levels as in _orbit_levels.  The product
    is four entries, scaled to a largest |entry| of 1 after each factor (of
    entries at most 2^500), and the log of the scale."""
    p0, p1, p2, p3, log = 1.0, 0.0, 0.0, 1.0, 0.0
    for m in _orbit_factors(levels, y, n)[0]:
        a, b, c, d = m.a, m.b, m.c, m.d
        q0 = a * p0 + b * p2
        q1 = a * p1 + b * p3
        q2 = c * p0 + d * p2
        q3 = c * p1 + d * p3
        top = max(abs(q0), abs(q1), abs(q2), abs(q3))
        p0, p1, p2, p3 = q0 / top, q1 / top, q2 / top, q3 / top
        log += m.log_scale + math.log(top)
    return _log_norm(p0, p1, p2, p3, log)


def direct_exponent(p: CocyclePair, t: Rotation2IET, n_iters: int,
                    n_samples: int = DEFAULT_SAMPLES,
                    seed: int = 0) -> LyapunovEstimate:
    """Estimate chi as log ||rho_n(x)|| / n, the mean over orbits of the
    rotation from n_samples random starting points (random.Random(seed)),
    with its standard error.  Each orbit product is the walk of
    _orbit_factors through every level of the Rauzy induction with return
    times up to n, O(sum of log a_k) factors whatever n, multiplied by
    _orbit_product.  Negative round-off estimates are clipped at 0
    (exponents of determinant-1 cocycles are nonnegative).  stderr is the
    spread over the starting points only: it leaves out the O(1/n) gap
    between log ||rho_n(x)|| / n and chi.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return _exponent(_Induction(p, float(t.alpha)), n_iters, n_samples, seed)


def _exponent(table: _Induction, n_iters: int, n_samples: int = DEFAULT_SAMPLES,
              seed: int = 0) -> LyapunovEstimate:
    """direct_exponent on the induction table of a float alpha, which
    spectrum.evaluate_slope shares with its decision."""
    rng = random.Random(seed)
    unit, starts = _exact_points(table.alpha, [rng.random() for _ in range(n_samples)])
    levels = _orbit_levels(table, n_iters, unit)
    per = [_orbit_product(levels, y, n_iters) / n_iters for y in starts]
    mean = math.fsum(per) / n_samples
    var = math.fsum((x - mean) ** 2 for x in per) / max(n_samples - 1, 1)
    stderr = math.sqrt(var / n_samples)
    return LyapunovEstimate(chi=max(mean, 0.0), n_iters=n_iters,
                            sample_points=n_samples, stderr=stderr)


# ---------------------------------------------------------------------------
# Renormalization dichotomy


def _k_escort(tc: TraceCoords) -> bool:
    """Whether the pair or a one-step tau-preimage lies in K (k_membership's
    test: two of A, B, AB with |trace| < 2 - EPS_TRACE).  The preimages
    (A, B A^-1) and (B^-1 A, B) have the traces (x, xy - z, y) and
    (xy - z, y, x); forming them instead can cancel a product's float
    determinant to <= 0.  All three triples hold x and y, so two elliptic
    letters decide, and with one the third trace of either triple does."""
    limit = 2.0 - EPS_TRACE
    ex, ey = abs(tc.x) < limit, abs(tc.y) < limit
    if ex and ey:
        return True
    if not (ex or ey):
        return False
    return abs(tc.z) < limit or abs(tc.x * tc.y - tc.z) < limit


def renorm_decision(p: CocyclePair, alpha: float | Fraction,
                    budget: DecisionBudget | None = None) -> RenormTrace:
    """Run the accelerated renormalization of (alpha, p) and decide, as
    Kind tells: UniformlyHyperbolic at the first HH+ pair, FiniteOrder where
    the expansion of alpha ends, else CertifiedBounded or Undecided when a
    budget stops it.  A finite order is in the spectrum when the matrix
    that the final step kept is not hyperbolic: the first for tau1,
    the second for tau2, and AB when alpha = 1/2 ends before the first
    step.  The trace carries the bound it applied.
    """
    return _decide(_Induction(p, alpha), budget)


def _decide(table: _Induction, budget: DecisionBudget | None) -> RenormTrace:
    """renorm_decision on the induction table of (alpha, p), which
    mcg_trajectory reads too.  Each level, 0 included, is typed and its code
    stored on the table once; step k + 1 reads run k and then the
    coordinates of level k + 1, both through the table, no further than
    the decision needs.  A run past max_digit leaves it Undecided before
    its level is formed, and so does a level that loses float precision.
    A run out of steps reads its largest trace off the coordinates of
    levels 1 to max_steps.  A step builds a CocyclePair only for two
    letters that are both hyperbolic or in the band, and for the
    certificate; no step builds a StepRecord."""
    if budget is None:
        budget = DecisionBudget()
    coords = table.trace_coords(0)
    bound = budget.trace_bound
    if bound is None:
        bound = trace_bound(coords.c) + 4.0

    def done(verdict: Verdict, last: int, first: int = 1) -> RenormTrace:
        return RenormTrace(table, verdict, bound, range(first, last + 1))

    letters, types = table.letters, table.types
    max_steps, max_digit = budget.max_accel_steps, budget.max_digit
    x, y = abs(coords.x), abs(coords.y)
    elliptic, hyperbolic = 2.0 - EPS_TRACE, 2.0 + EPS_TRACE
    for k in range(max_steps + 1):
        # A pair with an elliptic letter is typed by |x| and |y| at
        # cocycle._letter_kind's thresholds; the rest by _classify_letters.
        if x < elliptic and y < elliptic:
            code = "EE"
        elif x < elliptic and y > hyperbolic:
            code = "EH"
        elif y < elliptic and x > hyperbolic:
            code = "HE"
        else:
            cur = CocyclePair(*letters[k])
            ptype, ca, cb = _classify_letters(cur, (coords.x, coords.y))
            if ptype.is_degenerate:
                raise DegeneratePairError(ptype.reason)
            code = ptype.code
        types[k] = code
        if code == "HH+":
            return done(Verdict(Kind.UNIFORMLY_HYPERBOLIC, at_step=k,
                                certificate=cone_certificate(cur, (ca, cb))),
                        k, min(k, 1))
        if k == max_steps:
            break
        run = table.run(k)
        if run is None:
            # The kept letter's trace, read off the last step's coordinates:
            # A after a Bottom run, B after a Top run.  alpha = 1/2 ends
            # before the first step: period 2, whose return product BA has
            # tr AB.
            if k:
                kept = coords.x if table.runs[k - 1][0] is Winner.BOTTOM else coords.y
            else:
                kept = coords.z
            return done(Verdict(Kind.FINITE_ORDER, at_step=k,
                                spectrum_member=abs(kept) <= 2.0), k)
        if run[1] > max_digit:
            return done(Verdict(Kind.UNDECIDED, budget_note=Reason.MAX_DIGIT), k)
        try:
            coords = table.trace_coords(k + 1)
        except NonUnimodularError:
            return done(Verdict(Kind.UNDECIDED, budget_note=Reason.PRECISION), k)
        x, y = abs(coords.x), abs(coords.y)
    max_norm = max(max(abs(tc.x), abs(tc.y), abs(tc.z))
                   for tc in table.coords[1:max_steps + 1])
    if max_norm <= bound:
        return done(Verdict(Kind.CERTIFIED_BOUNDED, at_step=max_steps,
                            max_trace_norm=max_norm), max_steps)
    return done(Verdict(Kind.UNDECIDED, budget_note=Reason.TRACE_BOUND), max_steps)


def bounded_prefix(trace: RenormTrace, bound: float) -> int:
    """Number of leading steps whose trace coordinates all stay within the
    bound; measures how long the run tracked a bounded orbit."""
    n = 0
    for k in trace.levels:
        tc = trace.table.coords[k]
        if max(abs(tc.x), abs(tc.y), abs(tc.z)) > bound:
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
    if v.kind != Kind.UNIFORMLY_HYPERBOLIC or v.certificate is None:
        return 0.0
    m = v.at_step + 1
    qs = continued_fraction(alpha, max_digits=m + 2).convergent_denominators
    m = min(m, len(qs) - 2)
    if m < 1:
        return 0.0
    return math.log(v.certificate.expansion_factor) / (qs[m + 1] + qs[m])


def _rate(m: Matrix2, length: int) -> float:
    """log ||m|| / length, exact: a return time can pass the float range."""
    log = _log_norm(m.a, m.b, m.c, m.d, m.log_scale)
    return float(Fraction(log) / length) if math.isfinite(log) else log


def exponent_upper_bound(p: CocyclePair, alpha: float | Fraction) -> float:
    """An upper bound on chi for every pair: the least U_k = max(log ||A_k||
    / |A_k|, log ||B_k|| / |B_k|) over the levels k to the end of alpha's
    expansion, where a Bottom run of r makes the return time |B| += r |A|
    and a Top run |A| += r |B|.  The norms are the float letters', so the
    bound holds up to their rounding; below 0 it is rounding, as a
    unimodular letter has norm at least 1."""
    table = _Induction(p, alpha)
    len_a = len_b = 1
    best = math.inf
    for k in itertools.count():
        a, b = table.pair(k)
        best = min(best, max(_rate(a, len_a), _rate(b, len_b)))
        run = table.run(k)
        if run is None:
            return max(best, 0.0)
        winner, r = run
        if winner is Winner.BOTTOM:
            len_b += r * len_a
        else:
            len_a += r * len_b
