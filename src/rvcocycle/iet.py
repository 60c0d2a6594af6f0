"""2-interval exchange transformations (circle rotations on [0,1]),
elementary and accelerated Rauzy induction, continued fractions.

Conventions.  The rotation by alpha exchanges I_a = [0, 1-alpha] and
I_b = (1-alpha, 1].  "Top wins" at an elementary step when |I_a| < |I_b|,
i.e. alpha > 1/2; the induced map then lives on [0, alpha].  "Bottom wins"
when alpha < 1/2; the induced map lives on [0, 1-alpha].

Digit chart.  An accelerated step groups elementary steps until the winner
differs from the previous accelerated step's closing winner (initialized to
Bottom), consuming that differing step as well.  With this bookkeeping the
digit sequence equals the continued fraction expansion of alpha, and the
induced interval after n accelerated steps has first-return times
{q_n, q_n + q_{n-1}}.  Winners of successive accelerated steps alternate.

Exact runs.  The decision path never takes an elementary step: run_steps
and continued_fraction read the digits of the exact value Fraction(alpha)
by integer Euclid, O(1) per digit.  A float alpha means its binary value,
which is rational, so its expansion ends.  rauzy_step, accelerated_step,
accelerated_digits and first_return_oracle walk the elementary induction
one step at a time (in float arithmetic for a float alpha, within
RATIONAL_TOL); they are kept as independent oracles for the digits and the
return times.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

RATIONAL_TOL = 1e-13
MAX_DIGIT = 10**6


class FiniteOrderError(RuntimeError):
    """The induction terminated: alpha is rational (within tolerance)."""


class BudgetExceededError(RuntimeError):
    """An orbit/return-time computation exceeded its iteration budget."""


class Winner(Enum):
    TOP = "t"
    BOTTOM = "b"

    @property
    def other(self) -> "Winner":
        return Winner.BOTTOM if self is Winner.TOP else Winner.TOP


@dataclass(frozen=True)
class Rotation2IET:
    """Rotation by alpha presented as an exchange of two intervals of [0, 1].

    alpha may be a Fraction, in which case the induction runs in exact
    rational arithmetic (used by fixtures and termination tests).
    """

    alpha: float | Fraction

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def exact(self) -> bool:
        return isinstance(self.alpha, Fraction)

    @property
    def len_a(self):
        return 1 - self.alpha

    @property
    def len_b(self):
        return self.alpha

    def apply(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise ValueError("x must lie in [0, 1]")
        alpha = float(self.alpha)
        if x <= 1.0 - alpha:
            return x + alpha
        return x + alpha - 1.0

    def winner(self, tol: float = RATIONAL_TOL) -> Winner:
        half_gap = self.alpha - Fraction(1, 2) if self.exact else self.alpha - 0.5
        if (half_gap == 0) if self.exact else (abs(half_gap) <= tol):
            raise FiniteOrderError("alpha = 1/2: the exchange is finite order")
        return Winner.TOP if half_gap > 0 else Winner.BOTTOM


def rauzy_step(t: Rotation2IET, tol: float = RATIONAL_TOL) -> tuple[Winner, Rotation2IET]:
    """One elementary induction step; returns the winner and the normalized
    first-return map (on [0, alpha] if top wins, on [0, 1-alpha] if bottom wins).
    """
    w = t.winner(tol)
    if w is Winner.TOP:
        new_alpha = (2 * t.alpha - 1) / t.alpha
    else:
        new_alpha = t.alpha / (1 - t.alpha)
    if t.exact:
        if new_alpha <= 0 or new_alpha >= 1:
            raise FiniteOrderError("alpha reached the boundary: rational input")
    elif new_alpha <= tol or new_alpha >= 1.0 - tol:
        raise FiniteOrderError("alpha reached the boundary: rational input")
    return w, Rotation2IET(new_alpha)


@dataclass(frozen=True)
class AccelStep:
    digit: int            # continued-fraction digit a_n
    winner: Winner        # letter of the run this digit counts
    state: Rotation2IET   # induced exchange after the step
    scale: float          # |I_n| relative to the interval before the step


def accelerated_step(t: Rotation2IET, prev: Winner = Winner.BOTTOM,
                     tol: float = RATIONAL_TOL,
                     max_digit: int = MAX_DIGIT) -> AccelStep:
    """Consume elementary steps while the winner equals `prev`, plus the first
    step whose winner differs.  The digit is the number of steps consumed.
    Start runs with prev = BOTTOM; chain with prev = result.winner.other.

    Note the recorded winner is `prev`, the letter whose run the digit closes;
    the step always ends by one move of the opposite letter.
    """
    digit = 0
    cur = t
    scale = 1.0
    while True:
        w, nxt = rauzy_step(cur, tol)
        scale *= cur.len_b if w is Winner.TOP else cur.len_a
        digit += 1
        if digit > max_digit:
            raise BudgetExceededError("digit exceeds the per-step cap")
        cur = nxt
        if w is not prev:
            break
    return AccelStep(digit=digit, winner=prev, state=cur, scale=scale)


def accelerated_digits(alpha: float | Fraction, n: int,
                       tol: float = RATIONAL_TOL) -> list[int]:
    """First n continued-fraction digits of alpha read off the induction."""
    t = Rotation2IET(alpha)
    prev = Winner.BOTTOM
    digits = []
    for _ in range(n):
        try:
            step = accelerated_step(t, prev, tol)
        except FiniteOrderError:
            break
        digits.append(step.digit)
        t = step.state
        prev = prev.other
    return digits


def _euclid(alpha: float | Fraction):
    """Yield (a_n, last) for the continued-fraction digits a_1, a_2, ... of
    the exact value of alpha, by integer Euclid on its numerator and
    denominator; last is True for the final digit."""
    x = Fraction(alpha)
    p, q = x.numerator, x.denominator
    while p:
        a, r = divmod(q, p)
        p, q = r, p
        yield a, p == 0


def run_steps(t: Rotation2IET, max_digit: int = MAX_DIGIT):
    """Generator of the maximal same-winner runs of the elementary
    induction: yields (winner, run_length).

    This is the natural grouping for renormalizing a cocycle: a run of length
    N with winner w corresponds to the move tau_w^N on the pair of matrices.
    With alpha = [0; a_1, ..., a_n] the exact value of t.alpha, the lengths
    are (a_1 - 1, a_2, ..., a_{n-1}, a_n - 1), with winners alternating from
    Bottom.  Each accelerated digit closes with one step of the other
    letter, so the first run is one short; the last is one short because
    the step that would close a_n reaches the boundary of [0, 1] and ends
    the induction.
    Empty runs are dropped (a_1 = 1, and alpha = 1/2).  The generator stops
    where the expansion ends and raises BudgetExceededError for a run longer
    than max_digit.
    """
    winner = Winner.BOTTOM
    first = True
    for a, last in _euclid(t.alpha):
        n = a - first - last
        if n > max_digit:
            raise BudgetExceededError("run length exceeds the digit cap")
        if n > 0:
            yield winner, n
        winner = winner.other
        first = False


@dataclass(frozen=True)
class CFExpansion:
    digits: tuple[int, ...]
    convergent_denominators: tuple[int, ...]  # q_0 = 1, q_1 = a_1, ...
    terminated: bool


def continued_fraction(alpha: float | Fraction,
                       max_digits: int = 30) -> CFExpansion:
    """The first max_digits continued fraction digits of the exact value of
    alpha in (0, 1) (a float means its binary value), with convergent
    denominators q_n; terminated when the expansion ends within them.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    digits: list[int] = []
    terminated = False
    for a, last in _euclid(alpha):
        if len(digits) == max_digits:
            break
        digits.append(a)
        terminated = last
    qs = [1]
    q_prev = 0
    for a in digits:
        qs.append(a * qs[-1] + q_prev)
        q_prev = qs[-2]
    return CFExpansion(tuple(digits), tuple(qs), terminated)


@dataclass(frozen=True)
class FirstReturnRecord:
    subinterval_right: float
    return_times: tuple[int, int]


def first_return_oracle(t: Rotation2IET, n_accel: int,
                        budget: int = 10**7) -> FirstReturnRecord:
    """Return times of the original rotation on the interval [0, x_n] induced
    after n_accel accelerated steps, found by direct orbit simulation from one
    sample point in each continuity piece of the induced map.
    """
    if n_accel < 0:
        raise ValueError("n_accel must be nonnegative")
    beta = 1.0
    cur = t
    prev = Winner.BOTTOM
    for _ in range(n_accel):
        step = accelerated_step(cur, prev)
        beta *= step.scale
        cur = step.state
        prev = prev.other
    # Continuity pieces of the induced map, in original coordinates.
    split = beta * cur.len_a
    samples = (0.5 * split, 0.5 * (split + beta))
    times = []
    for x in samples:
        y = x
        for k in range(1, budget + 1):
            y = t.apply(y)
            if y >= 1.0:
                y -= 1.0
            if y < beta:
                times.append(k)
                break
        else:
            raise BudgetExceededError("orbit did not return within budget")
    return FirstReturnRecord(subinterval_right=beta,
                             return_times=(times[0], times[1]))
