"""The reference walk of the accelerated Rauzy induction: the pair moved by
one cocycle.tau_power per run of iet.run_steps, with the letter that the
run moves put through the Matrix2 constructor, the determinant rule that
the induction applies once per level.  Tests compare the letters of
lyapunov's induction table, the decision's step records and
mcg_trajectory with it, bit for bit."""

from rvcocycle.cocycle import CocyclePair, tau_power
from rvcocycle.iet import BudgetExceededError, Rotation2IET, Winner, run_steps
from rvcocycle.mat2 import Matrix2


def winner_move(w: Winner) -> int:
    """Bottom winner applies tau1, Top winner tau2."""
    return 1 if w is Winner.BOTTOM else 2


def level_letter(m: Matrix2) -> Matrix2:
    """m through the constructor's determinant rule."""
    return Matrix2(*m.entries(), m.log_scale)


def renorm_runs(p: CocyclePair, alpha, max_digit: int):
    """Yield (winner, run_len, pair) for each run of iet.run_steps, where
    pair is p moved by every run so far, one tau_power per run and the
    moved letter through the constructor.  Stops where the expansion of
    alpha ends; BudgetExceededError (a run past max_digit) propagates."""
    for winner, run_len in run_steps(Rotation2IET(alpha)):
        if run_len > max_digit:
            raise BudgetExceededError("run length exceeds the digit cap")
        move = winner_move(winner)
        p = tau_power(p, move, run_len)
        p = (CocyclePair(p.A, level_letter(p.B)) if move == 1
             else CocyclePair(level_letter(p.A), p.B))
        yield winner, run_len, p
