"""The reference walk of the accelerated Rauzy induction: the pair moved by
one cocycle.tau_power per run of iet.run_steps.  Tests compare the letters
of lyapunov's induction table, the decision's step records and
mcg_trajectory with it, bit for bit."""

from rvcocycle.cocycle import CocyclePair, tau_power
from rvcocycle.iet import BudgetExceededError, Rotation2IET, Winner, run_steps


def winner_move(w: Winner) -> int:
    """Bottom winner applies tau1, Top winner tau2."""
    return 1 if w is Winner.BOTTOM else 2


def renorm_runs(p: CocyclePair, alpha, max_digit: int):
    """Yield (winner, run_len, pair) for each run of iet.run_steps, where
    pair is p moved by every run so far, one tau_power per run.  Stops
    where the expansion of alpha ends; BudgetExceededError (a run past
    max_digit) propagates."""
    for winner, run_len in run_steps(Rotation2IET(alpha)):
        if run_len > max_digit:
            raise BudgetExceededError("run length exceeds the digit cap")
        p = tau_power(p, winner_move(winner), run_len)
        yield winner, run_len, p
