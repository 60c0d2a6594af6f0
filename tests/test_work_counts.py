"""Work-count guards: the 2x2 products that one bounded twist trajectory
and one refine slope take, counted (not timed) and held at or below the
counts of the single walk of the induction.  A change that brings back a
second walk, the identity product in Matrix2.power or the fixed points of
elliptic letters shows up here as a higher count."""

import math
import sys

import pytest

from rvcocycle import mat2
from rvcocycle.lyapunov import DecisionBudget
from rvcocycle.mat2 import Matrix2, rotation
from rvcocycle.spectrum import (
    BoundedWitness,
    Representation,
    evaluate_slope,
    mcg_trajectory,
)

# A near-rational angle of the bounded benchmark's draw: 32 runs, one of
# them long.  Two walks with the old power took 396 products, and forming
# A B again for each run's growth log took 183.
BOUNDED_ALPHA = 0.30769497215185276
BOUNDED_MUL = 151
# A slope of the refine benchmark's range, absorbed at step 3; 22 before.
REFINE_THETA = 1.2
REFINE_MUL = 14


@pytest.fixture
def mul_calls(monkeypatch):
    """Count every call of mat2.mul, through each module binding of it."""
    calls = []
    original = mat2.mul

    def counted(m1, m2):
        calls.append(1)
        return original(m1, m2)

    for name, module in list(sys.modules.items()):
        if name == "rvcocycle" or name.startswith("rvcocycle."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_bounded_trajectory_products(mul_calls):
    rep = Representation(rotation(1.0), rotation(math.sqrt(2.0)))
    mul_calls.clear()
    traj, witness = mcg_trajectory(rep, BOUNDED_ALPHA, 40,
                                   DecisionBudget(max_accel_steps=60))
    assert isinstance(witness, BoundedWitness) and len(traj.twist_word) == 32
    assert len(mul_calls) <= BOUNDED_MUL


def test_refine_slope_products(mul_calls):
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    rep = Representation(rotation(1.0), m @ rotation(0.9) @ m.inv())
    mul_calls.clear()
    point = evaluate_slope(rep, REFINE_THETA, DecisionBudget(max_accel_steps=40))
    assert point.verdict == "hyperbolic" and point.steps == 3
    assert len(mul_calls) <= REFINE_MUL
