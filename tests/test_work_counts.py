"""Work-count guards: the 2x2 products, the log |tr| reads, the step
records and the trace coordinates that one bounded twist trajectory takes,
the products of one refine slope and of one classify command, and the
isometry classifications of one absorbing decision, counted (not timed) and held at or below the counts of the
single walk of the induction.  A change that brings back a second walk,
the identity product in Matrix2.power, the fixed points of elliptic
letters, a second product per step for tr [A, B], a product per step for
a tr AB that mul would return unchanged, a log |tr| of a letter that a run
kept, a second A B for the K membership that the trace coordinates already
read, a second classification of an absorbing pair, a classification of
a pair with an elliptic letter, a mul call for a power's product that
mul would store unchanged, a step record built for a reader that does not
read the steps, or a level's trace coordinates formed twice, shows up
here as a higher count.
The induction is walked once per (pair, alpha): one run_steps call for a
decision, a trajectory, an exponent, and a scan point that takes both,
and one Euclid walk of alpha for a trajectory and its denominators.
The values the walk builds per product and per step are slotted: a
__dict__ on them brings back the cost of building it.  direct_exponent's
orbit walk is counted the same way: its factors per orbit and the
products of its levels.  Its orbit products are four floats multiplied in
place, with no mul per factor.  The exponent's upper bound reads the norms
of the table's letters and forms no product of its own.  The cone
certificate is a formula on the two letters and forms no product at all."""

import math
import sys

import numpy as np
import pytest

from rvcocycle import cli, cocycle, iet, lyapunov, mat2
from rvcocycle.cocycle import CocyclePair, cone_certificate
from rvcocycle.iet import Rotation2IET, Winner
from rvcocycle.lyapunov import (
    DecisionBudget,
    _exact_points,
    _Induction,
    _orbit_factors,
    _orbit_levels,
    direct_exponent,
    exponent_upper_bound,
    renorm_decision,
)
from rvcocycle.mat2 import Matrix2, diagonal, rotation
from rvcocycle.spectrum import (
    BoundedWitness,
    Representation,
    evaluate_slope,
    mcg_trajectory,
)

# A near-rational angle of the bounded benchmark's draw: 32 runs, one of
# them long.  Two walks with the old power took 396 products, forming A B
# again for each run's growth log took 183, B A for each step's tr [A, B]
# took 151, and A B for each step's tr A B took 119: a step forms A B only
# where mul would scale it, which no product of rotations needs.
# Matrix2.power takes its unscaled products on floats, not through mul:
# what is left is one product per level and B A at level 0; 92 with mul
# per power product, 39 while mul tested each product's det.
BOUNDED_ALPHA = 0.30769497215185276
BOUNDED_MUL = 33
# The decision of commuting rotations classifies no letters: every pair,
# the input pair included, has an elliptic letter, which _decide types by
# |tr A| and |tr B| alone.  One classification per step took 33 at
# BOUNDED_ALPHA, and classifying the input pair by its fixed points 1.
ELLIPTIC_CLASSIFY = 0
# A slope of the refine benchmark's range, absorbed at step 3; 22, then 14
# with B A per step.
REFINE_THETA = 1.2
REFINE_MUL = 11
# The classify command on a fixture: two products build generic-elliptic's
# B (all three fixtures are built), and B A gives tr [A, B].  Forming A B
# again for K membership took 4.
CLASSIFY_MUL = 3
# The same slope with a 2000-step exponent, which reads the decision's
# table of the induction; 27 when the exponent walked it again.
SLOPE_CHI_MUL = 24
# An input pair that is HH+ at step 0: one classification per letter; 4
# when the cone certificate classified the letters again, or when
# mcg_trajectory classified the input pair before its decision did.
ABSORBING_ALPHA = 0.3819660112501051
ABSORBING_CLASSIFY = 2
# direct_exponent's walk through every level of the induction with return
# times up to n: O(sum of log a_k) factors per orbit, where the one induced
# level near sqrt(n) took about 290 letters per orbit at 1e4 steps and
# 1.4e6 at alpha = 0.3 and 1e7.  The table squares a run's letter only up
# to the powers that fit in n: the float 0.1 and the float 0.3 each have a
# digit near 9e14 (1.8e15 and 9.0e14), whose full power takes about 50
# squarings.  3/8 ends its expansion, and its last level is one power.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
WALK_CASES = [(alpha, n) for alpha in (0.1, 0.3, 0.7, GOLDEN, 1.0 / (1e6 + 2.5))
              for n in (10**3, 10**5, 10**8, 10**10)] + [(0.3, 10**7),
                                                         (0.375, 10**10)]
ORBIT_FACTORS = 64  # at most 39 taken
TABLE_MUL = 64  # at most 48 taken (the golden float at 1e10)
# The 52 runs of the golden float: one product for each of the 43 runs of
# 1, and for each of the 9 longer ones (2 to 10) its power, taken as
# squares, and one product more.  Those powers are of scaled letters, so
# Matrix2.power takes them through mul.
UPPER_BOUND_MUL = 75


def count_calls(monkeypatch, original):
    """Count every call of original, through each module binding of it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "rvcocycle" or name.startswith("rvcocycle."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def mul_calls(monkeypatch):
    return count_calls(monkeypatch, mat2.mul)


@pytest.fixture
def classify_calls(monkeypatch):
    return count_calls(monkeypatch, mat2.classify)


@pytest.fixture
def letter_classify_calls(monkeypatch):
    return count_calls(monkeypatch, cocycle._classify_letters)


def test_bounded_trajectory_products(mul_calls):
    rep = Representation(rotation(1.0), rotation(math.sqrt(2.0)))
    mul_calls.clear()
    traj, witness = mcg_trajectory(rep, BOUNDED_ALPHA, 40,
                                   DecisionBudget(max_accel_steps=60))
    assert isinstance(witness, BoundedWitness) and len(traj.twist_word) == 32
    assert len(mul_calls) <= BOUNDED_MUL


def test_bounded_trajectory_classifications(letter_classify_calls):
    rep = Representation(rotation(1.0), rotation(math.sqrt(2.0)))
    traj, witness = mcg_trajectory(rep, BOUNDED_ALPHA, 40,
                                   DecisionBudget(max_accel_steps=60))
    assert isinstance(witness, BoundedWitness) and len(traj.twist_word) == 32
    assert len(letter_classify_calls) == ELLIPTIC_CLASSIFY


def test_elliptic_decision_classifications(letter_classify_calls):
    p = CocyclePair(rotation(1.0), rotation(math.sqrt(2.0)))
    trace = renorm_decision(p, BOUNDED_ALPHA, DecisionBudget(max_accel_steps=60))
    assert len(trace.steps) == 32
    assert len(letter_classify_calls) == ELLIPTIC_CLASSIFY


def test_bounded_trajectory_trace_logs(monkeypatch):
    # Each walked run moves one letter and keeps the other matrix, so the
    # growth log reads log |tr| of both letters once, then of the moved one.
    # The decision's trace coordinates read log |tr AB| of each step's pair,
    # which the growth log reuses, off the entries of A B except where mul
    # scales it, which no product of rotations needs.  Reading both letters
    # of every run took 2 x 32 + 1 + 32, and an AB product per step
    # 32 + 1 + 33.
    log_abs_trace = Matrix2.log_abs_trace
    calls = []
    monkeypatch.setattr(Matrix2, "log_abs_trace",
                        lambda m: calls.append(1) or log_abs_trace(m))
    rep = Representation(rotation(1.0), rotation(math.sqrt(2.0)))
    budget = DecisionBudget(max_accel_steps=60)
    steps = len(renorm_decision(CocyclePair(rep.A, rep.B), BOUNDED_ALPHA,
                                budget).steps)
    calls.clear()
    traj, _ = mcg_trajectory(rep, BOUNDED_ALPHA, 40, budget)
    assert steps == len(traj.twist_word)
    assert len(calls) == len(traj.twist_word) + 1


@pytest.mark.parametrize("steps", [60, 10], ids=["whole", "short-decision"])
def test_bounded_trajectory_records_no_steps(monkeypatch, steps):
    # The trajectory reads the decision's verdict and the table's trace
    # coordinates, one per level: the decision's, and past its last level
    # (a 10-step budget) the trajectory's own, with the input pair's
    # tr [A, B] and no B A product per level.  Step records built and
    # thrown away cost one object per level.
    records = count_calls(monkeypatch, lyapunov.StepRecord)
    coords = count_calls(monkeypatch, cocycle.TraceCoords)
    products = count_calls(monkeypatch, mat2.mul)
    rep = Representation(rotation(1.0), rotation(math.sqrt(2.0)))
    traj, _ = mcg_trajectory(rep, BOUNDED_ALPHA, 40,
                             DecisionBudget(max_accel_steps=steps))
    assert len(traj.twist_word) == 32
    assert len(records) == 0
    assert len(coords) == len(traj.twist_word) + 1
    assert len(products) <= BOUNDED_MUL


def test_decision_records_each_step(monkeypatch):
    # The decision builds no step record; reading its steps builds one per
    # step, off the table, each time they are read.
    records = count_calls(monkeypatch, lyapunov.StepRecord)
    coords = count_calls(monkeypatch, cocycle.TraceCoords)
    p = CocyclePair(rotation(1.0), rotation(math.sqrt(2.0)))
    trace = renorm_decision(p, BOUNDED_ALPHA, DecisionBudget(max_accel_steps=60))
    assert len(records) == 0
    assert len(trace.steps) == len(records) == 32
    assert len(coords) == 32 + 1


@pytest.mark.parametrize("reader", ["renorm_decision", "evaluate_slope"])
def test_readers_build_no_step_records(monkeypatch, reader):
    # Only a reader of .steps pays for step records: the decision and a
    # scan point with its exponent read the table, as the trajectory does
    # (test_bounded_trajectory_records_no_steps).
    records = count_calls(monkeypatch, lyapunov.StepRecord)
    _walks()[reader]()
    assert len(records) == 0


def test_trajectory_walks_euclid_once(monkeypatch):
    # The twist matrices' rows are the convergent denominators q_k, so the
    # trajectory reads them off its one walk of alpha's expansion; running
    # continued_fraction for them took a second.
    calls = count_calls(monkeypatch, iet._euclid)
    rep = Representation(rotation(1.0), rotation(math.sqrt(2.0)))
    for alpha, n_steps in ((BOUNDED_ALPHA, 40), (0.375, 3), (0.953125, 2)):
        calls.clear()
        mcg_trajectory(rep, alpha, n_steps, DecisionBudget(max_accel_steps=60))
        assert len(calls) == 1


def test_refine_slope_products(mul_calls):
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    rep = Representation(rotation(1.0), m @ rotation(0.9) @ m.inv())
    mul_calls.clear()
    point = evaluate_slope(rep, REFINE_THETA, DecisionBudget(max_accel_steps=40))
    assert point.verdict == "hyperbolic" and point.steps == 3
    assert len(mul_calls) <= REFINE_MUL


@pytest.mark.parametrize("fixture", ["commuting-hyperbolic", "commuting-elliptic",
                                     "generic-elliptic"])
def test_classify_products(mul_calls, capsys, fixture):
    assert cli.main(["classify", "--fixture", fixture]) == 0
    capsys.readouterr()
    assert len(mul_calls) <= CLASSIFY_MUL


# An HH+ pair of criterion 4's draw on which a block-length ladder over
# L = 1, 2, 4, 8, 12 formed all 8188 words and still proved no rate.
WEAK_PAIR = CocyclePair(
    Matrix2(-1.0979387479033134, 0.4875026217567887,
            0.2537453433510055, -1.0234646716750608),
    Matrix2(-1.2556963476309757, -0.9590704883837048,
            -0.33513549825046857, -1.0523392605822341))


@pytest.mark.parametrize("p", [WEAK_PAIR,
                               CocyclePair(diagonal(2.0), diagonal(2.0))],
                         ids=["weak", "diagonal"])
def test_cone_certificate_forms_no_words(mul_calls, p):
    mul_calls.clear()
    cert = cone_certificate(p)
    assert len(mul_calls) == 0
    assert cert is not None


def _decision_absorbed_at(p):
    v = renorm_decision(p, ABSORBING_ALPHA).verdict
    return v.at_step, v.certificate is not None


def _trajectory_absorbed_at(p):
    _, witness = mcg_trajectory(Representation(p.A, p.B), ABSORBING_ALPHA, 5)
    return witness.step_index, not math.isnan(witness.mu)


@pytest.mark.parametrize("absorbed_at", [_decision_absorbed_at,
                                         _trajectory_absorbed_at],
                         ids=["renorm_decision", "mcg_trajectory"])
def test_absorbing_pair_classified_once(classify_calls, absorbed_at):
    p = CocyclePair(diagonal(2.0), diagonal(2.0))
    assert absorbed_at(p) == (0, True)
    assert len(classify_calls) <= ABSORBING_CLASSIFY


def test_walk_values_are_slotted():
    p = CocyclePair(rotation(1.0), rotation(math.sqrt(2.0)))
    step = renorm_decision(p, BOUNDED_ALPHA).steps[-1]
    for value in (p.A, p, step.coords, step):
        assert not hasattr(value, "__dict__"), type(value).__name__


@pytest.mark.parametrize("alpha, n", WALK_CASES)
def test_orbit_walk_factors(mul_calls, alpha, n):
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    p = CocyclePair(rotation(1.0), m @ rotation(0.9) @ m.inv())
    unit, starts = _exact_points(alpha, np.random.default_rng(0).random(8))
    mul_calls.clear()
    table = _Induction(p, alpha)
    levels = _orbit_levels(table, n, unit)
    assert len(mul_calls) <= TABLE_MUL
    for k, lv in enumerate(levels):
        # Squares of the run's letter (A at a last level) while they fit in
        # the run and in n; a last level has no run to bound them.  The
        # table, read by the orbit walk alone, forms no square past them.
        fits = n // lv.lengths[lv.winner is Winner.TOP]
        formed = min(lv.run or fits, fits).bit_length()
        assert len(lv.powers) == formed
        if k < len(table.runs):
            assert len(table.squares.get(k, [])) == formed
    for y in starts:
        assert len(_orbit_factors(levels, y, n)[0]) <= ORBIT_FACTORS


def test_upper_bound_products(mul_calls):
    # The bound forms the table's letters through the last level of the
    # golden float, and nothing else: the products of _Induction.pair there.
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    p = CocyclePair(rotation(1.0), m @ rotation(0.9) @ m.inv())
    mul_calls.clear()
    assert math.isfinite(exponent_upper_bound(p, GOLDEN))
    assert len(mul_calls) == UPPER_BOUND_MUL
    table = _Induction(p, GOLDEN)
    last = 0
    while table.run(last) is not None:
        last += 1
    mul_calls.clear()
    table.pair(last)
    assert len(mul_calls) == UPPER_BOUND_MUL


def test_slope_with_exponent_products(mul_calls):
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    rep = Representation(rotation(1.0), m @ rotation(0.9) @ m.inv())
    mul_calls.clear()
    point = evaluate_slope(rep, REFINE_THETA, DecisionBudget(max_accel_steps=40),
                           chi_iters=2000)
    assert point.verdict == "hyperbolic" and point.steps == 3
    assert len(mul_calls) <= SLOPE_CHI_MUL


def _walks():
    """One call of each reader of the induction, on a pair and an angle."""
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    rep = Representation(rotation(1.0), m @ rotation(0.9) @ m.inv())
    pair = CocyclePair(rep.A, rep.B)
    budget = DecisionBudget(max_accel_steps=40)
    return {
        "renorm_decision": lambda: renorm_decision(pair, GOLDEN, budget),
        "mcg_trajectory": lambda: mcg_trajectory(rep, BOUNDED_ALPHA, 40, budget),
        "direct_exponent": lambda: direct_exponent(pair, Rotation2IET(0.3), 10**5),
        "exponent_upper_bound": lambda: exponent_upper_bound(pair, 0.3),
        "evaluate_slope": lambda: evaluate_slope(rep, REFINE_THETA, budget,
                                                 chi_iters=2000),
    }


@pytest.mark.parametrize("reader", list(_walks()))
def test_one_walk_of_the_induction(monkeypatch, reader):
    walk = _walks()[reader]
    calls = count_calls(monkeypatch, iet.run_steps)
    walk()
    assert len(calls) == 1
