import math
import random

import pytest

from rvcocycle.cocycle import (
    CocyclePair,
    DegeneratePairError,
    trace_bound,
    trace_coords,
)
from rvcocycle.hypgeom import hh_minus_canonical_pair
from rvcocycle.iet import Rotation2IET, Winner, continued_fraction
from rvcocycle.lyapunov import (
    DecisionBudget,
    StepRecord,
    bounded_prefix,
    boundedness_implies_zero,
    direct_exponent,
    exponent_lower_bound,
    renorm_decision,
    winner_move,
)
from rvcocycle.mat2 import Matrix2, diagonal, mul, rotation

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def commuting_hyperbolic():
    return CocyclePair(diagonal(2.0), diagonal(2.0))


def commuting_elliptic():
    return CocyclePair(rotation(1.0), rotation(math.sqrt(2.0)))


def generic_elliptic():
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    return CocyclePair(rotation(1.0), mul(mul(m, rotation(0.9)), m.inv()))


def random_unimodular(rng):
    while True:
        e = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        if e[0] * e[3] - e[1] * e[2] > 0.05:
            return Matrix2(*e)


class TestDirectExponent:
    def test_diagonal_gives_log_two(self):
        # Both letters are diag(2, 1/2): the exponent is exactly ln 2.
        est = direct_exponent(commuting_hyperbolic(), Rotation2IET(GOLDEN), 4000)
        assert est.chi == pytest.approx(math.log(2.0), abs=1e-12)

    def test_rotations_give_zero(self):
        est = direct_exponent(commuting_elliptic(), Rotation2IET(GOLDEN), 4000)
        assert est.chi == pytest.approx(0.0, abs=1e-9)

    def test_deterministic_given_seed(self):
        p = generic_elliptic()
        e1 = direct_exponent(p, Rotation2IET(GOLDEN), 500, seed=3)
        e2 = direct_exponent(p, Rotation2IET(GOLDEN), 500, seed=3)
        assert e1.chi == e2.chi

    def test_rejects_bad_iters(self):
        with pytest.raises(ValueError):
            direct_exponent(commuting_hyperbolic(), Rotation2IET(GOLDEN), 0)


class TestBudget:
    def test_defaults(self):
        b = DecisionBudget()
        assert b.max_accel_steps == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionBudget(max_accel_steps=0)
        with pytest.raises(ValueError):
            DecisionBudget(trace_bound=-1.0)


class TestRenormDecision:
    def test_immediate_hyperbolic(self):
        trace = renorm_decision(commuting_hyperbolic(), GOLDEN)
        v = trace.verdict
        assert v.kind == "UniformlyHyperbolic"
        assert v.at_step == 0
        assert v.certificate is not None
        assert v.certificate.expansion_factor == pytest.approx(2.0)
        # The synthesized step-0 record carries no winner.
        assert len(trace.steps) == 1
        assert trace.steps[0].winner is None

    def test_commuting_elliptic_bounded(self):
        trace = renorm_decision(commuting_elliptic(), GOLDEN,
                                DecisionBudget(max_accel_steps=40))
        v = trace.verdict
        assert v.kind == "CertifiedBounded"
        c = trace_coords(commuting_elliptic()).c
        assert v.max_trace_norm <= trace_bound(c) + 4.0

    def test_steps_follow_run_lengths(self):
        alpha = math.pi - 3.0  # digits 7, 15, 1, 292, ...
        trace = renorm_decision(commuting_elliptic(), alpha,
                                DecisionBudget(max_accel_steps=3))
        digits = continued_fraction(alpha, max_digits=4).digits
        got = [s.digit for s in trace.steps[:3]]
        assert got == [digits[0] - 1, digits[1], digits[2]]
        assert trace.steps[0].winner is Winner.BOTTOM
        assert trace.steps[1].winner is Winner.TOP

    def test_rational_finite_order(self):
        trace = renorm_decision(commuting_elliptic(), 0.375)
        v = trace.verdict
        assert v.kind == "FiniteOrder"
        assert v.spectrum_member in (True, False)
        assert v.last_pair is not None

    def test_degenerate_input_raises(self):
        p = CocyclePair(Matrix2(1.0, 1.0, 0.0, 1.0), rotation(1.0))
        with pytest.raises(DegeneratePairError):
            renorm_decision(p, GOLDEN)

    def test_hh_minus_eventually_decides(self):
        a, b = hh_minus_canonical_pair(0.7, 1.2, 0.9)
        trace = renorm_decision(CocyclePair(a, b), GOLDEN)
        assert trace.verdict.kind in (
            "UniformlyHyperbolic", "CertifiedBounded", "Undecided")

    def test_overflow_is_undecided_not_crash(self):
        # A very strong pair overflows the float range quickly but the run
        # must still return a verdict.
        p = CocyclePair(diagonal(1e60), rotation(1.0))
        trace = renorm_decision(p, GOLDEN, DecisionBudget(max_accel_steps=80))
        assert trace.verdict.kind in ("UniformlyHyperbolic", "Undecided")

    def test_overflowing_runs_decide(self):
        # Criterion 6's draws 74, 75 and 121 (seed 42): the run that reaches
        # HH+ (digits 739, 376 and 2046) pushes a trace to e^360 - e^532,
        # past the float range of its intermediate powers.
        rng = random.Random(42)
        draws = []
        while len(draws) < 121:
            p = CocyclePair(random_unimodular(rng), random_unimodular(rng))
            if trace_coords(p).c <= 2.0:
                continue
            alpha = rng.uniform(0.05, 0.95)
            if abs(alpha - 0.5) >= 1e-3:
                draws.append((p, alpha))
        for n, step, digit in ((74, 7, 739), (75, 2, 376), (121, 4, 2046)):
            p, alpha = draws[n - 1]
            trace = renorm_decision(p, alpha, DecisionBudget(max_accel_steps=60))
            v = trace.verdict
            assert (v.kind, v.at_step) == ("UniformlyHyperbolic", step), n
            assert trace.steps[-1].digit == digit
            assert v.certificate is not None and v.certificate.expansion_factor > 1.0

    def test_transitions_respected_along_run(self):
        from rvcocycle.cocycle import TRANSITIONS
        rng = random.Random(9)
        for _ in range(20):
            t1 = rng.uniform(0.2, 2.9)
            t2 = rng.uniform(0.2, 2.9)
            p = CocyclePair(rotation(t1), rotation(t2))
            alpha = rng.uniform(0.05, 0.95)
            if abs(alpha - 0.5) < 1e-3:
                continue
            try:
                trace = renorm_decision(p, alpha, DecisionBudget(max_accel_steps=25))
            except DegeneratePairError:
                continue
            prev_code = "EE"
            for s in trace.steps:
                if s.winner is None:
                    prev_code = s.pair_type
                    continue
                move = winner_move(s.winner)
                assert s.pair_type in TRANSITIONS[(prev_code, move)], \
                    f"{prev_code} --{move}--> {s.pair_type}"
                prev_code = s.pair_type


class TestDerivedQuantities:
    def test_winner_move(self):
        assert winner_move(Winner.BOTTOM) == 1
        assert winner_move(Winner.TOP) == 2

    def test_bounded_prefix(self):
        trace = renorm_decision(commuting_elliptic(), GOLDEN,
                                DecisionBudget(max_accel_steps=30))
        c = trace_coords(commuting_elliptic()).c
        n = bounded_prefix(trace, trace_bound(c) + 4.0)
        assert n == len(trace.steps)
        assert bounded_prefix(trace, 0.0) == 0

    def test_exponent_lower_bound_positive(self):
        trace = renorm_decision(commuting_hyperbolic(), GOLDEN)
        lb = exponent_lower_bound(trace, GOLDEN)
        assert lb > 0.0
        est = direct_exponent(commuting_hyperbolic(), Rotation2IET(GOLDEN), 2000)
        assert est.chi >= 0.9 * lb

    def test_exponent_lower_bound_zero_without_certificate(self):
        trace = renorm_decision(commuting_elliptic(), GOLDEN)
        assert exponent_lower_bound(trace, GOLDEN) == 0.0

    def test_boundedness_audit(self):
        p = commuting_elliptic()
        t = Rotation2IET(GOLDEN)
        trace = renorm_decision(p, GOLDEN)
        rate = boundedness_implies_zero(p, t, trace, 20000)
        assert rate < 5e-3

    def test_boundedness_audit_requires_bounded(self):
        trace = renorm_decision(commuting_hyperbolic(), GOLDEN)
        with pytest.raises(ValueError):
            boundedness_implies_zero(commuting_hyperbolic(),
                                     Rotation2IET(GOLDEN), trace, 1000)
