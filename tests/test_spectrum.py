import math
import random
from fractions import Fraction

import pytest

from rvcocycle.cocycle import classify_pair, trace_bound, trace_coords
from rvcocycle.lyapunov import DecisionBudget, renorm_decision
from rvcocycle.mat2 import Matrix2, classify, diagonal, mul, rotation
from rvcocycle.spectrum import (
    BoundedWitness,
    ChartBoundaryError,
    HyperbolicityWitness,
    Representation,
    chart_for,
    evaluate_slope,
    mcg_trajectory,
    refine_spectrum,
    scan_grid,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def generic_elliptic():
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    return Representation(rotation(1.0), mul(mul(m, rotation(0.9)), m.inv()))


def commuting_elliptic():
    return Representation(rotation(1.0), rotation(math.sqrt(2.0)))


def diag_rep():
    return Representation(diagonal(2.0), diagonal(2.0))


def exact_run_count(alpha: float) -> int:
    """Number of runs (a_1 - 1, a_2, ..., a_n - 1) of the exact value of
    alpha that are not empty, from the Gauss map on a Fraction."""
    x = Fraction(alpha)
    lengths = []
    while x:
        inv = 1 / x
        lengths.append(int(inv))
        x = inv - int(inv)
    lengths[0] -= 1
    lengths[-1] -= 1
    return sum(n > 0 for n in lengths)


class TestRepresentation:
    def test_commutator_trace(self):
        assert diag_rep().c == pytest.approx(2.0)
        assert generic_elliptic().c > 2.0

    def test_degeneracy_flag(self):
        assert diag_rep().is_degenerate
        assert not generic_elliptic().is_degenerate


class TestChart:
    def test_small_angle(self):
        theta = math.atan(0.3)
        alpha, pair = chart_for(generic_elliptic(), theta)
        assert alpha == pytest.approx(0.3)
        # Slope below 1: no twist absorbed, the pair is the representation.
        r = generic_elliptic()
        assert pair.A == r.A
        assert pair.B.entries() == pytest.approx(r.B.entries())

    def test_integer_part_absorbed(self):
        theta = math.atan(2.4)
        r = generic_elliptic()
        alpha, pair = chart_for(r, theta)
        assert alpha == pytest.approx(0.4)
        want = mul(r.B, r.A.power(2))
        assert pair.B.entries() == pytest.approx(want.entries())

    def test_obtuse_angle_inverts_first(self):
        theta = math.pi - math.atan(0.3)
        r = generic_elliptic()
        alpha, pair = chart_for(r, theta)
        assert alpha == pytest.approx(0.3)
        assert pair.A.entries() == pytest.approx(r.A.inv().entries())

    def test_boundaries_raise(self):
        r = generic_elliptic()
        for theta in (0.0, math.pi / 2.0, math.pi):
            with pytest.raises(ChartBoundaryError):
                chart_for(r, theta)
        with pytest.raises(ChartBoundaryError):
            chart_for(r, math.atan(2.0))  # integer slope

    def test_variants_agree_on_verdict(self):
        # The two charts present the same foliation; membership verdicts
        # must match even though the matrices differ.
        r = generic_elliptic()
        budget = DecisionBudget(max_accel_steps=30)
        for theta in (0.35, 0.8, 1.1, 1.35):
            p_tan = evaluate_slope(r, theta, budget, variant="tan")
            p_cot = evaluate_slope(r, theta, budget, variant="cot")
            in_tan = p_tan.verdict in ("bounded", "finite_in")
            in_cot = p_cot.verdict in ("bounded", "finite_in")
            if "undecided" in (p_tan.verdict, p_cot.verdict):
                continue
            if "degenerate" in (p_tan.verdict, p_cot.verdict):
                continue
            assert in_tan == in_cot, f"theta={theta}"


class TestEvaluateAndScan:
    def test_boundary_point_degenerate(self):
        p = evaluate_slope(generic_elliptic(), math.pi / 2.0)
        assert p.verdict == "degenerate"
        assert math.isnan(p.alpha)

    def test_hyperbolic_point(self):
        p = evaluate_slope(diag_rep(), math.atan(GOLDEN))
        assert p.verdict == "hyperbolic"
        assert p.steps == 0
        assert p.mu_lower == pytest.approx(2.0)

    def test_bounded_point(self):
        # The default 60-step budget outlasts the 52 runs of the chart's
        # float alpha, so the expansion ends in a member of the spectrum.
        p = evaluate_slope(commuting_elliptic(), math.atan(GOLDEN))
        assert (p.verdict, p.steps, p.bounded_steps) == ("finite_in", 52, 52)
        p = evaluate_slope(commuting_elliptic(), math.atan(GOLDEN),
                           DecisionBudget(max_accel_steps=40))
        assert (p.verdict, p.steps, p.bounded_steps) == ("bounded", 40, 40)

    def test_bounded_steps_use_the_decision_bound(self):
        # bounded_steps counts the leading steps within the bound the
        # decision applied: the budget's when it sets one.  At the golden
        # slope the first two steps have trace norms 1.547 and 1.998.
        r = commuting_elliptic()
        theta = math.atan(GOLDEN)
        budget = DecisionBudget(max_accel_steps=40, trace_bound=1.6)
        alpha, pair = chart_for(r, theta)
        trace = renorm_decision(pair, alpha, budget)
        assert trace.trace_bound == 1.6
        p = evaluate_slope(r, theta, budget)
        assert (p.verdict, p.bounded_steps) == ("undecided", 1)
        default = DecisionBudget(max_accel_steps=40)
        assert renorm_decision(pair, alpha, default).trace_bound == \
            trace_bound(trace_coords(pair).c) + 4.0
        assert evaluate_slope(r, theta, default).bounded_steps == 40

    def test_half_integer_slope(self):
        # tan theta = 1.5 gives alpha = 1/2, where the induction stops
        # before its first step.
        p = evaluate_slope(generic_elliptic(), math.atan(1.5))
        assert p.alpha == 0.5
        assert p.verdict in ("finite_in", "finite_out")

    def test_chi_requested(self):
        p = evaluate_slope(diag_rep(), math.atan(GOLDEN), chi_iters=2000)
        assert p.chi == pytest.approx(math.log(2.0), abs=1e-9)

    def test_scan_grid(self):
        res = scan_grid(generic_elliptic(), 0.3, 1.2, 16,
                        DecisionBudget(max_accel_steps=25))
        assert len(res.points) == 16
        thetas = [p.theta for p in res.points]
        assert thetas == sorted(thetas)
        for c in res.candidate_spectrum_points:
            assert c.verdict in ("bounded", "finite_in")

    def test_scan_grid_rejects_small_n(self):
        with pytest.raises(ValueError):
            scan_grid(generic_elliptic(), 0.3, 1.2, 1)


class TestRefine:
    def test_shallow_refine(self):
        res = refine_spectrum(generic_elliptic(), 0.3, 1.2, depth=6,
                              budget=DecisionBudget(max_accel_steps=25))
        assert res.points
        # Certified intervals carry hyperbolic endpoints with a shared step.
        by_theta = {p.theta: p for p in res.points}
        for iv in res.certified_hyperbolic_intervals:
            assert iv.theta_lo < iv.theta_hi
            for t in (iv.theta_lo, iv.theta_hi):
                assert by_theta[t].verdict == "hyperbolic"
                assert by_theta[t].steps == iv.at_step
        # No candidate sits strictly inside a certified interval.
        for c in res.candidate_spectrum_points:
            for iv in res.certified_hyperbolic_intervals:
                assert not iv.theta_lo < c.theta < iv.theta_hi

    def test_refine_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            refine_spectrum(generic_elliptic(), 0.3, 1.2, depth=0)


class TestLogMatrix:
    """Matrix2 products past the float range, which carry a log scale."""

    def test_roundtrip(self):
        # The scale moves into the exponent past 2^500 and back below it.
        big = diagonal(2.0).power(600)
        assert big.log_scale == pytest.approx(600.0 * math.log(2.0))
        assert max(abs(x) for x in big.entries()) == 1.0
        back = mul(big, diagonal(2.0).inv().power(300))
        assert back.log_scale == 0.0
        assert back.a == pytest.approx(2.0 ** 300, rel=1e-12)

    def test_power_trace(self):
        # diag(2, 1/2)^50 has trace 2^50 + 2^-50.
        m = diagonal(2.0).power(50)
        assert m.log_scale == 0.0
        assert m.log_abs_trace() == pytest.approx(50.0 * math.log(2.0), abs=1e-9)

    def test_matmul_matches_float(self):
        # [[2, 1], [1, 1]]^200 and ^250 fit in float64; their product
        # (entries near e^433) is scaled and agrees with the float product.
        m = Matrix2(2.0, 1.0, 1.0, 1.0)
        m1, m2 = m.power(200), m.power(250)
        prod = mul(m1, m2)
        assert (m1.log_scale, m2.log_scale) == (0.0, 0.0) and prod.log_scale > 0.0
        flt = (m1.a * m2.a + m1.b * m2.c, m1.a * m2.b + m1.b * m2.d,
               m1.c * m2.a + m1.d * m2.c, m1.c * m2.b + m1.d * m2.d)
        for x, y in zip(prod.entries(), flt):
            assert x * math.exp(prod.log_scale) == pytest.approx(y, rel=1e-12)
        assert prod.log_abs_trace() == pytest.approx(math.log(flt[0] + flt[3]))

    def test_huge_powers_finite(self):
        m = diagonal(3.0).power(5000)
        assert m.log_abs_trace() == pytest.approx(5000.0 * math.log(3.0))
        assert m.trace == math.inf
        assert classify(m).is_hyperbolic


class TestMCG:
    def test_twist_word_follows_runs(self):
        traj, _ = mcg_trajectory(generic_elliptic(), GOLDEN, 6)
        assert len(traj.twist_word) == 6
        letters = [w[0] for w in traj.twist_word]
        for i in range(1, len(letters)):
            assert letters[i] != letters[i - 1]
        assert all(n >= 1 for _, n in traj.twist_word)

    def test_matrices_are_twist_products(self):
        traj, _ = mcg_trajectory(generic_elliptic(), GOLDEN, 4)
        phi = ((1, 0), (0, 1))
        from rvcocycle.spectrum import TWIST_A, TWIST_B, _int_mul, _int_twist_power
        for (g, n), want in zip(traj.twist_word, traj.matrices):
            tw = _int_twist_power(TWIST_A if g == "a" else TWIST_B, n)
            phi = _int_mul(tw, phi)
            assert phi == want

    def test_norm_growth_vs_denominators(self):
        traj, _ = mcg_trajectory(generic_elliptic(), GOLDEN, 12)
        qs = traj.convergent_denominators
        for k, n in enumerate(traj.norms_l1, start=1):
            assert n >= qs[k - 1]

    def test_hyperbolic_witness_growth(self):
        traj, witness = mcg_trajectory(diag_rep(), GOLDEN, 25)
        assert isinstance(witness, HyperbolicityWitness)
        assert witness.mu == pytest.approx(2.0)
        qs = traj.convergent_denominators
        # Trace norms blow up like e^{C q_n} along the trajectory, far past
        # the float range (q_25 = 121393).
        assert all(math.isfinite(g) for g in witness.growth_log)
        for k in range(3, len(witness.growth_log)):
            assert witness.growth_log[k] >= 0.5 * math.log(2.0) * qs[k]

    def test_bounded_witness(self):
        _, witness = mcg_trajectory(commuting_elliptic(), GOLDEN, 10,
                                    DecisionBudget(max_accel_steps=40))
        assert isinstance(witness, BoundedWitness)
        from rvcocycle.cocycle import CocyclePair, trace_bound
        r = commuting_elliptic()
        tc = trace_coords(CocyclePair(r.A, r.B))
        assert witness.max_trace_norm <= trace_bound(tc.c) + 4.0

    def test_commuting_rotations_stay_rotations(self):
        # Near-rational angles [0; a_1, (a_2,) N + u] with N in 1000..3000:
        # the pulled-back pair of commuting rotations stays a pair of
        # rotations, so every trace norm stays at most 2.
        rng = random.Random(0)
        limit = math.log(2.0 + 1e-6)
        for _ in range(20):
            x = rng.randint(1000, 3000) + rng.uniform(0.1, 0.9)
            for a in [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]:
                x = a + 1.0 / x
            _, witness = mcg_trajectory(commuting_elliptic(), 1.0 / x, 40,
                                        DecisionBudget(max_accel_steps=40))
            assert len(witness.growth_log) == min(40, exact_run_count(1.0 / x))
            assert max(witness.growth_log) <= limit, f"alpha={1.0 / x!r}"

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            mcg_trajectory(generic_elliptic(), GOLDEN, 0)
