import json
import math
import random
import statistics
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from rvcocycle import lyapunov, spectrum
from rvcocycle.cocycle import (
    CocyclePair,
    DegeneratePairError,
    classify_pair,
    trace_bound,
    trace_coords,
)
from rvcocycle.iet import (
    BudgetExceededError,
    Rotation2IET,
    Winner,
    continued_fraction,
    run_steps,
)
from rvcocycle.lyapunov import DecisionBudget, renorm_decision
from rvcocycle.mat2 import Matrix2, classify, diagonal, mul, rotation
from rvcocycle.spectrum import (
    BoundedWitness,
    ChartBoundaryError,
    HyperbolicityWitness,
    MCGTrajectory,
    Representation,
    chart_for,
    evaluate_slope,
    mcg_trajectory,
    refine_spectrum,
    scan_grid,
)
from reference_walk import renorm_runs

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def generic_elliptic():
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    return Representation(rotation(1.0), mul(mul(m, rotation(0.9)), m.inv()))


def commuting_elliptic():
    return Representation(rotation(1.0), rotation(math.sqrt(2.0)))


def diag_rep():
    return Representation(diagonal(2.0), diagonal(2.0))


def parabolic_after_two():
    """R(1) and P R(-2), P = ((1, 1), (0, 1)): an EE pair that a first
    Bottom run of 2 moves to (R(1), P), up to rounding, a degenerate pair."""
    return Representation(rotation(1.0),
                          mul(Matrix2(1.0, 1.0, 0.0, 1.0), rotation(-2.0)))


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


TWIST_A = ((1, 1), (0, 1))   # Dehn twist along generator a
TWIST_B = ((1, 0), (1, 1))   # twist along b (transpose convention)


def _int_mul(m1, m2):
    return ((m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
             m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
            (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
             m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]))


def _int_twist_power(twist, n: int):
    if twist is TWIST_A:
        return ((1, n), (0, 1))
    return ((1, 0), (n, 1))


def _l1(m) -> int:
    return abs(m[0][0]) + abs(m[0][1]) + abs(m[1][0]) + abs(m[1][1])


def reference_mcg_trajectory(rep, alpha, n_steps, budget=None):
    """mcg_trajectory as it was: the twist word from one walk of the
    induction, then renorm_decision walking it again."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    pair = CocyclePair(rep.A, rep.B)
    t0 = classify_pair(pair)
    if t0.is_degenerate:
        raise DegeneratePairError(t0.reason)
    if budget is None:
        budget = DecisionBudget()
    phi = ((1, 0), (0, 1))
    word, mats, norms, growth = [], [], [], []
    for winner, run_len, cur in renorm_runs(pair, alpha, budget.max_digit):
        gen, twist = ("a", TWIST_A) if winner is Winner.BOTTOM else ("b", TWIST_B)
        word.append((gen, run_len))
        phi = _int_mul(_int_twist_power(twist, run_len), phi)
        mats.append(phi)
        norms.append(_l1(phi))
        growth.append(max(cur.A.log_abs_trace(), cur.B.log_abs_trace(),
                          mul(cur.A, cur.B).log_abs_trace()))
        if len(word) >= n_steps:
            break
    cf = continued_fraction(alpha, max_digits=len(word) + 2)
    qs = cf.convergent_denominators[:len(word) + 1]
    traj = MCGTrajectory(twist_word=tuple(word), matrices=tuple(mats),
                         norms_l1=tuple(norms),
                         convergent_denominators=tuple(qs))
    v = renorm_decision(pair, alpha, budget).verdict
    if v.kind == "UniformlyHyperbolic":
        mu = v.certificate.expansion_factor if v.certificate else math.nan
        witness = HyperbolicityWitness(step_index=v.at_step, mu=mu,
                                       growth_log=tuple(growth))
    elif v.kind == "CertifiedBounded":
        witness = BoundedWitness(max_trace_norm=v.max_trace_norm,
                                 growth_log=tuple(growth))
    elif v.kind == "FiniteOrder" and v.spectrum_member:
        witness = BoundedWitness(max_trace_norm=math.nan,
                                 growth_log=tuple(growth))
    else:
        witness = HyperbolicityWitness(step_index=len(word), mu=math.nan,
                                       growth_log=tuple(growth))
    return traj, witness


def mcg_outcome(f, rep, alpha, n_steps, budget):
    """The trajectory and witness of f, or the error it raised, as text
    (repr keeps NaN comparable)."""
    try:
        traj, witness = f(rep, alpha, n_steps, budget)
    except (BudgetExceededError, DegeneratePairError) as exc:
        return type(exc).__name__, str(exc)
    return repr(traj), repr(witness)


def from_digits(digits):
    """The continued fraction [0; digits...] as a Fraction."""
    x = Fraction(0)
    for a in reversed(digits):
        x = 1 / (a + x)
    return x


def near_rational(prefix, big):
    """[0; prefix..., big + 1/3] as a float."""
    return float(from_digits(prefix + [big + Fraction(1, 3)]))


class TestRepresentation:
    def test_commutator_trace(self):
        assert diag_rep().c == pytest.approx(2.0)
        assert generic_elliptic().c > 2.0

    def test_is_the_cocycle_pair(self):
        # A representation is its pair of generators: one type for both.
        assert Representation is CocyclePair

    def test_commutator_trace_reads_trace_coords(self):
        for rep in (diag_rep(), generic_elliptic(), commuting_elliptic()):
            assert rep.c == trace_coords(rep).c


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
        # The chart of (B, A) at pi/2 - theta presents the same foliation
        # with the generator roles exchanged; membership verdicts must
        # match even though the matrices differ.
        r = generic_elliptic()
        reflected = Representation(r.B, r.A)
        budget = DecisionBudget(max_accel_steps=30)
        for theta in (0.35, 0.8, 1.1, 1.35):
            p_tan = evaluate_slope(r, theta, budget)
            p_cot = evaluate_slope(reflected, math.pi / 2.0 - theta, budget)
            in_tan = p_tan.verdict in ("bounded", "finite_in")
            in_cot = p_cot.verdict in ("bounded", "finite_in")
            if "undecided" in (p_tan.verdict, p_cot.verdict):
                continue
            if "degenerate" in (p_tan.verdict, p_cot.verdict):
                continue
            assert in_tan == in_cot, f"theta={theta}"


class TestEvaluateAndScan:
    def test_nan_trace_bound_cannot_certify(self):
        # With the bound 2 this slope is undecided after 3 steps; a NaN
        # bound used to be accepted and certified it bounded.
        r = generic_elliptic()
        p = evaluate_slope(r, 0.9, DecisionBudget(max_accel_steps=3,
                                                  trace_bound=2.0))
        assert p.verdict == "undecided"
        with pytest.raises(ValueError):
            evaluate_slope(r, 0.9, DecisionBudget(max_accel_steps=3,
                                                  trace_bound=math.nan))

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

    # (alpha, n_steps): 3/8 = [0; 2, 1, 2] ends on its third run, a_3 - 1;
    # 61/64 = [0; 1, 20, 3] has a_1 = 1 and ends on its second run; 1/2
    # has no run; 1/3 and 2/7 have a_1 >= 2 and end within n_steps.
    DENOMINATOR_CASES = [(0.375, 3), (0.375, 2), (0.953125, 2), (0.953125, 1),
                         (0.5, 4), (Fraction(1, 3), 1), (Fraction(2, 7), 5),
                         (Fraction(61, 64), 40), (GOLDEN, 1), (GOLDEN, 40),
                         (0.4142135623730951, 1), (0.4142135623730951, 80)]

    @pytest.mark.parametrize("alpha, n_steps", DENOMINATOR_CASES)
    def test_denominators_read_off_the_twists(self, alpha, n_steps):
        traj, _ = mcg_trajectory(diag_rep(), alpha, n_steps)
        n = len(traj.twist_word)
        want = continued_fraction(alpha, max_digits=n + 2).convergent_denominators
        assert traj.convergent_denominators == want[:n + 1]

    def test_denominators_on_random_angles(self):
        rng = random.Random(27)
        budget = DecisionBudget(max_digit=10**18)
        angles = [rng.random() for _ in range(150)] + [
            Fraction(rng.randint(1, 999), 1000) for _ in range(150)]
        ends, first_ones = 0, 0
        for alpha in angles:
            runs = [n for _, n in run_steps(Rotation2IET(alpha))]
            first_ones += alpha > 0.5
            for n_steps in (1, 2, 3, 7, len(runs) - 1, len(runs), len(runs) + 1):
                if n_steps < 1:
                    continue
                traj, _ = mcg_trajectory(diag_rep(), alpha, n_steps, budget)
                n = len(traj.twist_word)
                ends += n == len(runs)
                want = continued_fraction(alpha, max_digits=n + 2)
                assert traj.convergent_denominators == \
                    want.convergent_denominators[:n + 1], (alpha, n_steps)
        assert ends > 300 and first_ones > 100

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            mcg_trajectory(generic_elliptic(), GOLDEN, 0)

    def test_entries_past_the_float_square(self):
        # A letter with an entry of 1e200 is scaled before its first
        # square, which would pass the float range; B A^2 is hyperbolic.
        rep = Representation(Matrix2(1e200, 0.0, 0.0, 1e-200), rotation(1.0))
        traj, witness = mcg_trajectory(rep, 0.3, 3)
        assert traj.twist_word == (("a", 2), ("b", 2), ("a", 1))
        assert isinstance(witness, HyperbolicityWitness)
        assert witness.step_index == 1 and witness.mu > 1.0
        assert all(math.isfinite(g) for g in witness.growth_log)


class TestMCGWalksOnce:
    """mcg_trajectory and its decision read one table of the induction, so
    it must match the two-walk reference in every outcome."""

    REPS = {"commuting-elliptic": commuting_elliptic,
            "generic-elliptic": generic_elliptic, "diagonal": diag_rep,
            "parabolic-after-two": parabolic_after_two}
    # The first angle starts with a Bottom run of 2, which moves
    # parabolic-after-two to a degenerate pair, and has runs of 2174 and 380
    # after it.  The second has the same first 22 digits (so the same pairs
    # up to run 22), then a run of 5000.
    ALPHAS = (0.25002873398134745,
              from_digits([3, 1, 2174, 2, 1, 2, 380, 1, 1, 1, 2, 1, 1, 11, 11,
                           1, 4, 1, 1, 3, 6, 5, 5000, 2, 3]),
              GOLDEN, near_rational([2, 3], 1500), near_rational([1], 40),
              0.4142135623730951, 0.6180339887)

    def cases(self):
        for name, rep in self.REPS.items():
            for alpha in self.ALPHAS:
                runs = [n for _, n in run_steps(Rotation2IET(alpha))]
                # Caps that stop the walk at its largest runs, and just
                # after the first 21 and 40 runs.
                caps = sorted({n - 1 for n in runs if n > 1})[-3:] + [
                    max(runs[:k]) for k in (21, 40)]
                for max_digit in [10**6] + caps:
                    for max_steps in (1, 4, 21, 60):
                        budget = DecisionBudget(max_accel_steps=max_steps,
                                                max_digit=max_digit)
                        for n_steps in (1, 3, 20, 21, 22, 40, 70):
                            yield name, rep(), alpha, n_steps, budget

    def test_matches_two_walk_reference(self):
        seen = set()
        for name, rep, alpha, n_steps, budget in self.cases():
            want = mcg_outcome(reference_mcg_trajectory, rep, alpha, n_steps, budget)
            got = mcg_outcome(mcg_trajectory, rep, alpha, n_steps, budget)
            assert got == want, (name, alpha, n_steps, budget)
            try:
                v = renorm_decision(CocyclePair(rep.A, rep.B), alpha, budget).verdict
            except DegeneratePairError:
                seen.add("degenerate")
                if want[0] == "BudgetExceededError":
                    seen.add("degenerate, then max_digit inside n_steps")
                continue
            if v.kind == "UniformlyHyperbolic" and v.at_step < n_steps:
                seen.add("HH+ before n_steps")
            if budget.max_accel_steps < n_steps:
                seen.add("step budget below n_steps")
            if want[0] == "BudgetExceededError":
                seen.add("max_digit inside n_steps")
            elif v.kind == "Undecided" and "max_digit" in v.budget_note:
                seen.add("max_digit after n_steps")
        assert seen == {"degenerate", "degenerate, then max_digit inside n_steps",
                        "HH+ before n_steps",
                        "step budget below n_steps", "max_digit inside n_steps",
                        "max_digit after n_steps"}

    def test_random_pairs_match_reference(self):
        rng = random.Random(9)

        def letter():
            while True:
                e = [rng.uniform(-2.0, 2.0) for _ in range(4)]
                if e[0] * e[3] - e[1] * e[2] > 0.05:
                    return Matrix2(*e)

        for _ in range(150):
            rep = Representation(letter(), letter())
            alpha = rng.uniform(0.05, 0.95)
            budget = DecisionBudget(max_accel_steps=rng.randint(1, 60),
                                    max_digit=rng.choice((3, 10, 10**6)))
            n_steps = rng.randint(1, 70)
            assert (mcg_outcome(mcg_trajectory, rep, alpha, n_steps, budget)
                    == mcg_outcome(reference_mcg_trajectory, rep, alpha,
                                   n_steps, budget))

    def test_one_level_per_walked_run(self, monkeypatch):
        # The trajectory and the decision read one table: its levels are
        # formed once, as far as the longer of the two walks, and no further.
        tables = []

        class Recorded(lyapunov._Induction):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(spectrum, "_Induction", Recorded)
        checked = 0
        for _, rep, alpha, n_steps, budget in self.cases():
            pair = CocyclePair(rep.A, rep.B)
            try:
                steps = renorm_decision(pair, alpha, budget).steps
                tables.clear()
                traj, _ = mcg_trajectory(rep, alpha, n_steps, budget)
            except (BudgetExceededError, DegeneratePairError):
                continue
            decision_runs = sum(s.winner is not None for s in steps)
            (table,) = tables
            walked = max(len(traj.twist_word), decision_runs)
            assert len(table.letters) == 1 + walked
            checked += 1
        assert checked > 100


# Exact goldens of mcg_trajectory: every output bit, as float.hex strings
# where TestDecisionGoldens allows 1e-12, so that a change meant to keep
# the output keeps it bit for bit.  Recorded on x86-64 Linux with glibc: a
# libm that rounds sin, cos or log differently moves them.
TRAJECTORIES_PATH = Path(__file__).parent / "data" / "mcg_trajectories.json"
TRAJECTORY_REPS = {"commuting-elliptic": commuting_elliptic,
                   "generic-elliptic": generic_elliptic}
TRAJECTORY_STEPS = 40
TRAJECTORY_BUDGET = DecisionBudget(max_accel_steps=60)


def trajectory_angles():
    """8 generic angles, then 16 near-rational ones [0; a_1, N + u] with
    N in 1000..3000, a_1 in 1..4 and u in (0.1, 0.9)."""
    rng = random.Random(7)
    angles = [rng.uniform(0.05, 0.95) for _ in range(8)]
    for _ in range(16):
        a1, big = rng.randint(1, 4), rng.randint(1000, 3000)
        angles.append(float(from_digits([a1, big + Fraction(rng.uniform(0.1, 0.9))])))
    return angles


def trajectory_record(name, alpha):
    """mcg_trajectory's output on one case, with every float as float.hex."""
    traj, witness = mcg_trajectory(TRAJECTORY_REPS[name](), alpha,
                                   TRAJECTORY_STEPS, TRAJECTORY_BUDGET)
    record = {"fixture": name, "alpha": alpha.hex(),
              "word": [list(w) for w in traj.twist_word],
              "matrices": [[list(row) for row in m] for m in traj.matrices],
              "q": list(traj.convergent_denominators)}
    if isinstance(witness, HyperbolicityWitness):
        record["witness"] = ["hyperbolic", witness.step_index, witness.mu.hex()]
    else:
        record["witness"] = ["bounded", witness.max_trace_norm.hex()]
    record["growth"] = [g.hex() for g in witness.growth_log]
    return record, traj


@pytest.fixture(scope="module")
def recorded():
    return json.loads(TRAJECTORIES_PATH.read_text())


class TestTrajectoryGoldens:
    def test_angles_are_the_recorded_ones(self, recorded):
        assert [(r["fixture"], r["alpha"]) for r in recorded] == \
            [(name, a.hex()) for name in TRAJECTORY_REPS for a in trajectory_angles()]

    def test_cases_cover_both_witnesses_and_long_runs(self, recorded):
        kinds = {(r["fixture"], r["witness"][0]) for r in recorded}
        assert kinds == {("commuting-elliptic", "bounded"),
                         ("generic-elliptic", "hyperbolic")}
        # The decision of a hyperbolic case stops before the trajectory does,
        # so the trajectory forms its later levels' trace coordinates itself.
        assert any(r["witness"][1] < len(r["word"]) for r in recorded
                   if r["witness"][0] == "hyperbolic")
        near = [r for i, r in enumerate(recorded) if i % 24 >= 8]
        assert all(max(n for _, n in r["word"]) >= 1000 for r in near)

    @pytest.mark.parametrize("i", range(2 * 24))
    def test_matches_recorded_bits(self, recorded, i):
        want = recorded[i]
        got, traj = trajectory_record(want["fixture"], float.fromhex(want["alpha"]))
        assert got == want
        assert list(traj.norms_l1) == [sum(map(sum, m)) for m in want["matrices"]]

    def test_commuting_elliptic_growth_is_near_exact(self, recorded):
        # A word in the commuting rotations R(1) and R(sqrt 2) with m and n
        # of them is R(m + n sqrt 2), so each growth log of these records is
        # exactly the largest log |2 cos| of A_k, B_k and A_k B_k, taken here
        # in 60-digit mpmath at the levels whose words have fewer than 1e6
        # letters (198 values).  The median error was 3.2e-13 while each
        # product was rescaled whenever its det passed 1e-9 of 1, and is
        # 8.4e-14 with the det rule applied once per level.
        errors = []
        with mpmath.workdps(60):
            sqrt2 = mpmath.sqrt(2)
            for r in recorded:
                if r["fixture"] != "commuting-elliptic":
                    continue
                got, _ = trajectory_record(r["fixture"], float.fromhex(r["alpha"]))
                (ma, na), (mb, nb) = (1, 0), (0, 1)
                for (gen, run), growth in zip(got["word"], got["growth"]):
                    if gen == "a":
                        mb, nb = mb + run * ma, nb + run * na
                    else:
                        ma, na = ma + run * mb, na + run * nb
                    if ma + na + mb + nb >= 10**6:
                        break
                    exact = max(mpmath.log(abs(2 * mpmath.cos(m + n * sqrt2)))
                                for m, n in ((ma, na), (mb, nb), (ma + mb, na + nb)))
                    errors.append(abs(float.fromhex(growth) - float(exact)))
        assert len(errors) > 150
        assert statistics.median(errors) < 1.5e-13


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_spectrum.py rewrites the goldens;
    # only for an intended change of mcg_trajectory's output.
    records = [trajectory_record(name, alpha)[0]
               for name in TRAJECTORY_REPS for alpha in trajectory_angles()]
    TRAJECTORIES_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
