import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
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
    ORBIT_CHUNK,
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


def criterion6_draws(n):
    """The first n (pair, alpha) draws of criterion 6 (seed 42)."""
    rng = random.Random(42)
    draws = []
    while len(draws) < n:
        p = CocyclePair(random_unimodular(rng), random_unimodular(rng))
        if trace_coords(p).c <= 2.0:
            continue
        alpha = rng.uniform(0.05, 0.95)
        if abs(alpha - 0.5) >= 1e-3:
            draws.append((p, alpha))
    return draws


def exact_runs(alpha):
    """Runs (a_1 - 1, a_2, ..., a_n - 1) of the exact value of alpha, as
    (winner value, length) with winners alternating from bottom; empty
    runs dropped.  Digits from the Gauss map on a Fraction."""
    x = Fraction(alpha)
    lengths = []
    while x:
        inv = 1 / x
        lengths.append(int(inv))
        x = inv - int(inv)
    lengths[0] -= 1
    lengths[-1] -= 1
    return [("b" if i % 2 == 0 else "t", n)
            for i, n in enumerate(lengths) if n > 0]


def mp_pairs(p, runs, dps):
    """The pair moved by each prefix of runs, in dps-digit mpmath: a bottom
    run of length n is (A, B A^n), a top run (B^n A, B)."""
    with mpmath.workdps(dps):
        a = mpmath.matrix([[p.A.a, p.A.b], [p.A.c, p.A.d]])
        b = mpmath.matrix([[p.B.a, p.B.b], [p.B.c, p.B.d]])
        out = []
        for winner, n in runs:
            if winner == "b":
                b = b * a ** n
            else:
                a = b ** n * a
            out.append((a, b))
    return out


def mp_maps_arc_inside(m, lo, hi, dps):
    """Whether m sends the counterclockwise arc [lo, hi] (chart t -> (cos
    t/2, sin t/2)) strictly inside itself: the images of lo, the midpoint
    and hi lie strictly inside, in that order."""
    with mpmath.workdps(dps):
        two_pi = 2 * mpmath.pi
        width = (mpmath.mpf(hi) - lo) % two_pi
        pos = []
        for t in (lo, lo + width / 2, lo + width):
            v = m * mpmath.matrix([mpmath.cos(t / 2), mpmath.sin(t / 2)])
            pos.append((2 * mpmath.atan2(v[1], v[0]) - lo) % two_pi)
        return all(0 < x < width for x in pos) and pos[0] < pos[1] < pos[2]


def reference_exponent(p, alpha, n_iters, n_samples, seed):
    """The per-step estimate: v -> rho(x) v along each orbit, renormalized
    every 32 steps.  Returns (chi, stderr) as direct_exponent does."""
    rng = np.random.default_rng(seed)
    split = 1.0 - alpha
    x = rng.random(n_samples)
    at = np.array([[p.A.a, p.A.b], [p.A.c, p.A.d]]).T
    bt = np.array([[p.B.a, p.B.b], [p.B.c, p.B.d]]).T
    v = np.zeros((n_samples, 2))
    v[:, 0] = 1.0
    logsum = np.zeros(n_samples)
    done = 0
    while done < n_iters:
        block = min(32, n_iters - done)
        xs = (x[None, :] + np.arange(block)[:, None] * alpha) % 1.0
        in_a = xs <= split
        for j in range(block):
            v = np.where(in_a[j][:, None], v @ at, v @ bt)
        x = (x + block * alpha) % 1.0
        norms = np.sqrt(np.sum(v * v, axis=1))
        logsum += np.log(norms)
        v /= norms[:, None]
        done += block
    per = logsum / n_iters
    stderr = per.std(ddof=1) / math.sqrt(n_samples) if n_samples > 1 else 0.0
    return max(float(per.mean()), 0.0), float(stderr)


def reference_audit(p, alpha, n_check, x0=0.2137):
    """The per-step boundedness audit: the full orbit product from x0, the
    largest log||product_n|| / n over the checkpoints."""
    checkpoints = set()
    n = n_check
    while n >= min(1000, n_check):
        checkpoints.add(n)
        n //= 2
    split = 1.0 - alpha
    a = np.array([[p.A.a, p.A.b], [p.A.c, p.A.d]])
    b = np.array([[p.B.a, p.B.b], [p.B.c, p.B.d]])
    prod = np.eye(2)
    log_scale = 0.0
    x = x0 % 1.0
    worst = -math.inf
    for k in range(1, n_check + 1):
        prod = (a if x <= split else b) @ prod
        x = (x + alpha) % 1.0
        nrm = np.linalg.norm(prod, 2)
        if nrm > 1e100 or nrm < 1e-100:
            log_scale += math.log(nrm)
            prod /= nrm
            nrm = 1.0
        if k in checkpoints:
            worst = max(worst, (log_scale + math.log(nrm)) / k)
    return worst


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

    def test_rejects_bad_samples(self):
        for n_samples in (0, -1):
            with pytest.raises(ValueError, match="n_samples"):
                direct_exponent(commuting_hyperbolic(), Rotation2IET(GOLDEN),
                                100, n_samples=n_samples)

    def test_matches_per_step_reference(self):
        # Chunk boundaries and tails: 1 step, below and at a 32-step block,
        # either side of one chunk, and a one-step tail after four chunks.
        assert ORBIT_CHUNK == 1024
        for p, alpha in criterion6_draws(20):
            t = Rotation2IET(alpha)
            for n_iters in (1, 31, 32, 1023, 1025, 4097):
                for n_samples in (1, 8):
                    for seed in (0, 5):
                        est = direct_exponent(p, t, n_iters, n_samples, seed)
                        chi, stderr = reference_exponent(p, alpha, n_iters,
                                                         n_samples, seed)
                        where = (alpha, n_iters, n_samples, seed)
                        assert abs(est.chi - chi) <= 1e-9, where
                        assert abs(est.stderr - stderr) <= 1e-9, where

    def test_products_stay_in_range(self):
        # A rotation divided by its largest entry has norm up to sqrt 2, so
        # about 2048 such factors pass the float range unless every tree
        # level is rescaled; [[N, N], [N, N + 1/N]] divided by N has norm 2,
        # and a chunk of 1024 of them passes it.  The lengths leave tails of
        # 672, 1, 952, 476 and 777 steps after the last full chunk.
        t = Rotation2IET(GOLDEN)
        for n_iters in (100_000, 4097, 3000):
            est = direct_exponent(commuting_elliptic(), t, n_iters)
            assert math.isfinite(est.chi) and est.chi <= 1e-9, n_iters
            assert math.isfinite(est.stderr)
        for n_iters in (4097, 1500, 777):
            est = direct_exponent(commuting_hyperbolic(), t, n_iters)
            assert est.chi == pytest.approx(math.log(2.0), abs=1e-12), n_iters
        big = 1e100
        m = Matrix2(big, big, big, big + 1.0 / big)
        for n_iters in (4097, 1500):
            # The entries are [[1, 1], [1, 1]] to float precision, so
            # |m^n e_1| = sqrt(2) (2 big)^n / 2.
            est = direct_exponent(CocyclePair(m, m), t, n_iters)
            want = math.log(2.0 * big) - math.log(2.0) / (2 * n_iters)
            assert est.chi == pytest.approx(want, abs=1e-9), n_iters

    def test_large_entries_stay_finite(self):
        # |v| passed 1e154 within a 32-step block and v.v overflowed to NaN.
        big = CocyclePair(diagonal(1e5), diagonal(1e5))
        est = direct_exponent(big, Rotation2IET(0.3), 1000)
        assert est.chi == pytest.approx(math.log(1e5), abs=1e-9)
        assert est.stderr == pytest.approx(0.0, abs=1e-9)
        # Unnormalized letters of 1e200 would overflow the first tree level.
        huge = CocyclePair(diagonal(1e200), diagonal(1e200))
        est = direct_exponent(huge, Rotation2IET(0.3), 1000)
        assert est.chi == pytest.approx(math.log(1e200), abs=1e-9)


class TestBudget:
    def test_defaults(self):
        b = DecisionBudget()
        assert b.max_accel_steps == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionBudget(max_accel_steps=0)
        with pytest.raises(ValueError):
            DecisionBudget(trace_bound=-1.0)
        # NaN compares false with everything, so it would never be exceeded.
        for bound in (math.nan, math.inf):
            with pytest.raises(ValueError):
                DecisionBudget(trace_bound=bound)


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


class TestExactDigits:
    @pytest.mark.parametrize("draw, kind, at_step", [
        (10, "FiniteOrder", 29),
        (100, "FiniteOrder", 30),
        (165, "UniformlyHyperbolic", 16),
    ])
    def test_deep_verdicts_match_mpmath(self, draw, kind, at_step):
        # Criterion 6's draws whose float runs once left the expansion of
        # alpha: they were certified at steps 33, 41 and 49 on pairs that a
        # 60-digit product over the true digits put elsewhere.  Now every
        # run is exact, and the verdict agrees with a 60-digit mpmath
        # product over the exact runs (which agrees with a 120-digit one):
        # the moved matrix that FiniteOrder tests has the same membership,
        # and both matrices of the absorbing pair are hyperbolic and map
        # the certified arc strictly inside.
        p, alpha = criterion6_draws(draw)[-1]
        trace = renorm_decision(p, alpha, DecisionBudget(max_accel_steps=60))
        v = trace.verdict
        assert (v.kind, v.at_step) == (kind, at_step)
        runs = exact_runs(alpha)
        assert [(s.winner.value, s.digit) for s in trace.steps] == runs[:at_step]
        a, b = mp_pairs(p, runs[:at_step], 60)[-1]
        a2, b2 = mp_pairs(p, runs[:at_step], 120)[-1]
        with mpmath.workdps(60):
            for m, m2 in ((a, a2), (b, b2)):
                err = mpmath.mnorm(m - m2, 1)
                assert err <= mpmath.mpf(10) ** -40 * mpmath.mnorm(m2, 1)
            tr_a, tr_b = a[0, 0] + a[1, 1], b[0, 0] + b[1, 1]
            if kind == "FiniteOrder":
                assert len(runs) == at_step
                last = trace.steps[-1].winner
                tr = tr_a if last is Winner.BOTTOM else tr_b
                assert v.spectrum_member == (abs(tr) <= 2)
            else:
                assert abs(tr_a) > 2 and abs(tr_b) > 2
                c = v.certificate
                assert mp_maps_arc_inside(a, c.arc_lo, c.arc_hi, 60)
                assert mp_maps_arc_inside(b, c.arc_lo, c.arc_hi, 60)

    def test_long_first_run_is_undecided_at_once(self):
        # The first run is a_1 - 1 = 10^6 + 1, past max_digit: integer
        # Euclid finds it without taking the 10^6 elementary steps.
        start = time.perf_counter()
        trace = renorm_decision(commuting_elliptic(), 1.0 / (1e6 + 2.5))
        elapsed = time.perf_counter() - start
        assert trace.verdict.kind == "Undecided"
        assert trace.verdict.budget_note == "run length exceeded max_digit"
        assert trace.steps == ()
        assert elapsed < 0.1


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
        # The golden float has 53 exact digits (52 runs), so the default
        # 60-step budget reaches the end of its expansion.
        v = renorm_decision(p, GOLDEN).verdict
        assert (v.kind, v.at_step, v.spectrum_member) == ("FiniteOrder", 52, True)
        trace = renorm_decision(p, GOLDEN, DecisionBudget(max_accel_steps=40))
        assert trace.verdict.kind == "CertifiedBounded"
        rate = boundedness_implies_zero(p, t, trace, 20000)
        assert rate < 5e-3

    def test_boundedness_audit_matches_per_step_reference(self):
        p = commuting_elliptic()
        trace = renorm_decision(p, GOLDEN, DecisionBudget(max_accel_steps=40))
        assert trace.verdict.kind == "CertifiedBounded"
        for alpha in (GOLDEN, math.pi - 3.0):
            for n_check in (999, 1000, 20000):
                got = boundedness_implies_zero(p, Rotation2IET(alpha), trace,
                                               n_check)
                want = reference_audit(p, alpha, n_check)
                assert abs(got - want) <= 1e-9, (alpha, n_check)
        # The audit reads only the verdict kind, so a growing product can
        # be compared too.
        g = generic_elliptic()
        for n_check in (999, 1000, 20000):
            got = boundedness_implies_zero(g, Rotation2IET(GOLDEN), trace,
                                           n_check)
            assert abs(got - reference_audit(g, GOLDEN, n_check)) <= 1e-9

    def test_boundedness_audit_requires_bounded(self):
        trace = renorm_decision(commuting_hyperbolic(), GOLDEN)
        with pytest.raises(ValueError):
            boundedness_implies_zero(commuting_hyperbolic(),
                                     Rotation2IET(GOLDEN), trace, 1000)
