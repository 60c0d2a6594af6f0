import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rvcocycle.cocycle import (
    CocyclePair,
    DegeneratePairError,
    classify_pair,
    trace_bound,
    trace_coords,
)
from rvcocycle.hypgeom import hh_minus_canonical_pair
from rvcocycle.iet import Rotation2IET, Winner, continued_fraction
from rvcocycle.lyapunov import (
    DecisionBudget,
    PrecisionError,
    Reason,
    _decide,
    _exact_points,
    _Induction,
    _orbit_factors,
    _orbit_levels,
    _orbit_product,
    StepRecord,
    bounded_prefix,
    direct_exponent,
    exponent_lower_bound,
    exponent_upper_bound,
    renorm_decision,
)
from rvcocycle.mat2 import Matrix2, NonUnimodularError, diagonal, mul, rotation
from reference_exact import level_types
from reference_walk import renorm_runs, winner_move

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def commuting_hyperbolic():
    return CocyclePair(diagonal(2.0), diagonal(2.0))


def commuting_elliptic():
    return CocyclePair(rotation(1.0), rotation(math.sqrt(2.0)))


def generic_elliptic():
    m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
    return CocyclePair(rotation(1.0), mul(mul(m, rotation(0.9)), m.inv()))


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


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


def mp_log_norm(p, alpha, n, x0, dps):
    """log ||rho_n(x0)|| in dps-digit mpmath, on the exact points of the
    orbit of x0: one product per step, the 2-norm from the Frobenius norm
    and the determinant."""
    step, x = Fraction(alpha), Fraction(x0)
    with mpmath.workdps(dps):
        a, b = ([mpmath.mpf(e) for e in m.entries()] for m in (p.A, p.B))
        prod = [mpmath.mpf(1), 0, 0, mpmath.mpf(1)]
        for _ in range(n):
            m = a if x < 1 - step else b
            p0, p1, p2, p3 = prod
            prod = [m[0] * p0 + m[1] * p2, m[0] * p1 + m[1] * p3,
                    m[2] * p0 + m[3] * p2, m[2] * p1 + m[3] * p3]
            x = (x + step) % 1
        f = sum(e * e for e in prod)
        det = prod[0] * prod[3] - prod[1] * prod[2]
        return float(mpmath.log(mpmath.sqrt((f + mpmath.sqrt(f * f - 4 * det**2)) / 2)))


def mp_period_exponent(p, alpha, dps):
    """log rho(W) / q for the rational alpha = a / q, with W the period
    product rho_q(0) formed one step at a time in dps-digit mpmath: the
    exponent of the periodic cocycle, the same from every start."""
    q, x = alpha.denominator, Fraction(0)
    with mpmath.workdps(dps):
        a, b = ([mpmath.mpf(e) for e in m.entries()] for m in (p.A, p.B))
        w = [mpmath.mpf(1), 0, 0, mpmath.mpf(1)]
        for _ in range(q):
            m = a if x < 1 - alpha else b
            p0, p1, p2, p3 = w
            w = [m[0] * p0 + m[1] * p2, m[0] * p1 + m[1] * p3,
                 m[2] * p0 + m[3] * p2, m[2] * p1 + m[3] * p3]
            x = (x + alpha) % 1
        tr, det = w[0] + w[3], w[0] * w[3] - w[1] * w[2]
        disc = tr * tr - 4 * det
        rho = (abs(tr) + mpmath.sqrt(disc)) / 2 if disc > 0 else mpmath.sqrt(det)
        return float(mpmath.log(rho) / q)


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
    """The per-step estimate: the orbit product rho_n(x) = rho(x_{n-1}) ...
    rho(x_0) from each start drawn by random.Random(seed), renormalized
    every 32 steps, and log of its 2-norm over n.  Returns (chi, stderr) as
    direct_exponent does."""
    rng = random.Random(seed)
    split = 1.0 - alpha
    x = np.array([rng.random() for _ in range(n_samples)])
    a = np.array([[p.A.a, p.A.b], [p.A.c, p.A.d]])
    b = np.array([[p.B.a, p.B.b], [p.B.c, p.B.d]])
    prod = np.broadcast_to(np.eye(2), (n_samples, 2, 2))
    logsum = np.zeros(n_samples)
    done = 0
    while done < n_iters:
        block = min(32, n_iters - done)
        xs = (x[None, :] + np.arange(block)[:, None] * alpha) % 1.0
        in_a = xs <= split
        for j in range(block):
            prod = np.where(in_a[j][:, None, None], a @ prod, b @ prod)
        x = (x + block * alpha) % 1.0
        top = np.abs(prod).max(axis=(1, 2))
        logsum += np.log(top)
        prod = prod / top[:, None, None]
        done += block
    per = (logsum + np.log(np.linalg.norm(prod, 2, axis=(1, 2)))) / n_iters
    stderr = per.std(ddof=1) / math.sqrt(n_samples) if n_samples > 1 else 0.0
    return max(float(per.mean()), 0.0), float(stderr)


def level_table(p, alpha, n, xs=()):
    """The levels of direct_exponent's orbit walk for n-step orbits from xs,
    and the starts as exact points."""
    unit, starts = _exact_points(alpha, xs)
    return _orbit_levels(_Induction(p, alpha), n, unit), unit, starts


def factor_words(levels):
    """The word in base letters ("a", "b", in the order they act) of every
    matrix of a level table, by id, built from the runs alone: a Bottom
    run of r makes B_k A_k^r the next B, a Top run B_k^r A_k the next A."""
    words = {}
    a, b = "a", "b"
    for lv, nxt in zip(levels, levels[1:] + [None]):
        for m, w in zip(lv.letters, (a, b)):
            if m is not None:
                words[id(m)] = w
        rep = b if lv.winner is Winner.TOP else a
        for e, m in enumerate(lv.powers):
            words[id(m)] = rep * 2**e
        if lv.winner is Winner.BOTTOM:
            b = a * lv.run + b if nxt.letters[1] is not None else None
        elif lv.winner is Winner.TOP:
            a = a + b * lv.run if nxt.letters[0] is not None else None
    return words


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
        # 1 step, below and at the reference's 32-step block, either side of
        # 1024, and one step past 4096.
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
        # about 2048 such factors pass the float range unless products are
        # rescaled; [[N, N], [N, N + 1/N]] divided by N has norm 2, and
        # 1024 of them pass it.
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
            # The entries are [[1, 1], [1, 1]] to float precision, whose
            # square is twice itself, so ||m^n|| = (2 big)^n.
            est = direct_exponent(CocyclePair(m, m), t, n_iters)
            want = math.log(2.0 * big)
            assert est.chi == pytest.approx(want, abs=1e-9), n_iters

    def test_contracted_start_vector_reads_the_exponent(self):
        # Chart theta = -1.4 of commuting-hyperbolic: both letters contract
        # e_1, which read chi = 0 at 100 steps and underflowed to zero by
        # 500 when each orbit applied its product to e_1.  The letters are
        # diagonal, so ||rho_n|| = 2^(n_A) 16^(n_B) and chi is
        # alpha ln 16 + (1 - alpha) ln 2, at least ln 2.
        p = CocyclePair(diagonal(0.5), diagonal(0.0625))
        alpha = 0.7978837154828904
        want = alpha * math.log(16.0) + (1.0 - alpha) * math.log(2.0)
        for n_iters in (100, 500, 10**5):
            est = direct_exponent(p, Rotation2IET(alpha), n_iters)
            assert est.chi >= math.log(2.0), n_iters
            # n_B is the floor or the ceiling of alpha n.
            assert est.chi == pytest.approx(want, abs=math.log(8.0) / n_iters)

    def test_large_entries_stay_finite(self):
        # |v| passed 1e154 within a 32-step block and v.v overflowed to NaN.
        big = CocyclePair(diagonal(1e5), diagonal(1e5))
        est = direct_exponent(big, Rotation2IET(0.3), 1000)
        assert est.chi == pytest.approx(math.log(1e5), abs=1e-9)
        assert est.stderr == pytest.approx(0.0, abs=1e-9)
        # Letters of 1e200 overflow their first product unless scaled.
        huge = CocyclePair(diagonal(1e200), diagonal(1e200))
        est = direct_exponent(huge, Rotation2IET(0.3), 1000)
        assert est.chi == pytest.approx(math.log(1e200), abs=1e-9)

    def test_scaled_letters_whose_product_fits(self):
        # Letters of 1e-160 and 1e160 pass 2^500 and are scaled.  The logs
        # of scale of two of them add past the float range while the
        # product they scale fits.  The letters are diagonal, so chi is
        # ln(1e160) |1 - 2 alpha|.
        alpha = 0.3819660112501051
        p = CocyclePair(diagonal(1e-160), diagonal(1e160))
        est = direct_exponent(p, Rotation2IET(alpha), 1000)
        want = math.log(1e160) * abs(1.0 - 2.0 * alpha)
        assert est.chi == pytest.approx(want, rel=1e-3)
        # At 1e+-200 the scaled letters lose their small entries to
        # underflow, and a product of two of them is all zero.
        p = CocyclePair(diagonal(1e-200), diagonal(1e200))
        with pytest.raises(NonUnimodularError):
            direct_exponent(p, Rotation2IET(alpha), 1000)


class TestInducedWalk:
    def test_matches_per_step_reference(self):
        # Orbit lengths at which the level table of each of these draws
        # reaches level 2 or deeper, so entries, tails and powers all run.
        for p, alpha in criterion6_draws(6):
            t = Rotation2IET(alpha)
            for n_iters in (5000, 20000, 65537):
                assert len(level_table(p, alpha, n_iters)[0]) > 2
                est = direct_exponent(p, t, n_iters, seed=1)
                chi, stderr = reference_exponent(p, alpha, n_iters, 8, 1)
                assert abs(est.chi - chi) <= 1e-9, (alpha, n_iters)
                assert abs(est.stderr - stderr) <= 1e-9, (alpha, n_iters)

    def test_orbit_product_matches_mpmath(self):
        # Criterion 6's draw 11 (alpha = 0.8138261609728749), against the
        # orbit product taken one step at a time in 50 digits on exact
        # orbit points.  The walk's rate is 2.1e-15 off at 20000 steps, as
        # it was when it multiplied its factors with mul: the float letters
        # of the level table carry that error, and the product of the same
        # factors in 50 digits is within 6e-17 of the walk's.
        p, alpha = criterion6_draws(11)[-1]
        assert alpha == 0.8138261609728749
        n = 20000
        levels, _, (y,) = level_table(p, alpha, n, [0.2137])
        got = _orbit_product(levels, y, n) / n
        want = mp_log_norm(p, alpha, n, 0.2137, 50) / n
        assert abs(got - want) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.375, 0.3125, 0.5004, 0.4996])
    def test_short_expansions_and_near_half(self, alpha):
        # 3/8 and 5/16 end their expansions at levels 3 and 2; near 1/2 the
        # return times jump past 1000 in one run, so orbits take long
        # powers of one letter.
        pairs = [generic_elliptic()] + [p for p, _ in criterion6_draws(3)]
        for n_iters in (5000, 20000):
            assert len(level_table(pairs[0], alpha, n_iters)[0]) > 2
            for p in pairs:
                for n_samples in (1, 8):
                    est = direct_exponent(p, Rotation2IET(alpha), n_iters,
                                          n_samples, seed=2)
                    chi, stderr = reference_exponent(p, alpha, n_iters,
                                                     n_samples, 2)
                    where = (n_iters, n_samples)
                    assert abs(est.chi - chi) <= 1e-9, where
                    assert abs(est.stderr - stderr) <= 1e-9, where

    @pytest.mark.parametrize("alpha", [0.375, 0.3125, 0.5])
    def test_terminal_level_is_one_power(self, alpha):
        # Where the expansion ends the two pieces are equal and the return
        # alternates A_k and B_k; the last level holds one piece, whose
        # letter B_k A_k is the period, walked as one power.
        levels = level_table(generic_elliptic(), alpha, 10**6)[0]
        last = levels[-1]
        assert last.split == last.size and last.winner is None
        assert last.lengths[0] == Fraction(alpha).denominator
        assert len(last.powers) == (10**6 // last.lengths[0]).bit_length()
        pairs = [generic_elliptic()] + [p for p, _ in criterion6_draws(3)]
        for n_iters in (1, 2, 15, 16, 17, 1000):
            for p in pairs:
                est = direct_exponent(p, Rotation2IET(alpha), n_iters, seed=3)
                chi, stderr = reference_exponent(p, alpha, n_iters, 8, 3)
                assert abs(est.chi - chi) <= 1e-9, n_iters
                assert abs(est.stderr - stderr) <= 1e-9, n_iters

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(1e-6, 1.0 - 1e-6),
           n=st.integers(1, 300_000),
           x=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                      min_size=1, max_size=4))
    def test_segments_cover_n_steps(self, alpha, n, x):
        # With A = B = [[1, 1], [0, 1]] a product of k letters is
        # [[1, k], [0, 1]] whatever the letters, so the (0, 1) entry of
        # every orbit's product counts its base steps: the entries on the
        # way down, the last level's power and the tails on the way up
        # add up to n.
        u = Matrix2(1.0, 1.0, 0.0, 1.0)
        levels, _, starts = level_table(CocyclePair(u, u), alpha, n, x)
        for y in starts:
            prod, log = np.eye(2), 0.0
            for m in _orbit_factors(levels, y, n)[0]:
                prod = np.array([[m.a, m.b], [m.c, m.d]]) @ prod
                top = np.abs(prod).max()
                prod /= top
                log += m.log_scale + math.log(top)
            steps = prod[0, 1] * math.exp(log)
            assert abs(steps - n) <= 1e-6 * n, (steps, n)

    def test_factors_match_per_step_letters(self):
        # Expanded into base letters, each orbit's factors spell the
        # letters of the per-step walk from (x + j alpha) mod 1, B past
        # 1 - alpha, and the walk ends at (x + n alpha) mod 1.
        cases = criterion6_draws(6) + [(generic_elliptic(), alpha) for alpha
                                       in (0.375, 0.3125, 0.5, 0.5004, 0.3)]
        x = np.random.default_rng(4).random(8)
        for p, alpha in cases:
            for n in (1, 5000, 65537):
                levels, unit, starts = level_table(p, alpha, n, x)
                words = factor_words(levels)
                for lv in levels:
                    for m, length in zip(lv.letters, lv.lengths):
                        assert m is None or len(words[id(m)]) == length
                for x0, y in zip(x, starts):
                    factors, end = _orbit_factors(levels, y, n)
                    got = "".join(words[id(m)] for m in factors)
                    points = (x0 + np.arange(n) * alpha) % 1.0
                    want = "".join(np.where(points > 1.0 - alpha, "b", "a"))
                    assert got == want, (alpha, n, x0)
                    off = (end / unit - x0 - n * alpha) % 1.0
                    assert min(off, 1.0 - off) <= 1e-9, (alpha, n, x0)

    def test_factor_contract(self):
        # Every factor is a letter or a square of the level table itself,
        # with entries of at most 2^500 (mul's limit) and a finite log.  At
        # alpha = 0.3 the 1e7 steps took about 1.4e6 rows per start through
        # one induced level; the walk keeps O(levels).
        x = np.random.default_rng(0).random(8)
        huge = CocyclePair(diagonal(1e200), rotation(1.0))
        cases = [(generic_elliptic(), 0.3, 10**7), (huge, GOLDEN, 4097),
                 (generic_elliptic(), 0.5004, 65537)]
        for p, alpha, n in cases:
            table = _Induction(p, alpha)
            unit, starts = _exact_points(alpha, x)
            levels = _orbit_levels(table, n, unit)
            own = {id(m) for pair in table.letters for m in pair}
            own |= {id(m) for squares in table.squares.values() for m in squares}
            # A closing Top run's letter B_k A_k, formed where the
            # expansion of alpha ends, is the one factor outside the table.
            own.add(id(levels[-1].letters[0]))
            for y in starts:
                for m in _orbit_factors(levels, y, n)[0]:
                    assert id(m) in own, (alpha, n)
                    assert max(map(abs, m.entries())) <= 2.0**500, (alpha, n)
                    assert math.isfinite(m.log_scale), (alpha, n)
        tracemalloc.start()
        est = direct_exponent(generic_elliptic(), Rotation2IET(0.3), 10**7)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert math.isfinite(est.chi)
        assert peak < 8 * 2**20, peak

    def test_unipotent_factors_keep_their_small_entries(self):
        # A factor of k steps of u = [[1, 1], [0, 1]] is the table's own
        # [[1, k], [0, 1]], exact in floats: coordinates that mix the
        # entries, such as the Cayley pair ((a + d) + i(b - c), (a - d) -
        # i(b + c)) / 2, or a copy scaled to [[1/k, 1], [0, 1/k]], would
        # carry an error near 5e-6 of 1/k at this length (and 1e-6 of n in
        # the step count).
        u = Matrix2(1.0, 1.0, 0.0, 1.0)
        alpha, n = 0.32877074292244746, 299188
        levels, _, (y,) = level_table(CocyclePair(u, u), alpha, n, [0.125])
        total = 0
        for m in _orbit_factors(levels, y, n)[0]:
            assert (m.a, m.c, m.d, m.log_scale) == (1.0, 0.0, 1.0, 0.0)
            assert m.b == int(m.b) >= 1
            total += int(m.b)
        assert total == n

    def test_hundred_million_steps(self):
        # Criterion 7's pairs at 1e8 steps: the golden float's 39 levels
        # take about 30 factors per orbit, where the per-step walk takes 1e8.
        t = Rotation2IET(GOLDEN)
        est = direct_exponent(commuting_hyperbolic(), t, 10**8)
        assert abs(est.chi - math.log(2.0)) <= 1e-6
        assert direct_exponent(commuting_elliptic(), t, 10**8).chi <= 1e-6


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

    # F_1200 / F_1201, a Fibonacci ratio: its expansion is 1200 runs of 1.
    # The letters of two commuting rotations stay rotations as long as each
    # level's moved letter goes through the constructor's det rule: det
    # drift compounded over the levels moves a rotation's trace by up to
    # about 1e-9, and took the moved B of step 552 into the parabolic band.
    DEEP_FIBONACCI = Fraction(fibonacci(1200), fibonacci(1201))

    def test_deep_fibonacci_run_is_bounded(self):
        v = renorm_decision(commuting_elliptic(), self.DEEP_FIBONACCI,
                            DecisionBudget(max_accel_steps=551)).verdict
        assert (v.kind, v.at_step) == ("CertifiedBounded", 551)

    def test_deeper_fibonacci_run_is_bounded(self):
        v = renorm_decision(commuting_elliptic(), self.DEEP_FIBONACCI,
                            DecisionBudget(max_accel_steps=1000)).verdict
        assert (v.kind, v.at_step) == ("CertifiedBounded", 1000)

    @pytest.mark.parametrize("n, at_step", [(1200, 1198), (3000, 2998)])
    def test_whole_fibonacci_run_is_finite_order(self, n, at_step):
        # With steps to spare the decision reaches the end of the expansion
        # of F_n / F_(n+1): a member of the spectrum of finite order.
        alpha = Fraction(fibonacci(n), fibonacci(n + 1))
        v = renorm_decision(commuting_elliptic(), alpha,
                            DecisionBudget(max_accel_steps=n + 5)).verdict
        assert (v.kind, v.at_step, v.spectrum_member) == ("FiniteOrder", at_step, True)

    def test_deep_fibonacci_upper_bound(self):
        # The bound reads only norms, which no band of a trace stops: all
        # 1200 levels are formed, and every letter is a rotation.
        assert exponent_upper_bound(commuting_elliptic(), self.DEEP_FIBONACCI) <= 1e-15

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

    def test_entries_past_the_float_square_decide(self):
        # The first square of a letter with an entry of 1e200 passes the
        # float range unless the letter is scaled first; A is hyperbolic
        # and B elliptic, and one Bottom run of 2 makes B A^2 hyperbolic.
        p = CocyclePair(Matrix2(1e200, 0.0, 0.0, 1e-200), rotation(1.0))
        v = renorm_decision(p, 0.3).verdict
        assert (v.kind, v.at_step) == ("UniformlyHyperbolic", 1)
        assert v.certificate is not None

    def test_steps_carry_the_input_commutator_trace(self):
        # The tau moves keep tr [A, B], so every step records the input
        # pair's c, while x, y, z and log |z| are the moved pair's own, as
        # trace_coords reads them, bit for bit, and its type is the moved
        # pair's classify_pair type.
        budget = DecisionBudget(max_accel_steps=60)
        checked = 0
        for p, alpha in criterion6_draws(200):
            c = trace_coords(p).c
            try:
                trace = renorm_decision(p, alpha, budget)
            except DegeneratePairError:
                continue
            moved = [p] + [pair for _, _, pair in itertools.islice(
                renorm_runs(p, alpha, budget.max_digit), len(trace.steps))]
            for step in trace.steps:
                got, want = step.coords, trace_coords(moved[step.index])
                assert got.c == c
                assert (got.x, got.y, got.z, got.log_abs_z) == \
                    (want.x, want.y, want.z, want.log_abs_z), (alpha, step.index)
                assert step.pair_type == classify_pair(moved[step.index]).code
                checked += 1
        assert checked > 900  # 963 step records over the 200 draws

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


class TestInductionTable:
    # A near-rational angle of the bounded benchmark's draw: 32 runs, one of
    # them long.
    BOUNDED_ALPHA = 0.30769497215185276

    def test_letters_match_reference_walk(self):
        # The decision and a 1e5-step orbit walk read one table, and the
        # orbit walk goes deeper than the decision stops on most draws.
        # Every letter the table forms is the pair moved by one tau_power
        # per run, bit for bit, and every square the power of its letter.
        budget = DecisionBudget(max_accel_steps=60)
        cases = criterion6_draws(200) + [(commuting_elliptic(), self.BOUNDED_ALPHA)]
        letters = 0
        depths = []
        for p, alpha in cases:
            table = _Induction(p, alpha)
            try:
                _decide(table, budget)
            except DegeneratePairError:
                pass
            decided = len(table.letters)
            unit, _ = _exact_points(alpha, ())
            _orbit_levels(table, 100_000, unit)
            depths.append(len(table.letters) > decided)
            walk = itertools.islice(renorm_runs(p, alpha, math.inf),
                                    len(table.letters) - 1)
            moved = [p] + [pair for _, _, pair in walk]
            for k, (a, b) in enumerate(table.letters):
                for got, want in ((a, moved[k].A), (b, moved[k].B)):
                    assert (*got.entries(), got.log_scale) == \
                        (*want.entries(), want.log_scale), (alpha, k)
                    letters += 1
            for k, squares in table.squares.items():
                for e, m in enumerate(squares):
                    want = squares[0].power(2**e)
                    assert (*m.entries(), m.log_scale) == \
                        (*want.entries(), want.log_scale), (alpha, k, e)
        assert letters > 4000  # 4676
        # The orbit walk formed deeper levels after 169 decisions, and read
        # only levels the decision had formed after the other 32.
        assert sum(depths) > 100 and len(depths) - sum(depths) > 10

    @pytest.mark.parametrize("steps", [60, 8])
    def test_second_decision_reads_the_same_trace(self, steps):
        # One decision path, whose trace is a view of the table: a second
        # decision on the same table reads the runs, levels, coordinates
        # and type codes the first formed, and prints the same trace.  The
        # table holds one type code and one set of coordinates per level
        # walked, level 0 included, stored once.  The cases reach every
        # kind: HH+ at step 0, the end of the expansion (alpha = 1/2
        # before any step), a bounded run out of steps, and Undecided at a
        # run past max_digit and at a trace past the bound.
        budget = DecisionBudget(max_accel_steps=steps)
        deep = Fraction(fibonacci(100), fibonacci(101))
        cases = [(p, alpha, budget) for p, alpha in criterion6_draws(200) + [
            (commuting_elliptic(), self.BOUNDED_ALPHA), (commuting_elliptic(), 0.5),
            (commuting_elliptic(), 0.375), (commuting_elliptic(), deep),
            (commuting_hyperbolic(), GOLDEN)]] + [
            (commuting_elliptic(), self.BOUNDED_ALPHA,
             DecisionBudget(max_accel_steps=steps, max_digit=3)),
            (commuting_elliptic(), deep,
             DecisionBudget(max_accel_steps=steps, trace_bound=1.0))]
        kinds = set()
        for p, alpha, budget in cases:
            table = _Induction(p, alpha)
            try:
                first = _decide(table, budget)
            except DegeneratePairError:
                continue
            want = repr(first)
            walked = (first.levels[-1] if first.levels else 0) + 1
            assert len(table.types) == len(table.coords) == walked, alpha
            assert repr(_decide(table, budget)) == want
            assert len(table.types) == len(table.coords) == walked
            assert repr(renorm_decision(p, alpha, budget)) == want
            assert [s.pair_type for s in first.steps] == \
                [table.types[k] for k in first.levels]
            kinds.add(first.verdict.kind)
        assert len(kinds) == 4

    @pytest.mark.parametrize("p, alpha, budget, steps", [
        # Run 5 is a Top run of 910,397,634: the power of the elliptic B_5
        # decays to entries whose det underflows to 0.
        (generic_elliptic(), 0.1952356944794555,
         DecisionBudget(max_accel_steps=200, max_digit=10**12), 5),
        # A = diag(3e150, 1/3e150): level 1's B A^2 is scaled, and keeps one
        # entry, the other three underflowing, so level 2's B^2 A is zero.
        (CocyclePair(Matrix2(3e150, 0.0, 0.0, 3.3333333333333335e-151),
                     Matrix2(0.0, -1.0, 1.0, 0.0)), 0.3, None, 1),
    ], ids=["det-underflow", "power-overflow"])
    def test_precision_loss_is_undecided(self, p, alpha, budget, steps):
        # Every tau move keeps det 1 exactly, so a level that fails the det
        # rule or the float range lost precision: the table raises
        # PrecisionError, a NonUnimodularError, and the decision reads it as
        # Undecided with its steps up to the last level formed.
        trace = renorm_decision(p, alpha, budget)
        v = trace.verdict
        assert (v.kind, v.budget_note) == ("Undecided", Reason.PRECISION)
        assert trace.levels == range(1, steps + 1)
        assert len(trace.steps) == len(trace.table.letters) - 1 == steps
        with pytest.raises(PrecisionError, match=f"level {steps + 1}"):
            trace.table.pair(steps + 1)
        assert issubclass(PrecisionError, NonUnimodularError)


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

    def test_step_types_match_the_exact_referee(self):
        # Every float input is a dyadic rational, so the letters of each
        # level of words of at most 1000 letters are exact integer
        # matrices, typed with ints.  Criterion 6's draws all have c > 2,
        # where HH+ is |z| > |xy - z|.  No step of them is in the band; 636
        # steps are compared (HH+ 150, HH- 1, EE 268, EH 113, HE 104), and
        # 327 are of longer words.
        compared = 0
        for p, alpha in criterion6_draws(200):
            assert trace_coords(p).c > 2.0
            try:
                trace = renorm_decision(p, alpha, DecisionBudget(max_accel_steps=60))
            except DegeneratePairError:
                continue
            steps = trace.steps
            exact = level_types(p, [(s.winner, s.digit) for s in steps
                                    if s.winner is not None], 1000)
            for s in steps:
                if s.index < len(exact) and exact[s.index] is not None:
                    assert s.pair_type == exact[s.index], (alpha, s.index)
                    compared += 1
        assert compared > 600

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

    def test_upper_bound_of_rotations_is_zero(self):
        # Every letter of commuting rotations is a rotation, of norm 1, and
        # every letter of diag(2), diag(2) is diag(2^|A_k|): the bound is
        # exact on both.  The golden float has 53 exact digits (52 runs),
        # and the bound walks to the end of them.  At 0.7 and 1e-20 the
        # least U_k of the rotations rounds below 0 (-1.6e-25 and -5.6e-31),
        # and reads 0, as a unimodular letter has norm at least 1.
        p = commuting_elliptic()
        v = renorm_decision(p, GOLDEN).verdict
        assert (v.kind, v.at_step, v.spectrum_member) == ("FiniteOrder", 52, True)
        for alpha in (GOLDEN, 0.7, 1e-20):
            assert exponent_upper_bound(p, alpha) == 0.0, alpha
        u = exponent_upper_bound(commuting_hyperbolic(), GOLDEN)
        assert u == pytest.approx(math.log(2.0), abs=1e-12)

    def test_upper_bound_past_the_float_range(self):
        # The float 1e-300 is a / q with q = 2^1049: its last return
        # times pass the float range, and so do the logs of the norms of
        # diag(2)'s last letters.  Each U_k is still read, exactly where it
        # is finite.
        assert exponent_upper_bound(commuting_elliptic(), 1e-300) == 0.0
        u = exponent_upper_bound(commuting_hyperbolic(), 1e-300)
        assert u == pytest.approx(math.log(2.0), abs=1e-12)

    def test_upper_bound_of_bounded_pairs(self):
        # Non-commuting elliptic pairs (A a rotation, B a rotation
        # conjugated by a diagonal matrix, so c > 2) that decide
        # CertifiedBounded at 25 steps: U is at most 1.1e-11 on these 20,
        # where level 0 alone reads log ||B|| > 0.
        rng = random.Random(0)
        bounds = []
        while len(bounds) < 20:
            t1, t2, s = rng.uniform(0.2, 2.9), rng.uniform(0.2, 2.9), rng.uniform(1.1, 3.0)
            m = diagonal(s)
            p = CocyclePair(rotation(t1), mul(mul(m, rotation(t2)), m.inv()))
            alpha = rng.uniform(0.05, 0.95)
            assert trace_coords(p).c > 2.0
            v = renorm_decision(p, alpha, DecisionBudget(max_accel_steps=25)).verdict
            if v.kind == "CertifiedBounded":
                bounds.append(exponent_upper_bound(p, alpha))
        assert max(bounds) <= 1e-6, max(bounds)

    def test_upper_bound_above_period_exponent(self):
        # At alpha = a / q every orbit repeats the period product W, so chi
        # is log rho(W) / q; the bound of the last level alone is at least
        # that, as (log ||B_K|| + log ||A_K||) / q >= log rho(B_K A_K) / q.
        # For diag(1/2), diag(1/16), log ||A_k|| / |A_k| is ln 2 plus ln 8
        # times the share of B in the word A_k, and chi is ln 2 + alpha ln 8;
        # a word of the last level holds a convergent of a / q, off by less
        # than 1 / q, so the bound is within ln 8 / q of chi.  Return times
        # moved on the wrong letter read up to 119 ln 8 / q above it.
        diag = CocyclePair(diagonal(0.5), diagonal(0.0625))
        rng = random.Random(1)
        for _ in range(40):
            p = CocyclePair(random_unimodular(rng), random_unimodular(rng))
            q = rng.randint(2, 300)
            a = rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1])
            alpha = Fraction(a, q)
            want = mp_period_exponent(p, alpha, 60)
            assert exponent_upper_bound(p, alpha) >= want - 1e-12, alpha
            chi = math.log(2.0) + a / q * math.log(8.0)
            u = exponent_upper_bound(diag, alpha)
            assert chi - 1e-12 <= u <= chi + math.log(8.0) / q + 1e-12, alpha
