import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rvcocycle.iet import (
    FiniteOrderError,
    Rotation2IET,
    Winner,
    accelerated_digits,
    accelerated_step,
    continued_fraction,
    first_return_oracle,
    rauzy_step,
    run_steps,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def cf_digits_fraction(fr: Fraction, n: int) -> list[int]:
    """Gauss map on an exact rational, written out independently."""
    out = []
    x = fr
    while len(out) < n and x != 0:
        inv = 1 / x
        a = int(inv)
        out.append(a)
        x = inv - a
    return out


class TestRotation:
    def test_apply_is_rotation(self):
        t = Rotation2IET(0.3)
        assert t.apply(0.1) == pytest.approx(0.4)
        assert t.apply(0.9) == pytest.approx(0.2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Rotation2IET(1.5)
        with pytest.raises(ValueError):
            Rotation2IET(0.0)

    def test_winner_sides(self):
        assert Rotation2IET(0.7).winner() is Winner.TOP
        assert Rotation2IET(0.3).winner() is Winner.BOTTOM

    def test_half_is_finite_order(self):
        with pytest.raises(FiniteOrderError):
            Rotation2IET(0.5).winner()

    def test_exact_mode(self):
        t = Rotation2IET(Fraction(3, 7))
        assert t.exact
        assert t.winner() is Winner.BOTTOM


class TestElementaryStep:
    def test_top_formula(self):
        w, t2 = rauzy_step(Rotation2IET(0.7))
        assert w is Winner.TOP
        assert t2.alpha == pytest.approx((2 * 0.7 - 1) / 0.7)

    def test_bottom_formula(self):
        w, t2 = rauzy_step(Rotation2IET(0.3))
        assert w is Winner.BOTTOM
        assert t2.alpha == pytest.approx(0.3 / 0.7)

    def test_rational_terminates(self):
        t = Rotation2IET(Fraction(2, 5))
        with pytest.raises(FiniteOrderError):
            for _ in range(50):
                _, t = rauzy_step(t)

    @given(st.floats(min_value=0.01, max_value=0.99).filter(
        lambda a: abs(a - 0.5) > 1e-3))
    def test_gauss_map_conjugacy(self, alpha):
        # One elementary step realizes x -> x/(1-x) or x -> 2 - 1/x on alpha;
        # both fix the set of alphas with a given continued fraction tail.
        w, t2 = rauzy_step(Rotation2IET(alpha))
        if w is Winner.BOTTOM:
            assert t2.alpha == pytest.approx(alpha / (1 - alpha))
        else:
            assert t2.alpha == pytest.approx(2 - 1 / alpha)


class TestAcceleration:
    def test_digits_match_exact_cf(self):
        fr = Fraction(0.3819660112501051)  # near 2 - golden ratio
        want = cf_digits_fraction(fr, 10)
        got = accelerated_digits(fr, 10)
        assert got == want

    def test_golden_digits_all_ones(self):
        assert accelerated_digits(GOLDEN, 12) == [1] * 12

    def test_e_minus_two_digits(self):
        # e - 2 = [1, 2, 1, 1, 4, 1, 1, 6, ...]
        assert accelerated_digits(math.e - 2.0, 8) == [1, 2, 1, 1, 4, 1, 1, 6]

    def test_winners_alternate(self):
        t = Rotation2IET(math.pi - 3.0)
        prev = Winner.BOTTOM
        for _ in range(6):
            step = accelerated_step(t, prev)
            assert step.winner is prev
            t = step.state
            prev = prev.other

    @given(st.integers(min_value=2, max_value=5000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_digits_match_gauss(self, q, data):
        # Bounded denominators keep every CF digit (and hence the induction
        # work per accelerated step) below the denominator.
        p = data.draw(st.integers(min_value=1, max_value=q - 1))
        fr = Fraction(p, q)
        if fr == Fraction(1, 2):
            return
        want = cf_digits_fraction(fr, 25)
        got = accelerated_digits(fr, 25)
        # Rational induction may stop one digit short of the full expansion
        # when it hits the boundary; every digit it does produce must agree.
        assert len(got) >= len(want) - 2
        assert got == want[:len(got)]


class TestRunGrouping:
    def test_runs_encode_digits(self):
        # Run lengths are (a1 - 1, a2, a3, ...): the very first elementary
        # step already belongs to the second letter when a1 = 1.
        alpha = math.pi - 3.0  # cf [7, 15, 1, 292, ...]
        digits = continued_fraction(alpha, max_digits=5).digits
        gen = run_steps(Rotation2IET(alpha))
        lengths = [next(gen)[1] for _ in range(4)]
        want = [digits[0] - 1] + list(digits[1:4])
        assert lengths == want

    def test_runs_alternate_winner(self):
        gen = run_steps(Rotation2IET(GOLDEN))
        prev = None
        for _ in range(8):
            w, n = next(gen)
            if prev is not None:
                assert w is not prev
            prev = w

    def test_rational_run_stream_finite(self):
        out = list(run_steps(Rotation2IET(Fraction(5, 13))))
        assert 1 <= len(out) <= 10

    @given(st.one_of(
        st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
        st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000),
                     max_denominator=10**6)))
    @settings(max_examples=300, deadline=None)
    def test_runs_match_accelerated_digits(self, alpha):
        # The exact runs against the elementary induction on the exact
        # value.  accelerated_digits walks every elementary step, so the
        # digits are kept small enough for it.
        fr = Fraction(alpha)
        assume(max(cf_digits_fraction(fr, 1000)) <= 10**4)
        runs = [(w.value, n) for w, n in run_steps(Rotation2IET(alpha))]
        digits = accelerated_digits(fr, 1000)
        # The induction stops one step before it would close the last
        # digit a_n, so one digit 1/x remains after the accelerated ones.
        x = fr
        for d in digits:
            x = 1 / x - d
        assert x.numerator == 1
        lengths = digits + [x.denominator]
        lengths[0] -= 1
        lengths[-1] -= 1
        want = [("b" if i % 2 == 0 else "t", n)
                for i, n in enumerate(lengths) if n > 0]
        assert runs == want


class TestContinuedFraction:
    def test_known_expansion(self):
        cf = continued_fraction(Fraction(13, 30))
        assert cf.digits == (2, 3, 4)
        assert cf.terminated

    def test_convergent_denominators(self):
        cf = continued_fraction(Fraction(13, 30))
        # q_0 = 1, then q_n = a_n q_{n-1} + q_{n-2}.
        assert cf.convergent_denominators == (1, 2, 7, 30)

    def test_float_expands_its_exact_value(self):
        # A float means its binary value: the golden float has 53 digits,
        # 37 ones and then a tail that rounding left.
        cf = continued_fraction(GOLDEN, max_digits=100)
        assert cf.terminated and len(cf.digits) == 53
        assert list(cf.digits) == cf_digits_fraction(Fraction(GOLDEN), 100)
        assert cf.digits[:37] == (1,) * 37 and cf.digits[37] == 2
        short = continued_fraction(GOLDEN, max_digits=53)
        assert short.terminated and short.digits == cf.digits
        assert not continued_fraction(GOLDEN, max_digits=52).terminated

    def test_golden_denominators_fibonacci(self):
        cf = continued_fraction(GOLDEN, max_digits=10)
        assert cf.convergent_denominators[:7] == (1, 1, 2, 3, 5, 8, 13)

    def test_q_growth(self):
        cf = continued_fraction(GOLDEN, max_digits=20)
        qs = cf.convergent_denominators
        for n in range(2, len(qs)):
            assert qs[n] >= math.sqrt(2.0) ** (n - 1)


class TestFirstReturn:
    def test_zero_steps(self):
        rec = first_return_oracle(Rotation2IET(0.3), 0)
        assert rec.subinterval_right == pytest.approx(1.0)
        assert rec.return_times == (1, 1)

    @pytest.mark.parametrize("alpha", [GOLDEN, math.pi - 3.0, math.sqrt(2) - 1])
    def test_return_times_are_consecutive_denominators(self, alpha):
        cf = continued_fraction(alpha, max_digits=12)
        qs = cf.convergent_denominators
        for n in range(1, 5):
            rec = first_return_oracle(Rotation2IET(alpha), n)
            assert set(rec.return_times) == {qs[n], qs[n] + qs[n - 1]}
