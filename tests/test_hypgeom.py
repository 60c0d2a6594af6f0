import math

import pytest
from hypothesis import example, given, strategies as st

from rvcocycle.hypgeom import (
    NoTransitionError,
    elliptic_product_threshold,
    hh_minus_canonical_pair,
    hh_minus_thresholds,
    mixed_product_interval,
    move_i_to,
    rotation_about,
    translation_between,
)
from rvcocycle.mat2 import (
    BoundaryPoint,
    classify,
    diagonal,
    mul,
)
from reference_isometry import close_to, mobius


class TestConstructors:
    def test_move_i_to(self):
        m = move_i_to(2.0 + 3.0j)
        assert mobius(m, 1j) == pytest.approx(2.0 + 3.0j)

    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=0.1, max_value=5),
           st.floats(min_value=0.1, max_value=6.1))
    def test_rotation_about_fixes_center(self, x, y, angle):
        c = complex(x, y)
        m = rotation_about(c, angle)
        assert abs(mobius(m, c) - c) < 1e-7
        assert m.trace == pytest.approx(2.0 * math.cos(angle / 2.0), abs=1e-9)

    def test_translation_between(self):
        rep = BoundaryPoint.from_value(-1.0)
        att = BoundaryPoint.from_value(3.0)
        m = translation_between(rep, att, 0.9)
        cls = classify(m)
        assert cls.is_hyperbolic
        assert 2.0 * math.acosh(abs(m.trace) / 2.0) == pytest.approx(0.9)
        assert close_to(cls.attracting, att, tol=1e-9)
        assert close_to(cls.repelling, rep, tol=1e-9)


# Wider than the lemma suite's draws, out to where the thresholds approach
# the ends of their ranges.
ROTATION_ANGLES = st.floats(min_value=0.01, max_value=2.0 * math.pi - 0.01)
DISTANCES = st.floats(min_value=0.01, max_value=6.0)
LENGTHS = st.floats(min_value=0.01, max_value=8.0)
# Largest parameter offset for "just inside" and "just outside" a threshold.
NEAR = 1e-6


class TestThresholds:
    @given(DISTANCES, ROTATION_ANGLES)
    @example(2.0, 1.5)
    def test_elliptic_threshold_bracket(self, d, theta_a):
        a = rotation_about(1j, theta_a)
        c2 = math.exp(d) * 1j

        def abs_tr(theta_b):
            return abs(mul(a, rotation_about(c2, theta_b)).trace)

        try:
            alpha = elliptic_product_threshold(d, theta_a)
        except NoTransitionError:
            # No type change for theta_b up to pi: not hyperbolic at pi.
            assert abs_tr(math.pi) <= 2.0 + 1e-9
            return
        assert 0.0 < alpha < math.pi
        # Trace of the product passes |tr| = 2 exactly at the threshold.
        assert abs(abs_tr(alpha) - 2.0) <= 1e-9
        h = min(NEAR, alpha / 2.0, (math.pi - alpha) / 2.0)
        assert abs_tr(alpha - h) < 2.0 < abs_tr(alpha + h)

    def test_elliptic_threshold_decreases_with_distance(self):
        theta_a = 2.0
        a1 = elliptic_product_threshold(1.5, theta_a)
        a2 = elliptic_product_threshold(2.5, theta_a)
        assert a2 <= a1

    @given(LENGTHS, DISTANCES)
    @example(0.8, 0.5)
    def test_mixed_interval(self, t, d):
        lo, hi = mixed_product_interval(t, d)
        assert 0.0 < lo < hi < 2.0 * math.pi
        a = diagonal(math.exp(t / 2.0))
        p = math.sinh(d) + 1j

        def abs_tr(theta):
            return abs(mul(a, rotation_about(p, theta)).trace)

        assert abs_tr(0.5 * (lo + hi)) < 2.0
        for edge in (lo, hi):
            assert abs(abs_tr(edge) - 2.0) <= 1e-9
        h = min(NEAR, lo / 2.0, (hi - lo) / 2.0, (2.0 * math.pi - hi) / 2.0)
        assert abs_tr(lo - h) > 2.0 > abs_tr(lo + h)
        assert abs_tr(hi - h) < 2.0 < abs_tr(hi + h)

    def test_mixed_interval_top_edge(self):
        # The elliptic interval ends 1.1e-3 short of 2*pi; a grid of step
        # pi/720 once returned its last sample here, where |tr| = 1.99946.
        t, d = 0.08, 3.2
        _, hi = mixed_product_interval(t, d)
        a = diagonal(math.exp(t / 2.0))
        tr = mul(a, rotation_about(math.sinh(d) + 1j, hi)).trace
        assert abs(abs(tr) - 2.0) <= 1e-9
        assert hi == pytest.approx(6.279925, abs=1e-6)

    def test_hh_minus_canonical_pair_alternates(self):
        a, b = hh_minus_canonical_pair(0.7, 1.2, 0.9)
        ca, cb = classify(a), classify(b)
        assert ca.is_hyperbolic and cb.is_hyperbolic
        # Attracting points alternate with repelling points: the chord between
        # the two attractors separates the two repellers.  The axes themselves
        # stay disjoint.
        from rvcocycle.mat2 import arcs_link
        assert arcs_link(ca.attracting, cb.attracting, ca.repelling, cb.repelling)
        assert not arcs_link(ca.repelling, ca.attracting,
                             cb.repelling, cb.attracting)

    @given(LENGTHS, DISTANCES)
    @example(2.0 * math.log(1.0 / math.tanh(0.4)) + 1.0, 0.8)
    def test_hh_minus_thresholds(self, t_b, d):
        def tr_ab(t_a):
            a, b = hh_minus_canonical_pair(t_a, t_b, d)
            return mul(a, b).trace

        try:
            t1, t2 = hh_minus_thresholds(t_b, d)
        except NoTransitionError:
            for t_a in (0.5, 5.0, 50.0):
                assert tr_ab(t_a) > -2.0
            return
        assert 0.0 < t1 < t2
        assert abs(tr_ab(0.5 * (t1 + t2))) < 2.0
        assert abs(tr_ab(t1) - 2.0) <= 1e-9
        assert abs(tr_ab(t2) + 2.0) <= 1e-9
        h = min(NEAR, t1 / 2.0, (t2 - t1) / 2.0)
        assert tr_ab(t1 - h) > 2.0 > abs(tr_ab(t1 + h))
        assert abs(tr_ab(t2 - h)) < 2.0 < -tr_ab(t2 + h)

    def test_hh_minus_no_transition_when_b_weak(self):
        # Below the strength threshold the product never turns elliptic.
        d = 0.8
        t_b = 0.1
        with pytest.raises(NoTransitionError):
            hh_minus_thresholds(t_b, d)
