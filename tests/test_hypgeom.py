import math

import pytest
from hypothesis import given, strategies as st

from rvcocycle import cocycle

from rvcocycle.hypgeom import (
    DegeneratePairError,
    NoTransitionError,
    axis_to_axis,
    axis_to_imaginary,
    elliptic_data,
    elliptic_product_threshold,
    hh_minus_canonical_pair,
    hh_minus_thresholds,
    hyp_distance,
    hyperbolic_data,
    mixed_product_interval,
    move_i_to,
    pair_geometry,
    point_to_axis_distance,
    reconstruct,
    rotation_about,
    translation_between,
)
from rvcocycle.mat2 import (
    BoundaryPoint,
    classify,
    diagonal,
    identity,
    mul,
    rotation,
)


class TestMetric:
    def test_vertical_segment(self):
        # Along the imaginary axis the distance is log(y2/y1).
        assert hyp_distance(1j, 5j) == pytest.approx(math.log(5.0))

    def test_symmetry(self):
        p, q = 0.3 + 1.2j, -0.7 + 0.4j
        assert hyp_distance(p, q) == pytest.approx(hyp_distance(q, p))

    def test_isometry_invariance(self):
        p, q = 0.3 + 1.2j, -0.7 + 0.4j
        g = mul(rotation(0.8), move_i_to(2.0 + 3.0j))
        assert hyp_distance(g.mobius(p), g.mobius(q)) == \
            pytest.approx(hyp_distance(p, q))

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            hyp_distance(1j, 1.0 - 1j)


class TestConstructors:
    def test_move_i_to(self):
        m = move_i_to(2.0 + 3.0j)
        assert m.mobius(1j) == pytest.approx(2.0 + 3.0j)

    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=0.1, max_value=5),
           st.floats(min_value=0.1, max_value=6.1))
    def test_rotation_about_fixes_center(self, x, y, angle):
        c = complex(x, y)
        m = rotation_about(c, angle)
        assert abs(m.mobius(c) - c) < 1e-7
        assert m.trace == pytest.approx(2.0 * math.cos(angle / 2.0), abs=1e-9)

    def test_translation_between(self):
        rep = BoundaryPoint.from_value(-1.0)
        att = BoundaryPoint.from_value(3.0)
        m = translation_between(rep, att, 0.9)
        cls = classify(m)
        assert cls.is_hyperbolic
        assert cls.translation_length == pytest.approx(0.9)
        assert cls.attracting.close_to(att, tol=1e-9)
        assert cls.repelling.close_to(rep, tol=1e-9)

    def test_axis_to_imaginary(self):
        rep = BoundaryPoint.from_value(-1.0)
        att = BoundaryPoint.from_value(3.0)
        g = axis_to_imaginary(rep, att)
        assert g.mobius(complex(-1.0, 1e-9)).real == pytest.approx(0.0, abs=1e-6)

    def test_reconstruct_roundtrip_elliptic(self):
        m = rotation_about(0.5 + 2.0j, 1.3)
        data = elliptic_data(m)
        m2 = reconstruct(data)
        for x, y in zip(m.entries(), m2.entries()):
            assert x == pytest.approx(y, abs=1e-8)

    def test_reconstruct_roundtrip_hyperbolic(self):
        m = translation_between(BoundaryPoint.from_value(0.2),
                                BoundaryPoint.from_value(-4.0), 1.7)
        data = hyperbolic_data(m)
        m2 = reconstruct(data)
        for x, y in zip(m.entries(), m2.entries()):
            assert x == pytest.approx(y, abs=1e-8)

    def test_data_rejects_wrong_type(self):
        # One class, so that callers catching the cocycle error catch these.
        assert DegeneratePairError is cocycle.DegeneratePairError
        with pytest.raises(DegeneratePairError):
            elliptic_data(diagonal(2.0))
        with pytest.raises(DegeneratePairError):
            hyperbolic_data(rotation(1.0))


class TestDistances:
    def test_point_to_imaginary_axis(self):
        # Point x + iy is at distance asinh(x/y) from the imaginary axis.
        d = point_to_axis_distance(3.0 + 4.0j,
                                   BoundaryPoint.from_value(0.0),
                                   BoundaryPoint.infinity())
        assert d == pytest.approx(math.asinh(0.75))

    def test_crossing_axes(self):
        d, crossing = axis_to_axis(
            BoundaryPoint.from_value(0.0), BoundaryPoint.infinity(),
            BoundaryPoint.from_value(-1.0), BoundaryPoint.from_value(1.0))
        assert crossing and d == 0.0

    def test_disjoint_axes(self):
        # Imaginary axis vs the geodesic over [1, 4]: closest points i*2 and
        # the apex; known closed form via acosh((lo+hi)/(hi-lo)).
        d, crossing = axis_to_axis(
            BoundaryPoint.from_value(0.0), BoundaryPoint.infinity(),
            BoundaryPoint.from_value(1.0), BoundaryPoint.from_value(4.0))
        assert not crossing
        assert d == pytest.approx(math.acosh(5.0 / 3.0))

    def test_pair_geometry_elliptic(self):
        a = rotation_about(1j, 1.0)
        b = rotation_about(3j, 1.0)
        g = pair_geometry(a, b)
        assert g.distance == pytest.approx(math.log(3.0))
        assert not g.crossing

    def test_pair_geometry_rejects_identity(self):
        with pytest.raises(DegeneratePairError):
            pair_geometry(identity(), rotation(1.0))


class TestThresholds:
    def test_elliptic_threshold_bracket(self):
        d, theta_a = 2.0, 1.5
        alpha = elliptic_product_threshold(d, theta_a)
        a = rotation_about(1j, theta_a)
        c2 = math.exp(d) * 1j
        # Trace of the product passes |tr| = 2 exactly at the threshold.
        tr = mul(a, rotation_about(c2, alpha)).trace
        assert abs(abs(tr) - 2.0) < 1e-8
        inside = mul(a, rotation_about(c2, 0.9 * alpha))
        outside = mul(a, rotation_about(c2, min(1.1 * alpha, math.pi)))
        assert classify(inside).is_elliptic
        assert classify(outside).is_hyperbolic

    def test_elliptic_threshold_decreases_with_distance(self):
        theta_a = 2.0
        a1 = elliptic_product_threshold(1.5, theta_a)
        a2 = elliptic_product_threshold(2.5, theta_a)
        assert a2 <= a1

    def test_mixed_interval(self):
        t, d = 0.8, 0.5
        lo, hi = mixed_product_interval(t, d)
        assert 0.0 < lo < hi < 2.0 * math.pi
        a = diagonal(math.exp(t / 2.0))
        p = math.sinh(d) + 1j
        mid = 0.5 * (lo + hi)
        assert classify(mul(a, rotation_about(p, mid))).is_elliptic
        assert classify(mul(a, rotation_about(p, 0.5 * lo))).is_hyperbolic
        for edge in (lo, hi):
            tr = mul(a, rotation_about(p, edge)).trace
            assert abs(abs(tr) - 2.0) < 1e-8

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

    def test_hh_minus_thresholds(self):
        d = 0.8
        t_b = 2.0 * math.log(1.0 / math.tanh(d / 2.0)) + 1.0
        t1, t2 = hh_minus_thresholds(t_b, d)
        assert 0.0 < t1 < t2

        def ab(t_a):
            a, b = hh_minus_canonical_pair(t_a, t_b, d)
            return mul(a, b)

        assert classify(ab(0.5 * t1)).is_hyperbolic
        assert classify(ab(0.5 * (t1 + t2))).is_elliptic
        assert classify(ab(t2 + 1.0)).is_hyperbolic
        assert abs(ab(t1).trace - 2.0) < 1e-8
        assert abs(ab(t2).trace + 2.0) < 1e-8

    def test_hh_minus_no_transition_when_b_weak(self):
        # Below the strength threshold the product never turns elliptic.
        d = 0.8
        t_b = 0.1
        with pytest.raises(NoTransitionError):
            hh_minus_thresholds(t_b, d)
