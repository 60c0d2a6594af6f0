import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from rvcocycle.mat2 import (
    BoundaryPoint,
    Matrix2,
    NonUnimodularError,
    _unchecked,
    arcs_link,
    classify,
    diagonal,
    fixed_points_hyperbolic,
    identity,
    mul,
    rotation,
    spectral_radius,
)
from reference_isometry import boundary_action, close_to


def reference_power(m, n):
    """Matrix2.power as it was: square-and-multiply from the identity,
    squaring once more after the last bit."""
    if n < 0:
        return reference_power(m.inv(), -n)
    result = identity()
    base = m
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    return result


def reference_validate(a, b, c, d, log_scale=0.0):
    """Matrix2's determinant rule: the entries it keeps, or the
    NonUnimodularError it raises.  Each entry is tested for finiteness: the
    max of them drops a NaN that is not first.  Any |det - 1| past the
    rounding noise is divided out, however small."""
    if not all(math.isfinite(x) for x in (a, b, c, d)):
        raise NonUnimodularError("matrix entries are not finite")
    scale = max(abs(a), abs(b), abs(c), abs(d))
    noise = 16.0 * scale * scale * 2.220446049250313e-16
    if noise >= 0.5 or log_scale:
        return a, b, c, d
    det = a * d - b * c
    if det <= 0.0:
        raise NonUnimodularError(f"determinant {det} is not positive")
    if abs(det - 1.0) > noise:
        s = 1.0 / math.sqrt(det)
        return a * s, b * s, c * s, d * s
    return a, b, c, d


def reference_post_init(self):
    """reference_validate as a __post_init__, run after the dataclass
    __init__ has set every field: the rule that Matrix2.__init__ makes
    inline."""
    self.a, self.b, self.c, self.d = reference_validate(
        self.a, self.b, self.c, self.d, self.log_scale)


@dataclass(slots=True)
class ReferenceMatrix2:
    a: float
    b: float
    c: float
    d: float
    log_scale: float = 0.0

    __post_init__ = reference_post_init


@st.composite
def constructor_args(draw):
    """Entries with det within 1e-9 of 1, off by 1e-8 to 1e-1, or <= 0;
    at sizes on both sides of 1.19e7, past which the determinant's noise is
    >= 0.5; with an inf or nan entry; and with a nonzero log_scale."""
    size = draw(st.sampled_from([1.0, 1e3, 2e6, 1.2e7, 1e40, 1e160]))
    a = draw(st.floats(1.0, 10.0)) * size * draw(st.sampled_from([1.0, -1.0]))
    b = draw(st.floats(-10.0, 10.0)) * size
    c = draw(st.floats(-10.0, 10.0))
    off = draw(st.floats(-1e-9, 1e-9) | st.floats(1e-8, 1e-1)
               | st.floats(-1e-1, -1e-8) | st.floats(-3.0, -1.0))
    args = [a, b, c, (1.0 + off + b * c) / a]
    bad = draw(st.none() | st.tuples(st.integers(0, 3),
                                     st.sampled_from([math.inf, -math.inf, math.nan])))
    if bad is not None:
        args[bad[0]] = bad[1]
    log_scale = draw(st.just(0.0) | st.floats(-700.0, 700.0))
    return (*args, log_scale)


def mul_power(m, n):
    """Square-and-multiply through mul alone, from the lowest set bit of
    n >= 1: the products Matrix2.power takes, in its order."""
    result, base = None, m
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


def bits(m):
    return [x.hex() for x in (*m.entries(), m.log_scale)]


# Bases for Matrix2.power against mul_power.  drifting has det 1 + 8e-10,
# stored as it is, as mul stores a product that has drifted; the powers of
# hyperbolic pass 2^500 near n = 360 and are scaled from there; scaled has
# log_scale ln 2 from the start.
POWER_BASES = {
    "rotation": rotation(1.0),
    "drifting": _unchecked(*(x * (1.0 + 4e-10) for x in rotation(1.0).entries())),
    "hyperbolic": Matrix2(2.0, 1.0, 1.0, 1.0),
    "scaled": Matrix2(1.0, 0.5, 0.5, 0.5, math.log(2.0)),
}


def normalized(m):
    """(entries over the largest |entry|, log of the whole scale)."""
    top = max(abs(e) for e in m.entries())
    return [e / top for e in m.entries()], m.log_scale + math.log(top)


def entries():
    return st.floats(min_value=-5.0, max_value=5.0,
                     allow_nan=False, allow_infinity=False)


def unimodular():
    return st.builds(tuple, st.tuples(entries(), entries(), entries(), entries())) \
        .filter(lambda t: t[0] * t[3] - t[1] * t[2] > 1e-3) \
        .map(lambda t: Matrix2(*t))


def reference_mul(m1, m2):
    """mul for two unscaled letters whose product stays within 2^500: the
    product's entries and log scale 0, as they are."""
    return (m1.a * m2.a + m1.b * m2.c, m1.a * m2.b + m1.b * m2.d,
            m1.c * m2.a + m1.d * m2.c, m1.c * m2.b + m1.d * m2.d, 0.0)


@st.composite
def near_unimodular(draw):
    """Letters with det up to 1e-9 from 1, stored as they are, as mul
    stores products that have drifted."""
    a = draw(st.floats(0.1, 5.0)) * draw(st.sampled_from([1.0, -1.0]))
    b, c = draw(entries()), draw(entries())
    return _unchecked(a, b, c, (1.0 + draw(st.floats(-1e-9, 1e-9)) + b * c) / a)


class TestConstruction:
    def test_identity(self):
        m = identity()
        assert (m.a, m.b, m.c, m.d) == (1.0, 0.0, 0.0, 1.0)

    def test_rejects_negative_det(self):
        with pytest.raises(NonUnimodularError):
            Matrix2(1.0, 0.0, 0.0, -1.0)

    def test_rejects_singular(self):
        with pytest.raises(NonUnimodularError):
            Matrix2(1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("entries", [(1.0, math.nan, 0.0, 1.0),
                                         (1.0, 0.0, 0.0, math.nan),
                                         (math.nan, 0.0, 0.0, 1.0)])
    def test_rejects_nan_entry(self, entries):
        # max() of the entries keeps a NaN only when it comes first.
        with pytest.raises(NonUnimodularError, match="not finite"):
            Matrix2(*entries)

    def test_renormalizes_scaled_input(self):
        m = Matrix2(4.0, 0.0, 0.0, 1.0)
        assert m.det == pytest.approx(1.0, abs=1e-12)
        assert m.a == pytest.approx(2.0)

    def test_huge_entries_tolerated(self):
        # At this scale the float determinant is pure cancellation noise;
        # the constructor must accept the matrix as-is.
        m = Matrix2(1e160, 0.0, 0.0, 1e-160)
        assert m.a == 1e160

    @given(unimodular())
    def test_det_one(self, m):
        assert abs(m.det - 1.0) < 1e-6

    @settings(max_examples=1000)
    @given(constructor_args())
    def test_validation_matches_reference(self, args):
        try:
            expected = reference_validate(*args)
        except NonUnimodularError as exc:
            with pytest.raises(NonUnimodularError) as got:
                Matrix2(*args)
            assert str(got.value) == str(exc)
            return
        m = Matrix2(*args)
        assert [x.hex() for x in m.entries()] == [x.hex() for x in expected]
        assert m.log_scale == args[4]

    @settings(max_examples=1000)
    @given(constructor_args())
    def test_constructor_matches_post_init_reference(self, args):
        try:
            want = ReferenceMatrix2(*args)
        except NonUnimodularError as exc:
            with pytest.raises(NonUnimodularError) as got:
                Matrix2(*args)
            assert str(got.value) == str(exc)
            return
        m = Matrix2(*args)
        assert [x.hex() for x in (*m.entries(), m.log_scale)] == \
            [x.hex() for x in (want.a, want.b, want.c, want.d, want.log_scale)]

    def test_keywords_default_and_repr(self):
        m = Matrix2(d=0.5, c=0.0, b=0.0, a=2.0)
        assert m == Matrix2(2.0, 0.0, 0.0, 0.5)
        assert repr(m) == "Matrix2(a=2.0, b=0.0, c=0.0, d=0.5, log_scale=0.0)"


class TestAlgebra:
    @given(unimodular(), unimodular())
    def test_product_det(self, m1, m2):
        assert abs(mul(m1, m2).det - 1.0) < 1e-6

    @settings(max_examples=500)
    @given(near_unimodular(), near_unimodular())
    def test_product_keeps_its_entries(self, m1, m2):
        got, want = mul(m1, m2), reference_mul(m1, m2)
        assert [x.hex() for x in (*got.entries(), got.log_scale)] == \
            [x.hex() for x in want]

    @given(unimodular())
    def test_inverse(self, m):
        p = mul(m, m.inv())
        assert p.a == pytest.approx(1.0, abs=1e-9)
        assert p.b == pytest.approx(0.0, abs=1e-9)

    @given(unimodular(), st.integers(min_value=0, max_value=12))
    def test_power_matches_iteration(self, m, n):
        it = identity()
        for _ in range(n):
            it = mul(it, m)
        pw = m.power(n)
        scale = max(1.0, max(abs(e) for e in it.entries()))
        for x, y in zip(pw.entries(), it.entries()):
            assert abs(x - y) <= 1e-8 * scale

    @given(unimodular(), st.integers(min_value=-64, max_value=4096))
    def test_power_matches_reference(self, m, n):
        pw, ref = m.power(n), reference_power(m, n)
        assert pw.entries() == ref.entries()
        assert pw.log_scale == ref.log_scale

    @given(unimodular(), st.integers(min_value=-64, max_value=4096),
           st.integers(min_value=-40, max_value=40))
    def test_scaled_power_matches_reference(self, m, n, j):
        # m written as e^(j log 2) times its entries over 2^j.
        k = 2.0 ** j
        scaled = Matrix2(m.a / k, m.b / k, m.c / k, m.d / k, j * math.log(2.0))
        (pw, log_pw), (ref, log_ref) = (normalized(scaled.power(n)),
                                        normalized(reference_power(scaled, n)))
        for x, y in zip(pw, ref):
            assert abs(x - y) <= 1e-12
        assert abs(log_pw - log_ref) <= 1e-12 * max(1.0, abs(log_ref))

    @pytest.mark.parametrize("name", POWER_BASES)
    def test_power_matches_mul_bit_for_bit(self, name):
        m = POWER_BASES[name]
        for n in range(2, 3001):
            assert bits(m.power(n)) == bits(mul_power(m, n)), n

    def test_power_bases_cover_each_hand_over(self):
        # Hyperbolic powers turn scaled.
        hyperbolic = POWER_BASES["hyperbolic"]
        assert not hyperbolic.power(300).log_scale
        assert hyperbolic.power(400).log_scale

    def test_power_product_count(self, monkeypatch):
        # An unscaled power takes its products on floats, and hands each
        # one that fails mul's norm test to mat2._scaled: with a negative
        # norm limit every product fails it, so _scaled counts the
        # products.  A scaled power takes every product through mul, which
        # hands each to _scaled.
        from rvcocycle import mat2
        calls = []
        scaled_product = mat2._scaled
        monkeypatch.setattr(mat2, "_scaled",
                            lambda *e: calls.append(1) or scaled_product(*e))
        monkeypatch.setattr(mat2, "NORM2_LIMIT", -1.0)
        m = Matrix2(2.0, 1.0, 1.0, 1.0)
        scaled = Matrix2(1.0, 0.5, 0.5, 0.5, math.log(2.0))
        for base in (m, scaled):
            for n in (1, 2, 3, 7, 8, 13, 1000):
                calls.clear()
                base.power(n)
                assert len(calls) == (n.bit_length() - 1) + (bin(n).count("1") - 1), n
            calls.clear()
            assert base.power(1) is base
            assert base.power(0).entries() == (1.0, 0.0, 0.0, 1.0)
            assert not calls

    def test_negative_power(self):
        m = Matrix2(2.0, 1.0, 1.0, 1.0)
        p = mul(m.power(-3), m.power(3))
        assert p.a == pytest.approx(1.0, abs=1e-9)

    def test_rotation_composition(self):
        r = mul(rotation(0.3), rotation(0.4))
        expect = rotation(0.7)
        for x, y in zip(r.entries(), expect.entries()):
            assert x == pytest.approx(y, abs=1e-12)


class TestBoundary:
    def test_infinity_angle_zero(self):
        assert BoundaryPoint(1.0, 0.0).angle() == pytest.approx(0.0)

    def test_zero_angle_pi(self):
        assert BoundaryPoint.from_value(0.0).angle() == pytest.approx(math.pi)

    def test_projective_identification(self):
        p = BoundaryPoint(2.0, 3.0)
        q = BoundaryPoint(-2.0, -3.0)
        assert close_to(p, q)

    def test_link(self):
        p1 = BoundaryPoint.from_value(0.0)
        p2 = BoundaryPoint.from_value(2.0)
        q1 = BoundaryPoint.from_value(1.0)
        q2 = BoundaryPoint.from_value(3.0)
        assert arcs_link(p1, p2, q1, q2)
        assert not arcs_link(p1, q1, p2, q2)


class TestClassify:
    def test_rotation_elliptic(self):
        cls = classify(rotation(math.pi / 4))
        assert cls.kind == "elliptic"
        assert cls.attracting is None and cls.repelling is None

    def test_diagonal_hyperbolic(self):
        cls = classify(diagonal(2.0))
        assert cls.is_hyperbolic
        # Attracting at infinity (angle 0), repelling at 0 (angle pi).
        assert close_to(cls.attracting, BoundaryPoint(1.0, 0.0))
        assert close_to(cls.repelling, BoundaryPoint.from_value(0.0))

    def test_identity_kind(self):
        assert classify(identity()).kind == "identity"

    def test_parabolic_band(self):
        assert classify(Matrix2(1.0, 1.0, 0.0, 1.0)).kind == "parabolic-band"

    def test_hyperbolic_fixed_points(self):
        m = Matrix2(2.0, 1.0, 1.0, 1.0)
        rep, att = fixed_points_hyperbolic(m)
        for p in (rep, att):
            assert close_to(boundary_action(m, p), p, tol=1e-9)

    @given(unimodular())
    def test_attracting_is_attracting(self, m):
        cls = classify(m)
        if not cls.is_hyperbolic or spectral_radius(m) < 1.05:
            return
        # A generic point iterates toward the attracting fixed point.
        p = BoundaryPoint.from_value(0.123)
        if close_to(p, cls.repelling, tol=1e-6):
            return
        for _ in range(300):
            p = boundary_action(m, p)
        assert close_to(p, cls.attracting, tol=1e-3)

    def test_spectral_radius(self):
        assert spectral_radius(diagonal(3.0)) == pytest.approx(3.0)
        assert spectral_radius(rotation(1.0)) == 1.0
