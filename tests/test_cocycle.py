import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rvcocycle.cocycle import (
    CocyclePair,
    TRANSITIONS,
    classify_pair,
    cone_certificate,
    k_membership,
    letter_coords,
    short_words,
    tau1,
    tau2,
    tau_power,
    trace_bound,
    trace_coords,
)
from rvcocycle.hypgeom import hh_minus_canonical_pair, rotation_about
from rvcocycle.lyapunov import _Induction, exponent_lower_bound, renorm_decision
from rvcocycle.mat2 import (
    TWO_PI,
    Matrix2,
    NonUnimodularError,
    arcs_link,
    classify,
    diagonal,
    mul,
    rotation,
    spectral_radius,
    times_exp,
)
from reference_isometry import boundary_action


def random_pair(rng, scale=2.0):
    def m():
        while True:
            e = [rng.uniform(-scale, scale) for _ in range(4)]
            if e[0] * e[3] - e[1] * e[2] > 0.05:
                return Matrix2(*e)
    return CocyclePair(m(), m())


def reference_classify_pair(p, eps=1e-9):
    """classify_pair as it was: both letters through classify, fixed
    points included, whatever their types."""
    ca = classify(p.A)
    cb = classify(p.B)
    for name, c in (("A", ca), ("B", cb)):
        if c.kind in ("parabolic-band", "identity"):
            return "DEG", f"{name} is within eps of the parabolic locus"
    if ca.kind == "elliptic" and cb.kind == "elliptic":
        return "EE", None
    if ca.kind == "elliptic":
        return "EH", None
    if cb.kind == "elliptic":
        return "HE", None
    atts = (ca.attracting.angle(), cb.attracting.angle())
    reps = (ca.repelling.angle(), cb.repelling.angle())
    for a in atts:
        for r in reps:
            gap = (a - r) % TWO_PI
            if min(gap, TWO_PI - gap) <= eps:
                return "DEG", ("an attracting and a repelling fixed point "
                               "nearly coincide")
    if arcs_link(ca.attracting, cb.attracting, ca.repelling, cb.repelling):
        return "HH-", None
    return "HH+", None


def letter_with_trace(t, x, b):
    """The unimodular matrix [[t/2 + x, b], [c, t/2 - x]] of trace t."""
    a, d = t / 2.0 + x, t / 2.0 - x
    return Matrix2(a, b, (a * d - 1.0) / b, d)


def letters():
    """Letters of every kind, many of them at the type boundaries: traces
    within a few eps of +-2, near-identity matrices, plain random ones."""
    unit = st.floats(min_value=-3.0, max_value=3.0).filter(lambda v: abs(v) > 1e-3)
    near_two = st.builds(
        lambda sign, off, x, b: letter_with_trace(sign * (2.0 + off), x, b),
        st.sampled_from((-1.0, 1.0)), st.floats(min_value=-3e-9, max_value=3e-9),
        st.floats(min_value=-2.0, max_value=2.0), unit)
    near_identity = st.builds(
        lambda sign, e: Matrix2(sign * (1.0 + e[0]), e[1], e[2], sign * (1.0 + e[3])),
        st.sampled_from((-1.0, 1.0)),
        st.tuples(*[st.floats(min_value=-2e-9, max_value=2e-9)] * 4))
    plain = st.builds(letter_with_trace, st.floats(min_value=-6.0, max_value=6.0),
                      st.floats(min_value=-2.0, max_value=2.0), unit)
    return st.one_of(near_two, near_identity, plain, st.builds(rotation, angles()),
                     st.builds(diagonal, st.floats(min_value=0.2, max_value=5.0)))


def log_word_radii(p, max_len):
    """Yield (n, min log spectral radius over the words in {A, B} of length
    n) for n = 1 .. max_len, computed apart from the program: numpy
    products kept at largest entry 1 with a separate log scale, and each
    word split into a prefix of length n // 2 and the rest."""
    gens = np.array([p.A.entries(), p.B.entries()]).reshape(2, 2, 2)
    gen_logs = np.array([p.A.log_scale, p.B.log_scale])
    levels = [(np.eye(2)[None], np.zeros(1))]
    for _ in range((max_len + 1) // 2):
        m, s = levels[-1]
        m = np.concatenate([m @ gens[0], m @ gens[1]])
        s = np.concatenate([s + gen_logs[0], s + gen_logs[1]])
        top = np.abs(m).max(axis=(1, 2))
        levels.append((m / top[:, None, None], s + np.log(top)))
    for n in range(1, max_len + 1):
        (x, sx), (y, sy) = levels[n // 2], levels[n - n // 2]
        with np.errstate(divide="ignore"):
            log_tr = (np.log(np.abs(np.einsum("aij,bji->ab", x, y)))
                      + sx[:, None] + sy[None, :])
        t = np.exp(np.minimum(log_tr, 30.0))
        small = np.log((t + np.sqrt(np.maximum(t * t - 4.0, 0.0))) / 2.0)
        log_rho = np.where(log_tr > 30.0, log_tr, np.maximum(small, 0.0))
        yield n, float(log_rho.min())


def assert_words_keep(p, cert, max_len):
    """rho(w) >= constant * mu^len(w) on every word of length up to max_len,
    by log_word_radii."""
    for n, log_rho in log_word_radii(p, max_len):
        lower = math.log(cert.constant) + n * math.log(cert.expansion_factor)
        assert log_rho >= lower + math.log1p(-1e-9), \
            f"word of length {n}: log radius {log_rho} < log bound {lower}"


def angles():
    return st.floats(min_value=0.05, max_value=6.2)


class TestMoves:
    def test_tau1(self):
        a = Matrix2(2.0, 1.0, 1.0, 1.0)
        b = Matrix2(1.0, 0.0, 1.0, 1.0)
        p = tau1(CocyclePair(a, b))
        assert p.A == a
        assert p.B == mul(b, a)

    def test_tau2(self):
        a = Matrix2(2.0, 1.0, 1.0, 1.0)
        b = Matrix2(1.0, 0.0, 1.0, 1.0)
        p = tau2(CocyclePair(a, b))
        assert p.A == mul(b, a)
        assert p.B == b

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=2))
    def test_tau_power_matches_iteration(self, n, which):
        p = CocyclePair(Matrix2(2.0, 1.0, 1.0, 1.0), Matrix2(1.0, 0.5, 0.0, 1.0))
        q = p
        step = tau1 if which == 1 else tau2
        for _ in range(n):
            q = step(q)
        r = tau_power(p, which, n)
        for got, want in zip(r.A.entries() + r.B.entries(),
                             q.A.entries() + q.B.entries()):
            scale = max(1.0, abs(want))
            assert abs(got - want) <= 1e-9 * scale

    def test_tau_power_rejects_negative(self):
        p = CocyclePair(diagonal(2.0), diagonal(3.0))
        with pytest.raises(ValueError):
            tau_power(p, 1, -1)


class TestTraceCoords:
    def test_commuting_pair_commutator_trace(self):
        p = CocyclePair(diagonal(2.0), diagonal(3.0))
        assert trace_coords(p).c == pytest.approx(2.0)

    def test_twist_pair(self):
        # Standard twist generators: x = y = 2, z = 3, c = x^2+y^2+z^2-xyz-2.
        p = CocyclePair(Matrix2(1.0, 1.0, 0.0, 1.0), Matrix2(1.0, 0.0, 1.0, 1.0))
        tc = trace_coords(p)
        assert (tc.x, tc.y, tc.z) == (2.0, 2.0, 3.0)
        assert tc.c == pytest.approx(3.0)

    def test_residual_small_random(self):
        rng = random.Random(11)
        worst = 0.0
        for _ in range(500):
            worst = max(worst, trace_coords(random_pair(rng)).residual)
        assert worst < 1e-10

    def test_coords_invariant_under_moves(self):
        # tau1 and tau2 change (x, y, z) but preserve c: the commutator trace
        # is a conjugation invariant of the pair's group.
        rng = random.Random(5)
        for _ in range(50):
            p = random_pair(rng)
            c0 = trace_coords(p).c
            assert trace_coords(tau1(p)).c == pytest.approx(c0, rel=1e-6, abs=1e-6)
            assert trace_coords(tau2(p)).c == pytest.approx(c0, rel=1e-6, abs=1e-6)

    def test_bound_formula(self):
        assert trace_bound(-2.0) == pytest.approx(2.0 + math.sqrt(8.0))
        assert trace_bound(7.0) == pytest.approx(2.0 + math.sqrt(17.0))

    def test_bound_holds_on_membership_set(self):
        rng = random.Random(23)
        checked = 0
        while checked < 200:
            p = random_pair(rng)
            km = k_membership(trace_coords(p))
            if not km.in_k:
                continue
            tc = trace_coords(p)
            bound = trace_bound(tc.c)
            assert max(abs(tc.x), abs(tc.y), abs(tc.z)) <= bound + 1e-9
            checked += 1


def off_unimodular(t, k, off):
    """diag(2^k, 2^-k) R(t) with its first row times 1 + off: det 1 + off."""
    s, co, si = 2.0 ** k, math.cos(t), math.sin(t)
    return Matrix2(s * co * (1.0 + off), -s * si * (1.0 + off), si / s, co / s)


@st.composite
def letters(draw):
    """off_unimodular letters with det up to 1e-9 from 1, which the
    constructor keeps at entries past its noise limit; entries up to 2^260,
    so a product's entries reach past 2^500; some scaled, their entries
    over the largest one and its log in log_scale."""
    m = off_unimodular(draw(st.floats(0.0, TWO_PI)),
                       draw(st.floats(0.0, 3.0) | st.floats(240.0, 260.0)),
                       draw(st.floats(-1e-9, 1e-9)))
    if draw(st.booleans()):
        top = max(abs(e) for e in m.entries())
        m = Matrix2(m.a / top, m.b / top, m.c / top, m.d / top, math.log(top))
    return m


def hexes(*xs):
    return [x.hex() for x in xs]


class TestLetterCoords:
    """letter_coords reads z off the entries of AB where mul would return
    them as they are; z, its log and c must be mul's bits everywhere."""

    def check_against_mul(self, a, b):
        ab, ba = mul(a, b), mul(b, a)
        c = times_exp(ab.a * ba.d + ab.d * ba.a - ab.b * ba.c - ab.c * ba.b,
                      ab.log_scale + ba.log_scale)
        tc = letter_coords(a, b)
        assert hexes(tc.z, tc.log_abs_z, tc.c) == \
            hexes(ab.trace, ab.log_abs_trace(), c)
        tc = letter_coords(a, b, 2.5)
        assert hexes(tc.z, tc.log_abs_z) == hexes(ab.trace, ab.log_abs_trace())
        return ab

    @settings(max_examples=500)
    @given(letters(), letters())
    def test_matches_mul(self, a, b):
        self.check_against_mul(a, b)

    def test_entries_near_the_scaling_limit(self):
        # Products just inside and just past 2^500.
        for k in (249.0, 249.9, 250.0, 250.1, 251.0):
            a, b = off_unimodular(0.3, k, 0.0), off_unimodular(0.2, k, 0.0)
            self.check_against_mul(a, b)

    def test_bad_products_raise(self):
        # From letters the constructor keeps unchecked (entries past its
        # noise limit): a NaN product (inf - inf) raises in mul and
        # letter_coords.  A product with det -1, which mul stores as it is,
        # raises where the induction makes it a level letter: alpha = 0.4
        # starts with a Bottom run of 1, and B A is diag(1, -1).
        a, b = (Matrix2(1e300, 1e300, 0.0, 1e-300),
                Matrix2(1e300, 0.0, -1e300, 1e-300))
        with pytest.raises(NonUnimodularError):
            mul(a, b)
        for c in (None, 2.5):
            with pytest.raises(NonUnimodularError):
                letter_coords(a, b, c)
        negative = CocyclePair(Matrix2(1e8, 0.0, 0.0, -1e-8),
                               Matrix2(1e-8, 0.0, 0.0, 1e8))
        table = _Induction(negative, 0.4)
        table.run(0)
        with pytest.raises(NonUnimodularError, match="determinant"):
            table.pair(1)


class TestMembership:
    def test_two_rotations(self):
        p = CocyclePair(rotation(1.0), rotation(0.7))
        km = k_membership(trace_coords(p))
        assert km.in_k
        assert {"A", "B"} <= km.elliptic_witnesses

    def test_two_translations(self):
        p = CocyclePair(diagonal(2.0), diagonal(3.0))
        assert not k_membership(trace_coords(p)).in_k

    def test_product_witness(self):
        # A and AB elliptic, B hyperbolic.
        a = rotation(1.2)
        b = mul(a.inv(), rotation_about(0.3 + 1.0j, 2.0))
        p = CocyclePair(a, b)
        km = k_membership(trace_coords(p))
        if abs(b.trace) > 2:
            assert "AB" in km.elliptic_witnesses


class TestClassifyPair:
    def test_ee(self):
        assert classify_pair(CocyclePair(rotation(1.0), rotation(0.5))).code == "EE"

    def test_eh_he(self):
        assert classify_pair(CocyclePair(rotation(1.0), diagonal(2.0))).code == "EH"
        assert classify_pair(CocyclePair(diagonal(2.0), rotation(1.0))).code == "HE"

    def test_hh_plus_disjoint_axes(self):
        a = diagonal(2.0)
        b = Matrix2(0.0, -1.0, 1.0, 0.0) @ diagonal(2.0) @ Matrix2(0.0, 1.0, -1.0, 0.0)
        # b has axis (0, inf) reversed: attracting 0, repelling inf -> the
        # attracting points 0 and inf are separated by nothing (reps also 0
        # and inf) -- use a cleaner example below instead.
        a = Matrix2(2.0, 0.0, 0.0, 0.5)
        g = Matrix2(1.0, 1.0, 0.0, 1.0)
        b = g @ a @ g.inv()
        assert classify_pair(CocyclePair(a, b)).code == "HH+"

    def test_hh_plus_crossing_axes(self):
        # Axes may cross while the attracting points remain adjacent: still
        # a common invariant arc, still absorbing.
        a = Matrix2(2.0, 0.0, 0.0, 0.5)
        r = rotation(0.15)
        b = r @ a @ r.inv()
        assert classify_pair(CocyclePair(a, b)).code == "HH+"

    def test_hh_minus(self):
        a, b = hh_minus_canonical_pair(0.7, 1.2, 0.9)
        assert classify_pair(CocyclePair(a, b)).code == "HH-"

    def test_commuting_pair_not_degenerate(self):
        a = diagonal(2.0)
        assert classify_pair(CocyclePair(a, a)).code == "HH+"

    def test_degenerate_parabolic(self):
        p = CocyclePair(Matrix2(1.0, 1.0, 0.0, 1.0), rotation(1.0))
        assert classify_pair(p).is_degenerate

    def test_degenerate_shared_fixed_point(self):
        # A attracting = B repelling = infinity.
        a = diagonal(2.0)
        b = diagonal(0.5)
        assert classify_pair(CocyclePair(a, b)).is_degenerate


class TestClassifyPairMatchesReference:
    @settings(max_examples=400)
    @given(letters(), letters())
    def test_matches_classify_reference(self, a, b):
        p = CocyclePair(a, b)
        got = classify_pair(p)
        assert (got.code, got.reason) == reference_classify_pair(p)

    def test_shared_axes_and_boundaries(self):
        a = diagonal(2.0)
        # Traces on the band edges 2 -+ eps and their float neighbours.
        edges = [t for edge in (2.0 - 1e-9, 2.0 + 1e-9)
                 for t in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 4.0))]
        on_edges = [letter_with_trace(sign * t, 0.0, 0.7)
                    for t in edges for sign in (1.0, -1.0)]
        assert {abs(m.trace) for m in on_edges} == set(edges)
        for b in [diagonal(0.5), diagonal(2.0), a.inv(), rotation(1e-10),
                  Matrix2(1.0, 1.0, 0.0, 1.0), Matrix2(-1.0, 0.0, 0.0, -1.0)] + on_edges:
            for p in (CocyclePair(a, b), CocyclePair(b, a)):
                got = classify_pair(p)
                assert (got.code, got.reason) == reference_classify_pair(p)

    def test_cone_certificate_needs_hh_plus(self):
        rng = random.Random(5)
        for _ in range(300):
            p = random_pair(rng)
            if reference_classify_pair(p)[0] != "HH+":
                assert cone_certificate(p) is None


class TestTransitions:
    def test_absorbing(self):
        assert TRANSITIONS[("HH+", 1)] == frozenset({"HH+"})
        assert TRANSITIONS[("HH+", 2)] == frozenset({"HH+"})

    def test_audit_random_moves(self):
        rng = random.Random(77)
        violations = 0
        checked = 0
        while checked < 2000:
            p = random_pair(rng)
            t0 = classify_pair(p)
            if t0.is_degenerate:
                continue
            move = rng.choice((1, 2))
            q = tau1(p) if move == 1 else tau2(p)
            t1 = classify_pair(q)
            if t1.is_degenerate:
                continue
            checked += 1
            if t1.code not in TRANSITIONS[(t0.code, move)]:
                violations += 1
        assert violations == 0


class TestCone:
    def test_none_for_non_absorbing(self):
        assert cone_certificate(CocyclePair(rotation(1.0), rotation(0.5))) is None
        a, b = hh_minus_canonical_pair(0.7, 1.2, 0.9)
        assert cone_certificate(CocyclePair(a, b)) is None

    def test_commuting_diagonal(self):
        p = CocyclePair(diagonal(2.0), diagonal(2.0))
        cert = cone_certificate(p)
        assert cert is not None
        assert cert.expansion_factor == 2.0
        assert cert.constant == 1.0

    def test_certificate_soundness(self):
        rng = random.Random(31)
        found = 0
        while found < 20:
            p = random_pair(rng)
            try:
                t = classify_pair(p)
            except ValueError:
                continue
            if t.code != "HH+":
                continue
            cert = cone_certificate(p)
            if cert is None:
                continue
            found += 1
            # Both attracting points lie in the arc.
            for m in (p.A, p.B):
                att = classify(m).attracting
                assert cert.contains_angle(att.angle())
            # Spectral radii of short words obey the certified lower bound.
            for n, w in short_words(p, 6):
                lower = cert.constant * cert.expansion_factor ** n
                assert spectral_radius(w) >= lower * (1.0 - 1e-9)

    def test_proved_bound_every_length(self):
        # Criterion 4's draw: rho(w) >= C mu^len(w) holds past the lengths
        # cone_certificate looks at (17 for all 50 pairs, 20 for the first 4).
        rng = random.Random(31)
        found = 0
        while found < 50:
            p = random_pair(rng, scale=2.5)
            try:
                if classify_pair(p).code != "HH+":
                    continue
                cert = cone_certificate(p)
            except ValueError:
                continue
            if cert is None:
                continue
            found += 1
            max_len = 20 if found <= 4 else 17
            for n, log_rho in log_word_radii(p, max_len):
                lower = math.log(cert.constant) + n * math.log(cert.expansion_factor)
                assert log_rho >= lower + math.log1p(-1e-9), \
                    f"pair {found}, word of length {n}: log radius {log_rho} " \
                    f"< log bound {lower}"

    def test_weak_pair_is_certified(self):
        # An HH+ pair of criterion 4's draw (seed 31, scale 2.5) on which no
        # block length up to 12 of a block-length ladder proved a rate above
        # 1: a length-8 word grows only about 1.048 per letter.  The
        # Birkhoff rate proves mu = 1.0227, and every word up to length 20
        # keeps it.
        p = CocyclePair(
            Matrix2(-1.0979387479033134, 0.4875026217567887,
                    0.2537453433510055, -1.0234646716750608),
            Matrix2(-1.2556963476309757, -0.9590704883837048,
                    -0.33513549825046857, -1.0523392605822341))
        assert classify_pair(p).code == "HH+"
        cert = cone_certificate(p)
        assert cert is not None and cert.expansion_factor > 1.0
        assert_words_keep(p, cert, 20)
        alpha = (math.sqrt(5.0) - 1.0) / 2.0
        trace = renorm_decision(p, alpha)
        assert trace.verdict.kind == "UniformlyHyperbolic"
        assert trace.verdict.at_step == 0
        assert exponent_lower_bound(trace, alpha) > 0.0

    def test_every_absorbing_pair_is_certified(self):
        # Criterion 4's first 300 HH+ pairs (seed 31, scale 2.5) all get a
        # certificate.  A block-length ladder over L = 1, 2, 4, 8, 12 left
        # pairs 10, 79, 102 and 231 without one; their words are checked
        # to length 17.
        rng = random.Random(31)
        certs = []
        while len(certs) < 300:
            p = random_pair(rng, scale=2.5)
            try:
                if classify_pair(p).code != "HH+":
                    continue
                certs.append((p, cone_certificate(p)))
            except ValueError:
                continue
        assert all(cert is not None for _, cert in certs)
        for i in (10, 79, 102, 231):
            assert_words_keep(*certs[i], 17)

    def test_arc_invariance(self):
        p = CocyclePair(Matrix2(3.0, 1.0, 1.0, 0.667), Matrix2(2.5, 0.3, 0.4, 0.448))
        if classify_pair(p).code != "HH+":
            pytest.skip("fixture drifted off HH+")
        cert = cone_certificate(p)
        assert cert is not None
        import math as _m
        from rvcocycle.mat2 import BoundaryPoint
        width = (cert.arc_hi - cert.arc_lo) % (2 * _m.pi)
        for k in range(50):
            ang = (cert.arc_lo + width * k / 49.0) % (2 * _m.pi)
            q = BoundaryPoint(_m.cos(ang / 2.0), _m.sin(ang / 2.0))
            for m in (p.A, p.B):
                img = boundary_action(m, q)
                assert cert.contains_angle(img.angle())


class TestShortWords:
    def test_counts(self):
        p = CocyclePair(diagonal(2.0), Matrix2(1.0, 1.0, 0.0, 1.0))
        words = list(short_words(p, 4))
        assert len(words) == 2 + 4 + 8 + 16

    @given(angles(), angles())
    @settings(max_examples=30)
    def test_words_are_unimodular(self, t1, t2):
        p = CocyclePair(rotation(t1), rotation_about(1.0 + 1.5j, t2))
        for _, w in short_words(p, 5):
            assert abs(w.det - 1.0) < 1e-6
