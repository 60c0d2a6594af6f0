"""Upper half-plane geometry and the product-type threshold formulas.

The three threshold routines give, in closed form from the trace of a
product (Beardon, The Geometry of Discrete Groups, 1983), the parameter
values at which a product of two isometries changes type
(elliptic <-> parabolic <-> hyperbolic).  All of them work in a canonical
position: elliptic centers on the imaginary axis, hyperbolic axis equal to
the imaginary axis.  Angles of rotations are *geometric* angles in
(0, 2*pi): the rotation of angle t about i is the matrix R(t/2), whose
trace is 2 cos(t/2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .cocycle import DegeneratePairError
from .mat2 import (
    BoundaryPoint,
    IsometryClass,
    Matrix2,
    arcs_link,
    classify,
    mul,
    rotation,
)

class NoTransitionError(RuntimeError):
    """The product does not change type over the parameter range in question."""


@dataclass(frozen=True)
class EllipticData:
    center: complex
    angle: float  # geometric rotation angle in (0, 2*pi)


@dataclass(frozen=True)
class HyperbolicData:
    repelling: BoundaryPoint
    attracting: BoundaryPoint
    translation_length: float


@dataclass(frozen=True)
class PairGeometry:
    distance: float
    crossing: bool


# ---------------------------------------------------------------------------
# Basic metric and constructors


def hyp_distance(p: complex, q: complex) -> float:
    """Hyperbolic distance between two points of the open upper half-plane."""
    if p.imag <= 0 or q.imag <= 0:
        raise ValueError("points must lie in the open upper half-plane")
    t = 1.0 + abs(p - q) ** 2 / (2.0 * p.imag * q.imag)
    return math.acosh(t)


def move_i_to(center: complex) -> Matrix2:
    """Upper-triangular matrix sending i to the given point x + iy, y > 0."""
    x, y = center.real, center.imag
    if y <= 0:
        raise ValueError("center must have positive imaginary part")
    s = math.sqrt(y)
    return Matrix2(s, x / s, 0.0, 1.0 / s)


def rotation_about(center: complex, angle: float) -> Matrix2:
    """Rotation of geometric angle `angle` about `center` (trace 2 cos(angle/2))."""
    p = move_i_to(center)
    return mul(mul(p, rotation(angle / 2.0)), p.inv())


def axis_to_imaginary(rep: BoundaryPoint, att: BoundaryPoint) -> Matrix2:
    """Matrix carrying (repelling, attracting) to (0, infinity)."""
    return _frame(rep, att).inv()


def _frame(rep: BoundaryPoint, att: BoundaryPoint) -> Matrix2:
    """Matrix carrying 0 -> rep and infinity -> att (columns att, rep)."""
    a, b = att.u, rep.u
    c, d = att.v, rep.v
    if a * d - b * c < 0:
        b, d = -b, -d
    return Matrix2(a, b, c, d)


def translation_between(rep: BoundaryPoint, att: BoundaryPoint,
                        length: float) -> Matrix2:
    """Hyperbolic translation with the given axis endpoints and length > 0."""
    if length <= 0:
        raise ValueError("translation length must be positive")
    lam = math.exp(length / 2.0)
    q = _frame(rep, att)
    return mul(mul(q, Matrix2(lam, 0.0, 0.0, 1.0 / lam)), q.inv())


def elliptic_data(m: Matrix2, eps: float = 1e-9) -> EllipticData:
    cls = classify(m, eps)
    if not cls.is_elliptic:
        raise DegeneratePairError("matrix is not elliptic")
    return EllipticData(center=cls.center, angle=(2.0 * cls.angle) % (2.0 * math.pi))


def hyperbolic_data(m: Matrix2, eps: float = 1e-9) -> HyperbolicData:
    cls = classify(m, eps)
    if not cls.is_hyperbolic:
        raise DegeneratePairError("matrix is not hyperbolic")
    return HyperbolicData(
        repelling=cls.repelling,
        attracting=cls.attracting,
        translation_length=cls.translation_length,
    )


def reconstruct(data: EllipticData | HyperbolicData) -> Matrix2:
    """Matrix (up to sign) with the given geometric data."""
    if isinstance(data, EllipticData):
        return rotation_about(data.center, data.angle)
    return translation_between(data.repelling, data.attracting,
                               data.translation_length)


# ---------------------------------------------------------------------------
# Distances between the invariant objects of a pair


def point_to_axis_distance(p: complex, rep: BoundaryPoint,
                           att: BoundaryPoint) -> float:
    """Distance from a half-plane point to the geodesic with given endpoints."""
    g = axis_to_imaginary(rep, att)
    z = g.mobius(p)
    return math.asinh(abs(z.real) / z.imag)


def axis_to_axis(rep_a: BoundaryPoint, att_a: BoundaryPoint,
                 rep_b: BoundaryPoint, att_b: BoundaryPoint) -> tuple[float, bool]:
    """(distance, crossing) for two geodesics given by their endpoints."""
    if arcs_link(rep_a, att_a, rep_b, att_b):
        return 0.0, True
    g = axis_to_imaginary(rep_a, att_a)
    p = boundary_value(g, rep_b)
    q = boundary_value(g, att_b)
    # Disjoint from the imaginary axis: both endpoints on one side.
    lo, hi = sorted((abs(p), abs(q)))
    if hi == math.inf or lo == 0.0:
        # Shared endpoint with the first axis: asymptotic geodesics.
        return 0.0, False
    return math.acosh((lo + hi) / (hi - lo)), False


def boundary_value(m: Matrix2, p: BoundaryPoint) -> float:
    u = m.a * p.u + m.b * p.v
    v = m.c * p.u + m.d * p.v
    if v == 0.0:
        return math.inf
    return u / v


def pair_geometry(a: Matrix2, b: Matrix2, eps: float = 1e-9) -> PairGeometry:
    """Type-dependent distance between the invariant objects of a and b."""
    ca, cb = classify(a, eps), classify(b, eps)
    if not (ca.is_elliptic or ca.is_hyperbolic):
        raise DegeneratePairError(f"first matrix classified {ca.kind}")
    if not (cb.is_elliptic or cb.is_hyperbolic):
        raise DegeneratePairError(f"second matrix classified {cb.kind}")
    if ca.is_elliptic and cb.is_elliptic:
        return PairGeometry(hyp_distance(ca.center, cb.center), False)
    if ca.is_elliptic:
        d = point_to_axis_distance(ca.center, cb.repelling, cb.attracting)
        return PairGeometry(d, False)
    if cb.is_elliptic:
        d = point_to_axis_distance(cb.center, ca.repelling, ca.attracting)
        return PairGeometry(d, False)
    dist, crossing = axis_to_axis(ca.repelling, ca.attracting,
                                  cb.repelling, cb.attracting)
    return PairGeometry(dist, crossing)


# ---------------------------------------------------------------------------
# Threshold formulas


def elliptic_product_threshold(d: float, theta_a: float) -> float:
    """Critical angle alpha such that, with A a rotation of angle theta_a about i
    and B a rotation of angle theta_b about the point at distance d up the
    imaginary axis, the product AB is elliptic for theta_b in (-alpha, alpha)
    and hyperbolic for theta_b in (alpha, 2*pi - alpha).

    With a = theta_a/2 and b = theta_b/2, tr(AB)/2 = cos a cos b
    - sin a sin b cosh d = R cos(b + psi), where R = hypot(cos a, sin a cosh d)
    and psi = atan2(sin a cosh d, cos a).  Rising from b = 0, |tr AB| first
    reaches 2 at b + psi = pi - arccos(1/R).  Raises NoTransitionError when
    A itself is not elliptic in floating point or when alpha >= pi.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    # A and -A are one isometry, so a may be taken mod pi: then sin a >= 0.
    a = 0.5 * (theta_a % (2.0 * math.pi))
    c, s = math.cos(a), math.sin(a)
    if abs(c) >= 1.0 - sys.float_info.epsilon:
        raise NoTransitionError("product is not elliptic near theta_b = 0")
    # pi - psi = atan2(s cosh d, -c), and R^2 - 1 = (s sinh d)^2 gives
    # arccos(1/R) = atan2(s sinh d, 1): no arccos near 1.
    alpha = 2.0 * (math.atan2(s * math.cosh(d), -c)
                   - math.atan2(s * math.sinh(d), 1.0))
    if alpha >= math.pi:
        raise NoTransitionError("product stays elliptic for theta_b up to pi")
    return alpha


def mixed_product_interval(t: float, d: float) -> tuple[float, float]:
    """Open interval of rotation angles theta for which the product of a
    translation of length t (axis = imaginary axis) and a rotation of angle
    theta about a point at distance d from that axis is elliptic.

    tr(AB)/2 = cos(theta/2) cosh(t/2) + sinh d sin(theta/2) sinh(t/2)
    = cosh(t/2) cos(theta/2 - phi) / cos phi with phi = atan(sinh d tanh(t/2)),
    so AB is elliptic where |cos(theta/2 - phi)| < cos beta, with
    beta = arccos(cos phi / cosh(t/2)).  Since beta > phi, the interval
    (2(beta + phi), 2(pi + phi - beta)) is never empty.
    """
    if t <= 0 or d <= 0:
        raise ValueError("t and d must be positive")
    phi = math.atan(math.sinh(d) * math.tanh(t / 2.0))
    # cosh^2(t/2) - cos^2 phi = sinh^2(t/2) + sin^2 phi: no arccos near 1.
    beta = math.atan2(math.hypot(math.sinh(t / 2.0), math.sin(phi)),
                      math.cos(phi))
    return 2.0 * (beta + phi), 2.0 * (math.pi + phi - beta)


def hh_minus_canonical_pair(t_a: float, t_b: float, d: float) -> tuple[Matrix2, Matrix2]:
    """Canonical pair of translations in alternating (H,H)- position.

    A translates along the imaginary axis (repelling 0, attracting infinity)
    by t_a.  B has axis at distance d from it, endpoints 1/s and s with
    s = coth(d/2), attracting the endpoint 1/s so that attracting and
    repelling fixed points alternate around the circle.
    """
    if t_a <= 0 or t_b <= 0 or d <= 0:
        raise ValueError("lengths and distance must be positive")
    lam = math.exp(t_a / 2.0)
    a = Matrix2(lam, 0.0, 0.0, 1.0 / lam)
    s = 1.0 / math.tanh(d / 2.0)
    b = translation_between(
        rep=BoundaryPoint.from_value(s),
        att=BoundaryPoint.from_value(1.0 / s),
        length=t_b,
    )
    return a, b


def hh_minus_thresholds(t_b: float, d: float) -> tuple[float, float]:
    """Thresholds 0 < t1 < t2 in the length of A for the canonical alternating
    (H,H)- configuration: AB stays hyperbolic with (A, AB) of type (H,H)- for
    t_a < t1, is elliptic for t_a in (t1, t2), and is hyperbolic with (A, AB)
    of type (H,H)+ for t_a > t2.

    With lam = e^{t_a/2}, tr(AB) = lam b11 + b22 / lam.  It equals tr B > 2 at
    lam = 1 and falls through -2 only when b11 < 0, which holds when B is
    strong relative to the axis distance (e^{t_b/2} > coth(d/2)); otherwise
    NoTransitionError.  With r = sqrt(1 - b11 b22), tr(AB) = 2 at
    lam = b22 / (1 + r) and tr(AB) = -2 at lam = (1 + r) / (-b11).
    """
    _, b = hh_minus_canonical_pair(1.0, t_b, d)  # B does not depend on t_a
    if b.a >= 0.0:
        raise NoTransitionError("trace never drops below -2")
    r = math.sqrt(1.0 - b.a * b.d)
    return 2.0 * math.log(b.d / (1.0 + r)), 2.0 * math.log((1.0 + r) / -b.a)
