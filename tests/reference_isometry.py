"""Reference actions of a Matrix2 that rvcocycle itself never needs: on the
upper half-plane, on the boundary circle, and the angle distance of two
boundary points.  Tests check fixed points and invariant arcs with them."""

import math

from rvcocycle.mat2 import TWO_PI, BoundaryPoint, Matrix2


def mobius(m: Matrix2, z: complex) -> complex:
    """Action on a point of the upper half-plane."""
    return (m.a * z + m.b) / (m.c * z + m.d)


def boundary_action(m: Matrix2, p: BoundaryPoint) -> BoundaryPoint:
    """Action on a point (u : v) of the boundary circle RP^1."""
    return BoundaryPoint(m.a * p.u + m.b * p.v, m.c * p.u + m.d * p.v)


def close_to(p: BoundaryPoint, q: BoundaryPoint, tol: float = 1e-8) -> bool:
    """Distance in the projective (angle) metric at most tol."""
    da = abs(p.angle() - q.angle()) % TWO_PI
    return min(da, TWO_PI - da) <= tol
