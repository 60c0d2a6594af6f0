"""2x2 unimodular matrix kernel: products, isometry types, and the boundary
fixed points of hyperbolic matrices.

Matrices act on the upper half-plane by Mobius transformations and on its
boundary circle RP^1.  Boundary points are stored projectively as (u : v)
pairs so that infinity needs no special casing; the circular order on RP^1
is computed in the angle chart t = 2*atan2(v, u) mod 2*pi.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

EPS_TRACE = 1e-9
TWO_PI = 2.0 * math.pi
# mul keeps a product unscaled while its entries stay at most 2^500 (tested
# as a squared Frobenius norm of at most 2^1000, else with the largest
# entry): then neither the product of two unscaled matrices nor the square
# of a trace overflows.  Past that, mul moves the excess into the log scale.
# The CLI rejects input entries past ENTRY_LIMIT for the same reason.
ENTRY_LIMIT = 2.0 ** 500
NORM2_LIMIT = ENTRY_LIMIT * ENTRY_LIMIT
LOG_SCALE_LIMIT = 500.0 * math.log(2.0)
LOG_FLOAT_MAX = math.log(sys.float_info.max)


class NonUnimodularError(ValueError):
    """Raised when a matrix has entries that are not finite or det <= 0."""


@dataclass(slots=True, init=False)
class Matrix2:
    """Real 2x2 matrix with determinant 1: e^log_scale * [[a, b], [c, d]].

    log_scale is 0 unless the matrix is a product whose entries would pass
    2^500; mul then divides the entries by the largest one and adds its log
    to log_scale, so products of any length stay finite.  The entries of a
    scaled matrix have determinant e^(-2 log_scale), and everything that
    reads them (trace, classification, fixed points) is projective.

    The constructor holds the one determinant rule: it rejects entries
    that are not finite, and unscaled entries with det <= 0, and divides by
    sqrt(det) where |det - 1| passes the rounding noise 16 s^2 eps of a
    largest entry s.  Scaled entries, and entries whose det is all noise,
    are stored as given.  Products do not apply the rule (the induction
    table applies it once per level).
    Matrices are values that nothing mutates after construction.  The class
    is slotted and not frozen: a frozen constructor sets each field through
    object.__setattr__, a large share of the cost of a product.  The check
    lives in the hand-written __init__ (the dataclass writes none), and
    mul builds its products with no __init__ frame at all.  There is no
    __post_init__, which would cost every product a second call frame.
    """

    a: float
    b: float
    c: float
    d: float
    log_scale: float = 0.0

    def __init__(self, a: float, b: float, c: float, d: float,
                 log_scale: float = 0.0):
        # A det within 4 eps of 1 (a NaN det is not) needs four finite
        # entries, and lies within the noise 16 s^2 eps >= 8 eps (s^2 >=
        # det / 2) of the rule below, which would store them as given.
        if log_scale or not abs(a * d - b * c - 1.0) <= 8.881784197001252e-16:
            # Each entry on its own: max() drops a NaN that is not first,
            # and the sum of finite entries near 1e308 overflows.
            isfinite = math.isfinite
            if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
                raise NonUnimodularError("matrix entries are not finite")
            if not log_scale:
                scale = max(abs(a), abs(b), abs(c), abs(d))
                # For entries of magnitude s the float determinant of a
                # truly unimodular matrix carries cancellation noise of
                # order s^2 * eps (and its computation overflows near s ~
                # 1e154): validate and renormalize only when the computed
                # value is trustworthy.
                noise = 16.0 * scale * scale * 2.220446049250313e-16
                if noise < 0.5:
                    det = a * d - b * c
                    if det <= 0.0:
                        raise NonUnimodularError(f"determinant {det} is not positive")
                    if abs(det - 1.0) > noise:
                        s = 1.0 / math.sqrt(det)
                        a, b, c, d = a * s, b * s, c * s, d * s
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.log_scale = log_scale

    @property
    def det(self) -> float:
        """Determinant of the entries (e^(-2 log_scale) up to rounding)."""
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> float:
        """The trace; +-inf past the float range."""
        t = self.a + self.d
        return times_exp(t, self.log_scale) if self.log_scale else t

    def log_abs_trace(self) -> float:
        """log |trace|, finite for every scale (-inf for trace 0)."""
        t = abs(self.a + self.d)
        return math.log(t) + self.log_scale if t else -math.inf

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return mul(self, other)

    def inv(self) -> "Matrix2":
        return Matrix2(self.d, -self.b, -self.c, self.a, self.log_scale)

    def power(self, n: int) -> "Matrix2":
        """n-th power by repeated squaring; a negative n powers the inverse.

        For n >= 1 this takes n.bit_length() - 1 squarings and
        n.bit_count() - 1 products (power(1) is self, with no product);
        power(0) is the identity.  The products are mul's, in the same
        order.  While they stay unscaled they are taken on four local
        floats, and a product that fails mul's norm test (norm squared at
        most 2^1000) is built as mul builds it (_scaled); from the first
        scaled one on, the rest are mul's (_mul_power).
        """
        if n < 0:
            return self.inv().power(-n)
        if n == 0:
            return identity()
        if n == 1:
            return self
        if self.log_scale:
            return _mul_power(None, self, n)
        a, b, c, d = self.a, self.b, self.c, self.d
        ra = rb = rc = rd = None
        while True:
            if n & 1:
                if ra is None:
                    ra, rb, rc, rd = a, b, c, d
                else:
                    p = ra * a + rb * c
                    q = ra * b + rb * d
                    r = rc * a + rd * c
                    s = rc * b + rd * d
                    if not p * p + q * q + r * r + s * s <= NORM2_LIMIT:
                        m = _scaled(p, q, r, s, 0.0)
                        if m.log_scale:
                            return _mul_power(m, _unchecked(a, b, c, d), n - 1)
                        p, q, r, s = m.a, m.b, m.c, m.d
                    ra, rb, rc, rd = p, q, r, s
            n >>= 1
            if not n:
                return _unchecked(ra, rb, rc, rd)
            p = a * a + b * c
            q = a * b + b * d
            r = c * a + d * c
            s = c * b + d * d
            if not p * p + q * q + r * r + s * s <= NORM2_LIMIT:
                m = _scaled(p, q, r, s, 0.0)
                if m.log_scale:
                    return _mul_power(None if ra is None else
                                      _unchecked(ra, rb, rc, rd), m, n)
                p, q, r, s = m.a, m.b, m.c, m.d
            a, b, c, d = p, q, r, s

    def entries(self) -> tuple[float, float, float, float]:
        """The entries, without the factor e^log_scale."""
        return (self.a, self.b, self.c, self.d)


def identity() -> Matrix2:
    return Matrix2(1.0, 0.0, 0.0, 1.0)


# A Matrix2 with no __init__ call, for mul to fill in.
_new_matrix = object.__new__


def _unchecked(a: float, b: float, c: float, d: float) -> Matrix2:
    """The unscaled Matrix2 of these entries, stored as they are, as mul
    stores a product that passes its norm test."""
    m = _new_matrix(Matrix2)
    m.a = a
    m.b = b
    m.c = c
    m.d = d
    m.log_scale = 0.0
    return m


def _mul_power(result: Matrix2 | None, base: Matrix2, n: int) -> Matrix2:
    """result base^n (base^n for None, n >= 1) by square-and-multiply
    through mul, as Matrix2.power takes it past its first scaled product."""
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


def mul(m1: Matrix2, m2: Matrix2) -> Matrix2:
    """m1 m2, unscaled while its entries stay within 2^500 (a squared
    Frobenius norm of at most 2^1000), else scaled by _scaled.  An unscaled
    product is stored as it is, with no det test and no constructor call."""
    a1, b1, c1, d1 = m1.a, m1.b, m1.c, m1.d
    a2, b2, c2, d2 = m2.a, m2.b, m2.c, m2.d
    a = a1 * a2 + b1 * c2
    b = a1 * b2 + b1 * d2
    c = c1 * a2 + d1 * c2
    d = c1 * b2 + d1 * d2
    log_scale = m1.log_scale + m2.log_scale
    if log_scale or not a * a + b * b + c * c + d * d <= NORM2_LIMIT:
        return _scaled(a, b, c, d, log_scale)
    m = _new_matrix(Matrix2)
    m.a = a
    m.b = b
    m.c = c
    m.d = d
    m.log_scale = 0.0
    return m


def _scaled(a: float, b: float, c: float, d: float, log_scale: float) -> Matrix2:
    """e^log_scale * [[a, b], [c, d]], scaled to a largest entry of 1 when
    that entry passes 2^500 and unscaled otherwise."""
    size = max(abs(a), abs(b), abs(c), abs(d))
    if size == 0.0 or not math.isfinite(a + b + c + d):
        raise NonUnimodularError("product entries are not finite or all zero")
    total = log_scale + math.log(size)
    if total <= LOG_SCALE_LIMIT:
        if log_scale < LOG_FLOAT_MAX:
            f = math.exp(log_scale)
            return Matrix2(a * f, b * f, c * f, d * f)
        f = math.exp(total)  # e^log_scale alone is past the float range
        return Matrix2(a / size * f, b / size * f, c / size * f, d / size * f)
    return Matrix2(a / size, b / size, c / size, d / size, total)


def times_exp(x: float, log_scale: float) -> float:
    """x * e^log_scale; +-inf past the float range."""
    if not x or not log_scale:
        return x
    lg = math.log(abs(x)) + log_scale
    return math.copysign(math.exp(lg) if lg < LOG_FLOAT_MAX else math.inf, x)


def rotation(t: float) -> Matrix2:
    """R(t) = [[cos t, -sin t], [sin t, cos t]]; elliptic about i, trace 2 cos t."""
    return Matrix2(math.cos(t), -math.sin(t), math.sin(t), math.cos(t))


def diagonal(lam: float) -> Matrix2:
    """diag(lam, 1/lam); hyperbolic with axis (0, infinity) when lam > 1."""
    return Matrix2(lam, 0.0, 0.0, 1.0 / lam)


# ---------------------------------------------------------------------------
# Boundary circle RP^1


@dataclass(frozen=True)
class BoundaryPoint:
    """Projective point (u : v) on RP^1, representing u/v (infinity if v = 0)."""

    u: float
    v: float

    def __post_init__(self):
        n = math.hypot(self.u, self.v)
        if n == 0.0 or not math.isfinite(n):
            raise ValueError("degenerate boundary point")
        u, v = self.u / n, self.v / n
        # Fix a representative in the upper half of the (u, v) plane.
        if v < 0.0 or (v == 0.0 and u < 0.0):
            u, v = -u, -v
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_value(cls, x: float) -> "BoundaryPoint":
        return cls(x, 1.0)

    def angle(self) -> float:
        """Position on the circle RP^1 ~ S^1, in [0, 2*pi)."""
        return (2.0 * math.atan2(self.v, self.u)) % TWO_PI


def arcs_link(p1: BoundaryPoint, p2: BoundaryPoint,
              q1: BoundaryPoint, q2: BoundaryPoint) -> bool:
    """True if the chord p1-p2 separates q1 from q2 on the circle."""
    a1, a2 = p1.angle(), p2.angle()
    b1, b2 = q1.angle(), q2.angle()
    in1 = (b1 - a1) % TWO_PI < (a2 - a1) % TWO_PI
    in2 = (b2 - a1) % TWO_PI < (a2 - a1) % TWO_PI
    return in1 != in2


# ---------------------------------------------------------------------------
# Isometry classification


@dataclass(frozen=True)
class IsometryClass:
    """Tagged classification of an element of SL(2,R) acting on H.

    kind is one of "elliptic", "hyperbolic", "parabolic-band" (trace within
    EPS_TRACE of +-2, reported as indeterminate), "identity".
    """

    kind: str
    attracting: BoundaryPoint | None = None  # fixed points, hyperbolic only
    repelling: BoundaryPoint | None = None

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind == "hyperbolic"


def fixed_points_hyperbolic(m: Matrix2) -> tuple[BoundaryPoint, BoundaryPoint]:
    """(repelling, attracting) boundary fixed points of a hyperbolic matrix.

    Fixed directions are eigenvectors of the entries, whose determinant is
    e^(-2 log_scale); the attracting one carries the eigenvalue of larger
    modulus.
    """
    tr = m.a + m.d
    disc = tr * tr - 4.0 * math.exp(-2.0 * m.log_scale)
    if disc <= 0.0:
        raise ValueError("matrix is not hyperbolic")
    s = math.sqrt(disc)
    lam1 = (tr + s) / 2.0
    lam2 = (tr - s) / 2.0

    def eigdir(lam: float) -> BoundaryPoint:
        # (m - lam I) v = 0; pick the numerically larger row.
        r1 = (m.a - lam, m.b)
        r2 = (m.c, m.d - lam)
        row = r1 if math.hypot(*r1) >= math.hypot(*r2) else r2
        return BoundaryPoint(-row[1], row[0])

    if abs(lam1) >= abs(lam2):
        att, rep = eigdir(lam1), eigdir(lam2)
    else:
        att, rep = eigdir(lam2), eigdir(lam1)
    return rep, att


def classify(m: Matrix2) -> IsometryClass:
    """Trace trichotomy, with an indeterminate band of width EPS_TRACE at |tr| = 2.

    The band exists because parabolic / finite-order inputs are excluded by
    assumption but cannot be ruled out in floating point; callers treat
    "parabolic-band" as a non-generic input signal.
    """
    tr = abs(m.trace)
    off = max(abs(m.b), abs(m.c), abs(m.a - m.d))
    if off <= EPS_TRACE and abs(tr - 2.0) <= EPS_TRACE:
        return IsometryClass(kind="identity")
    if tr < 2.0 - EPS_TRACE:
        return IsometryClass(kind="elliptic")
    if tr > 2.0 + EPS_TRACE:
        rep, att = fixed_points_hyperbolic(m)
        return IsometryClass(kind="hyperbolic", attracting=att, repelling=rep)
    return IsometryClass(kind="parabolic-band")


def spectral_radius(m: Matrix2) -> float:
    """max |eigenvalue|; (|tr| + sqrt(tr^2 - 4)) / 2 when |tr| >= 2, else 1.

    Computed on the entries, whose determinant is e^(-2 log_scale); inf
    past the float range.
    """
    tr = abs(m.a + m.d)
    disc = tr * tr - 4.0 * math.exp(-2.0 * m.log_scale)
    if disc < 0.0:
        return 1.0
    r = (tr + math.sqrt(disc)) / 2.0
    return times_exp(r, m.log_scale) if m.log_scale else r
