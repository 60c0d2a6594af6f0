"""Ordered matrix pairs (A, B), renormalization moves tau1/tau2, pair-type
classification, character-variety trace coordinates, the compact-set
membership test, and the invariant-cone uniform-hyperbolicity certificate.

The pair (A, B) is a locally constant cocycle over a 2-interval exchange:
A acts on I_a, B on I_b.  The moves are

    tau1(A, B) = (A, B A)        tau2(A, B) = (B A, B)

and the accelerated move with digit n is tau1^n = (A, B A^n), respectively
tau2^n = (B^n A, B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mat2 import (
    BoundaryPoint,
    Matrix2,
    NonUnimodularError,
    TWO_PI,
    arcs_link,
    boundary_action,
    classify,
    mul,
    spectral_radius,
    times_exp,
)

MARKOV_TOL = 1e-8
CONE_MARGIN_FRACTION = 0.25
CONE_WORD_LENGTH = 12
CONE_SAFETY = 2.0


class DegeneratePairError(ValueError):
    """The pair is too close to a type boundary to classify reliably."""


@dataclass(frozen=True)
class CocyclePair:
    A: Matrix2
    B: Matrix2

    def product(self) -> Matrix2:
        return mul(self.A, self.B)


def tau1(p: CocyclePair) -> CocyclePair:
    return CocyclePair(p.A, mul(p.B, p.A))


def tau2(p: CocyclePair) -> CocyclePair:
    return CocyclePair(mul(p.B, p.A), p.B)


def tau_power(p: CocyclePair, which: int, n: int) -> CocyclePair:
    """n-fold iterate of tau1 or tau2 via one fast matrix power.

    tau1^n(A, B) = (A, B A^n); tau2^n(A, B) = (B^n A, B).  n = 0 is allowed
    and returns the pair unchanged.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if which == 1:
        return CocyclePair(p.A, mul(p.B, p.A.power(n)))
    if which == 2:
        return CocyclePair(mul(p.B.power(n), p.A), p.B)
    raise ValueError("which must be 1 or 2")


# ---------------------------------------------------------------------------
# Pair types


@dataclass(frozen=True)
class PairType:
    """Tagged joint type of a matrix pair.

    code is one of "EE", "EH", "HE", "HH+", "HH-", "DEG".  The first letter
    describes A, the second B (E elliptic, H hyperbolic).  "HH+" means both
    hyperbolic with a common strictly invariant boundary arc (attracting
    fixed points not separated by the repelling ones); "HH-" both hyperbolic,
    axes disjoint, no such arc; "DEG" anything else, with a reason.
    """

    code: str
    reason: str | None = None

    @property
    def is_degenerate(self) -> bool:
        return self.code == "DEG"

    @property
    def is_absorbing(self) -> bool:
        return self.code == "HH+"


EE = PairType("EE")
EH = PairType("EH")
HE = PairType("HE")
HH_PLUS = PairType("HH+")
HH_MINUS = PairType("HH-")


def degenerate(reason: str) -> PairType:
    return PairType("DEG", reason)


def classify_pair(p: CocyclePair, eps: float = 1e-9) -> PairType:
    ca = classify(p.A, eps)
    cb = classify(p.B, eps)
    for name, c in (("A", ca), ("B", cb)):
        if c.is_indeterminate or c.is_identity:
            return degenerate(f"{name} is within eps of the parabolic locus")
    if ca.is_elliptic and cb.is_elliptic:
        return EE
    if ca.is_elliptic:
        return EH
    if cb.is_elliptic:
        return HE
    # Both hyperbolic: inspect the four boundary fixed points.  HH+ iff the
    # attracting pair is not separated by the repelling pair (this is the
    # combinatorial cone-existence predicate); otherwise the axes are
    # disjoint and the pair is HH-.  Nearly coincident fixed points defeat
    # the circular-order test, so they are reported as degenerate.
    atts = (ca.attracting.angle(), cb.attracting.angle())
    reps = (ca.repelling.angle(), cb.repelling.angle())
    for a in atts:
        for r in reps:
            gap = (a - r) % TWO_PI
            if min(gap, TWO_PI - gap) <= eps:
                return degenerate(
                    "an attracting and a repelling fixed point nearly coincide")
    if arcs_link(ca.attracting, cb.attracting, ca.repelling, cb.repelling):
        return HH_MINUS
    return HH_PLUS


# Allowed one-move type transitions, keyed by (source code, move).  "HH+"
# is absorbing; no move leaves it.
TRANSITIONS: dict[tuple[str, int], frozenset[str]] = {
    ("EE", 1): frozenset({"EE", "EH"}),
    ("EE", 2): frozenset({"EE", "HE"}),
    ("EH", 1): frozenset({"EE", "EH"}),
    ("EH", 2): frozenset({"EH", "HH+"}),
    ("HE", 1): frozenset({"HE", "HH+"}),
    ("HE", 2): frozenset({"EE", "HE"}),
    ("HH-", 1): frozenset({"HH-", "HE", "HH+"}),
    ("HH-", 2): frozenset({"HH-", "EH", "HH+"}),
    ("HH+", 1): frozenset({"HH+"}),
    ("HH+", 2): frozenset({"HH+"}),
}


# ---------------------------------------------------------------------------
# Trace coordinates


@dataclass(frozen=True)
class TraceCoords:
    """x = tr A, y = tr B, z = tr AB, c = tr [A, B] (computed directly);
    residual is |x^2 + y^2 + z^2 - xyz - (c + 2)|, the defect of the
    Fricke/Markov identity."""

    x: float
    y: float
    z: float
    c: float
    residual: float


def trace_coords(p: CocyclePair) -> TraceCoords:
    ab = mul(p.A, p.B)
    ba = mul(p.B, p.A)
    x, y, z = p.A.trace, p.B.trace, ab.trace
    # tr [A, B] = tr(AB adj(BA)), written out: the product itself would go
    # through the Matrix2 check, and cancellation can leave its float
    # determinant <= 0.
    c = times_exp(ab.a * ba.d + ab.d * ba.a - ab.b * ba.c - ab.c * ba.b,
                  ab.log_scale + ba.log_scale)
    residual = abs(x * x + y * y + z * z - x * y * z - (c + 2.0))
    return TraceCoords(x=x, y=y, z=z, c=c, residual=residual)


def trace_bound(c: float) -> float:
    """Explicit bound on max(|x|, |y|, |z|) over pairs with at least two of
    A, B, AB elliptic and commutator trace c: with two traces in [-2, 2] the
    Fricke identity forces the third below 2 + sqrt(8 + |c + 2|)."""
    return 2.0 + math.sqrt(8.0 + abs(c + 2.0))


# ---------------------------------------------------------------------------
# Compact-set membership


@dataclass(frozen=True)
class KMembership:
    in_k: bool
    elliptic_witnesses: frozenset[str]  # subset of {"A", "B", "AB"}


def k_membership(p: CocyclePair, eps: float = 1e-9) -> KMembership:
    """Membership in the compact set of pairs with at least two elliptic
    matrices among A, B and AB (strict trace test with tolerance band eps)."""
    witnesses = set()
    for name, m in (("A", p.A), ("B", p.B), ("AB", p.product())):
        if abs(m.trace) < 2.0 - eps:
            witnesses.add(name)
    return KMembership(in_k=len(witnesses) >= 2,
                       elliptic_witnesses=frozenset(witnesses))


# ---------------------------------------------------------------------------
# Invariant-cone certificate


@dataclass(frozen=True)
class ConeCertificate:
    """A closed boundary arc [lo, hi] (angle chart on RP^1, counterclockwise)
    containing both attracting fixed points and neither repelling one, mapped
    strictly inside itself by A and by B; every word w in the semigroup then
    has spectral radius >= constant * expansion_factor^len(w)."""

    arc_lo: float
    arc_hi: float
    expansion_factor: float
    constant: float

    def contains_angle(self, angle: float) -> bool:
        width = (self.arc_hi - self.arc_lo) % TWO_PI
        return (angle - self.arc_lo) % TWO_PI <= width + 1e-12


def short_words(p: CocyclePair, max_len: int = CONE_WORD_LENGTH):
    """Yield (length, matrix) for every nonempty word in {A, B} of length
    up to max_len, built level by level (one product per word).  Words whose
    float product degenerates (cancellation between near-inverse factors)
    are dropped together with their extensions.
    """
    level = [p.A, p.B]
    length = 1
    while level:
        for m in level:
            yield length, m
        if length == max_len:
            return
        nxt = []
        for w in level:
            for g in (p.A, p.B):
                try:
                    nxt.append(mul(w, g))
                except NonUnimodularError:
                    pass
        level = nxt
        length += 1


def cone_certificate(p: CocyclePair,
                     word_length: int = CONE_WORD_LENGTH) -> ConeCertificate | None:
    """Build the common strictly invariant arc for an HH+ pair, or None.

    The arc spans both attracting fixed points with a margin of one quarter
    of the smallest gap to a repelling point.  expansion_factor is
    min(spectral radius of A, of B); the constant is fitted as the minimum
    of spectral_radius(w) / mu^len(w) over all words of length <= word_length,
    divided by a safety factor of 2.
    """
    if classify_pair(p).code != "HH+":
        return None
    ca = classify(p.A)
    cb = classify(p.B)
    att = (ca.attracting.angle(), cb.attracting.angle())
    rep = (ca.repelling.angle(), cb.repelling.angle())
    # Pick the repelling point from which, going counterclockwise, both
    # attracting points precede the other repelling point.  Coincident
    # repelling points leave a single excluded point, so the span is the
    # full circle.
    for r_lo, r_hi in ((rep[0], rep[1]), (rep[1], rep[0])):
        span = (r_hi - r_lo) % TWO_PI
        if span == 0.0:
            span = TWO_PI
        rel = [(a - r_lo) % TWO_PI for a in att]
        if all(0.0 < t < span for t in rel):
            break
    else:
        return None
    att_min, att_max = min(rel), max(rel)
    margin = CONE_MARGIN_FRACTION * min(att_min, span - att_max)
    if margin <= 0.0:
        return None
    lo = (r_lo + att_min - margin) % TWO_PI
    hi = (r_lo + att_max + margin) % TWO_PI
    width = (hi - lo) % TWO_PI

    def strictly_inside(q: BoundaryPoint) -> bool:
        t = (q.angle() - lo) % TWO_PI
        return 0.0 < t < width

    endpoints = [BoundaryPoint(math.cos(a / 2.0), math.sin(a / 2.0))
                 for a in (lo, hi)]
    for m in (p.A, p.B):
        if not all(strictly_inside(boundary_action(m, e)) for e in endpoints):
            return None

    mu = min(spectral_radius(p.A), spectral_radius(p.B))
    if mu <= 1.0:
        return None
    # Words of length L have entries up to roughly (2 * max entry)^L; cap L
    # so the enumeration stays finite for very strongly hyperbolic pairs.
    per_letter = max(
        m.log_scale + math.log(2.0 * max(*map(abs, m.entries()), 1.0) + 1.0)
        for m in (p.A, p.B))
    safe_len = max(1, min(word_length, int(600.0 / per_letter)))
    ratio = min(spectral_radius(w) / mu ** n
                for n, w in short_words(p, safe_len))
    return ConeCertificate(arc_lo=lo, arc_hi=hi, expansion_factor=mu,
                           constant=ratio / CONE_SAFETY)
