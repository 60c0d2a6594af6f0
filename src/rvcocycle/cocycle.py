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
    LOG_FLOAT_MAX,
    Matrix2,
    NonUnimodularError,
    TWO_PI,
    arcs_link,
    classify,
    mul,
    spectral_radius,
    times_exp,
)

CONE_MARGIN_FRACTION = 0.25
# Block lengths L at which cone_certificate tries to prove its rate.
CONE_BLOCK_LENGTHS = (1, 2, 4, 8, 12)


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
    strictly inside itself by A and by B, with a proved rate: every word w in
    the semigroup, of every length, has spectral radius
    >= constant * expansion_factor^len(w).  The proof needs no constant, so
    constant is always 1."""

    arc_lo: float
    arc_hi: float
    expansion_factor: float
    constant: float = 1.0

    def contains_angle(self, angle: float) -> bool:
        width = (self.arc_hi - self.arc_lo) % TWO_PI
        return (angle - self.arc_lo) % TWO_PI <= width + 1e-12


def word_levels(p: CocyclePair, max_len: int):
    """Yield, for n = 1 .. max_len, the list of words in {A, B} of length n
    (w g for each word w of length n - 1 and g in (A, B)).  Each level is
    built, one product per word, only when the previous one has been taken.
    Words whose float product degenerates (cancellation between
    near-inverse factors) are dropped together with their extensions.
    """
    level = [p.A, p.B]
    for n in range(1, max_len + 1):
        yield level
        if n == max_len:
            return
        nxt = []
        for w in level:
            for g in (p.A, p.B):
                try:
                    nxt.append(mul(w, g))
                except NonUnimodularError:
                    pass
        level = nxt


def short_words(p: CocyclePair, max_len: int):
    """Yield (length, matrix) for every word of word_levels(p, max_len)."""
    for n, level in enumerate(word_levels(p, max_len), 1):
        for m in level:
            yield n, m


def _quadrant_pair(p: CocyclePair, lo: float, width: float) -> CocyclePair | None:
    """The pair conjugated to the positive quadrant, (P^-1 A P, P^-1 B P) for
    P = [e(lo), e(lo + width)] with e(t) = (cos t/2, sin t/2), each with the
    sign that makes it positive; None if rounding leaves an entry <= 0.

    The second column is built from lo + width, not from the arc's hi end,
    whose half angle jumps by pi when the arc wraps past angle 0.
    """
    u0, v0 = math.cos(lo / 2.0), math.sin(lo / 2.0)
    u1, v1 = math.cos((lo + width) / 2.0), math.sin((lo + width) / 2.0)
    det = u0 * v1 - u1 * v0
    out = []
    for m in (p.A, p.B):
        # Coordinates of M e(lo) and M e(lo + width) in that basis.
        x0, y0 = m.a * u0 + m.b * v0, m.c * u0 + m.d * v0
        x1, y1 = m.a * u1 + m.b * v1, m.c * u1 + m.d * v1
        e = [(x0 * v1 - y0 * u1) / det, (x1 * v1 - y1 * u1) / det,
             (u0 * y0 - v0 * x0) / det, (u0 * y1 - v0 * x1) / det]
        if all(t < 0.0 for t in e):
            e = [-t for t in e]
        if not all(t > 0.0 for t in e):
            return None
        try:
            out.append(Matrix2(*e, m.log_scale))
        except NonUnimodularError:
            return None
    return CocyclePair(*out)


def _block_log_rate(words: list[Matrix2]) -> float:
    """log min over the words of r_l(w) = min_j (l w)_j / l_j, for positive
    matrices and l the left Perron vector of the word of smallest spectral
    radius.  For v >= 0, l(w v) >= r_l(w) l(v)."""
    u = min(words, key=spectral_radius)
    p, q, r, s = u.entries()
    d = s - p
    disc = math.sqrt(d * d + 4.0 * q * r)
    # l = (r, lambda - p) for the Perron root lambda, written without
    # cancellation; any positive l gives a valid rate.
    x = (d + disc) / 2.0 if d >= 0.0 else 2.0 * q * r / (disc - d)
    k = x / r
    return min(w.log_scale + math.log(min(w.a + k * w.c, w.b / k + w.d))
               for w in words)


def cone_certificate(p: CocyclePair) -> ConeCertificate | None:
    """Build the common strictly invariant arc for an HH+ pair with a proved
    expansion rate, or None.

    The arc spans both attracting fixed points with a margin of one quarter
    of the smallest gap to a repelling point.  Conjugated to the positive
    quadrant of that arc's cone, A and B are positive matrices.  For a
    positive functional l on the cone, l(M v) >= r_l(M) l(v) (see
    _block_log_rate); the Perron vector of every word lies in the cone, and
    w^L splits into len(w) blocks of length L, so
    mu = (min over words of length L of r_l)^(1/L) gives
    rho(w) >= mu^len(w) for every word of every length, with constant 1.
    L runs through CONE_BLOCK_LENGTHS (L = 1 needs no products) until mu > 1;
    None if no L proves a rate above 1.
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
    cone = _quadrant_pair(p, lo, (hi - lo) % TWO_PI)
    if cone is None:
        return None
    # No valid rate exceeds the spectral radius of a letter; the cap only
    # takes off rounding above it.
    cap = min(spectral_radius(p.A), spectral_radius(p.B))
    for n, words in enumerate(word_levels(cone, CONE_BLOCK_LENGTHS[-1]), 1):
        if n not in CONE_BLOCK_LENGTHS:
            continue
        if len(words) < 2 ** n:
            return None
        mu = min(math.exp(min(_block_log_rate(words) / n, LOG_FLOAT_MAX)), cap)
        if mu > 1.0:
            return ConeCertificate(arc_lo=lo, arc_hi=hi, expansion_factor=mu)
    return None
