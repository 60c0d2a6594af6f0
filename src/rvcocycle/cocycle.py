"""Ordered matrix pairs (A, B), renormalization moves tau1/tau2, pair-type
classification, character-variety trace coordinates, the compact-set
membership test, and the invariant-cone uniform-hyperbolicity certificate.

The certificate's rate is a formula on the two letters, not an enumeration
of words: the larger of their Perron and their Birkhoff rate on the cone of
a strictly invariant arc.

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
    EPS_TRACE,
    LOG_FLOAT_MAX,
    NORM2_LIMIT,
    IsometryClass,
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


class DegeneratePairError(ValueError):
    """The pair is too close to a type boundary to classify reliably."""


@dataclass(slots=True)
class CocyclePair:
    """The pair (A, B).  A representation of the once-punctured torus's
    fundamental group is its pair of generators, so this is also
    spectrum.Representation.  Slotted and not frozen, as Matrix2: one per
    step of a decision."""

    A: Matrix2
    B: Matrix2

    @property
    def c(self) -> float:
        """tr [A, B], kept by every tau move."""
        return trace_coords(self).c


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


# The pair types read off the two letters' kinds when one is elliptic.
_ELLIPTIC_TYPES = {("E", "E"): EE, ("E", "H"): EH, ("H", "E"): HE}


def _letter_kind(trace: float) -> str | None:
    """E or H by |trace| against the band of width EPS_TRACE around 2 (None
    in the band, the only place classify's identity test fires)."""
    t = abs(trace)
    if t < 2.0 - EPS_TRACE:
        return "E"
    if t > 2.0 + EPS_TRACE:
        return "H"
    return None


def _classify_letters(p: CocyclePair,
                      traces: tuple[float, float] | None = None):
    """(pair type, classify(A), classify(B)); the two classes are None
    unless both letters are hyperbolic, the only case that needs them.
    traces, when given, are (tr A, tr B), as a caller that holds them
    already (the x and y of trace_coords) passes them.

    For two hyperbolic letters: HH+ iff the attracting pair is not separated
    by the repelling pair (this is the combinatorial cone-existence
    predicate); otherwise the axes are disjoint and the pair is HH-.  Nearly
    coincident fixed points defeat the circular-order test, so they are
    reported as degenerate.
    """
    if traces is None:
        traces = (p.A.trace, p.B.trace)
    kinds = _letter_kind(traces[0]), _letter_kind(traces[1])
    ptype = _ELLIPTIC_TYPES.get(kinds)
    if ptype is not None:
        return ptype, None, None
    if None in kinds:
        name = "A" if kinds[0] is None else "B"
        return degenerate(f"{name} is within eps of the parabolic locus"), None, None
    ca, cb = classify(p.A), classify(p.B)
    atts = (ca.attracting.angle(), cb.attracting.angle())
    reps = (ca.repelling.angle(), cb.repelling.angle())
    for a in atts:
        for r in reps:
            gap = (a - r) % TWO_PI
            if min(gap, TWO_PI - gap) <= EPS_TRACE:
                return degenerate("an attracting and a repelling fixed point "
                                  "nearly coincide"), ca, cb
    if arcs_link(ca.attracting, cb.attracting, ca.repelling, cb.repelling):
        return HH_MINUS, ca, cb
    return HH_PLUS, ca, cb


def classify_pair(p: CocyclePair) -> PairType:
    """The joint type of p.  DEG, EE, EH and HE are read off |tr A| and
    |tr B|; only two hyperbolic letters need their fixed points."""
    return _classify_letters(p)[0]


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


@dataclass(slots=True)
class TraceCoords:
    """x = tr A, y = tr B, z = tr AB, c = tr [A, B].  The tau moves keep c
    exactly ([A, B A] = [A, B]), so along a renormalization run c is the input
    pair's, taken once; residual |x^2 + y^2 + z^2 - xyz - (c + 2)|, the defect
    of the Fricke/Markov identity, is then the drift of the moved (x, y, z)
    off the level set of c.  log_abs_z is log |tr AB|, finite where z is +-inf
    past the float range.  Slotted and not frozen, as Matrix2: one per step."""

    x: float
    y: float
    z: float
    c: float
    residual: float
    log_abs_z: float


def trace_coords(p: CocyclePair, c: float | None = None) -> TraceCoords:
    """The trace coordinates of p from the one product AB.  c is the known
    commutator trace of p (a tau-image's is its source's); without it, c is
    computed directly from AB and BA."""
    return letter_coords(p.A, p.B, c)


def letter_coords(a: Matrix2, b: Matrix2, c: float | None = None) -> TraceCoords:
    """trace_coords of the pair (a, b), for a caller that holds its letters
    and no CocyclePair.  An unscaled trace is read as a + d, without the
    trace property's call.  AB is formed as an object only where mul would
    change its entries: for two unscaled letters whose product passes mul's
    norm test, mul returns the entries as they are, so z and its log are
    read off them, the same bits."""
    x = a.trace if a.log_scale else a.a + a.d
    y = b.trace if b.log_scale else b.a + b.d
    fits = False
    if not (a.log_scale or b.log_scale):
        a1, b1, c1, d1 = a.a, a.b, a.c, a.d
        a2, b2, c2, d2 = b.a, b.b, b.c, b.d
        p = a1 * a2 + b1 * c2
        q = a1 * b2 + b1 * d2
        r = c1 * a2 + d1 * c2
        s = c1 * b2 + d1 * d2
        fits = p * p + q * q + r * r + s * s <= NORM2_LIMIT
    if fits:
        log_scale = 0.0
        z = p + s
        log_abs_z = math.log(abs(z)) if z else -math.inf
    else:
        ab = mul(a, b)
        p, q, r, s, log_scale = ab.a, ab.b, ab.c, ab.d, ab.log_scale
        z = ab.trace if log_scale else p + s
        log_abs_z = ab.log_abs_trace()
    if c is None:
        ba = mul(b, a)
        # tr [A, B] = tr(AB adj(BA)), written out: the trace needs neither
        # adj(BA) nor the commutator as a Matrix2.
        c = times_exp(p * ba.d + s * ba.a - q * ba.c - r * ba.b,
                      log_scale + ba.log_scale)
    residual = abs(x * x + y * y + z * z - x * y * z - (c + 2.0))
    return TraceCoords(x, y, z, c, residual, log_abs_z)


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


def k_membership(tc: TraceCoords) -> KMembership:
    """Membership of the pair with trace coordinates tc in the compact set of
    pairs with at least two elliptic matrices among A, B and AB (strict
    trace test, tolerance EPS_TRACE)."""
    witnesses = frozenset(name for name, t in (("A", tc.x), ("B", tc.y), ("AB", tc.z))
                          if abs(t) < 2.0 - EPS_TRACE)
    return KMembership(in_k=len(witnesses) >= 2, elliptic_witnesses=witnesses)


# ---------------------------------------------------------------------------
# Invariant-cone certificate


@dataclass(frozen=True)
class ConeCertificate:
    """A closed boundary arc [lo, hi] (angle chart on RP^1, counterclockwise)
    containing both attracting fixed points and neither repelling one, mapped
    strictly inside itself by A and by B, with a proved rate: every word w in
    the semigroup, of every length, has spectral radius
    >= constant * expansion_factor^len(w), the larger of the letters' Perron
    and Birkhoff rates (cone_certificate).  Neither rate needs a constant, so
    constant is always 1."""

    arc_lo: float
    arc_hi: float
    expansion_factor: float
    constant: float = 1.0

    def contains_angle(self, angle: float) -> bool:
        width = (self.arc_hi - self.arc_lo) % TWO_PI
        return (angle - self.arc_lo) % TWO_PI <= width + 1e-12


def short_words(p: CocyclePair, max_len: int):
    """Yield (n, w g) for n = 1 .. max_len, each word w of length n - 1 and
    g in (A, B).  Words whose float product degenerates (cancellation
    between near-inverse factors) are dropped with their extensions."""
    level = [p.A, p.B]
    for n in range(1, max_len + 1):
        nxt = []
        for w in level:
            yield n, w
            if n == max_len:
                continue
            for g in (p.A, p.B):
                try:
                    nxt.append(mul(w, g))
                except NonUnimodularError:
                    pass
        level = nxt


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
    """The Perron rate: log min over the positive letters of r_l(w) =
    min_j (l w)_j / l_j, l the left Perron vector of the letter of smallest
    spectral radius.  For v >= 0, l(w v) >= r_l(w) l(v), so at its Perron
    vector a word of these letters has rho >= (min r_l)^(its length)."""
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


def cone_certificate(p: CocyclePair,
                     letters: tuple[IsometryClass, IsometryClass] | None = None,
                     ) -> ConeCertificate | None:
    """Build the common strictly invariant arc for an HH+ pair with a proved
    expansion rate, or None.

    The arc spans both attracting fixed points with a margin of one quarter
    of the smallest gap to a repelling point.  Conjugated to the positive
    quadrant of that arc's cone, A and B are positive matrices, and each of
    two closed-form rates on them gives rho(w) >= mu^len(w) for every word
    w: the Perron rate (_block_log_rate) and the Birkhoff rate.  A positive
    letter [[p, q], [r, s]] contracts the quadrant's Hilbert metric by
    tau = tanh(log(ps/qr)/4) (Birkhoff 1957; Bushell 1973), and a word w
    contracts it by 1/rho(w)^2 at its Perron vector, so the rate is
    tau^(-1/2) = e^log_scale (sqrt(ps) + sqrt(qr)) for the largest tau.
    mu is the larger rate, capped at the letters' spectral radii; None
    unless mu > 1.  No word is formed.

    letters, when given, is (classify(A), classify(B)) of a pair that the
    caller's _classify_letters has already typed HH+.
    """
    if letters is None:
        ptype, *letters = _classify_letters(p)
        if ptype.code != "HH+":
            return None
    ca, cb = letters
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
    birkhoff = min(m.log_scale + math.log(math.sqrt(m.a * m.d) + math.sqrt(m.b * m.c))
                   for m in (cone.A, cone.B))
    log_mu = max(_block_log_rate([cone.A, cone.B]), birkhoff)
    # No valid rate exceeds the spectral radius of a letter; the cap only
    # takes off rounding above it.
    cap = min(spectral_radius(p.A), spectral_radius(p.B))
    mu = min(math.exp(min(log_mu, LOG_FLOAT_MAX)), cap)
    return ConeCertificate(lo, hi, mu) if mu > 1.0 else None
