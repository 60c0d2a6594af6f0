"""Output checkers for the benchmark workloads.

Every check here is computed apart from the program: exact continued
fractions from `fractions.Fraction`, 2x2 products in numpy with a separate
log scale, and properties the method must have.  Nothing is compared with a
stored copy of earlier output.  A failed check raises `CheckError`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
# Word lengths of the independent cone-bound enumeration (the program fits
# its constant on lengths up to 12).
WORD_LENGTHS = range(13, 17)
WORD_TOL = 1e-6
# A float run of the Rauzy induction is trusted to match the exact digit of
# the float's rational value while the exact remainder stays this many
# q_{n+1}^2-scaled units away from a digit boundary (about 1e4 times the
# first-order rounding error).
TIE_MARGIN = 1e-12
ROTATION_TRACE_TOL = 1e-6
ARC_ORDER_TOL = 1e-9
# Certificates are checked on pairs of at most this many base matrices,
# which float64 determines to about 1e-8.  Deeper pairs are set by rounding
# (see CHANGES.md), so no independent computation can reproduce them.
MAX_CERT_WORD = 10**8


class CheckError(AssertionError):
    """A program output broke a property it must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Exact continued fractions


def exact_digits(alpha: float | Fraction, max_digits: int) -> list[int]:
    """Continued-fraction digits a_1, a_2, ... of the exact rational value."""
    x = Fraction(alpha)
    digits = []
    while x and len(digits) < max_digits:
        inv = 1 / x
        a = inv.numerator // inv.denominator
        digits.append(a)
        x = inv - a
    return digits


def denominators(digits: list[int]) -> list[int]:
    """Convergent denominators q_0 = 1, q_1 = a_1, q_n = a_n q_{n-1} + q_{n-2}."""
    qs, prev = [1], 0
    for a in digits:
        qs.append(a * qs[-1] + prev)
        prev = qs[-2]
    return qs


def trusted_digits(alpha: float, max_digits: int) -> int:
    """How many leading digits float arithmetic resolves with certainty.

    Digit n+1 is trusted while 1/x_n (x_n the exact n-th remainder) lies
    farther than TIE_MARGIN * q_{n+1}^2 from an integer; the first digit that
    fails the test ends the trusted prefix.
    """
    x = Fraction(alpha)
    q_prev, q = 0, 1
    for n in range(max_digits):
        if not x:
            return n
        inv = 1 / x
        a = inv.numerator // inv.denominator
        rem = inv - a
        q_prev, q = q, a * q + q_prev
        if min(rem, 1 - rem) <= TIE_MARGIN * q * q:
            return n
        x = rem
    return max_digits


def exact_runs(digits: list[int]) -> list[tuple[str, int]]:
    """Maximal same-winner runs of the elementary induction: lengths
    (a_1 - 1, a_2, a_3, ...), winners alternating from bottom ("b"); an empty
    first run is dropped."""
    runs = []
    for i, a in enumerate(digits):
        n = a - 1 if i == 0 else a
        if n > 0:
            runs.append(("b" if i % 2 == 0 else "t", n))
    return runs


def trusted_runs(alpha: float, max_runs: int) -> list[tuple[str, int]]:
    """The runs of alpha whose digits float arithmetic resolves with
    certainty (see trusted_digits)."""
    n = trusted_digits(alpha, max_runs + 1)
    return exact_runs(exact_digits(alpha, n))[:max_runs]


def exponent_lower_bound(mu: float, at_step: int, alpha: float) -> float:
    """ln(mu) / (q_{m+1} + q_m) with m = at_step + 1, from the exact
    expansion of alpha (the certified bound of an absorbing step)."""
    m = at_step + 1
    qs = denominators(exact_digits(alpha, m + 2))
    if m + 1 > len(qs) - 1:
        m = len(qs) - 2
    if m < 1:
        return 0.0
    return math.log(mu) / (qs[m + 1] + qs[m])


# ---------------------------------------------------------------------------
# Log-scaled 2x2 products: a determinant-1 matrix is (M, s) standing for
# e^s * M with max |entry of M| = 1, so long products never overflow.


def lognorm(m: np.ndarray, s: float = 0.0) -> tuple[np.ndarray, float]:
    """Normalize to max |entry| = 1.  When det(M) is well conditioned the
    scale is reset from det(e^s M) = 1; without that, rounding drift in the
    determinant compounds through powers of elliptic matrices."""
    top = float(np.max(np.abs(m)))
    require(top > 0.0 and math.isfinite(top), "product degenerated to zero")
    m = m / top
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det > 1e-6:
        return m, -0.5 * math.log(det)
    return m, s + math.log(top)


def lmul(x, y):
    return lognorm(x[0] @ y[0], x[1] + y[1])


def lpower(x, n: int):
    result = (np.eye(2), 0.0)
    base = x
    while n:
        if n & 1:
            result = lmul(result, base)
        base = lmul(base, base)
        n >>= 1
    return result


def pair_after_runs(a: np.ndarray, b: np.ndarray, runs):
    """The pair moved by runs [(winner, n), ...]: a bottom run of length n is
    tau1^n (A, B) = (A, B A^n), a top run tau2^n (A, B) = (B^n A, B)."""
    la, lb = lognorm(np.asarray(a, float)), lognorm(np.asarray(b, float))
    for winner, n in runs:
        if winner == "b":
            lb = lmul(lb, lpower(la, n))
        else:
            la = lmul(lpower(lb, n), la)
    return la, lb


def word_lengths(runs, a_len: int = 1, b_len: int = 1) -> tuple[int, int]:
    """Lengths, in base matrices, of the pair moved by runs from a pair of
    lengths (a_len, b_len)."""
    for winner, n in runs:
        if winner == "b":
            b_len += n * a_len
        else:
            a_len += n * b_len
    return a_len, b_len


def log_spectral_radius(trace_unit: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """log max|eigenvalue| of determinant-1 matrices with trace
    trace_unit * e^log_scale (0 when |trace| <= 2)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lt = np.log(np.abs(trace_unit)) + log_scale
        t = np.exp(np.minimum(lt, 30.0))
        small = np.log((t + np.sqrt(np.maximum(t * t - 4.0, 0.0))) / 2.0)
    return np.where(lt > 30.0, lt, np.maximum(small, 0.0))


def min_log_word_ratio(la, lb, constant: float, mu: float,
                       lengths=WORD_LENGTHS) -> tuple[float, int]:
    """min over words w in {A, B} with len(w) in lengths of
    log(rho(w) / (constant * mu^len(w))), and the length attaining it."""
    gens = np.stack([la[0], lb[0]])
    gen_logs = np.array([la[1], lb[1]])
    level, logs = gens, gen_logs
    worst, worst_len = math.inf, 0
    for n in range(1, max(lengths) + 1):
        if n in lengths:
            tr = level[:, 0, 0] + level[:, 1, 1]
            lr = log_spectral_radius(tr, logs)
            ratio = float(np.min(lr)) - math.log(constant) - n * math.log(mu)
            if ratio < worst:
                worst, worst_len = ratio, n
        # Append each generator on the right: w -> w g.
        level = np.concatenate([level @ gens[0], level @ gens[1]])
        logs = np.concatenate([logs + gen_logs[0], logs + gen_logs[1]])
        top = np.max(np.abs(level), axis=(1, 2))
        level = level / top[:, None, None]
        logs = logs + np.log(top)
    return worst, worst_len


def boundary_angle(v: np.ndarray) -> float:
    """Position of the direction v on RP^1 in the chart t = 2 atan2(v1, v0)."""
    return (2.0 * math.atan2(v[1], v[0])) % TWO_PI


def maps_arc_inside(m: np.ndarray, lo: float, hi: float) -> bool:
    """True if m sends the counterclockwise arc [lo, hi] strictly into its
    interior.  An orientation-preserving map sends the arc onto the arc
    from the image of lo through the image of the midpoint to the image of
    hi, so those three images must lie strictly inside and in that order.
    A strong contraction rounds them to nearly one angle, hence the order
    is tested to ARC_ORDER_TOL."""
    width = (hi - lo) % TWO_PI
    pos = []
    for a in (lo, lo + 0.5 * width, lo + width):
        e = np.array([math.cos(a / 2.0), math.sin(a / 2.0)])
        pos.append((boundary_angle(m @ e) - lo) % TWO_PI)
    return (all(0.0 < p < width for p in pos)
            and pos[0] <= pos[1] + ARC_ORDER_TOL
            and pos[1] <= pos[2] + ARC_ORDER_TOL)


def check_certificate(la, lb, arc_lo: float, arc_hi: float, mu: float,
                      constant: float, where: str) -> None:
    """A cone certificate of the pair (A, B) = (la, lb): both matrices map
    the arc strictly inside itself, and rho(w) >= constant * mu^len(w) on
    every word of length 13 to 16."""
    for name, m in (("A", la[0]), ("B", lb[0])):
        require(maps_arc_inside(m, arc_lo, arc_hi),
                f"{where}: {name} does not map the certified arc into itself")
    require(mu > 1.0 and constant > 0.0,
            f"{where}: certificate has mu={mu}, C={constant}")
    log_ratio, n = min_log_word_ratio(la, lb, constant, mu)
    require(log_ratio >= math.log1p(-WORD_TOL),
            f"{where}: word of length {n} has rho/(C mu^n) = "
            f"{math.exp(log_ratio):.4g} < 1")


# ---------------------------------------------------------------------------
# Workload properties


def check_audit(kind: str, chi: float, stderr: float, bound: float,
                where: str) -> None:
    """The exponent audit of a decided verdict: a hyperbolic verdict's
    estimate is at least 0.9 of its certified bound (less the estimator's
    noise floor); a bounded verdict's estimate is at most 0.05."""
    if kind == "UniformlyHyperbolic":
        floor = max(3.0 * stderr, 1e-9)
        require(chi >= 0.9 * bound - floor,
                f"{where}: chi {chi:.6g} below 0.9 * certified bound {bound:.6g}")
    else:
        require(chi <= 0.05, f"{where}: bounded verdict but chi {chi:.6g} > 0.05")


def check_runs_prefix(reported: list[tuple[str, int]], alpha: float,
                      where: str) -> None:
    """The program's runs agree with the exact expansion of alpha on the
    prefix float arithmetic resolves."""
    want = trusted_runs(alpha, len(reported))
    got = reported[:len(want)]
    require(got == want[:len(got)],
            f"{where}: runs {got} differ from the exact expansion {want}")


def twist_products(runs: list[tuple[str, int]]) -> list[tuple[tuple[int, int], ...]]:
    """phi_k = T_k^{n_k} ... T_1^{n_1} with T = [[1, n], [0, 1]] for a bottom
    run (twist along a) and [[1, 0], [n, 1]] for a top run (twist along b)."""
    phi = ((1, 0), (0, 1))
    out = []
    for winner, n in runs:
        t = ((1, n), (0, 1)) if winner == "b" else ((1, 0), (n, 1))
        phi = tuple(tuple(sum(t[i][k] * phi[k][j] for k in range(2))
                          for j in range(2)) for i in range(2))
        out.append(phi)
    return out


def first_trace_excess(growth_log) -> int | None:
    """The first step of a commuting-elliptic trajectory whose pulled-back
    trace norm e^growth_log exceeds 2 (plus ROTATION_TRACE_TOL), or None.
    Products of commuting rotations are rotations whatever the run
    sequence, so no step should."""
    limit = math.log(2.0 + ROTATION_TRACE_TOL)
    return next((k for k, g in enumerate(growth_log) if g > limit), None)


def check_trajectory(alpha: float, twist_word, matrices, qs,
                     growth_log, max_trace_norm, where: str) -> None:
    """A twist trajectory of the commuting-elliptic pair.

    Every twist matrix is an integer matrix of determinant 1.  On the
    prefix float arithmetic resolves (trusted_digits), the twist word, the
    matrices and the convergent denominators equal those built from the
    exact expansion of alpha.  Past that prefix the run sequence is not
    fixed by alpha.  The witness's own trace norm comes from the whole
    decision run and is at most 2 (plus ROTATION_TRACE_TOL) at every depth.
    The pulled-back trace norms (growth_log) are not checked here: a
    trajectory that breaks them counts as a failed item
    (first_trace_excess).
    """
    require(len(matrices) == len(twist_word) and len(growth_log) == len(twist_word),
            f"{where}: trajectory fields have different lengths")
    for m in matrices:
        flat = [e for row in m for e in row]
        require(all(isinstance(e, int) for e in flat),
                f"{where}: twist matrix {m} is not an integer matrix")
        require(m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1,
                f"{where}: twist matrix {m} does not have determinant 1")
    runs = [("b" if g == "a" else "t", n) for g, n in twist_word]
    want = trusted_runs(alpha, len(runs))
    require(runs[:len(want)] == want[:len(runs)],
            f"{where}: twist word {runs[:len(want)]} differs from the exact "
            f"expansion {want}")
    for k, phi in enumerate(twist_products(want)):
        got = tuple(tuple(row) for row in matrices[k])
        require(got == phi, f"{where}: twist matrix {k} is {got}, expected {phi}")
    n_trusted = trusted_digits(alpha, len(qs))
    exact_qs = denominators(exact_digits(alpha, n_trusted))
    require(list(qs[:len(exact_qs)]) == exact_qs[:len(qs)],
            f"{where}: convergent denominators {list(qs[:len(exact_qs)])} "
            f"differ from the exact {exact_qs}")
    if max_trace_norm is not None and not math.isnan(max_trace_norm):
        require(max_trace_norm <= 2.0 + ROTATION_TRACE_TOL,
                f"{where}: witness trace norm {max_trace_norm} exceeds 2")


def dyadic_cells(lo: float, hi: float, level: int) -> list[tuple[float, float]]:
    """The 2^(level-1) cells of the bisection tree at `level` (level 1 is
    [lo, hi]), with midpoints computed as the refinement computes them."""
    cells = [(lo, hi)]
    for _ in range(level - 1):
        nxt = []
        for a, b in cells:
            m = 0.5 * (a + b)
            nxt += [(a, m), (m, b)]
        cells = nxt
    return cells


def check_refine(doc: dict, lo: float, hi: float, depth: int, where: str) -> None:
    """Criterion 8's properties (b) and (c) on one refined range, plus:

    - every alpha equals frac(tan theta), and only integer slopes lack one;
    - a certified interval's three samples are hyperbolic at its step;
    - certified intervals and the deepest uncertified cells tile the range,
      and the candidates are exactly the samples of those uncertified cells.
    """
    points = {p["theta"]: p for p in doc["points"]}
    for theta, p in points.items():
        require(lo <= theta <= hi, f"{where}: point {theta} outside the range")
        t = float(np.tan(theta))
        frac = t - math.floor(t)
        if math.isnan(p["alpha"]):
            require(p["verdict"] == "degenerate" and min(frac, 1.0 - frac) <= 1e-9,
                    f"{where}: theta {theta} has no alpha but slope {t}")
        else:
            require(abs(p["alpha"] - frac) <= 1e-12 * max(1.0, t),
                    f"{where}: theta {theta} has alpha {p['alpha']}, "
                    f"frac(tan theta) = {frac}")

    intervals = doc["certifiedHyperbolicIntervals"]
    for iv in intervals:
        a, b = iv["thetaLo"], iv["thetaHi"]
        for theta in (a, 0.5 * (a + b), b):
            p = points.get(theta)
            require(p is not None and p["verdict"] == "hyperbolic"
                    and p["steps"] == iv["atStep"],
                    f"{where}: certified interval [{a}, {b}] at step "
                    f"{iv['atStep']} has sample {p}")

    expected = set()
    for a, b in dyadic_cells(lo, hi, depth):
        if not any(iv["thetaLo"] <= a and b <= iv["thetaHi"] for iv in intervals):
            expected.update((a, 0.5 * (a + b), b))
    got = {p["theta"] for p in doc["candidateSpectrumPoints"]}
    require(got == expected,
            f"{where}: {len(got ^ expected)} candidates differ from the samples "
            f"of the uncertified deepest cells")

    # (b) every cell of width (hi - lo) / 2^(depth-2) is touched by a
    # hyperbolic sample or a certified interval.
    hyp = [t for t, p in points.items() if p["verdict"] == "hyperbolic"]
    n_cells = 2 ** max(depth - 2, 0)
    width = (hi - lo) / n_cells
    for i in range(n_cells):
        a = lo + i * width
        b = a + width
        touched = any(a <= t <= b for t in hyp) or any(
            iv["thetaLo"] < b and iv["thetaHi"] > a for iv in intervals)
        require(touched, f"{where}: cell [{a}, {b}] has no certified hyperbolicity")

    # (c) no isolated candidate at resolution (hi - lo) * 2^(3 - depth).
    cands = sorted(got)
    tol = (hi - lo) * 2.0 ** (3 - depth)
    for i, t in enumerate(cands):
        near = (i > 0 and t - cands[i - 1] <= tol) or \
            (i + 1 < len(cands) and cands[i + 1] - t <= tol)
        require(near, f"{where}: candidate {t} isolated beyond {tol}")
