"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single "criterion N: pass" / "criterion N: FAIL" line
(run pytest with -s or read captured output) and enforces the stated
tolerance and runtime budget.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from rvcocycle.cli import main as cli_main
from rvcocycle.cocycle import (
    CocyclePair,
    DegeneratePairError,
    TRANSITIONS,
    classify_pair,
    cone_certificate,
    short_words,
    tau1,
    tau2,
    trace_bound,
    trace_coords,
)
from rvcocycle.hypgeom import (
    hh_minus_canonical_pair,
    rotation_about,
    translation_between,
)
from rvcocycle.iet import (
    Rotation2IET,
    accelerated_digits,
    continued_fraction,
    first_return_oracle,
)
from rvcocycle.lyapunov import (
    DecisionBudget,
    direct_exponent,
    exponent_lower_bound,
    renorm_decision,
)
from rvcocycle.mat2 import (
    BoundaryPoint,
    Matrix2,
    classify,
    diagonal,
    mul,
    rotation,
    spectral_radius,
)
from rvcocycle.spectrum import Representation, mcg_trajectory, refine_spectrum
from reference_walk import winner_move

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Criterion:
    """Context manager printing the single pass/FAIL line and checking the
    runtime budget."""

    def __init__(self, number: int, budget_seconds: float):
        self.number = number
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None and elapsed <= self.budget:
            print(f"criterion {self.number}: pass ({elapsed:.1f}s)")
            return False
        reason = f"{elapsed:.1f}s > {self.budget:.0f}s budget" \
            if exc_type is None else exc_type.__name__
        print(f"criterion {self.number}: FAIL ({reason})")
        if exc_type is None:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s > {self.budget}s")
        return False


def random_unimodular(rng, scale=2.0) -> Matrix2:
    while True:
        e = [rng.uniform(-scale, scale) for _ in range(4)]
        if e[0] * e[3] - e[1] * e[2] > 0.05:
            return Matrix2(*e)


def random_pair(rng, scale=2.0) -> CocyclePair:
    return CocyclePair(random_unimodular(rng, scale),
                       random_unimodular(rng, scale))


def test_criterion_1_fricke_identity():
    with Criterion(1, 5.0):
        rng = random.Random(42)
        worst = 0.0
        for _ in range(100_000):
            worst = max(worst, trace_coords(random_pair(rng)).residual)
        assert worst <= 1e-8, f"worst Fricke residual {worst:.2e}"


def test_criteria_2_and_3_cf_equivalence_and_q_growth():
    # Criterion 2: accelerated digits match brute-force continued fractions
    # for 15 digits on 1000 random angles (exact rational arithmetic on the
    # float's value removes roundoff ambiguity from both sides), and first
    # return times on the induced intervals equal {q_n, q_n + q_{n-1}}.
    # Criterion 3 rides along: q_n >= sqrt(2)^n for every convergent seen.
    with Criterion(2, 30.0):
        rng = random.Random(7)
        for _ in range(1000):
            alpha = rng.uniform(0.001, 0.999)
            if abs(alpha - 0.5) < 1e-6:
                continue
            fr = Fraction(alpha)
            want = continued_fraction(fr, max_digits=15).digits
            got = tuple(accelerated_digits(fr, 15))
            assert got == want[:len(got)] and len(got) >= min(len(want), 14), \
                f"digit mismatch at alpha={alpha!r}: {got} vs {want}"

        for alpha in [GOLDEN, math.pi - 3.0, math.sqrt(2) - 1.0,
                      0.2137, 0.7316] + [rng.uniform(0.05, 0.95)
                                         for _ in range(10)]:
            if abs(alpha - 0.5) < 1e-3:
                continue
            cf = continued_fraction(alpha, max_digits=12)
            qs = cf.convergent_denominators
            n_max = min(8, len(qs) - 2)
            for n in range(1, n_max + 1):
                if qs[n] + qs[n - 1] > 2_000_000:
                    break
                rec = first_return_oracle(Rotation2IET(alpha), n)
                assert set(rec.return_times) == {qs[n], qs[n] + qs[n - 1]}, \
                    f"return times {rec.return_times} at alpha={alpha}, n={n}"

    with Criterion(3, 5.0):
        rng = random.Random(8)
        for _ in range(200):
            alpha = rng.uniform(0.001, 0.999)
            qs = continued_fraction(alpha, max_digits=20).convergent_denominators
            for n in range(len(qs)):
                assert qs[n] >= math.sqrt(2.0) ** (n - 1), \
                    f"q_{n}={qs[n]} below sqrt(2)^{n - 1} at alpha={alpha}"


def test_criterion_4_cone_soundness():
    with Criterion(4, 60.0):
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
            for n, w in short_words(p, 12):
                lower = cert.constant * cert.expansion_factor ** n
                r = spectral_radius(w)
                assert r >= lower * (1.0 - 1e-9), \
                    f"word of length {n}: radius {r} < bound {lower}"
                cw = classify(w)
                if cw.is_hyperbolic:
                    assert cert.contains_angle(cw.attracting.angle()), \
                        "attracting fixed point escaped the certified arc"


def _incremental_powers(p: CocyclePair, move: int, n_max: int):
    """Yield (n, type code) for tau_move^n, n = 1..n_max, one product per
    step; stops early before float overflow."""
    a, b = p.A, p.B
    for n in range(1, n_max + 1):
        if move == 1:
            b = mul(b, p.A)
        else:
            a = mul(p.B, a)
        if max(abs(e) for m in (a, b) for e in m.entries()) > 1e100:
            return
        yield n, classify_pair(CocyclePair(a, b)).code


def test_criterion_5_transition_audit():
    with Criterion(5, 120.0):
        rng = random.Random(19)

        # EE: both EE and EH outcomes recur among tau1 powers (n <= 1e4).
        done = 0
        while done < 100:
            a = rotation_about(complex(rng.uniform(-1, 1), rng.uniform(0.5, 2)),
                               rng.uniform(0.3, 5.9))
            b = rotation_about(complex(rng.uniform(-1, 1), rng.uniform(0.5, 2)),
                               rng.uniform(0.3, 5.9))
            p = CocyclePair(a, b)
            if classify_pair(p).code != "EE":
                continue
            seen = set()
            for n, code in _incremental_powers(p, 1, 10_000):
                if code in ("EE", "EH"):
                    seen.add(code)
                else:
                    assert code == "DEG", f"EE tau1^{n} gave {code}"
                if seen == {"EE", "EH"}:
                    break
            assert seen == {"EE", "EH"}, \
                "EE pair missed an outcome within n <= 1e4"
            done += 1

        # HE: a single threshold N, type HE below and HH+ from N on.
        done = 0
        while done < 100:
            a = translation_between(BoundaryPoint.from_value(rng.uniform(-2, 0)),
                                    BoundaryPoint.from_value(rng.uniform(0.5, 2)),
                                    rng.uniform(0.3, 1.5))
            b = rotation_about(complex(rng.uniform(-1, 1), rng.uniform(0.5, 2)),
                               rng.uniform(0.3, 5.9))
            p = CocyclePair(a, b)
            if classify_pair(p).code != "HE":
                continue
            threshold = None
            ok = True
            for n, code in _incremental_powers(p, 1, 10_000):
                if code == "DEG":
                    continue
                if threshold is None:
                    if code == "HH+":
                        threshold = n
                    elif code != "HE":
                        ok = False
                        break
                else:
                    if code != "HH+":
                        ok = False
                        break
            assert ok and threshold is not None, \
                "HE pair lacked a single HH+ threshold"
            done += 1

        # HH-: thresholds N1 <= N2, regimes HH- / HE / HH+ for tau1 powers.
        done = 0
        while done < 100:
            d = rng.uniform(0.5, 2.0)
            t_b = 2.0 * math.log(1.0 / math.tanh(d / 2.0)) + rng.uniform(0.3, 1.5)
            a, b = hh_minus_canonical_pair(rng.uniform(0.05, 0.3), t_b, d)
            p = CocyclePair(a, b)
            if classify_pair(p).code != "HH-":
                continue
            phase = 0  # 0: HH-, 1: HE, 2: HH+
            ok = True
            for n, code in _incremental_powers(p, 1, 10_000):
                if code == "DEG":
                    continue
                want = ("HH-", "HE", "HH+")
                if code == want[phase]:
                    continue
                if phase < 2 and code in want[phase + 1:]:
                    phase = want.index(code)
                    continue
                ok = False
                break
            assert ok and phase == 2, \
                f"HH- regimes broke order (reached phase {phase})"
            done += 1

        # Any renormDecision run must stay inside the transition diagram.
        checked_runs = 0
        while checked_runs < 60:
            p = random_pair(rng)
            alpha = rng.uniform(0.05, 0.95)
            if abs(alpha - 0.5) < 1e-3:
                continue
            try:
                t0 = classify_pair(p)
                if t0.is_degenerate:
                    continue
                trace = renorm_decision(p, alpha, DecisionBudget(max_accel_steps=30))
            except DegeneratePairError:
                continue
            prev = t0.code
            for s in trace.steps:
                if s.winner is None:
                    prev = s.pair_type
                    continue
                move = winner_move(s.winner)
                assert s.pair_type in TRANSITIONS[(prev, move)], \
                    f"out-of-diagram transition {prev} --{move}--> {s.pair_type}"
                prev = s.pair_type
            checked_runs += 1


def test_criterion_6_dichotomy():
    with Criterion(6, 600.0):
        rng = random.Random(42)
        undecided = 0
        total = 0
        while total < 200:
            p = random_pair(rng)
            if trace_coords(p).c <= 2.0:
                continue
            alpha = rng.uniform(0.05, 0.95)
            if abs(alpha - 0.5) < 1e-3:
                continue
            try:
                trace = renorm_decision(p, alpha, DecisionBudget(max_accel_steps=60))
            except DegeneratePairError:
                continue
            total += 1
            v = trace.verdict
            assert v.kind in ("UniformlyHyperbolic", "CertifiedBounded",
                              "FiniteOrder", "Undecided")
            if v.kind == "Undecided":
                undecided += 1
                continue
            if v.kind == "UniformlyHyperbolic":
                lb = exponent_lower_bound(trace, alpha)
                est = direct_exponent(p, Rotation2IET(alpha), 100_000)
                # Deep absorbing steps certify bounds far below the Monte
                # Carlo estimator's resolution; grant it its own noise floor.
                floor = max(3.0 * est.stderr, 1e-9)
                assert est.chi >= 0.9 * lb - floor, \
                    f"chi {est.chi} below 0.9 * certified bound {lb}"
            elif v.kind == "CertifiedBounded":
                est = direct_exponent(p, Rotation2IET(alpha), 100_000)
                assert est.chi <= 0.05, \
                    f"bounded verdict but chi {est.chi} > 0.05"
        assert undecided <= 10, f"{undecided}/200 runs undecided (> 5%)"


def test_criterion_7_known_exponents():
    with Criterion(7, 5.0):
        hyp = CocyclePair(diagonal(2.0), diagonal(2.0))
        est = direct_exponent(hyp, Rotation2IET(GOLDEN), 100_000)
        assert abs(est.chi - math.log(2.0)) <= 1e-6, f"chi={est.chi}"
        ell = CocyclePair(rotation(1.0), rotation(math.sqrt(2.0)))
        est = direct_exponent(ell, Rotation2IET(GOLDEN), 100_000)
        assert est.chi <= 1e-6, f"chi={est.chi}"


def test_criterion_8_spectrum_refinement():
    with Criterion(8, 900.0):
        m = Matrix2(1.7, 0.9, 0.0, 1.0 / 1.7)
        rep = Representation(rotation(1.0),
                             mul(mul(m, rotation(0.9)), m.inv()))
        assert rep.c > 2.0
        lo, hi = 0.05, 1.5
        depth = 14
        res = refine_spectrum(rep, lo, hi, depth,
                              DecisionBudget(max_accel_steps=40))

        # (a) non-empty candidate set.
        assert res.candidate_spectrum_points, "no candidate spectrum points"

        # (b) empty interior: every dyadic subinterval of width >= 2^-12 of
        # the scanned range is touched by certified hyperbolicity (either a
        # hyperbolic sample inside it or overlap with a certified interval).
        hyp_thetas = sorted(p.theta for p in res.points
                            if p.verdict == "hyperbolic")
        ivs = res.certified_hyperbolic_intervals
        n_dyadic = 2 ** 12
        width = (hi - lo) / n_dyadic
        uncovered = 0
        import bisect as _bisect
        for i in range(n_dyadic):
            a = lo + i * width
            b = a + width
            j = _bisect.bisect_left(hyp_thetas, a)
            if j < len(hyp_thetas) and hyp_thetas[j] <= b:
                continue
            if any(iv.theta_lo < b and iv.theta_hi > a for iv in ivs):
                continue
            uncovered += 1
        assert uncovered == 0, f"{uncovered}/{n_dyadic} dyadic cells uncovered"

        # (c) no isolated candidate at resolution 2^(3-depth) of the range.
        cands = sorted(p.theta for p in res.candidate_spectrum_points)
        tol = (hi - lo) * 2.0 ** (3 - depth)
        for i, t in enumerate(cands):
            near = (i > 0 and t - cands[i - 1] <= tol) or \
                (i + 1 < len(cands) and cands[i + 1] - t <= tol)
            assert near, f"candidate at theta={t} isolated beyond {tol}"


def test_criterion_9_mcg_growth():
    with Criterion(9, 120.0):
        # Non-spectrum slope: the commuting hyperbolic pair diverges with
        # trace norms >= e^{0.5 ln(mu) q_n} along the twist trajectory.
        rep = Representation(diagonal(2.0), diagonal(2.0))
        traj, witness = mcg_trajectory(rep, GOLDEN, 12)
        assert witness.mu == pytest.approx(2.0)
        qs = traj.convergent_denominators
        consecutive = 0
        for k in range(len(witness.growth_log)):
            if witness.growth_log[k] >= 0.5 * math.log(2.0) * qs[k]:
                consecutive += 1
                if consecutive >= 3:
                    break
            else:
                consecutive = 0
        assert consecutive >= 3, "trace growth below e^{0.5 ln(mu) q_n}"

        # Candidate slope: trace coordinates stay below B(c) + 4 for at
        # least 20 accelerated steps.
        ell = Representation(rotation(1.0), rotation(math.sqrt(2.0)))
        c = trace_coords(CocyclePair(ell.A, ell.B)).c
        bound = trace_bound(c) + 4.0
        trace = renorm_decision(CocyclePair(ell.A, ell.B), GOLDEN,
                                DecisionBudget(max_accel_steps=25))
        assert len(trace.steps) >= 20
        for s in trace.steps[:20]:
            norm = max(abs(s.coords.x), abs(s.coords.y), abs(s.coords.z))
            assert norm <= bound, f"step {s.index}: trace norm {norm} > {bound}"

        _, witness2 = mcg_trajectory(ell, GOLDEN, 20,
                                     DecisionBudget(max_accel_steps=40))
        assert witness2.max_trace_norm <= bound


def test_criterion_10_lemma_suite(capsys):
    with Criterion(10, 60.0):
        code = cli_main(["verify-lemmas", "--draws", "100"])
        out = capsys.readouterr().out
        assert code == 0, f"verify-lemmas exited {code}:\n{out}"
        assert out.count(": pass (100 draws)") == 3
