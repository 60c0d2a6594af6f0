"""Self-test of the output checkers: each must accept the program's real
output and reject a deliberately corrupted copy of it (or, for bounded
trace norms, count it as a failed item).

    PYTHONPATH=src python3 perfbench/selftest.py

Exits 0 when every checker behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import checks
import workloads


def rejects(wl, outs) -> str | None:
    """The checker's message, or None when it accepts the outputs."""
    try:
        wl.check(outs, first_round=True)
        wl.check_certificates()
    except checks.CheckError as exc:
        return str(exc)
    return None


def counted_failed(wl, out) -> str | None:
    """A note when the workload counts the output as a failed item."""
    return f"counted failed ({wl.outcome(out)})" if wl.failed(out) else None


def dichotomy_cases():
    wl = workloads.Dichotomy(0)
    wl.items = sorted(wl.items, key=lambda item: item[0])[:12]
    outs = [wl.run(item) for item in wl.items]
    yield "dichotomy: real output accepted", rejects(wl, outs), False

    def bound(item, out):
        v = out[0].verdict
        return checks.exponent_lower_bound(v.certificate.expansion_factor,
                                           v.at_step, item[2])

    hyp = [i for i, (trace, _) in enumerate(outs)
           if trace.verdict.kind == "UniformlyHyperbolic"]
    # A hyperbolic verdict whose audit is well above 0.05, flipped to bounded.
    i = max(hyp, key=lambda j: outs[j][1].chi)
    trace, est = outs[i]
    flipped = dataclasses.replace(trace, verdict=dataclasses.replace(
        trace.verdict, kind="CertifiedBounded", certificate=None,
        max_trace_norm=1.0))
    bad = list(outs)
    bad[i] = (flipped, est)
    yield "dichotomy: flipped verdict rejected", rejects(wl, bad), True

    # The estimate pushed below 0.9 of the certified bound.
    i = max(hyp, key=lambda j: bound(wl.items[j], outs[j]))
    trace, est = outs[i]
    low = dataclasses.replace(est, chi=0.5 * bound(wl.items[i], outs[i]), stderr=0.0)
    bad = list(outs)
    bad[i] = (trace, low)
    yield "dichotomy: chi below the bound rejected", rejects(wl, bad), True

    # A cone constant 1e6 times too large.
    wl.items, outs = [wl.items[i]], [outs[i]]
    cert = trace.verdict.certificate
    inflated = dataclasses.replace(trace, verdict=dataclasses.replace(
        trace.verdict, certificate=dataclasses.replace(cert, constant=cert.constant * 1e6)))
    yield "dichotomy: inflated cone constant rejected", rejects(wl, [(inflated, est)]), True


def refine_cases():
    wl = workloads.Refine(0)
    wl.items = sorted(wl.items)[:6]
    outs = [wl.run(item) for item in wl.items]
    yield "refine: real output accepted", rejects(wl, outs), False

    i = next(j for j, (_, text) in enumerate(outs)
             if json.loads(text)["certifiedHyperbolicIntervals"])
    doc = json.loads(outs[i][1])
    doc["certifiedHyperbolicIntervals"].pop()
    bad = list(outs)
    bad[i] = (0, json.dumps(doc))
    yield "refine: dropped certified interval rejected", rejects(wl, bad), True

    doc = json.loads(outs[i][1])
    doc["points"][0]["alpha"] += 1e-6
    bad[i] = (0, json.dumps(doc))
    yield "refine: shifted alpha rejected", rejects(wl, bad), True


def bounded_cases():
    wl = workloads.Bounded(0)
    wl.items = wl.items[:4]
    outs = [wl.run(item) for item in wl.items]
    yield "bounded: real output accepted", rejects(wl, outs), False

    traj, witness = outs[0]
    m = [list(row) for row in traj.matrices[1]]
    m[0][1] += m[0][0]
    m[1][1] += m[1][0]          # determinant 1 kept, product changed
    mats = list(traj.matrices)
    mats[1] = tuple(tuple(row) for row in m)
    bad = list(outs)
    bad[0] = (dataclasses.replace(traj, matrices=tuple(mats)), witness)
    yield "bounded: altered twist matrix rejected", rejects(wl, bad), True

    # Trace norms are counted, not rejected: the program breaks them today.
    flat = (math.log(2.0),) * len(witness.growth_log)
    within = (traj, dataclasses.replace(witness, growth_log=flat))
    yield "bounded: trace norms of 2 counted done", counted_failed(wl, within), False
    grown = (traj, dataclasses.replace(witness, growth_log=(1.0,) + flat[1:]))
    yield "bounded: trace norm above 2 counted failed", counted_failed(wl, grown), True


def main() -> int:
    workloads.import_program()
    ok = True
    for cases in (dichotomy_cases, refine_cases, bounded_cases):
        for name, message, want_reject in cases():
            passed = (message is not None) == want_reject
            print(f"{'ok  ' if passed else 'FAIL'} {name}"
                  + (f": {message}" if message else ""))
            ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
