"""What the benchmark reads of rvcocycle.  Its tracer wraps functions by
module and name (perfbench/tracing.py, SPANNED and COUNTED), and each must
exist, so that a rename fails here rather than in a traced benchmark run;
its workloads and checks read the verdict vocabulary as text, and each
workload's item list must run and pass the workload's own check."""

import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

import pytest

from rvcocycle import cli, lyapunov, spectrum
from rvcocycle.cocycle import CocyclePair, DegeneratePairError, trace_coords
from rvcocycle.lyapunov import DecisionBudget, Kind, Reason, renorm_decision
from rvcocycle.mat2 import diagonal
from test_acceptance import random_pair

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """perfbench/<name>.py, imported as it is, with perfbench/ on the path
    for its own imports."""
    if str(_PERFBENCH) not in sys.path:
        sys.path.append(str(_PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = perfbench_module("tracing")


@pytest.mark.parametrize("module, name", tracing.SPANNED + tracing.COUNTED,
                         ids=lambda x: x)
def test_traced_function_exists(module, name):
    mod = importlib.import_module(f"rvcocycle.{module}")
    assert callable(getattr(mod, name, None)), f"rvcocycle.{module}.{name}"


# The benchmark also reads the verdict vocabulary: it compares Verdict.kind
# and Verdict.budget_note with their texts, calls str methods on the note,
# and rebuilds verdicts with a plain-text kind.

KINDS = ("UniformlyHyperbolic", "CertifiedBounded", "FiniteOrder", "Undecided")
REASONS = ("run length exceeded max_digit",
           "trace bound exceeded without reaching HH+",
           "float precision lost forming a level")
DECISIONS = json.loads((Path(__file__).resolve().parent / "data" /
                        "cli_decisions.json").read_text())


def criterion_6_verdicts():
    """The verdicts of criterion 6's 200 draws, drawn as it draws them."""
    rng = random.Random(42)
    verdicts = []
    while len(verdicts) < 200:
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
        verdicts.append(trace.verdict)
    return verdicts


def cli_verdicts(monkeypatch):
    """The verdicts the recorded CLI runs decide, renorm and mcg alike."""
    verdicts = []
    decide = lyapunov._decide

    def recording(*args, **kwargs):
        trace = decide(*args, **kwargs)
        verdicts.append(trace.verdict)
        return trace

    monkeypatch.setattr(lyapunov, "_decide", recording)
    monkeypatch.setattr(spectrum, "_decide", recording)
    for case in DECISIONS.values():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(case["argv"]) == case["exit"]
    return verdicts


def test_kind_and_reason_read_as_their_text():
    for member, text in zip(Kind, KINDS):
        assert member == text and str(member) == text and f"{member}" == text
        assert json.dumps({member: member}) == json.dumps({text: text})
    for member, text in zip(Reason, REASONS):
        assert member == text and f"{member}" == text
        assert member.startswith(text[:10])


def test_real_verdicts_keep_the_contract(monkeypatch):
    verdicts = criterion_6_verdicts() + cli_verdicts(monkeypatch)
    kinds = {v.kind for v in verdicts}
    assert kinds == set(KINDS)
    for v in verdicts:
        assert v.kind in KINDS and f"{v.kind}" in KINDS and str(v.kind) in KINDS
        assert v.budget_note is None or v.budget_note in REASONS
        assert v.code in ("hyperbolic", "bounded", "finite_in", "finite_out",
                          "undecided")
        if v.kind == "Undecided":
            assert isinstance(v.budget_note, Reason), v
        else:
            assert v.budget_note is None, v
    assert {v.budget_note for v in verdicts if v.kind == "Undecided"} == set(Reason)


def test_a_verdict_rebuilds_with_a_plain_kind():
    hyperbolic = CocyclePair(diagonal(2.0), diagonal(2.0))
    v = renorm_decision(hyperbolic, 0.6180339887498949).verdict
    assert v.kind == "UniformlyHyperbolic" and v.code == "hyperbolic"
    flipped = dataclasses.replace(v, kind="CertifiedBounded", certificate=None,
                                  max_trace_norm=1.0)
    assert flipped.kind == Kind.CERTIFIED_BOUNDED and flipped.code == "bounded"


@pytest.fixture(scope="module")
def workloads():
    return perfbench_module("workloads")


@pytest.mark.parametrize("name", ["dichotomy", "refine", "bounded"])
def test_workload_round_passes_its_check(workloads, name, tmp_path, monkeypatch):
    # One round of the workload's items, then its own check, as a benchmark
    # run takes them (without the timing): a renamed field or an exception
    # the program raises fails here.
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path)
    workloads.import_program()
    wl = workloads.WORKLOADS[name](1)
    outs = [wl.run(item) for item in wl.items]
    wl.check(outs, first_round=True)
    wl.check_certificates()
    outcomes = [wl.outcome(out) for out in outs]
    if name == "bounded":
        # Commuting rotations meet no degenerate pair: every item ends in
        # a bounded witness.
        assert "degenerate" not in outcomes
        assert sum(type(out[1]).__name__ == "BoundedWitness" for out in outs) == 300
