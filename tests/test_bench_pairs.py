"""The aggregation of tools/bench_pairs.py, on made-up runs (no
subprocess): medians, quartiles, wins, failed share, the raw round
margin, the rounds under the harness's reference period, and the record
of a failed run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {"items_per_s": "higher", "item_p50_ms": "lower"}


def result(rate, p50, rounds=(0.2, 0.3), failed=0, slowdown=1.0):
    return {"metrics": {"items_per_s": rate, "item_p50_ms": p50},
            "correct": True, "attempted": 100, "failed": failed,
            "median_slowdown": slowdown,
            "round_s": bench_pairs.round_summary(list(rounds))}


def runs_of(pairs, workload="dichotomy"):
    out = []
    for i, (base, head) in enumerate(pairs):
        for side, res in (("base", base), ("head", head)):
            out.append({"workload": workload, "pair": i, "seed": i + 1,
                        "side": side, "result": res})
    return out


def test_medians_quartiles_and_wins():
    base_rates = [100.0, 110.0, 90.0, 105.0, 95.0]
    head_rates = [130.0, 100.0, 120.0, 125.0, 95.0]  # wins 3, loses 1, ties 1
    pairs = [(result(b, 2.0, slowdown=0.8), result(h, 1.5, rounds=(0.1, 0.15)))
             for b, h in zip(base_rates, head_rates)]
    got = bench_pairs.summarize(runs_of(pairs), METRICS)["dichotomy"]
    rate = got["metrics"]["items_per_s"]
    assert rate["base"] == {"q1": 95.0, "median": 100.0, "q3": 105.0}
    assert rate["head"]["median"] == 120.0
    assert (rate["head_wins"], rate["base_wins"]) == (3, 1)
    assert rate["change"] == pytest.approx(0.2)
    assert rate["base_iqr"] == 10.0
    p50 = got["metrics"]["item_p50_ms"]
    assert (p50["head_wins"], p50["base_wins"]) == (5, 0)
    assert got["raw_round_s"]["head"] == {"min": 0.1, "median": 0.125,
                                          "rounds": 10, "short": 0}
    assert got["median_slowdown"] == {"base": 0.8, "head": 1.0}
    assert got["failed_share"] == {"base": 0.0, "head": 0.0}
    assert got["errors"] == {"base": 0, "head": 0}


def test_failed_runs_and_shares():
    pairs = [(result(100.0, 2.0, failed=3), {"error": "exited with 1"}),
             (result(90.0, 2.0, failed=3), result(95.0, 1.0, failed=0))]
    got = bench_pairs.summarize(runs_of(pairs, "refine"), METRICS)["refine"]
    assert got["errors"] == {"base": 0, "head": 1}
    # The pair with a failed run counts for neither side.
    rate = got["metrics"]["items_per_s"]
    assert (rate["head_wins"], rate["base_wins"]) == (1, 0)
    assert rate["head"]["median"] == 95.0
    assert got["failed_share"] == {"base": 0.03, "head": 0.0}


def test_workloads_kept_apart():
    runs = (runs_of([(result(1.0, 1.0), result(2.0, 1.0))], "bounded")
            + runs_of([(result(5.0, 1.0), result(4.0, 1.0))], "refine"))
    got = bench_pairs.summarize(runs, METRICS)
    assert list(got) == ["bounded", "refine"]
    assert got["bounded"]["metrics"]["items_per_s"]["head_wins"] == 1
    assert got["refine"]["metrics"]["items_per_s"]["base_wins"] == 1


def test_rounds_under_the_reference_period():
    base = result(100.0, 2.0, rounds=(0.3, 0.5, 0.099))
    pairs = [(base, result(120.0, 1.5, rounds=(0.05, 0.0999, 0.1, 0.12))),
             (base, result(130.0, 1.4, rounds=(0.08, 0.2)))]
    assert pairs[0][1]["round_s"] == pytest.approx(
        {"min": 0.05, "median": 0.09995, "rounds": 4, "short": 2})
    got = bench_pairs.summarize(runs_of(pairs, "bounded"), METRICS)["bounded"]
    # The least round of all runs, the median of the runs' medians, and the
    # rounds of all runs, short ones apart.
    assert got["raw_round_s"] == {
        "base": {"min": 0.099, "median": 0.3, "rounds": 6, "short": 2},
        "head": pytest.approx({"min": 0.05, "median": 0.119975, "rounds": 6,
                               "short": 3})}


def test_failed_run_keeps_the_workload_traceback():
    stderr = ("Traceback (most recent call last):\n"
              '  File "perfbench/workloads.py", line 9, in <module>\n'
              "ValueError: min() arg is an empty sequence\n"
              "error: workload process exited with 1\n")
    err = bench_pairs.run_error(1, stderr)["error"]
    assert err.splitlines()[0] == "Traceback (most recent call last):"
    assert "ValueError: min() arg is an empty sequence" in err
    assert err.endswith("exited with 1")
    long = "\n".join(f"line {i}" for i in range(100))
    kept = bench_pairs.run_error(1, long)["error"].splitlines()
    assert kept == [f"line {i}" for i in range(100 - bench_pairs.STDERR_TAIL, 100)]
    assert bench_pairs.run_error(-9, "  \n") == {"error": "exit -9"}
