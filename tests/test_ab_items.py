"""The timing rounds and the aggregation of tools/ab_items.py, on made-up
calls and timings (no subprocess, no checkout copied)."""

import importlib
import importlib.util
import itertools
import math
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_items.py"
_spec = importlib.util.spec_from_file_location("ab_items", _PATH)
ab_items = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_items)


def test_sum_of_per_item_minima_and_ratio():
    times = {"base": [[3.0, 5.0, 1.0], [2.0, 6.0, 4.0]],
             "head": [[1.0, 1.5, 2.0], [2.0, 0.5, 1.0]]}
    res = ab_items.summarize(times)
    # base: min 2 + 5 + 1; head: min 1 + 0.5 + 1.
    assert res == {"base": 8.0, "head": 2.5, "ratio": 2.5 / 8.0}


def test_one_round_takes_each_item_once():
    res = ab_items.summarize({"base": [[0.25, 0.5]], "head": [[0.5, 0.5]]})
    assert res["ratio"] == pytest.approx(4.0 / 3.0)


def test_rounds_alternate_the_first_side():
    order = []
    calls = {side: [lambda s=side, i=i: order.append((s, i)) for i in range(2)]
             for side in ab_items.SIDES}
    ticks = itertools.count()
    times = ab_items.time_rounds(calls, 3, clock=lambda: float(next(ticks)))
    sides = [s for s, i in order if i == 0]
    assert sides == ["base", "head", "head", "base", "base", "head"]
    # Each call is timed on its own: one tick of the fake clock.
    assert times == {side: [[1.0, 1.0]] * 3 for side in ab_items.SIDES}


def test_round_sums_least_and_median():
    times = {"base": [[3.0, 5.0, 1.0], [2.0, 6.0, 4.0], [1.0, 1.0, 1.0]],
             "head": [[1.0, 1.5, 2.0], [2.0, 0.5, 1.0]]}
    # base rounds sum to 9, 12 and 3; head rounds to 4.5 and 3.5.  The
    # least round sum need not be a sum of the per-item minima.
    assert ab_items.round_sums(times) == {"base": (3.0, 9.0), "head": (3.5, 4.0)}
    assert ab_items.summarize(times)["head"] == 2.5


def test_balance_cancels_the_import_order():
    # The copy imported first runs 10% faster: head/base reads 1.1 with
    # base imported first and 1/1.1 with head first, and the geometric
    # mean of the two orders reads the sides as equal.
    base_first = {"base": 2.0, "head": 2.2, "ratio": 1.1}
    head_first = {"base": 2.2, "head": 2.0, "ratio": 1.0 / 1.1}
    res = ab_items.balance([base_first, head_first])
    assert res["ratio"] == pytest.approx(1.0)
    assert res["base"] == res["head"] == pytest.approx(math.sqrt(4.4))
    # A head 5% slower in both orders stays 5% slower.
    res = ab_items.balance([{"base": 2.0, "head": 2.31, "ratio": 1.155},
                            {"base": 2.2, "head": 2.1, "ratio": 2.1 / 2.2}])
    assert res["ratio"] == pytest.approx(1.05)
    assert res["head"] / res["base"] == pytest.approx(res["ratio"])


def test_half_ratios_split_the_rounds():
    # Rounds 1-2 and 3-5: base minima 2 + 5 and 1 + 1, head 1 + 0.5 and
    # 1 + 1.  An odd round count leaves the extra round in the second half.
    times = {"base": [[3.0, 5.0], [2.0, 6.0], [1.0, 1.0], [4.0, 4.0], [2.0, 3.0]],
             "head": [[1.0, 1.5], [2.0, 0.5], [1.0, 2.0], [3.0, 1.0], [1.0, 1.0]]}
    first, second = ab_items.half_ratios(times)
    assert first == 1.5 / 7.0
    assert second == 2.0 / 2.0
    # The whole call's ratio takes the least of all the rounds.
    assert ab_items.summarize(times)["ratio"] == 1.5 / 2.0


def test_work_counts_of_a_toy_package(tmp_path, monkeypatch):
    # total runs 3 lines and calls square twice, 1 line each; the direct
    # square call 1 line more.  The test's lambdas and a module whose name
    # only starts with the package's are not counted, and the pass puts
    # back the tracer it found.
    (tmp_path / "toypkg").mkdir()
    (tmp_path / "toypkg" / "__init__.py").write_text("")
    (tmp_path / "toypkg" / "walk.py").write_text(
        "def square(x):\n"
        "    return x * x\n"
        "\n"
        "\n"
        "def total(xs):\n"
        "    a = square(xs[0])\n"
        "    b = square(xs[1])\n"
        "    return a + b\n")
    (tmp_path / "toypkg_other.py").write_text(
        "def double(x):\n"
        "    y = x + x\n"
        "    return y\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    walk = importlib.import_module("toypkg.walk")
    other = importlib.import_module("toypkg_other")
    calls = [lambda: walk.total([2, 3]), lambda: walk.square(4),
             lambda: other.double(5)]
    before = sys.gettrace()
    assert ab_items.work_counts(calls, "toypkg") == {"lines": 6, "calls": 4}
    assert ab_items.work_counts(calls[2:], "toypkg") == {"lines": 0, "calls": 0}
    assert ab_items.work_counts(calls[2:], "toypkg_other") == {"lines": 2, "calls": 1}
    assert ab_items.work_counts(calls[:1], "toypkg") == {"lines": 5, "calls": 3}
    assert sys.gettrace() is before
