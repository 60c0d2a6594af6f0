"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the rvcocycle modules with
wrappers that record spans (name, start, end, parent) or bare call counts.
A function imported by name into another module is a separate binding, so
every module attribute bound to the original function is replaced, for
example both `lyapunov.cone_certificate` and `cocycle.cone_certificate`.
Spans stay in memory; `write()` saves them when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

# Functions timed with a span.  run_steps is a generator: each next() on it
# is one span, so its time lands inside whichever caller drives it.
SPANNED = (
    ("lyapunov", "direct_exponent"),
    ("lyapunov", "renorm_decision"),
    ("cocycle", "cone_certificate"),
    ("cocycle", "classify_pair"),
    ("cocycle", "tau_power"),
    ("iet", "run_steps"),
    ("spectrum", "evaluate_slope"),
    ("spectrum", "refine_spectrum"),
    ("spectrum", "mcg_trajectory"),
    ("cli", "main"),
)
GENERATORS = {"iet.run_steps"}
# Functions too hot for a span (mat2.mul runs millions of times per round):
# counted only.
COUNTED = (
    ("mat2", "mul"),
    ("iet", "rauzy_step"),
)

# Reported per-layer metrics as (layer function, kind); Tracer.metrics
# computes each kind.
LAYER_METRICS = (
    ("lyapunov.direct_exponent", "calls"),
    ("lyapunov.direct_exponent", "s"),
    ("lyapunov.direct_exponent", "iters_per_s"),
    ("cocycle.cone_certificate", "calls"),
    ("cocycle.cone_certificate", "s"),
    ("cocycle.cone_certificate", "mul_per_call"),
    ("mat2.mul", "calls"),
    ("iet.rauzy_step", "calls"),
    ("iet.run_steps", "s"),
    ("lyapunov.renorm_decision", "calls"),
    ("lyapunov.renorm_decision", "s"),
    ("lyapunov.renorm_decision", "self_s"),
    ("lyapunov.renorm_decision", "breakdowns"),
    ("cocycle.classify_pair", "calls"),
    ("cocycle.classify_pair", "s"),
    ("cocycle.tau_power", "s"),
    ("spectrum.mcg_trajectory", "s"),
    ("spectrum.mcg_trajectory", "self_s"),
    ("spectrum.evaluate_slope", "calls"),
    ("spectrum.evaluate_slope", "s"),
    ("spectrum.refine_spectrum", "s"),
    ("spectrum.refine_spectrum", "certified_intervals"),
    ("spectrum.refine_spectrum", "candidates"),
    ("cli.main", "self_s"),
)
UNITS = {"calls": "count/round", "s": "s/round", "self_s": "s/round",
         "iters_per_s": "1/s", "mul_per_call": "mul/call",
         "breakdowns": "count/round", "certified_intervals": "count/round",
         "candidates": "count/round"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # One span per entry: [name index, start, end, parent span index].
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}
        self.extra = {"direct_exponent.iters": 0, "renorm_decision.breakdowns": 0,
                      "refine_spectrum.certified_intervals": 0,
                      "refine_spectrum.candidates": 0, "mul_in_cone": 0}
        self._cone_depth = 0
        # (module, attribute, original, wrapper) for every patched binding.
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of the traced functions (wrappers are built
        on the first call and reused after an uninstall)."""
        if not self._bindings:
            self._bind()
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original, _ in self._bindings:
            setattr(m, attr, original)

    def _bind(self) -> None:
        for mod_name, _ in SPANNED + COUNTED:
            importlib.import_module(f"rvcocycle.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if name == "rvcocycle" or name.startswith("rvcocycle.")]
        for mod_name, fn_name in SPANNED + COUNTED:
            original = getattr(sys.modules[f"rvcocycle.{mod_name}"], fn_name)
            qual = f"{mod_name}.{fn_name}"
            if (mod_name, fn_name) in COUNTED:
                wrapper = self._counter(qual, original)
            elif qual in GENERATORS:
                wrapper = self._generator(qual, original)
            else:
                wrapper = self._spanner(qual, original)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        self._bindings.append((m, attr, original, wrapper))

    def _name_index(self, qual: str) -> int:
        self.names.append(qual)
        return len(self.names) - 1

    def _begin(self, name_idx: int) -> int:
        idx = len(self.spans)
        self.spans.append([name_idx, time.perf_counter(), 0.0, self.stack[-1]])
        self.stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _spanner(self, qual, fn):
        tracer = self
        name_idx = self._name_index(qual)
        is_cone = qual == "cocycle.cone_certificate"

        def wrapper(*args, **kwargs):
            idx = tracer._begin(name_idx)
            if is_cone:
                tracer._cone_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_cone:
                    tracer._cone_depth -= 1
                tracer._end(idx)
            tracer._observe(qual, args, kwargs, result)
            return result
        return wrapper

    def _generator(self, qual, fn):
        tracer = self
        name_idx = self._name_index(qual)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def steps():
                while True:
                    idx = tracer._begin(name_idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._end(idx)
                    yield item
            return steps()
        return wrapper

    def _counter(self, qual, fn):
        counts = self.counts
        counts[qual] = 0
        tracer = self
        if qual == "mat2.mul":
            def wrapper(*args, **kwargs):
                counts[qual] += 1
                if tracer._cone_depth:
                    tracer.extra["mul_in_cone"] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[qual] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _observe(self, qual, args, kwargs, result) -> None:
        if qual == "lyapunov.direct_exponent":
            self.extra["direct_exponent.iters"] += result.n_iters
        elif qual == "lyapunov.renorm_decision":
            note = result.verdict.budget_note or ""
            if note.startswith("numerical breakdown"):
                self.extra["renorm_decision.breakdowns"] += 1
        elif qual == "spectrum.refine_spectrum":
            self.extra["refine_spectrum.certified_intervals"] += \
                len(result.certified_hyperbolic_intervals)
            self.extra["refine_spectrum.candidates"] += \
                len(result.candidate_spectrum_points)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of the
        name only) and self seconds (duration less the child spans)."""
        child = [0.0] * len(self.spans)
        for name_idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {q: {"calls": 0, "s": 0.0, "self_s": 0.0} for q in self.names}
        for i, (name_idx, start, end, parent) in enumerate(self.spans):
            t = out[self.names[name_idx]]
            t["calls"] += 1
            t["self_s"] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name_idx:
                p = self.spans[p][3]
            if p < 0:
                t["s"] += end - start
        for q, n in self.counts.items():
            out[q] = {"calls": n, "s": 0.0, "self_s": 0.0}
        return out

    def metrics(self, rounds: int) -> dict[str, dict]:
        """Every per-layer metric, per round (one pass over the item list)."""
        tot = self.totals()
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
        out = {}
        for qual, kind in LAYER_METRICS:
            t = tot.get(qual, zero)
            if kind in ("calls", "s", "self_s"):
                value = t[kind] / rounds
            elif kind == "iters_per_s":
                value = self.extra["direct_exponent.iters"] / t["s"] if t["s"] else 0.0
            elif kind == "mul_per_call":
                value = self.extra["mul_in_cone"] / t["calls"] if t["calls"] else 0.0
            elif kind == "breakdowns":
                value = self.extra["renorm_decision.breakdowns"] / rounds
            else:
                value = self.extra[f"refine_spectrum.{kind}"] / rounds
            out[f"{qual}.{kind}"] = {"value": value, "unit": UNITS[kind]}
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent index."""
        with gzip.open(path, "wt") as fh:
            for name_idx, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[name_idx], start, end, parent]))
                fh.write("\n")
