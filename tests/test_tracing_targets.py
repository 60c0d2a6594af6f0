"""The benchmark's tracer wraps rvcocycle functions by module and name
(perfbench/tracing.py, SPANNED and COUNTED).  Each must exist, so that a
rename fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module, name", tracing.SPANNED + tracing.COUNTED,
                         ids=lambda x: x)
def test_traced_function_exists(module, name):
    mod = importlib.import_module(f"rvcocycle.{module}")
    assert callable(getattr(mod, name, None)), f"rvcocycle.{module}.{name}"
