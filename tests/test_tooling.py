"""The benchmark tracer must find every function it wraps.

``perfbench/spans.py`` looks each traced function up by module and name.  A
rename in the package would otherwise drop that layer from the benchmark's
trace without failing any test here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [pair for funcs in spans.SPANS.values() for pair in funcs]
    # perfbench/child.py calls these directly.
    direct = [("twistrank.cli", "main"), ("twistrank.sampling", "WalkConfig"),
              ("twistrank.sampling", "path_count")]
    return names + [("twistrank.sampling", "enumerate_paths")] + direct


@pytest.mark.parametrize("module, name", _traced_names())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
