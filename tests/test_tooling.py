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


# Oracle names that moved into twistrank.verify, and the six that perfbench
# still looks up at their old homes, where a module ``__getattr__`` forwards
# them.
MOVED = ("enumerate_paths", "PathTable", "TwistResult", "achievable_range", "path_table",
         "solve_theta_closed", "solve_theta_numeric", "twist", "BivariateDistribution",
         "_pair_terms", "bivariate", "influence_closed_form", "marginal", "path_count")
FORWARDED = [("twistrank.sampling", "enumerate_paths"),
             ("twistrank.sampling", "path_count"),
             ("twistrank.twisting", "solve_theta_closed"),
             ("twistrank.twisting", "solve_theta_numeric"),
             ("twistrank.centrality", "bivariate"),
             ("twistrank.centrality", "marginal")]


@pytest.mark.parametrize("module, name", FORWARDED)
def test_forward_is_the_oracle_function(module, name):
    verify = importlib.import_module("twistrank.verify")
    assert getattr(importlib.import_module(module), name) is getattr(verify, name)


@pytest.mark.parametrize("module", ["twistrank.sampling", "twistrank.twisting",
                                    "twistrank.centrality"])
def test_production_module_holds_no_oracle_copy(module):
    """No moved name is defined in a production module, where a copy would be a
    second path; only the forwarded ones resolve there at all."""
    mod = importlib.import_module(module)
    assert [name for name in MOVED if name in vars(mod)] == []
    assert {name for name in MOVED if hasattr(mod, name)} == {
        name for m, name in FORWARDED if m == module
    }


# Per-measure production kernels that TiltModel owns in twistrank.centrality.
KERNELS = ("measure_atoms", "CappedRows", "_sign_atoms", "_min_inner_atoms", "_capped_rows")


def test_twisting_holds_no_per_measure_kernel():
    """twisting keeps the measures, the tilt and the solver: it defines no
    kernel of TiltModel, and binds nothing from sampling, the walk module."""
    twisting = importlib.import_module("twistrank.twisting")
    assert [name for name in KERNELS if name in vars(twisting)] == []
    assert not hasattr(twisting.MinInnerProduct, "capped_rows")
    assert [name for name, value in vars(twisting).items()
            if getattr(value, "__module__", None) == "twistrank.sampling"
            or getattr(value, "__name__", None) == "twistrank.sampling"] == []


# The oracle's half of the measures: walk evaluation, and the walk budget.
WALK_CODE = ("evaluate", "_step_entries", "_step_signs", "_per_walk")


def test_twisting_holds_no_walk_evaluation():
    twisting = importlib.import_module("twistrank.twisting")
    assert [name for name in WALK_CODE if name in vars(twisting)] == []


@pytest.mark.parametrize("measure", ["SignProduct", "SignMin", "MinInnerProduct"])
def test_no_measure_evaluates_a_walk(measure):
    assert not hasattr(getattr(importlib.import_module("twistrank"), measure), "evaluate")


def test_sampling_holds_no_walk_budget():
    sampling = importlib.import_module("twistrank.sampling")
    assert [name for name in ("DEFAULT_PATH_BUDGET", "_check_budget")
            if hasattr(sampling, name)] == []


def test_verify_binds_no_private_name_of_centrality():
    """The oracle shares no kernel with the production routes it checks."""
    centrality = importlib.import_module("twistrank.centrality")
    verify = importlib.import_module("twistrank.verify")
    private = {id(value) for name, value in vars(centrality).items()
               if name.startswith("_") and not name.startswith("__") and callable(value)}
    assert [name for name, value in vars(verify).items() if id(value) in private] == []
