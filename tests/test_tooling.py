"""The benchmark tracer must find every function it wraps.

``perfbench/spans.py`` looks each traced function up by module and name.  A
rename in the package would otherwise drop that layer from the benchmark's
trace without failing any test here.
"""

import argparse
import ast
import importlib
import importlib.util
import inspect
import re
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
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
KERNELS = ("measure_atoms", "CappedRows", "_sign_masses", "_min_inner_atoms", "_capped_rows")


def test_twisting_holds_no_per_measure_kernel():
    """twisting keeps the measures, the tilt and the solver: it defines no
    kernel of TiltModel, and binds nothing from sampling, the walk module."""
    twisting = importlib.import_module("twistrank.twisting")
    assert [name for name in KERNELS if name in vars(twisting)] == []
    assert not hasattr(twisting.MinInnerProduct, "capped_rows")
    assert [name for name, value in vars(twisting).items()
            if getattr(value, "__module__", None) == "twistrank.sampling"
            or getattr(value, "__name__", None) == "twistrank.sampling"] == []


def test_centrality_holds_one_sign_kernel():
    """The sign atoms and every theta's sign scores come from _sign_masses
    alone: no second kernel sums the atoms or the scores."""
    centrality = importlib.import_module("twistrank.centrality")
    assert callable(centrality._sign_masses)
    assert [name for name in ("_sign_atoms", "_sign_scores", "_step_weights")
            if name in vars(centrality)] == []


def test_cli_holds_one_parse_route():
    """Every argv goes through the one parser build_parser() keeps: no
    per-command parser, and no second parse when it does not take the argv."""
    cli = importlib.import_module("twistrank.cli")
    assert [name for name in ("_parse_args", "_CommandParser", "_Unparsed")
            if name in vars(cli)] == []
    assert [name for name, value in vars(cli).items()
            if isinstance(value, type) and issubclass(value, argparse.ArgumentParser)] == [
        "_Parser"]


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


def test_the_preprocess_report_holds_no_object_per_edge():
    """report.json is printed from the report's arrays: io keeps no template
    for lists of ints, and preprocess hands back no Python container per
    injected pair or removed node."""
    assert "_int_list_json" not in vars(importlib.import_module("twistrank.io"))
    tr = importlib.import_module("twistrank")
    records = [(v, v + 1, 1) for v in range(7)] + [(20, 21, 1)]
    partition = {v: v % 2 for v in [*range(8), 20, 21]}
    report = tr.preprocess(records, min_degree=2, inject=tr.NegativeInjection(
        count=3, seed=1, partition=partition)).report
    for value in (report.injected_edges, report.removed_nodes):
        assert type(value) is np.ndarray and value.dtype == np.int64
        assert not value.flags.writeable
    assert report.injected_edges.shape == (3, 2) and report.removed_nodes.ndim == 1


def test_io_holds_one_line_loop_and_two_sign_texts():
    """The readers share one line loop: io keeps no per-format copy of it.
    Every graph's signs are +1 or -1, so the sign column's table holds
    exactly the texts of those two."""
    io = importlib.import_module("twistrank.io")
    assert [name for name in ("_read_edge_lines", "_read_attribute_lines",
                              "_read_partition_lines") if name in vars(io)] == []
    assert callable(io._line_records)
    table = io._sign_column(np.array([1, -1, 1], dtype=np.int8)).texts
    assert [row.tobytes().rstrip(b"\0") for row in table] == [b"-1", b"1"]


def test_the_constructor_sorts_nothing(monkeypatch):
    """Canonical arrays become a graph without a sort or pair codes: the
    constructor checks the form, and _validate_edges holds the only pair sort."""
    tr = importlib.import_module("twistrank")
    graph = importlib.import_module("twistrank.graph")
    g = tr.load_graph([(5, 9, 1), (2, 5, -1), (9, 2, 1), (7, 2, -1)], [(3, [0.5])])

    def refuse(*args, **kwargs):
        raise AssertionError("the constructor sorted")

    for name in ("argsort", "lexsort", "sort"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(graph, "_pair_codes", refuse)
    assert tr.AttributedGraph(g.original_ids, *g.pairs(), g.node_attrs) == g
    # Pairs out of order are refused, not sorted.
    lo, hi, signs = g.pairs()
    with pytest.raises(graph.GraphError, match="pairs must ascend$"):
        tr.AttributedGraph(g.original_ids, lo[::-1], hi[::-1], signs[::-1], g.node_attrs)


# numpy's set routines that hash their values from numpy 2.3 on; np.unique
# hashes too, unless it is asked for indices or counts.
HASHING = ("union1d", "intersect1d", "setdiff1d")
SORTING_FLAGS = ("return_index", "return_inverse", "return_counts")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twistrank"


def _hashing_calls(source: str) -> list[str]:
    """The calls in ``source`` of a hashing set routine, or of np.unique
    without a flag that makes it sort, as ``name:line``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        flags = {kw.arg for kw in node.keywords
                 if not (isinstance(kw.value, ast.Constant) and kw.value.value is False)}
        if name in HASHING or (name == "unique" and not flags & set(SORTING_FLAGS)):
            found.append(f"{name}:{node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_takes_numpy_s_hash_path(path):
    """Sorted distinct values come from graph._distinct, a sort: numpy's hash
    set routines are several times slower on ids."""
    assert _hashing_calls(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_each_hashing_call():
    source = ("np.union1d(a, b)\nnp.intersect1d(a, b)\nnumpy.setdiff1d(a, b)\n"
              "np.unique(a)\nnp.unique(a, return_index=False)\nunique(a)\n"
              "np.unique(a, return_inverse=True)\nnp.unique(a, return_index=True)\n"
              "np.unique(a, return_counts=True)\n")
    assert _hashing_calls(source) == ["union1d:1", "intersect1d:2", "setdiff1d:3", "unique:4",
                                      "unique:5", "unique:6"]


def test_the_ad_rows_are_csr_ranges():
    """The capped rows are the CSR with a level per entry: an entry's row is
    read from indptr, so no per-entry row array is kept."""
    centrality = importlib.import_module("twistrank.centrality")
    assert centrality.CappedRows._fields == ("indptr", "neighbour", "level", "levels")


def test_graph_holds_one_degree_kernel():
    """graph._degrees is the one degree count of the package: the CSR row
    pointers and stats read it, and no module writes out the two bincounts
    again."""
    tr = importlib.import_module("twistrank")
    graph = importlib.import_module("twistrank.graph")
    assert "_row_pointers" not in vars(graph)
    pattern = re.compile(r"np\.bincount\([^()]*\)\s*\+\s*np\.bincount\(")
    found = {path.name: len(pattern.findall(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: count for name, count in found.items() if count} == {"graph.py": 1}
    records = [(3, 9, 1), (3, 5, -1), (9, 5, 1), (12, 3, -1)]
    # Attribute-only nodes at both ends and between edge ends; and no edge at all.
    for ids, edges in (([0, 4, 7, 20], records), ([1, 2], [])):
        g = tr.load_graph(edges, (np.array(ids), np.zeros((len(ids), 1))))
        counts = Counter(u for edge in edges for u in edge[:2])
        want = np.array([counts[u] for u in g.original_ids.tolist()])
        got = graph._degrees(*g.pairs()[:2], g.n)
        assert np.array_equal(got, want) and got.dtype == np.int64
        assert np.array_equal(got, tr.stats(g).degree)
        assert np.array_equal(got, np.diff(g.csr()[0]))


def _names_read(func) -> set[str]:
    """Every name that ``func``'s source reads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_twisting_holds_one_solve():
    """Every temperature target goes through twisting._solve_scalar: the
    production solver and the oracle reach the target check, the atoms' frame
    and the closed form only through it, and the frame's shift rule, the end
    nearest 0 of atoms more than one width from it, is written once."""
    twisting = importlib.import_module("twistrank.twisting")
    verify = importlib.import_module("twistrank.verify")
    assert "_width_exponent" not in vars(twisting)
    assert not hasattr(twisting.AtomSolver(np.array([0.0, 1.0]), np.full(2, 0.5)), "range")
    shift = re.compile(r"(\w+) if \1 > (\w+) else (\w+) if \3 < -\2 else")
    found = {path.name: len(shift.findall(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: count for name, count in found.items() if count} == {"twisting.py": 1}
    assert shift.search(inspect.getsource(twisting._frame))
    inner = {"_check_target", "_frame", "_two_atom_theta"}
    assert inner <= _names_read(twisting._solve_scalar)
    for func in (twisting.AtomSolver.theta, verify.solve_theta_numeric):
        names = _names_read(func)
        assert "_solve_scalar" in names and not names & inner
    assert "_check_target" not in vars(verify)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_the_console_script_is_cli_main():
    """The installed ``twistrank`` command runs twistrank.cli:main.  The table
    is read with a regex, as Python 3.10 has no tomllib."""
    text = PYPROJECT.read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section is not None
    entries = dict(re.findall(r'^([\w.-]+)\s*=\s*"([^"]*)"', section.group(1), re.M))
    assert entries == {"twistrank": "twistrank.cli:main"}
    module, attr = entries["twistrank"].split(":")
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_every_text_column_holds_one_text_per_row(monkeypatch, tmp_path):
    """The writers hand the block renderer only literals and text columns
    with a 1-D index or none: an attribute table gathers each of its p value
    columns on its own, and a report's integer arrays render as text columns
    too, so the renderer has one column kind."""
    import json

    tr = importlib.import_module("twistrank")
    io = importlib.import_module("twistrank.io")
    assert not hasattr(io, "_IntColumn")
    rows, render = [], io._row_blocks

    def recorded(row, count, trim=0):
        rows.append(row)
        return render(row, count, trim)

    monkeypatch.setattr(io, "_row_blocks", recorded)
    g = tr.load_graph([(3, 5, 1), (5, 9, -1), (3, 9, 1)],
                      [(3, [0.5, -0.0, 2.0]), (5, [1.0, 0.5, 0.5]), (9, [2.0, 1.0, 0.0])])
    io.write_attributes(tmp_path / "attrs.txt", g)
    io.write_edge_list(tmp_path / "edges.txt", g)
    ranking = io.ranking_rows(tr.centrality(g, "influence", theta=0.5), g.original_ids)
    io.write_ranking_csv(tmp_path / "ranking.csv", ranking)
    io.write_ranking_json(tmp_path / "ranking.json", ranking)
    big = 2**64 + 7
    ids = np.empty(3, dtype=object)
    ids[:] = [big, 0, 12]
    report = {"filter_rounds": 1, "injected_edges": np.array([[3, 9], [5, 10**12]]),
              "removed_nodes": np.array([4, 7, 2**63 - 1]), "unknown_ids": ids}
    io.write_json(tmp_path / "report.json", report)
    assert len(rows) == 4 + 3
    pieces = [piece for row in rows for piece in row if not isinstance(piece, str)]
    assert [type(piece) for piece in pieces] == [io._Column] * len(pieces)
    # The id and 3 value columns, u, w and sign, rank, id and score twice,
    # and the report's 2 + 1 + 1 array columns.
    assert len(pieces) == 4 + 3 + 3 + 3 + 4
    assert [c.index is None or c.index.ndim == 1 for c in pieces] == [True] * len(pieces)
    assert (tmp_path / "attrs.txt").read_text() == "3 0.5 -0 2\n5 1 0.5 0.5\n9 2 1 0\n"
    lists = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in report.items()}
    assert (tmp_path / "report.json").read_text() == json.dumps(
        lists, indent=2, sort_keys=True) + "\n"


def test_the_package_version_is_the_project_version():
    """pyproject.toml and twistrank.__version__ (which manifest.json records)
    name one version.  Read with a regex, as Python 3.10 has no tomllib."""
    text = PYPROJECT.read_text(encoding="utf-8")
    match = re.search(r'^\[project\]\n(?:(?!\[).*\n)*?version\s*=\s*"([^"]*)"', text, re.M)
    assert match is not None
    assert match.group(1) == importlib.import_module("twistrank").__version__


def test_no_writer_formats_one_value_at_a_time(monkeypatch, tmp_path):
    """The ranking rows, both ranking writers and the attribute writer give
    their reference bytes on 10^4 random values with format_score replaced
    by a stub that raises: each float text comes from a bulk conversion."""
    import json

    tr = importlib.import_module("twistrank")
    io = importlib.import_module("twistrank.io")
    rng = np.random.default_rng(11)
    scores = rng.random(10_000) * 10.0 ** rng.integers(-320, 300, 10_000)
    scores[::7] = scores[3::7]  # ties
    ids = np.arange(10_000, dtype=np.int64) * 3 + 5
    ranking = tr.CentralityRanking.from_scores(scores)
    ranked = [(r, int(ids[u]), float(scores[u]))
              for r, u in enumerate(ranking.order.tolist(), start=1)]
    csv = "rank,node_id,score\n" + "".join(f"{r},{u},{x:.12g}\n" for r, u, x in ranked)
    payload = {"ranking": [{"node_id": u, "rank": r, "score": float(f"{x:.12g}")}
                           for r, u, x in ranked]}
    values = scores.reshape(1250, 8)
    g = tr.load_graph([], (ids[:1250], values))
    attrs = "".join(f"{u} " + " ".join(f"{x:.12g}" for x in row) + "\n"
                    for u, row in zip(ids[:1250].tolist(), values.tolist()))

    def refuse(x):
        raise AssertionError("a value was formatted on its own")

    monkeypatch.setattr(io, "format_score", refuse)
    rows = io.ranking_rows(ranking, ids)
    io.write_ranking_csv(tmp_path / "ranking.csv", rows)
    io.write_ranking_json(tmp_path / "ranking.json", rows)
    io.write_attributes(tmp_path / "attrs.txt", g)
    assert (tmp_path / "ranking.csv").read_text() == csv
    assert (tmp_path / "ranking.json").read_text() == json.dumps(
        payload, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "attrs.txt").read_text() == attrs
