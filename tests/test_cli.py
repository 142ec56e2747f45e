"""End-to-end command-line behavior: files in, files out, exit codes."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twistrank as tr
from twistrank import cli, graph as tgraph, io as tio, twisting, verify
from twistrank.cli import main

from conftest import edge_list, skewed_signed_graph, walk_masses


def write(path, text):
    path.write_text(text, encoding="utf-8")


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def count_calls(monkeypatch, names):
    """Count calls to the named package functions, wherever they are bound."""
    calls = Counter()
    for module in [m for k, m in sys.modules.items() if k.startswith("twistrank.")]:
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                monkeypatch.setattr(module, name, _counted(calls, name, fn))
    return calls


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def small_edges(tmp_path):
    path = tmp_path / "edges.txt"
    write(path, "# demo\n0 1 1\n1 2 1\n0 2 -1\n2 3 -1\n3 4 1\n")
    return path


@pytest.fixture
def paper_scale_edges(tmp_path, paper_scale_graph):
    path = tmp_path / "blog_scale.txt"
    lines = [f"{u} {w} {s}" for u, w, s in edge_list(paper_scale_graph, original_ids=True)]
    write(path, "\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def benchmark_workloads():
    """``perfbench/workloads.py``, which generates the benchmark's seeded inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclass looks its own module up by name.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


# The files besides manifest.json that each command writes (preprocess
# without --attrs).
_COMMAND_FILES = {"preprocess": ["edges.txt", "report.json"],
                  "rank": ["ranking.csv", "ranking.json"],
                  "sweep": ["sweep.csv", "sweep.json"]}


def _child_runs(tmp_path, argv, settings):
    """``twistrank argv`` in one child interpreter per entry of ``settings``, a
    name mapped to the environment variables to set on top of this process's,
    less its CPU-dispatch and BLAS-kernel variables.  Returns each run's
    stdout and output files by name; every run must succeed."""
    src = str(Path(tr.__file__).resolve().parents[1])
    runs = {}
    for name, extra in settings.items():
        env = {k: v for k, v in os.environ.items()
               if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
        env.update(PYTHONPATH=src, **extra)
        out = tmp_path / name
        done = subprocess.run([sys.executable, "-m", "twistrank.cli", *argv, "--out", str(out)],
                              env=env, capture_output=True)
        assert done.returncode == 0, done.stderr
        runs[name] = (done.stdout, read_tree(out))
    files = sorted(["manifest.json", *_COMMAND_FILES[argv[0]]])
    assert all(sorted(tree) == files for _, tree in runs.values())
    return runs


@pytest.fixture(scope="module")
def machine_inputs(tmp_path_factory):
    """The argv, without --out, of a trust ``rank`` at beta = (0.7, 0.3) on a
    skewed 2,000-node graph and of a 9-target ad ``sweep`` on a skewed
    1,000-node graph with 8 topic weights per node.  Both are large enough
    that a theta sum whose order depends on the BLAS kernel or the CPU
    dispatch moves a printed byte.  Also a ``preprocess`` of a skewed
    3,000-node graph's records, reversed, with 2,000 injected edges, whose
    peel at min-degree 5 takes three rounds: its grouping sort of about
    30,000 endpoints over 3,000 nodes is tied enough that, on a CPU with
    AVX-512, numpy's unstable sort orders the ties by the CPU dispatch."""
    root = tmp_path_factory.mktemp("machine")
    rng = np.random.default_rng(1)
    skewed = root / "skewed.txt"
    trust_graph = skewed_signed_graph(rng, 2000, 4000)
    write(skewed, "".join(f"{u} {w} {s}\n" for u, w, s in edge_list(trust_graph)))
    g = skewed_signed_graph(rng, 1000, 4000)
    topics = rng.dirichlet(np.ones(8), size=g.n)
    ad = rng.dirichlet(np.ones(8))
    edges, attrs, z = root / "ad_edges.txt", root / "attrs.txt", root / "ad.txt"
    write(edges, "".join(f"{u} {w} {s}\n" for u, w, s in edge_list(g)))
    write(attrs, "".join(f"{u} " + " ".join(map(repr, row)) + "\n"
                         for u, row in enumerate(topics.tolist())))
    write(z, " ".join(map(repr, ad.tolist())) + "\n")
    # Targets at 10%, 20%, ..., 90% of the range of the edges' measure min(z_u, z_w).
    scores = topics @ ad
    lo, hi, _ = g.pairs()
    f = np.minimum(scores[lo], scores[hi])
    gammas = f.min() + np.arange(1, 10) / 10 * (f.max() - f.min())
    raw, labels = root / "raw.txt", root / "labels.txt"
    peeled = skewed_signed_graph(np.random.default_rng(2), 3000, 14000)
    write(raw, "".join(f"{w} {u} {s}\n" for u, w, s in edge_list(peeled)[::-1]))
    write(labels, "".join(f"{v} L{v * 7 % 4}\n" for v in range(3000)))
    return {
        "preprocess": ["preprocess", "--edges", str(raw), "--partition", str(labels),
                       "--inject-negative", "2000", "--seed", "4", "--min-degree", "5"],
        "trust-rank": ["rank", "--edges", str(skewed), "--measure", "trust", "--gamma", "0.3",
                       "--beta1", "0.7", "--beta2", "0.3"],
        "ad-sweep": ["sweep", "--edges", str(edges), "--attrs", str(attrs), "--ad-vector", str(z),
                     "--measure", "ad", "--beta1", "1",
                     "--gammas=" + ",".join(map(repr, gammas.tolist()))],
    }


BIG = 99999999999999999999  # beyond int64


def _json_lines(*lines):
    return "\n".join(lines) + "\n"


def _manifest(inject, min_degree, seed):
    return _json_lines(
        "{", '  "command": "preprocess",', '  "parameters": {', '    "attrs": "attrs.txt",',
        '    "edges": "edges.txt",', f'    "inject_negative": {inject},',
        f'    "min_degree": {min_degree},', '    "partition": "part.txt",',
        f'    "seed": {seed}', "  },", '  "version": "0.1.0"', "}",
    )


# The files of `preprocess --attrs --inject-negative` on the inputs of
# test_outputs_match_the_stored_bytes, as the per-line writers and the generic
# JSON encoder printed them.
PREPROCESS_EXPECTED = {
    "inject-3": (
        ["--inject-negative", "3", "--seed", "5"],
        ("preprocessed graph: n=7 m=8 (m+=3, m-=5); removed 0 nodes\n", {
            "attrs.txt": "1 0.5 -0\n2 9.99988867183e-321 1e+300\n3 0.1 0.2\n4 0 0\n5 0 0\n"
                         f"7 -2.5 1e-05\n{BIG} 3 4\n",
            "edges.txt": f"1 2 1\n1 3 1\n1 4 -1\n1 {BIG} -1\n2 3 -1\n2 7 -1\n3 5 1\n"
                         "5 7 -1\n",
            "manifest.json": _manifest(3, 0, 5),
            "report.json": _json_lines(
                "{", '  "duplicate_edges_collapsed": 1,', '  "filter_rounds": 0,',
                '  "injected_edges": [', "    [", "      1,", "      4", "    ],",
                "    [", "      2,", "      7", "    ],", "    [", "      5,", "      7",
                "    ]", "  ],", '  "removed_nodes": [],', '  "self_loops_removed": 1', "}",
            ),
        }),
    ),
    "inject-2-min-degree-2": (
        ["--inject-negative", "2", "--seed", "1", "--min-degree", "2"],
        ("preprocessed graph: n=3 m=3 (m+=2, m-=1); removed 4 nodes\n", {
            "attrs.txt": "1 0.5 -0\n2 9.99988867183e-321 1e+300\n3 0.1 0.2\n",
            "edges.txt": "1 2 1\n1 3 1\n2 3 -1\n",
            "manifest.json": _manifest(2, 2, 1),
            "report.json": _json_lines(
                "{", '  "duplicate_edges_collapsed": 1,', '  "filter_rounds": 2,',
                '  "injected_edges": [', "    [", "      1,", "      4", "    ],",
                "    [", "      4,", "      7", "    ]", "  ],", '  "removed_nodes": [',
                "    4,", "    5,", "    7,", f"    {BIG}", "  ],",
                '  "self_loops_removed": 1', "}",
            ),
        }),
    ),
}


class TestPreprocessCommand:
    def _args(self, tmp_path, out_name):
        edges = tmp_path / "raw.txt"
        labels = tmp_path / "labels.txt"
        write(edges, "\n".join(f"{i} {i + 2} 1" for i in range(8)) + "\n3 3 1\n")
        write(labels, "\n".join(f"{i} {'a' if i % 2 else 'b'}" for i in range(10)) + "\n")
        return [
            "preprocess", "--edges", str(edges), "--min-degree", "1",
            "--inject-negative", "3", "--partition", str(labels),
            "--seed", "42", "--out", str(tmp_path / out_name),
        ]

    def test_writes_outputs_and_report(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "out")) == 0
        out = tmp_path / "out"
        assert (out / "edges.txt").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["self_loops_removed"] == 1
        assert len(report["injected_edges"]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "preprocess"
        assert manifest["parameters"]["seed"] == 42

    def test_rerun_is_byte_identical(self, tmp_path):
        main(self._args(tmp_path, "a"))
        main(self._args(tmp_path, "b"))
        first = read_tree(tmp_path / "a")
        second = read_tree(tmp_path / "b")
        assert first == second

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        edges = tmp_path / "bad.txt"
        write(edges, "0 1 1\na b c d\n")
        code = main(["preprocess", "--edges", str(edges), "--out", str(tmp_path / "o")])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_partition_relabel_names_line(self, tmp_path, capsys):
        args = self._args(tmp_path, "out")
        labels = tmp_path / "labels.txt"
        # Line 11 repeats node 4's label, which is allowed; line 12 relabels node 3.
        write(labels, labels.read_text() + "4 b\n")
        assert main(args) == 0
        write(labels, labels.read_text() + "3 b\n")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert ":12:" in err and "node 3" in err

    def test_injection_requires_partition(self, tmp_path, small_edges, capsys):
        code = main([
            "preprocess", "--edges", str(small_edges), "--inject-negative", "3",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    @pytest.mark.parametrize("labels", ["a a b", "a a a"], ids=["non-edge", "none-available"])
    def test_negative_seed_is_a_data_error(self, tmp_path, capsys, labels):
        """One line naming the seed, whether or not a non-edge could be drawn."""
        edges, part = tmp_path / "edges.txt", tmp_path / "part.txt"
        write(edges, "0 1 1\n1 2 1\n")
        write(part, "".join(f"{v} {lab}\n" for v, lab in enumerate(labels.split())))
        code = main(["preprocess", "--edges", str(edges), "--partition", str(part),
                     "--inject-negative", "1", "--seed", "-3", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: injection seed -3 must be a nonnegative integer\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("inject", [[], ["--inject-negative", "1", "--partition", "p.txt"]],
                             ids=["no-injection", "injection"])
    def test_negative_seed_is_rejected_before_any_file_is_read(self, tmp_path, capsys, inject):
        """No input file exists, yet the one line names the seed."""
        code = main(["preprocess", "--edges", str(tmp_path / "missing.txt"), *inject,
                     "--seed", "-1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: injection seed -1 must be a nonnegative integer\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("partition", [[], ["--partition", "p.txt"]],
                             ids=["no-partition", "partition"])
    def test_negative_count_is_rejected_before_any_file_is_read(self, tmp_path, capsys,
                                                                partition):
        """No input file exists and no partition may be given, yet the one
        line names the count, ahead of a bad seed."""
        code = main(["preprocess", "--edges", str(tmp_path / "missing.txt"), *partition,
                     "--inject-negative", "-1", "--seed", "-1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: cannot inject -1 negative edges: the count must be a nonnegative "
                "integer\n"
        )
        assert not (tmp_path / "o").exists()

    def test_negative_min_degree_is_a_data_error(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        write(edges, "0 1 1\n1 2 1\n")
        code = main(["preprocess", "--edges", str(edges), "--min-degree", "-1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: min_degree -1 must be a nonnegative integer\n"
        )
        assert not (tmp_path / "o").exists()

    def test_injected_set_is_pinned(self, tmp_path, monkeypatch, capsys):
        """300 scattered ids in 5 labels, whose first appearance over the
        ascending ids (q m h z c) is not their sorted order; the partition
        file lists its ids in descending order, and ten that are not on the
        graph.  The label codes order the draws, so the injected set pins
        them.  The peel takes two rounds."""
        monkeypatch.chdir(tmp_path)
        ident = [7 * i + i % 3 for i in range(300)]
        pairs = {}
        for i in range(300):
            for j in ((i * 37 + 11) % 300, (i + 1) % 300)[i % 4 == 0:]:
                a, b = ident[i], ident[j]
                pairs[a, b] = -1 if (a + b) % 5 == 0 else 1
        write(tmp_path / "edges.txt", "".join(f"{a} {b} {s}\n" for (a, b), s in pairs.items()))
        names = ["q", "m", "z", "c", "h"]
        labels = {ident[i]: names[(i * i + i // 7) % 5] for i in range(300)}
        labels.update({5000 + 3 * j: names[j % 5] for j in range(10)})
        write(tmp_path / "part.txt",
              "".join(f"{v} {labels[v]}\n" for v in sorted(labels, reverse=True)))
        assert main(["preprocess", "--edges", "edges.txt", "--partition", "part.txt",
                     "--inject-negative", "24", "--seed", "9", "--min-degree", "3",
                     "--out", "out"]) == 0
        assert capsys.readouterr().out == (
            "preprocessed graph: n=286 m=512 (m+=387, m-=125); removed 14 nodes\n"
        )
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["filter_rounds"] == 2
        assert report["injected_edges"] == [
            [21, 1877], [50, 1087], [134, 1276], [239, 1113], [323, 1499], [478, 1016],
            [533, 1927], [554, 1344], [604, 1087], [617, 1919], [646, 1512], [730, 1570],
            [764, 1806], [882, 1465], [898, 1675], [919, 1596], [1008, 2016], [1045, 1402],
            [1121, 1890], [1260, 1423], [1381, 1940], [1457, 1919], [1617, 1633],
            [1827, 1906],
        ]
        digests = {name: hashlib.sha256(data).hexdigest()[:16]
                   for name, data in read_tree(tmp_path / "out").items()}
        assert digests == {
            "edges.txt": "7ad2bc417874221c",
            "manifest.json": "34ad6b7e4f1b3f5b",
            "report.json": "23f6d122cc99a4b8",
        }

    def test_reads_and_writes_through_the_traced_names(self, tmp_path, monkeypatch, capsys):
        names = ("read_edge_list", "read_partition", "write_edge_list", "write_json")
        calls = count_calls(monkeypatch, names)
        assert main(self._args(tmp_path, "out")) == 0
        # write_json writes report.json, and manifest.json for write_manifest.
        assert calls == {**dict.fromkeys(names, 1), "write_json": 2}

    @pytest.mark.parametrize("flags, expected", PREPROCESS_EXPECTED.values(),
                             ids=PREPROCESS_EXPECTED.keys())
    def test_outputs_match_the_stored_bytes(self, tmp_path, monkeypatch, capsys, flags,
                                            expected):
        """Ids beyond int64, an attribute-only node, a self-loop, a duplicate and
        the attribute values -0.0, 1e-320 and 1e300, against the stored files."""
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "edges.txt",
              f"1 2 1\n2 3 -1\n3 1\n{BIG} 1 -1\n4 4 1\n5 3\n2 1 1\n")
        write(tmp_path / "attrs.txt",
              f"1 0.5 -0.0\n2 1e-320 1e300\n3 0.1 0.2\n7 -2.5 1e-5\n{BIG} 3 4\n")
        write(tmp_path / "part.txt", f"# labels\n1 a\n2 b\n3 a\n4 b\n5 b\n7 a\n{BIG} b\n")
        assert main(["preprocess", "--edges", "edges.txt", "--attrs", "attrs.txt",
                     "--partition", "part.txt", *flags, "--out", "out"]) == 0
        stdout, files = expected
        assert capsys.readouterr().out == stdout
        assert read_tree(tmp_path / "out") == {
            name: text.encode() for name, text in files.items()
        }


class TestRankCommand:
    def test_gamma_echoes_resolved_theta(self, tmp_path, paper_scale_edges, capsys):
        code = main([
            "rank", "--edges", str(paper_scale_edges), "--measure", "influence",
            "--gamma", "0", "--beta1", "1", "--out", str(tmp_path / "rank"),
        ])
        assert code == 0
        match = re.search(r"resolved theta = (\S+)", capsys.readouterr().out)
        assert match and abs(float(match.group(1)) - (-1.1844)) <= 5e-5

    def test_ranking_files_use_original_ids_and_12_digits(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        write(edges, "10 20 1\n20 30 -1\n")
        code = main([
            "rank", "--edges", str(edges), "--measure", "influence",
            "--theta", "0.3", "--out", str(tmp_path / "rank"),
        ])
        assert code == 0
        lines = (tmp_path / "rank" / "ranking.csv").read_text().splitlines()
        assert lines[0] == "rank,node_id,score"
        assert len(lines) == 4
        top = lines[1].split(",")
        assert top[1] in {"10", "20", "30"}
        scores = [line.split(",")[2] for line in lines[1:]]
        # 12 significant digits: trailing zeros are dropped, but the
        # non-terminating scores must carry the full precision.
        assert all(re.fullmatch(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", s) for s in scores)
        assert any(len(s.replace(".", "").lstrip("0")) >= 11 for s in scores)
        payload = json.loads((tmp_path / "rank" / "ranking.json").read_text())
        assert [row["rank"] for row in payload["ranking"]] == [1, 2, 3]

    def test_one_signed_graph_at_a_large_theta_scores_degree_over_2m(self, tmp_path, capsys):
        # Only the -1 atom has mass, and e^-2 theta underflows past theta = 372.5.
        edges = tmp_path / "edges.txt"
        write(edges, "0 1 -1\n1 2 -1\n2 3 -1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rank", "--edges", str(edges), "--measure", "influence",
                         "--theta", "800", "--out", str(tmp_path / "rank")])
        assert code == 0
        rows = json.loads((tmp_path / "rank" / "ranking.json").read_text())["ranking"]
        assert [(row["node_id"], row["score"]) for row in rows] == [
            (1, 0.333333333333), (2, 0.333333333333), (0, 0.166666666667), (3, 0.166666666667)
        ]

    def test_trust_zero_theta_matches_untwisted(self, tmp_path, small_edges, capsys):
        code = main([
            "rank", "--edges", str(small_edges), "--measure", "trust",
            "--theta", "0", "--beta1", "0.7", "--beta2", "0.3",
            "--out", str(tmp_path / "rank"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "rank" / "ranking.json").read_text())
        g = tr.load_graph(tio.read_edge_list(small_edges))
        base = {u: 0.0 for u in range(g.n)}
        for nodes, mass in walk_masses(verify.enumerate_paths(g, tr.WalkConfig(0.7, 0.3))):
            base[nodes[0]] += mass
        for row in payload["ranking"]:
            u = int(np.searchsorted(g.original_ids, row["node_id"]))
            assert row["score"] == pytest.approx(base[u], abs=1e-9)

    def test_ad_measure_with_attributes(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        attrs = tmp_path / "attrs.txt"
        z = tmp_path / "z.txt"
        write(edges, "0 1 1\n1 2 1\n0 2 1\n")
        write(attrs, "0 0.9 0.1\n1 0.4 0.8\n2 0.2 0.3\n")
        write(z, "1.0 0.5\n")
        code = main([
            "rank", "--edges", str(edges), "--attrs", str(attrs), "--measure", "ad",
            "--ad-vector", str(z), "--theta", "0.2", "--out", str(tmp_path / "rank"),
        ])
        assert code == 0
        assert (tmp_path / "rank" / "ranking.csv").exists()

    @pytest.mark.parametrize("offset", [1e3, 1e6, 1e9])
    def test_gamma_on_ad_scores_far_from_zero(self, tmp_path, capsys, offset):
        """A path whose edges cap the scores at offset + 0, .3, .7 and 1 has
        four atoms of mass 1/4; the solve converges at any offset."""
        scores = offset + np.array([0.0, 0.3, 0.7, 1.0, 1.0])
        edges, attrs, z = tmp_path / "edges.txt", tmp_path / "attrs.txt", tmp_path / "z.txt"
        write(edges, "0 1 1\n1 2 1\n2 3 -1\n3 4 1\n")
        write(attrs, "".join(f"{u} {x!r}\n" for u, x in enumerate(scores.tolist())))
        write(z, "1\n")
        gamma = offset + 0.9
        code = main([
            "rank", "--edges", str(edges), "--attrs", str(attrs), "--measure", "ad",
            "--ad-vector", str(z), f"--gamma={gamma!r}", "--out", str(tmp_path / "rank"),
        ])
        assert code == 0, capsys.readouterr().err
        g = tr.load_graph([(0, 1, 1), (1, 2, 1), (2, 3, -1), (3, 4, 1)],
                          (np.arange(5), scores[:, None]))
        theta = tr.TiltModel(g, tr.MinInnerProduct([1.0])).theta(gamma)
        manifest = json.loads((tmp_path / "rank" / "manifest.json").read_text())
        assert manifest["parameters"]["resolved_theta"] == float(tio.format_score(theta))

    @pytest.mark.parametrize(
        "attrs_text, z_text, bad_file",
        [
            ("0 0.9 0.1\n1 nan 0.8\n2 0.2 0.3\n", "1.0 0.5\n", "attribute vector"),
            ("0 0.9 0.1\n1 0.4 0.8\n2 0.2 0.3\n", "1.0 nan\n", "score vector"),
        ],
        ids=["attrs", "ad-vector"],
    )
    def test_nan_input_is_a_data_error(self, tmp_path, capsys, attrs_text, z_text, bad_file):
        edges = tmp_path / "edges.txt"
        attrs = tmp_path / "attrs.txt"
        z = tmp_path / "z.txt"
        write(edges, "0 1 1\n1 2 1\n0 2 1\n")
        write(attrs, attrs_text)
        write(z, z_text)
        code = main([
            "rank", "--edges", str(edges), "--attrs", str(attrs), "--measure", "ad",
            "--ad-vector", str(z), "--theta", "0.5", "--out", str(tmp_path / "rank"),
        ])
        assert code == 2
        assert bad_file in capsys.readouterr().err
        assert not (tmp_path / "rank" / "ranking.csv").exists()

    @pytest.mark.parametrize("command", [
        ("rank", "--measure", "ad", "--theta", "1.5"),
        ("rank", "--measure", "ad", "--gamma", "0.6"),
        ("verify",),
    ], ids=["theta", "gamma", "verify"])
    @pytest.mark.parametrize("big, score", [("1e308 1e308", "inf"), ("-1e308 -1e308", "-inf")],
                             ids=["positive", "negative"])
    def test_ad_scores_that_overflow_are_a_data_error(self, tmp_path, capsys, command, big,
                                                      score):
        """Finite attributes whose inner product with the ad vector is not
        finite: exit 2 with one line naming the first such node, no warning.
        ``verify`` rejects them before its oracle runs."""
        edges = tmp_path / "edges.txt"
        attrs = tmp_path / "attrs.txt"
        z = tmp_path / "z.txt"
        write(edges, "10 11\n11 12\n12 13\n13 10\n")
        write(attrs, f"10 0.5 0.5\n11 1 1\n13 {big}\n12 {big}\n")
        write(z, "2 2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                command[0], "--edges", str(edges), "--attrs", str(attrs), *command[1:],
                "--ad-vector", str(z), "--out", str(tmp_path / "rank"),
            ])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: the score of node 12 is {score}: the inner product of its attributes "
            "with the score vector is not finite"
        ]
        assert not (tmp_path / "rank" / "ranking.csv").exists()

    @pytest.mark.parametrize("vector, theta, beta2", [
        ("3 3", "1e308", "0"), ("3 3", "-1e308", "0.5"), ("1e300 1e300", "1e10", "0"),
    ], ids=["positive", "negative-two-step", "large-scores"])
    def test_theta_that_overflows_is_a_data_error(self, tmp_path, capsys, vector, theta,
                                                  beta2):
        """theta times a node score beyond the float range: exit 2 with one
        line naming theta, no warning and no ranking."""
        edges, attrs, z = tmp_path / "edges.txt", tmp_path / "attrs.txt", tmp_path / "z.txt"
        write(edges, "0 1 1\n1 2 1\n0 2 -1\n2 3 1\n3 4 -1\n")
        write(attrs, "0 0.9 0.1\n1 0.4 0.8\n2 0.5 0.3\n3 0.7 0.6\n4 0.1 0.5\n")
        write(z, vector + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "rank", "--edges", str(edges), "--attrs", str(attrs), "--ad-vector", str(z),
                "--measure", "ad", f"--theta={theta}", "--beta1", str(1 - float(beta2)),
                "--beta2", beta2, "--out", str(tmp_path / "rank"),
            ])
        assert code == 2
        assert caught == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: theta = {float(theta)} is out of range for these node scores: "
            "theta times a score overflows"
        ]
        assert not (tmp_path / "rank").exists()

    @pytest.mark.parametrize("flag", ["--beta1", "--beta2"])
    def test_nan_walk_weight_is_a_data_error(self, tmp_path, small_edges, capsys, flag):
        code = main([
            "rank", "--edges", str(small_edges), "--measure", "influence", "--theta", "0.5",
            flag, "nan", "--out", str(tmp_path / "rank"),
        ])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "rank" / "ranking.csv").exists()

    def test_combined_ad_vectors_sum(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        attrs = tmp_path / "attrs.txt"
        z1 = tmp_path / "z1.txt"
        z2 = tmp_path / "z2.txt"
        write(edges, "0 1 1\n1 2 1\n")
        write(attrs, "0 0.9 0.1\n1 0.4 0.8\n2 0.2 0.3\n")
        write(z1, "1.0 0.0\n")
        write(z2, "0.0 2.0\n")
        code = main([
            "rank", "--edges", str(edges), "--attrs", str(attrs), "--measure", "ad",
            "--ad-vector", str(z1), "--ad-vector", str(z2),
            "--theta", "0.2", "--out", str(tmp_path / "combined"),
        ])
        assert code == 0
        g = tr.load_graph(tio.read_edge_list(edges), tio.read_attributes(attrs))
        expected = tr.centrality(g, "advertisement", theta=0.2, ad_vector=[1.0, 2.0])
        payload = json.loads((tmp_path / "combined" / "ranking.json").read_text())
        for row in payload["ranking"]:
            assert row["score"] == pytest.approx(expected.scores[row["node_id"]], abs=1e-9)

    @pytest.mark.parametrize("text, error", [
        ("0.1 x\n", "a.txt:1: non-numeric field in '0.1 x'"),
        ("# only\n# comments\n", "a.txt:0: vector file contains no values"),
    ], ids=["non-numeric", "comments-only"])
    def test_bad_ad_vector_file_is_a_data_error(self, tmp_path, small_edges, capsys, text,
                                                error, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "a.txt", text)
        code = main(["rank", "--edges", str(small_edges), "--measure", "trust", "--theta", "1",
                     "--ad-vector", "a.txt", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not (tmp_path / "o").exists()

    def test_ad_vectors_of_different_dimensions_are_a_data_error(self, tmp_path, small_edges,
                                                                 capsys):
        write(tmp_path / "z2.txt", "0.1 0.2\n")
        write(tmp_path / "z3.txt", "0.1 0.2 0.3\n")
        code = main(["rank", "--edges", str(small_edges), "--measure", "trust", "--theta", "1",
                     "--ad-vector", str(tmp_path / "z2.txt"),
                     "--ad-vector", str(tmp_path / "z3.txt"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: advertisement vectors disagree in dimension: 2 vs 3\n")
        assert not (tmp_path / "o").exists()

    def test_beta_weights_must_sum_to_one(self, tmp_path, small_edges, capsys):
        code = main([
            "rank", "--edges", str(small_edges), "--measure", "influence",
            "--theta", "0", "--beta1", "0.5", "--beta2", "0.1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "beta1 + beta2" in capsys.readouterr().err

    def test_theta_and_gamma_both_rejected(self, tmp_path, small_edges, capsys):
        code = main([
            "rank", "--edges", str(small_edges), "--measure", "influence",
            "--theta", "1", "--gamma", "0", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_ad_without_vector_rejected(self, tmp_path, small_edges, capsys):
        code = main([
            "rank", "--edges", str(small_edges), "--measure", "ad",
            "--theta", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_out_of_memory_is_a_data_error(self, tmp_path, small_edges, monkeypatch, capsys):
        """Running out of memory exits 2 with one line, not a traceback."""
        message = ("Unable to allocate 7.45 GiB for an array with shape (1000000000,) "
                   "and data type float64")

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("twistrank.cli.load_graph", exhausted)
        code = main(["rank", "--edges", str(small_edges), "--measure", "trust",
                     "--theta", "0.5", "--out", str(tmp_path / "rank")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: out of memory: {message}"]
        assert "Traceback" not in err

    def test_unachievable_gamma_reports_range(self, tmp_path, small_edges, capsys):
        code = main([
            "rank", "--edges", str(small_edges), "--measure", "influence",
            "--gamma", "1.0", "--beta1", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "achievable range (-1.0, 1.0)" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path, small_edges, capsys):
        args = [
            "rank", "--edges", str(small_edges), "--measure", "influence",
            "--gamma", "0.5", "--beta1", "0.7", "--beta2", "0.3",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_outputs_do_not_depend_on_threads(self, tmp_path, small_edges, monkeypatch, capsys):
        # TWISTRANK_THREADS may not reach manifest.json, or reruns on other
        # machines would differ; the --threads flag is gone.
        args = [
            "rank", "--edges", str(small_edges), "--measure", "trust",
            "--gamma", "0.2", "--beta1", "0.7", "--beta2", "0.3",
        ]
        monkeypatch.setenv("TWISTRANK_THREADS", "1")
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        monkeypatch.setenv("TWISTRANK_THREADS", "7")
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        with pytest.raises(SystemExit) as info:
            main(args + ["--threads", "3", "--out", str(tmp_path / "c")])
        assert info.value.code == 1
        assert "unrecognized arguments: --threads 3" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()
        first = read_tree(tmp_path / "a")
        assert "manifest.json" in first
        assert first == read_tree(tmp_path / "b")

    def test_resolves_theta_and_stats_once(self, tmp_path, small_edges, monkeypatch, capsys):
        calls = count_calls(monkeypatch, ("resolve_theta", "stats", "_solve_scalar"))
        assert main([
            "rank", "--edges", str(small_edges), "--measure", "trust",
            "--gamma", "0.2", "--beta1", "0.7", "--beta2", "0.3",
            "--out", str(tmp_path / "rank"),
        ]) == 0
        assert calls == {"resolve_theta": 1, "stats": 1, "_solve_scalar": 1}

    def test_formats_each_score_once(self, tmp_path, small_edges, monkeypatch, capsys):
        """One format per distinct score bit pattern, plus theta for the manifest
        and stdout.  Nodes 0 and 3 of small_edges share (k+, k-) = (1, 1), so
        two of its five scores are equal; the second graph's six are all
        distinct."""
        all_distinct = tmp_path / "all_distinct.txt"
        write(all_distinct, "0 1 1\n0 2 1\n0 3 1\n0 4 -1\n1 2 1\n1 3 -1\n1 4 -1\n2 5 1\n3 5 -1\n")
        calls = count_calls(monkeypatch, ("format_score",))
        for edges, distinct in ((small_edges, 4), (all_distinct, 6)):
            g = tr.load_graph(tio.read_edge_list(edges))
            scores = tr.centrality(g, "influence", theta=0.5).scores
            assert np.unique(scores.view(np.int64)).size == distinct
            calls.clear()
            out = tmp_path / edges.stem
            assert main([
                "rank", "--edges", str(edges), "--measure", "influence",
                "--theta", "0.5", "--out", str(out),
            ]) == 0
            assert calls == {"format_score": distinct + 2}
            assert len((out / "ranking.csv").read_text().splitlines()) == g.n + 1

    @pytest.mark.parametrize("case", ["beta-1-0", "beta-0.7-0.3", "ad-sweep", "preprocess"])
    def test_bytes_do_not_depend_on_the_cpu_dispatch(self, tmp_path, paper_scale_edges,
                                                     machine_inputs, case):
        """A trust ``rank`` at two walk mixes, an ad ``sweep`` and a
        ``preprocess`` that injects and peels, each in two child
        interpreters, one with numpy's AVX-512 kernels disabled, write the
        same bytes: a first check that reruns on another machine reproduce
        the outputs.  The last bits of a Newton solve can depend on the
        kernels, so sweep.json prints theta at 12 digits, as sweep.csv does.
        The tie order of an unstable sort can depend on them too, so none may
        reach the bytes."""
        if case in ("ad-sweep", "preprocess"):
            argv = machine_inputs[case]
        else:
            beta1, beta2 = case.split("-")[1:]
            argv = ["rank", "--edges", str(paper_scale_edges), "--measure", "trust",
                    "--gamma", "0.3", "--beta1", beta1, "--beta2", beta2]
        no_avx512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        runs = _child_runs(tmp_path, argv, {"default": {}, "no-avx512": no_avx512})
        assert runs["default"] == runs["no-avx512"]
        if case == "preprocess":
            report = json.loads(runs["default"][1]["report.json"])
            assert report["filter_rounds"] == 3

    @pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                        reason="OPENBLAS_CORETYPE names x86 cores")
    @pytest.mark.parametrize("case", ["trust-rank", "ad-sweep"])
    def test_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path, machine_inputs, case):
        """The same runs with OpenBLAS's kernel for the running core and with
        its SSE2-only Prescott kernel write the same bytes: no sum that
        decides theta or a score goes through BLAS, whose summation order
        depends on the kernel."""
        runs = _child_runs(tmp_path, machine_inputs[case], {
            "default": {}, "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
        })
        assert runs["default"] == runs["prescott"]


class TestSweepCommand:
    def test_gamma_sweep_matches_regression_thetas(self, tmp_path, paper_scale_edges, capsys):
        code = main([
            "sweep", "--edges", str(paper_scale_edges), "--measure", "influence",
            "--gammas=-0.99,-0.9,-0.5,0,0.5,0.9,0.99", "--beta1", "1",
            "--k", "100", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 0
        rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["sweep"]
        expected = [-3.8310, -2.6566, -1.7337, -1.1844, -0.6351, 0.2878, 1.4623]
        assert [row["theta"] for row in rows] == pytest.approx(expected, abs=5e-5)

    def test_empty_target_list_succeeds(self, tmp_path, small_edges, capsys):
        code = main([
            "sweep", "--edges", str(small_edges), "--measure", "influence",
            "--thetas", "", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 0
        assert (tmp_path / "sweep" / "sweep.csv").read_text().splitlines() == [
            "gamma,theta,jaccard_pos,jaccard_neg,jaccard_total"
        ]

    def test_partial_failure_keeps_other_rows(self, tmp_path, small_edges, capsys):
        code = main([
            "sweep", "--edges", str(small_edges), "--measure", "influence",
            "--gammas=0,1.5,-0.5", "--beta1", "1", "--k", "3",
            "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["sweep"]
        assert rows[0]["error"] is None
        assert rows[1]["error"] is not None
        assert rows[2]["error"] is None
        csv_lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 4

    def test_resolves_each_target_once_and_stats_once(self, tmp_path, small_edges,
                                                      monkeypatch, capsys):
        calls = count_calls(monkeypatch, ("resolve_theta", "stats", "_sign_masses",
                                          "_solve_scalar"))
        assert main([
            "sweep", "--edges", str(small_edges), "--measure", "influence",
            "--gammas=-0.2,0,0.3", "--beta1", "0.5", "--beta2", "0.5", "--k", "2",
            "--out", str(tmp_path / "sweep"),
        ]) == 0
        assert calls == {"resolve_theta": 3, "stats": 1, "_sign_masses": 1, "_solve_scalar": 3}

    def test_one_step_sign_sweep_builds_atoms_once(self, tmp_path, small_edges,
                                                   monkeypatch, capsys):
        calls = count_calls(monkeypatch, ("resolve_theta", "_sign_masses", "_solve_scalar"))
        assert main([
            "sweep", "--edges", str(small_edges), "--measure", "trust",
            "--gammas=-0.2,0,0.3", "--beta1", "1", "--beta2", "0", "--k", "2",
            "--out", str(tmp_path / "sweep"),
        ]) == 0
        assert calls == {"resolve_theta": 3, "_sign_masses": 1, "_solve_scalar": 3}

    def test_one_signed_graph_sweeps_a_large_theta_as_a_small_one(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        write(edges, "0 1 -1\n1 2 -1\n2 3 -1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--edges", str(edges), "--measure", "influence",
                         "--thetas", "1,800", "--k", "2", "--out", str(tmp_path / "sweep")])
        assert code == 0
        rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["sweep"]
        assert [row["theta"] for row in rows] == [1.0, 800.0]
        assert rows[0]["error"] is None and rows[0]["jaccard_total"] == 1.0
        assert {**rows[1], "theta": 1.0} == rows[0]
        csv_lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert csv_lines[1:] == [",1,0.333333333333,1,1", ",800,0.333333333333,1,1"]

    def test_ad_sweep_sorts_capped_rows_once(self, tmp_path, monkeypatch, capsys):
        edges = tmp_path / "edges.txt"
        attrs = tmp_path / "attrs.txt"
        z = tmp_path / "z.txt"
        write(edges, "0 1 1\n1 2 1\n0 2 -1\n2 3 1\n3 4 -1\n")
        # Scores 0.95, 0.8, 0.65, 1.0, 0.35: three atoms, so each target runs Newton.
        write(attrs, "0 0.9 0.1\n1 0.4 0.8\n2 0.5 0.3\n3 0.7 0.6\n4 0.1 0.5\n")
        write(z, "1.0 0.5\n")
        calls = Counter()
        centrality_module = sys.modules["twistrank.centrality"]
        monkeypatch.setattr(centrality_module, "_capped_rows",
                            _counted(calls, "capped_rows", centrality_module._capped_rows))
        # The three targets share the Newton start at 0 and the bracket points.
        thetas = []
        grad_var = twisting._scalar_grad_var

        def recorded(f, logp0, theta):
            thetas.append(theta)
            return grad_var(f, logp0, theta)

        monkeypatch.setattr(twisting, "_scalar_grad_var", recorded)
        assert main([
            "sweep", "--edges", str(edges), "--attrs", str(attrs), "--ad-vector", str(z),
            "--measure", "ad", "--gammas=0.4,0.5,0.6", "--beta1", "0.7", "--beta2", "0.3",
            "--k", "2", "--out", str(tmp_path / "sweep"),
        ]) == 0
        assert calls == {"capped_rows": 1}
        assert 0.0 in thetas and len(set(thetas)) == len(thetas)

    def test_ad_sweep_reads_and_loads_through_the_traced_names(self, tmp_path, monkeypatch,
                                                              capsys):
        # The benchmark tracer rebinds these module attributes; a CLI that held
        # the functions some other way would charge their time to itself.
        edges, attrs, z = tmp_path / "edges.txt", tmp_path / "attrs.txt", tmp_path / "z.txt"
        write(edges, "0 1 1\n1 2 1\n0 2 -1\n2 3 1\n3 4 -1\n")
        write(attrs, "0 0.9 0.1\n1 0.4 0.8\n2 0.2 0.3\n3 0.7 0.6\n4 0.1 0.5\n")
        write(z, "1.0 0.5\n")
        calls = count_calls(monkeypatch, ("read_attributes", "load_graph"))
        assert main([
            "sweep", "--edges", str(edges), "--attrs", str(attrs), "--ad-vector", str(z),
            "--measure", "ad", "--gammas=0.4,0.5", "--beta1", "1",
            "--out", str(tmp_path / "sweep"),
        ]) == 0
        assert calls == {"read_attributes": 1, "load_graph": 1}

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_top_k_below_one_is_a_data_error(self, tmp_path, small_edges, capsys, k):
        code = main([
            "sweep", "--edges", str(small_edges), "--measure", "influence",
            "--thetas", "0.1", "--k", k, "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        assert f"top-k size must be at least 1, got {k}" in capsys.readouterr().err
        assert not (tmp_path / "sweep" / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "measure, targets, beta2, error",
        [
            ("influence", "--gammas=0.1,-0.4", "0",
             "cannot push the walk distribution forward on an edgeless graph"),
            ("trust", "--gammas=0.1,-0.4", "0.3",
             "cannot push the walk distribution forward on an edgeless graph"),
            ("ad", "--gammas=0.1,-0.4", "0",
             "cannot push the walk distribution forward on an edgeless graph"),
            ("trust", "--thetas=0.1,-0.4", "0.3",
             "cannot compute start marginals on an edgeless graph"),
        ],
        ids=["one-step-sign-gamma", "two-step-sign-gamma", "ad-gamma", "theta"],
    )
    def test_edgeless_graph_gives_one_error_row_per_target(
        self, tmp_path, capsys, measure, targets, beta2, error
    ):
        # Every node comes from the attribute file; the edge list has none.
        edges = tmp_path / "edges.txt"
        attrs = tmp_path / "attrs.txt"
        z = tmp_path / "z.txt"
        write(edges, "# no edges\n")
        write(attrs, "0 0.9 0.1\n5 0.4 0.8\n9 0.2 0.3\n")
        write(z, "1.0 0.5\n")
        code = main([
            "sweep", "--edges", str(edges), "--attrs", str(attrs), "--ad-vector", str(z),
            "--measure", measure, targets, "--beta1", str(1 - float(beta2)), "--beta2", beta2,
            "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["sweep"]
        assert [row["error"] for row in rows] == [error, error]
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"target 0.1: {error}", f"target -0.4: {error}"]
        assert captured.out == "swept 2 targets, 2 failed\n"

    @pytest.mark.parametrize("measure", ["influence", "trust", "ad"])
    def test_non_finite_theta_gives_its_own_error_row(self, tmp_path, capsys, measure):
        edges = tmp_path / "edges.txt"
        attrs = tmp_path / "attrs.txt"
        z = tmp_path / "z.txt"
        write(edges, "0 1 1\n1 2 1\n0 2 -1\n2 3 1\n3 4 -1\n")
        write(attrs, "0 0.9 0.1\n1 0.4 0.8\n2 0.2 0.3\n3 0.7 0.6\n4 0.1 0.5\n")
        write(z, "1.0 0.5\n")
        code = main([
            "sweep", "--edges", str(edges), "--attrs", str(attrs), "--ad-vector", str(z),
            "--measure", measure, "--thetas=0.2,nan,-5,inf", "--beta1", "0.7",
            "--beta2", "0.3", "--k", "2", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["sweep"]
        error = "theta must be finite"
        assert [row["error"] for row in rows] == [None, error, None, error]
        assert [row["theta"] for row in rows[::2]] == [0.2, -5.0]
        assert all(row["jaccard_total"] is not None for row in rows[::2])
        csv_lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[1] for line in csv_lines[1:]] == ["0.2", "", "-5", ""]
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"target nan: {error}", f"target inf: {error}"]
        assert captured.out == "swept 4 targets, 2 failed\n"

        # A single rank keeps failing as a whole, with the same text.
        code = main([
            "rank", "--edges", str(edges), "--measure", "influence", "--theta", "nan",
            "--out", str(tmp_path / "rank"),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "rank").exists()

    def test_theta_that_overflows_gives_its_own_error_row(self, tmp_path, capsys):
        edges, attrs, z = tmp_path / "edges.txt", tmp_path / "attrs.txt", tmp_path / "z.txt"
        write(edges, "0 1 1\n1 2 1\n0 2 -1\n2 3 1\n3 4 -1\n")
        write(attrs, "0 0.9 0.1\n1 0.4 0.8\n2 0.5 0.3\n3 0.7 0.6\n4 0.1 0.5\n")
        write(z, "3 3\n")
        code = main([
            "sweep", "--edges", str(edges), "--attrs", str(attrs), "--ad-vector", str(z),
            "--measure", "ad", "--thetas=1e308,1", "--beta1", "1", "--k", "2",
            "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["sweep"]
        error = ("theta = 1e+308 is out of range for these node scores: "
                 "theta times a score overflows")
        assert [row["error"] for row in rows] == [error, None]
        assert rows[1]["theta"] == 1.0 and rows[1]["jaccard_total"] is not None
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"target 1e+308: {error}"]
        assert captured.out == "swept 2 targets, 1 failed\n"

    def test_unparsable_target_list_is_a_data_error(self, tmp_path, small_edges, capsys):
        code = main(["sweep", "--edges", str(small_edges), "--measure", "influence",
                     "--gammas", "0.1,abc", "--out", str(tmp_path / "sweep")])
        assert code == 2
        assert capsys.readouterr() == ("", "error: could not parse target list '0.1,abc'\n")
        assert not (tmp_path / "sweep").exists()

    def test_empty_graph_is_a_data_error(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        write(edges, "# no edges\n# and no nodes\n")
        code = main(["sweep", "--edges", str(edges), "--measure", "influence",
                     "--thetas", "0.1", "--out", str(tmp_path / "sweep")])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: degree ranking is undefined on an empty graph\n")
        assert not (tmp_path / "sweep").exists()

    def test_a_root_beyond_the_bracket_limit_gives_its_own_error_row(self, tmp_path, capsys):
        # Three edges of equal mass, whose minimum scores are the atoms 0,
        # 0.99999 and 1: a target 1e-15 below the top needs theta beyond 10^6.
        edges, attrs, z = tmp_path / "edges.txt", tmp_path / "attrs.txt", tmp_path / "z.txt"
        write(edges, "0 1 1\n2 3 1\n3 4 -1\n")
        write(attrs, "0 0\n1 1\n2 0.99999\n3 1\n4 1\n")
        write(z, "1\n")
        code = main([
            "sweep", "--edges", str(edges), "--attrs", str(attrs), "--ad-vector", str(z),
            "--measure", "ad", f"--gammas=0.5,{1 - 1e-15!r}", "--beta1", "1",
            "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["sweep"]
        error = "failed to bracket the temperature from above (final residual -5.255e-08)"
        assert [row["error"] for row in rows] == [None, error]
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"target {1 - 1e-15!r}: {error}"]
        assert captured.out == "swept 2 targets, 1 failed\n"

    def test_requires_exactly_one_target_list(self, tmp_path, small_edges, capsys):
        code = main([
            "sweep", "--edges", str(small_edges), "--measure", "influence",
            "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2


class TestCsrPlacement:
    """Every production command reads the graph's sorted pairs: ranking and
    sweeping by any measure, the advertisement measure's capped rows
    included, and preprocessing never place the CSR.  Only the oracle does,
    once per graph under ``verify``."""

    BETAS = pytest.mark.parametrize("beta", [("1", "0"), ("0.7", "0.3")],
                                    ids=["beta-1-0", "beta-0.7-0.3"])

    @pytest.fixture
    def no_csr(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the CSR was placed")

        monkeypatch.setattr(tr.graph, "_place_csr", refuse)

    @pytest.fixture
    def ad_inputs(self, tmp_path):
        edges, attrs, z = tmp_path / "edges.txt", tmp_path / "attrs.txt", tmp_path / "z.txt"
        write(edges, "0 1 1\n1 2 1\n0 2 -1\n2 3 1\n3 4 -1\n")
        write(attrs, "0 0.9 0.1\n1 0.4 0.8\n2 0.5 0.3\n3 0.7 0.6\n4 0.1 0.5\n")
        write(z, "1.0 0.5\n")
        return ["--edges", str(edges), "--attrs", str(attrs), "--ad-vector", str(z)]

    @BETAS
    @pytest.mark.parametrize("measure", ["influence", "trust"])
    def test_sign_rank_places_no_csr(self, tmp_path, small_edges, no_csr, capsys, measure,
                                     beta):
        for target in (("--theta", "0.5"), ("--gamma", "0.2")):
            assert main([
                "rank", "--edges", str(small_edges), "--measure", measure, *target,
                "--beta1", beta[0], "--beta2", beta[1], "--out", str(tmp_path / "rank"),
            ]) == 0

    @BETAS
    def test_ad_rank_places_no_csr(self, tmp_path, ad_inputs, no_csr, capsys, beta):
        for target in (("--theta", "0.5"), ("--gamma", "0.5")):
            assert main([
                "rank", *ad_inputs, "--measure", "ad", *target,
                "--beta1", beta[0], "--beta2", beta[1], "--out", str(tmp_path / "rank"),
            ]) == 0

    def test_sign_sweep_places_no_csr(self, tmp_path, small_edges, no_csr, capsys):
        assert main([
            "sweep", "--edges", str(small_edges), "--measure", "trust",
            "--gammas=-0.2,0,0.3", "--beta1", "0.5", "--beta2", "0.5", "--k", "2",
            "--out", str(tmp_path / "sweep"),
        ]) == 0

    @BETAS
    def test_ad_sweep_places_no_csr(self, tmp_path, ad_inputs, no_csr, capsys, beta):
        assert main([
            "sweep", *ad_inputs, "--measure", "ad", "--gammas=0.4,0.5,0.6",
            "--beta1", beta[0], "--beta2", beta[1], "--k", "2", "--out", str(tmp_path / "sweep"),
        ]) == 0

    def test_preprocess_places_no_csr(self, tmp_path, small_edges, no_csr, capsys):
        assert main([
            "preprocess", "--edges", str(small_edges), "--min-degree", "2",
            "--out", str(tmp_path / "pre"),
        ]) == 0
        g = tr.load_graph(tio.read_edge_list(tmp_path / "pre" / "edges.txt"))
        assert tr.preprocess(g).graph == g

    def test_verify_places_the_csr_once(self, tmp_path, ad_inputs, monkeypatch, capsys):
        calls = count_calls(monkeypatch, ("_place_csr",))
        assert main(["verify", *ad_inputs, "--out", str(tmp_path / "verify")]) == 0
        assert calls == {"_place_csr": 1}


class TestVerifyCommand:
    def test_small_graph_passes_all_checks(self, tmp_path, small_edges, capsys):
        code = main(["verify", "--edges", str(small_edges), "--out", str(tmp_path / "v")])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        payload = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert all(check["passed"] for check in payload["checks"])
        assert max(check["max_error"] for check in payload["checks"]) <= 1e-10

    @pytest.mark.parametrize("flag, value", [("--beta2", "nan"), ("--beta1", "5"),
                                             ("--measure", "trust")])
    def test_takes_no_walk_flags(self, tmp_path, small_edges, capsys, flag, value):
        """verify runs its own three walk mixes, so a walk flag is a usage error."""
        with pytest.raises(SystemExit) as info:
            main(["verify", "--edges", str(small_edges), flag, value, "--out", str(tmp_path / "v")])
        assert info.value.code == 1
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("command", [("rank", "--measure", "ad", "--theta", "1.5"),
                                         ("verify",)], ids=["rank", "verify"])
    def test_ad_vector_without_attributes_is_a_data_error(self, tmp_path, small_edges, capsys,
                                                          command):
        """An ad vector needs node attributes of its dimension, under ``verify``
        as under ``rank``."""
        z = tmp_path / "z.txt"
        write(z, "1.0\n")
        code = main([command[0], "--edges", str(small_edges), *command[1:],
                     "--ad-vector", str(z), "--out", str(tmp_path / "o")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: score vector has dimension 1 but node attributes have dimension 0"
        ]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("workload", ["rank-onestep", "rank-twostep", "sweep-ad"])
    def test_benchmark_smoke_inputs_pass(self, tmp_path, capsys, benchmark_workloads, workload,
                                         seed):
        """The enumeration oracle on the benchmark's seeded smoke inputs: the
        heavy-tailed two-step graph and the attributed one among them."""
        argv = benchmark_workloads.build(workload, seed, "smoke", tmp_path).argv
        inputs = [arg for flag, value in zip(argv[1::2], argv[2::2])
                  if flag in ("--edges", "--attrs", "--ad-vector") for arg in (flag, value)]
        assert main(["verify", *inputs]) == 0, capsys.readouterr().out

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_ad_smoke_inputs_pass_with_the_all_ones_vector(
            self, tmp_path, capsys, benchmark_workloads, seed):
        """Without --ad-vector, the Dirichlet topic rows score within a few ulps
        of 1, and the oracle's round trip solves to |theta| near 1e16."""
        argv = benchmark_workloads.build("sweep-ad", seed, "smoke", tmp_path).argv
        inputs = [arg for flag, value in zip(argv[1::2], argv[2::2])
                  if flag in ("--edges", "--attrs") for arg in (flag, value)]
        assert main(["verify", *inputs]) == 0, capsys.readouterr().out

    def test_tampered_sign_is_a_data_error(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        write(edges, "0 1 2\n")
        code = main(["verify", "--edges", str(edges)])
        assert code == 2
        assert "sign" in capsys.readouterr().err


class TestRerunOverOlderOutputs:
    """A command run into a directory that holds longer files of the same
    names, from an earlier run on a bigger graph, leaves the bytes it writes
    into a fresh directory: each file is rewritten in place and cut."""

    @staticmethod
    def _inputs(root, g, name, isolated=0):
        """The graph's edge and attribute files under ``root``; the attribute
        file adds ``isolated`` nodes with no edge."""
        paths = {kind: root / f"{name}-{kind}.txt" for kind in ("edges", "attrs")}
        write(paths["edges"], "".join(f"{u} {w} {s}\n" for u, w, s in edge_list(g)))
        write(paths["attrs"], "".join(f"{u} {(u % 7) / 7} {(u % 3) / 3}\n"
                                      for u in range(g.n + isolated)))
        return paths

    @staticmethod
    def _argv(command, paths, out):
        flags = {
            "rank": ["--measure", "trust", "--theta", "0.5", "--beta1", "0.7", "--beta2", "0.3"],
            "sweep": ["--measure", "influence", "--thetas=0.2,-0.5,1.5", "--k", "2"],
            "preprocess": ["--min-degree", "1"],
            "verify": [],
        }[command]
        return [command, "--edges", str(paths["edges"]), "--attrs", str(paths["attrs"]),
                *flags, "--out", str(out)]

    @pytest.mark.parametrize("command", ["rank", "sweep", "preprocess", "verify"])
    def test_writes_the_bytes_of_a_fresh_directory(self, tmp_path, capsys, command):
        # verify.json lists the same checks whatever the graph, so the small
        # graph is one edge, whose zero errors print shortest.
        small = self._inputs(tmp_path, tr.load_graph([(0, 1, -1)]), "g")
        big = self._inputs(tmp_path, skewed_signed_graph(np.random.default_rng(1), 40, 160),
                           "an-earlier-bigger-graph", isolated=20)
        assert main(self._argv(command, small, tmp_path / "fresh")) == 0
        fresh = read_tree(tmp_path / "fresh")
        assert main(self._argv(command, big, tmp_path / "rerun")) == 0
        older = read_tree(tmp_path / "rerun")
        assert older.keys() == fresh.keys()
        assert all(len(older[name]) > len(fresh[name]) for name in fresh), {
            name: (len(older[name]), len(fresh[name])) for name in fresh}
        assert main(self._argv(command, small, tmp_path / "rerun")) == 0
        assert read_tree(tmp_path / "rerun") == fresh
        capsys.readouterr()

    @pytest.mark.parametrize("workload", ["rank-onestep", "rank-twostep", "sweep-ad",
                                          "preprocess-inject"])
    def test_rewrites_outputs_padded_with_junk(self, tmp_path, capsys, benchmark_workloads,
                                               workload):
        """On the benchmark's seed-1 smoke inputs, each output file padded
        with junk before the rerun."""
        out = tmp_path / "out"
        argv = [*benchmark_workloads.build(workload, 1, "smoke", tmp_path).argv,
                "--out", str(out)]
        code = main(argv)
        fresh = read_tree(out)
        for path in out.iterdir():
            with open(path, "ab") as fh:
                fh.write(b"junk\0\n" * 5000)
        assert main(argv) == code
        assert read_tree(out) == fresh
        capsys.readouterr()


class TestWideIndexRoute:
    """Graphs past 2**31 - 1 nodes or entries hold their indices as int64.
    Forced at every size, that route gives the default route's bytes."""

    @pytest.mark.parametrize("workload", ["rank-onestep", "rank-twostep", "sweep-ad",
                                          "preprocess-inject"])
    def test_int64_indices_give_the_same_bytes(self, tmp_path, capsys, monkeypatch,
                                                benchmark_workloads, workload):
        argv = benchmark_workloads.build(workload, 1, "smoke", tmp_path).argv
        code = main([*argv, "--out", str(tmp_path / "default")])
        assert code == 0
        default = capsys.readouterr()
        widths = []

        def wide(bound):
            widths.append(bound)
            return np.int64

        monkeypatch.setattr(tgraph, "_index_dtype", wide)
        assert main([*argv, "--out", str(tmp_path / "wide")]) == code
        assert capsys.readouterr() == default
        assert widths
        assert read_tree(tmp_path / "wide") == read_tree(tmp_path / "default")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
class TestAddressSpaceLimit:
    """Each command runs in a child whose address space is capped, by
    RLIMIT_AS, a few MiB above what importing the CLI took.  It exits 2 with
    one line and writes no --out.  With 32 MiB to spare, the commands that
    fit succeed, so it is the limit that stops them."""

    CHILD = textwrap.dedent("""
        import resource, sys
        from twistrank.cli import main
        with open("/proc/self/status") as fh:
            size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
        limit = size * 1024 + int(sys.argv[1]) * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
        sys.exit(main(sys.argv[2:]))
    """)

    FLAGS = {
        "rank": ["--measure", "influence", "--gamma", "0.3"],
        "sweep": ["--measure", "influence", "--gammas", "0.1,0.3"],
        "preprocess": [],
        "verify": [],
    }

    @pytest.fixture(scope="class")
    def edges(self, tmp_path_factory):
        """200,000 distinct uniform edges over 50,000 nodes, a tenth negative."""
        rng = np.random.default_rng(3)
        n, m = 50_000, 200_000
        u, w = rng.integers(0, n, (2, 3 * m))
        lo, hi = np.minimum(u, w)[u != w], np.maximum(u, w)[u != w]
        codes = rng.choice(np.unique(lo * n + hi), m, replace=False)
        signs = np.where(rng.random(m) < 0.1, -1, 1)
        path = tmp_path_factory.mktemp("big") / "edges.txt"
        write(path, "".join(f"{a} {b} {s}\n" for a, b, s in
                            zip((codes // n).tolist(), (codes % n).tolist(), signs.tolist())))
        return path

    def _run(self, tmp_path, edges, command, spare_mib):
        src = str(Path(tr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        argv = [command, "--edges", str(edges), *self.FLAGS[command],
                "--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, "-c", self.CHILD, str(spare_mib), *argv],
                              env=env, capture_output=True, text=True)
        return done.returncode, done.stderr

    @pytest.mark.parametrize("command", ["rank", "sweep", "preprocess", "verify"])
    def test_out_of_memory_is_one_line(self, tmp_path, edges, command):
        code, err = self._run(tmp_path, edges, command, 4)
        assert code == 2, err
        assert len(err.splitlines()) == 1 and err.startswith("error: out of memory: "), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["rank", "sweep", "preprocess"])
    def test_32_mib_to_spare_is_enough(self, tmp_path, edges, command):
        assert self._run(tmp_path, edges, command, 32) == (0, "")
        assert (tmp_path / "out" / "manifest.json").exists()


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        # A fresh interpreter: this test process may have imported scipy already.
        src = str(Path(tr.__file__).resolve().parents[1])
        code = (
            "import sys, twistrank.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", [
        ["rank", "--measure", "trust", "--gamma", "0.3", "--beta1", "0.7", "--beta2", "0.3"],
        ["rank", "--measure", "influence", "--gamma", "0.3", "--beta1", "1", "--beta2", "0"],
        ["sweep", "--attrs", "{attrs}", "--ad-vector", "{ad}", "--measure", "ad",
         "--gammas", "0.5,0.7"],
        ["preprocess", "--partition", "{part}", "--inject-negative", "2"],
    ], ids=["trust-rank", "influence-rank", "ad-sweep", "preprocess-inject"])
    def test_production_command_loads_no_oracle(self, tmp_path, small_edges, command):
        """The oracle lives in twistrank.verify, which only ``verify`` loads."""
        # A fresh interpreter: this test process has imported twistrank.verify.
        src = str(Path(tr.__file__).resolve().parents[1])
        files = {"attrs": "0 0.9 0.1\n1 0.4 0.8\n2 0.5 0.3\n3 0.7 0.6\n4 0.1 0.5\n",
                 "ad": "1.0 0.5\n", "part": "0 a\n1 b\n2 a\n3 b\n4 a\n"}
        for name, text in files.items():
            write(tmp_path / f"{name}.txt", text)
        paths = {name: str(tmp_path / f"{name}.txt") for name in files}
        argv = [command[0], "--edges", str(small_edges),
                *(arg.format(**paths) for arg in command[1:]), "--out", str(tmp_path / "out")]
        code = (
            "import sys, twistrank.cli; "
            f"code = twistrank.cli.main({argv!r}); "
            "print(code, 'twistrank.verify' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines()[-1] == "0 False"


class TestInputFiles:
    @pytest.fixture
    def inputs(self, tmp_path):
        paths = {name: tmp_path / f"{name}.txt" for name in ("edges", "attrs", "ad", "part")}
        write(paths["edges"], "0 1 1\n1 2 -1\n2 3 1\n")
        write(paths["attrs"], "0 0.5 0.5\n1 0.25 0.75\n2 1 0\n")
        write(paths["ad"], "1 0.5\n")
        write(paths["part"], "0 a\n1 b\n2 a\n3 b\n")
        return paths

    def _argv(self, command, inputs, out):
        if command == "preprocess":
            return ["preprocess", "--edges", str(inputs["edges"]),
                    "--attrs", str(inputs["attrs"]), "--inject-negative", "1",
                    "--partition", str(inputs["part"]), "--out", str(out)]
        return ["rank", "--edges", str(inputs["edges"]), "--attrs", str(inputs["attrs"]),
                "--measure", "ad", "--ad-vector", str(inputs["ad"]), "--theta", "0.5",
                "--out", str(out)]

    @pytest.mark.parametrize("command, flag", [
        ("rank", "--edges"), ("rank", "--attrs"), ("rank", "--ad-vector"),
        ("preprocess", "--partition"), ("preprocess", "--attrs"),
    ])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_is_a_data_error(self, tmp_path, inputs, capsys, command,
                                              flag, kind):
        argv = self._argv(command, inputs, tmp_path / "out")
        bad = tmp_path / ("nonexistent.txt" if kind == "missing" else "a-directory")
        if kind == "directory":
            bad.mkdir()
        argv[argv.index(flag) + 1] = str(bad)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and str(bad) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["rank", "preprocess"])
    def test_the_same_inputs_succeed(self, tmp_path, inputs, capsys, command):
        assert main(self._argv(command, inputs, tmp_path / "out")) == 0


class TestUsageErrors:
    def test_missing_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_unknown_flag_exits_one(self, small_edges, capsys):
        with pytest.raises(SystemExit) as err:
            main(["rank", "--edges", str(small_edges), "--bogus"])
        assert err.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "twistrank" in capsys.readouterr().out


def _parse_outcome(parse, argv):
    """Exit code (None when the parse succeeds), stdout, stderr and the
    namespace's ``vars`` of one parse."""
    out, err = io.StringIO(), io.StringIO()
    code = args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args


def _keep_namespaces(mp, kept):
    """Replace every handler in ``cli._COMMANDS`` by one that appends its
    namespace to ``kept`` and returns 0."""
    def keep(args):
        kept.append(args)
        return 0

    mp.setattr(cli, "_COMMANDS", {name: (summary, flags, keep)
                                  for name, (summary, flags, _) in cli._COMMANDS.items()})


def _main_outcomes(argvs):
    """``main`` on each argv in turn, one kept parser serving them all, with
    the handlers stubbed out."""
    def parse_by_main(argv):
        assert main(argv) == 0
        return kept[-1]

    kept = []
    with pytest.MonkeyPatch.context() as mp:
        _keep_namespaces(mp, kept)
        return [_parse_outcome(parse_by_main, argv) for argv in argvs]


def _fresh_outcome(argv):
    """The outcome of ``argv`` on a parser built for it alone."""
    return _parse_outcome(lambda a: cli.build_parser.__wrapped__().parse_args(a), argv)


_RANK = ["rank", "--edges", "e.txt", "--measure", "trust", "--theta", "0.5", "--out", "o"]
PARSE_CORPUS = {
    "preprocess": ["preprocess", "--edges", "e.txt", "--out", "o"],
    "preprocess-all-flags": ["preprocess", "--edges", "e.txt", "--attrs", "a.txt",
                             "--min-degree", "3", "--inject-negative", "5",
                             "--partition", "p.txt", "--seed", "7", "--out", "o"],
    "rank": ["rank", "--edges", "e.txt", "--measure", "trust", "--gamma", "0.3",
             "--beta1", "0.7", "--beta2", "0.3", "--out", "o"],
    "sweep": ["sweep", "--edges", "e.txt", "--measure", "influence",
              "--gammas=-0.5,0,0.5", "--k", "10", "--out", "o"],
    "verify": ["verify", "--edges", "e.txt"],
    "verify-ad": ["verify", "--edges", "e.txt", "--attrs", "a.txt", "--ad-vector", "z.txt",
                  "--out", "o"],
    "preprocess-h": ["preprocess", "-h"],
    "rank-h": ["rank", "-h"],
    "sweep-h": ["sweep", "-h"],
    "verify-h": ["verify", "-h"],
    "help-after-flags": [*_RANK, "--help"],
    "top-level-h": ["-h"],
    "top-level-help": ["--help"],
    "version": ["--version"],
    "version-before-command": ["--version", *_RANK],
    "version-after-command": [*_RANK, "--version"],
    "empty": [],
    "unknown-command": ["frobnicate", "--edges", "e.txt"],
    "abbreviated-command": ["ran", "--edges", "e.txt"],
    "unknown-flag-before-command": ["--bogus", *_RANK],
    "unknown-flag-after-command": [*_RANK, "--bogus"],
    "unknown-flag-after-dashes": [*_RANK, "--", "--bogus"],
    "dashes-before-command": ["--", *_RANK],
    "trailing-dashes": [*_RANK, "--"],
    "stray-value": [*_RANK, "extra"],
    "flag-equals-value": ["rank", "--edges=e.txt", "--measure=ad", "--ad-vector=z.txt",
                          "--theta=-1", "--out=o"],
    "abbreviated-flag": ["rank", "--edges", "e.txt", "--measure", "influence",
                         "--gam", "0.3", "--out", "o"],
    "ambiguous-abbreviation": ["sweep", "--edges", "e.txt", "--measure", "trust",
                               "--gam", "0", "--out", "o"],
    "repeated-ad-vector": ["rank", "--edges", "e.txt", "--measure", "ad", "--ad-vector",
                           "z1.txt", "--ad-vector", "z2.txt", "--theta", "0.2", "--out", "o"],
    "top-level-ambiguous-token": [*_RANK, "--=x"],
    "missing-required-flag": ["rank", "--edges", "e.txt", "--out", "o"],
    "missing-value": ["rank", "--edges"],
    "bad-measure-choice": ["rank", "--edges", "e.txt", "--measure", "pagerank",
                           "--theta", "1", "--out", "o"],
    "bad-theta": ["rank", "--edges", "e.txt", "--measure", "trust", "--theta", "abc",
                  "--out", "o"],
    "bad-k": ["sweep", "--edges", "e.txt", "--measure", "ad", "--k", "x", "--out", "o"],
    "negative-value-as-flag": ["sweep", "--edges", "e.txt", "--measure", "trust",
                               "--gammas", "-0.5,0", "--out", "o"],
    "walk-flag-on-verify": ["verify", "--edges", "e.txt", "--beta2", "nan"],
}

# Flag-value units that a command may take, and single tokens that break a
# parse in most places they land.
_UNITS = [["--edges", "e.txt"], ["--attrs", "a.txt"], ["--ad-vector", "z.txt"],
          ["--ad-vector=y.txt"], ["--beta1", "0.7"], ["--beta2=0.3"], ["--measure", "ad"],
          ["--measure", "influence"], ["--out", "o"], ["--theta", "-1"], ["--gamma", "0.3"],
          ["--gam", "0.3"], ["--gammas=-1,0"], ["--thetas", "0,1"], ["--k", "5"],
          ["--min-degree", "2"], ["--inject-negative", "3"], ["--partition", "p.txt"],
          ["--seed", "7"]]
_TOKENS = ["-h", "--help", "--version", "--ver", "--", "--bogus", "-x", "--=x", "--the",
           "--be", "--in", "--measure", "pagerank", "abc", "-0.5,0", "", "a b", "rank"]
_REQUIRED = {
    "preprocess": [["--edges", "e.txt"], ["--out", "o"]],
    "rank": [["--edges", "e.txt"], ["--measure", "trust"], ["--out", "o"]],
    "sweep": [["--edges", "e.txt"], ["--measure", "trust"], ["--out", "o"]],
    "verify": [["--edges", "e.txt"]],
}
_HEADS = [*cli._COMMANDS, *cli._COMMANDS, "-h", "--version", "--bogus", "bogus", "--"]


@st.composite
def _argvs(draw):
    """A head token, then a command's required flags (or not) and other flag
    units and tokens, in any order."""
    head = draw(st.sampled_from(_HEADS))
    units = list(_REQUIRED.get(head, [])) if draw(st.integers(0, 3)) else []
    flag_unit = st.sampled_from(_UNITS)
    stray = st.sampled_from(_TOKENS).map(lambda t: [t])
    units += draw(st.lists(st.one_of(flag_unit, flag_unit, stray), max_size=4))
    return [head, *(token for unit in draw(st.permutations(units)) for token in unit)]


class TestParsing:
    """``main`` parses every argv with the one parser that ``build_parser()``
    keeps, and reuse leaks nothing: each argv in a sequence gets the exit
    code, output and namespace of a freshly built parser."""

    @pytest.fixture(scope="class")
    def fresh_corpus(self):
        return {name: _fresh_outcome(argv) for name, argv in PARSE_CORPUS.items()}

    @pytest.mark.parametrize("name", PARSE_CORPUS)
    def test_matches_the_full_parser(self, name, fresh_corpus):
        """The argv, after the whole corpus went through the kept parser."""
        names = [*reversed(PARSE_CORPUS), name]
        got = _main_outcomes([PARSE_CORPUS[n] for n in names])
        assert list(zip(names, got)) == [(n, fresh_corpus[n]) for n in names]
        _, out, err, args = fresh_corpus[name]
        assert out or err or args

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_argvs(), min_size=1, max_size=4))
    def test_any_token_sequence_matches_the_full_parser(self, argvs):
        assert _main_outcomes(argvs) == [_fresh_outcome(argv) for argv in argvs]

    def test_none_reads_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["twistrank", *PARSE_CORPUS["rank"]])
        kept = []
        _keep_namespaces(monkeypatch, kept)
        assert main() == 0
        assert (None, "", "", vars(kept[0])) == _fresh_outcome(PARSE_CORPUS["rank"])

    def test_three_calls_build_the_parser_once(self, tmp_path, small_edges, monkeypatch,
                                               capsys):
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cli.build_parser.cache_clear()
        for argv in (["rank", "--measure", "influence", "--theta", "0.5"],
                     ["sweep", "--measure", "trust", "--thetas", "0,0.5"],
                     ["verify"]):
            assert main([argv[0], "--edges", str(small_edges), *argv[1:],
                         "--out", str(tmp_path / argv[0])]) == 0
        assert built == ["twistrank", *(f"twistrank {name}" for name in cli._COMMANDS)]

    def test_import_builds_no_parser(self):
        # A fresh interpreter: this test process has built the parser already.
        src = str(Path(tr.__file__).resolve().parents[1])
        code = (
            "import argparse; built = []; init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog')); init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import twistrank.cli\n"
            "print(built, twistrank.cli.build_parser.cache_info().currsize)"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[] 0"

    def test_the_full_parser_lists_the_commands_in_order(self):
        assert "{preprocess,rank,sweep,verify}" in cli.build_parser().format_usage()
