"""End-to-end command-line behavior: files in, files out, exit codes."""

import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import twistrank as tr
from twistrank import io as tio, twisting
from twistrank.cli import main

from conftest import edge_list


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

    def test_reads_and_writes_through_the_traced_names(self, tmp_path, monkeypatch, capsys):
        names = ("read_edge_list", "read_partition", "write_edge_list", "write_json")
        calls = count_calls(monkeypatch, names)
        assert main(self._args(tmp_path, "out")) == 0
        assert calls == dict.fromkeys(names, 1)

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
        for path in tr.enumerate_paths(g, tr.WalkConfig(0.7, 0.3)):
            base[path.nodes[0]] += path.base_prob
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

    @pytest.mark.parametrize("target", [("--theta", "1.5"), ("--gamma", "0.6")],
                             ids=["theta", "gamma"])
    @pytest.mark.parametrize("big, score", [("1e308 1e308", "inf"), ("-1e308 -1e308", "-inf")],
                             ids=["positive", "negative"])
    def test_ad_scores_that_overflow_are_a_data_error(self, tmp_path, capsys, target, big,
                                                      score):
        """Finite attributes whose inner product with the ad vector is not
        finite: exit 2 with one line naming the first such node, no warning."""
        edges = tmp_path / "edges.txt"
        attrs = tmp_path / "attrs.txt"
        z = tmp_path / "z.txt"
        write(edges, "10 11\n11 12\n12 13\n13 10\n")
        write(attrs, f"10 0.5 0.5\n11 1 1\n13 {big}\n12 {big}\n")
        write(z, "2 2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "rank", "--edges", str(edges), "--attrs", str(attrs), "--measure", "ad",
                "--ad-vector", str(z), *target, "--out", str(tmp_path / "rank"),
            ])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: the score of node 12 is {score}: the inner product of its attributes "
            "with the score vector is not finite"
        ]
        assert not (tmp_path / "rank" / "ranking.csv").exists()

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

    def test_unachievable_gamma_reports_range(self, tmp_path, small_edges, capsys):
        code = main([
            "rank", "--edges", str(small_edges), "--measure", "influence",
            "--gamma", "1.0", "--beta1", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "strictly" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path, small_edges, capsys):
        args = [
            "rank", "--edges", str(small_edges), "--measure", "influence",
            "--gamma", "0.5", "--beta1", "0.7", "--beta2", "0.3",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_outputs_do_not_depend_on_threads(self, tmp_path, small_edges, monkeypatch, capsys):
        # --threads is a deprecated no-op; neither it nor TWISTRANK_THREADS
        # may reach manifest.json, or reruns on other machines would differ.
        args = [
            "rank", "--edges", str(small_edges), "--measure", "trust",
            "--gamma", "0.2", "--beta1", "0.7", "--beta2", "0.3",
        ]
        monkeypatch.setenv("TWISTRANK_THREADS", "1")
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        monkeypatch.setenv("TWISTRANK_THREADS", "7")
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert main(args + ["--threads", "3", "--out", str(tmp_path / "c")]) == 0
        first = read_tree(tmp_path / "a")
        assert "manifest.json" in first
        assert first == read_tree(tmp_path / "b") == read_tree(tmp_path / "c")

    def test_resolves_theta_and_stats_once(self, tmp_path, small_edges, monkeypatch, capsys):
        calls = count_calls(monkeypatch, ("resolve_theta", "stats"))
        assert main([
            "rank", "--edges", str(small_edges), "--measure", "trust",
            "--gamma", "0.2", "--beta1", "0.7", "--beta2", "0.3",
            "--out", str(tmp_path / "rank"),
        ]) == 0
        assert calls == {"resolve_theta": 1, "stats": 1}

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

    @pytest.mark.parametrize("beta", [("1", "0"), ("0.7", "0.3")],
                             ids=["beta-1-0", "beta-0.7-0.3"])
    def test_bytes_do_not_depend_on_the_cpu_dispatch(self, tmp_path, paper_scale_edges, beta):
        """``rank`` in two child interpreters, one with numpy's AVX-512 kernels
        disabled, writes the same bytes: a first check that reruns on another
        machine reproduce the outputs.  ``sweep`` stays out until theta is
        printed in a machine-independent way: sweep.json prints it at full
        precision, and the last digits of its Newton solve do depend on the
        kernels."""
        src = str(Path(tr.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "twistrank.cli", "rank", "--edges", str(paper_scale_edges),
                "--measure", "trust", "--gamma", "0.3", "--beta1", beta[0], "--beta2", beta[1]]
        runs = []
        for name, disabled in (("default", None), ("no-avx512", "X86_V4 AVX512_ICL AVX512_SPR")):
            env = {**os.environ, "PYTHONPATH": src}
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            if disabled:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            out = tmp_path / name
            done = subprocess.run([*argv, "--out", str(out)], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr
            runs.append((done.stdout, read_tree(out)))
        assert sorted(runs[0][1]) == ["manifest.json", "ranking.csv", "ranking.json"]
        assert runs[0] == runs[1]


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
        calls = count_calls(monkeypatch, ("resolve_theta", "stats", "measure_atoms"))
        assert main([
            "sweep", "--edges", str(small_edges), "--measure", "influence",
            "--gammas=-0.2,0,0.3", "--beta1", "0.5", "--beta2", "0.5", "--k", "2",
            "--out", str(tmp_path / "sweep"),
        ]) == 0
        assert calls == {"resolve_theta": 3, "stats": 1, "measure_atoms": 1}

    def test_one_step_sign_sweep_builds_no_atoms(self, tmp_path, small_edges,
                                                 monkeypatch, capsys):
        calls = count_calls(monkeypatch, ("resolve_theta", "measure_atoms"))
        assert main([
            "sweep", "--edges", str(small_edges), "--measure", "trust",
            "--gammas=-0.2,0,0.3", "--beta1", "1", "--beta2", "0", "--k", "2",
            "--out", str(tmp_path / "sweep"),
        ]) == 0
        assert calls == {"resolve_theta": 3}

    def test_ad_sweep_sorts_capped_rows_once(self, tmp_path, monkeypatch, capsys):
        edges = tmp_path / "edges.txt"
        attrs = tmp_path / "attrs.txt"
        z = tmp_path / "z.txt"
        write(edges, "0 1 1\n1 2 1\n0 2 -1\n2 3 1\n3 4 -1\n")
        # Scores 0.95, 0.8, 0.65, 1.0, 0.35: three atoms, so each target runs Newton.
        write(attrs, "0 0.9 0.1\n1 0.4 0.8\n2 0.5 0.3\n3 0.7 0.6\n4 0.1 0.5\n")
        write(z, "1.0 0.5\n")
        calls = Counter()
        capped_rows = tr.MinInnerProduct.capped_rows
        monkeypatch.setattr(tr.MinInnerProduct, "capped_rows",
                            _counted(calls, "capped_rows", capped_rows))
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
             "closed-form temperature needs both positive and negative edges (m+ = 0, m- = 0)"),
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

    def test_requires_exactly_one_target_list(self, tmp_path, small_edges, capsys):
        code = main([
            "sweep", "--edges", str(small_edges), "--measure", "influence",
            "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2


class TestVerifyCommand:
    def test_small_graph_passes_all_checks(self, tmp_path, small_edges, capsys):
        code = main(["verify", "--edges", str(small_edges), "--out", str(tmp_path / "v")])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        payload = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert all(check["passed"] for check in payload["checks"])
        assert max(check["max_error"] for check in payload["checks"]) <= 1e-10

    def test_tampered_sign_is_a_data_error(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        write(edges, "0 1 2\n")
        code = main(["verify", "--edges", str(edges)])
        assert code == 2
        assert "sign" in capsys.readouterr().err


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

    def test_rank_loads_no_oracle_checks(self, tmp_path, small_edges):
        # A fresh interpreter: this test process has imported twistrank.verify.
        src = str(Path(tr.__file__).resolve().parents[1])
        argv = ["rank", "--edges", str(small_edges), "--measure", "trust", "--gamma", "0.3",
                "--beta1", "0.7", "--beta2", "0.3", "--out", str(tmp_path / "rank")]
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
