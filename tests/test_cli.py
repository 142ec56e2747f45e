"""End-to-end command-line behavior: files in, files out, exit codes."""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import twistrank as tr
from twistrank import io as tio
from twistrank.cli import main


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
    lines = [f"{u} {w} {s}" for u, w, s in paper_scale_graph.edge_list(original_ids=True)]
    write(path, "\n".join(lines) + "\n")
    return path


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
            assert row["score"] == pytest.approx(base[g.index_of(row["node_id"])], abs=1e-9)

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
        write(attrs, "0 0.9 0.1\n1 0.4 0.8\n2 0.2 0.3\n3 0.7 0.6\n4 0.1 0.5\n")
        write(z, "1.0 0.5\n")
        calls = Counter()
        capped_rows = tr.MinInnerProduct.capped_rows
        monkeypatch.setattr(tr.MinInnerProduct, "capped_rows",
                            _counted(calls, "capped_rows", capped_rows))
        assert main([
            "sweep", "--edges", str(edges), "--attrs", str(attrs), "--ad-vector", str(z),
            "--measure", "ad", "--gammas=0.4,0.5,0.6", "--beta1", "0.7", "--beta2", "0.3",
            "--k", "2", "--out", str(tmp_path / "sweep"),
        ]) == 0
        assert calls == {"capped_rows": 1}

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
