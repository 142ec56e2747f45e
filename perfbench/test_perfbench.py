"""Tests of the benchmark harness itself (timings are never asserted).

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_once(workload, tmp_path, seed=3):
    from twistrank.cli import main

    case = workloads.build(workload, seed, "smoke", tmp_path / "in")
    out = tmp_path / "out"
    assert main(case.argv + ["--out", str(out)]) == 0
    return case, out


def test_smoke_report_runs_every_workload_and_emits_valid_json():
    proc = subprocess.run(
        [sys.executable, str(HERE / "report.py"), "--scale", "smoke", "--seeds", "1",
         "--seconds", "0.2", "--trace", "0,1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    wanted = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    assert set(summary["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    for name, entry in summary["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        assert set(entry["metrics"]) == wanted, name


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_line(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rank-twostep", "--seed", "2",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    group = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    assert last["correct"] and last["attempted"] >= 2


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rank-onestep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_seeded(workload, tmp_path):
    a = workloads.build(workload, 5, "smoke", tmp_path / "a")
    b = workloads.build(workload, 5, "smoke", tmp_path / "b")
    c = workloads.build(workload, 6, "smoke", tmp_path / "c")
    read = lambda case: Path(case.oracle["edges"]).read_bytes()  # noqa: E731
    assert read(a) == read(b) != read(c)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_accepts_the_program_outputs(workload, tmp_path):
    case, out = _run_once(workload, tmp_path)
    assert oracle.check(workload, case.oracle, out) == []


def _rewrite(path: Path, edit):
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def test_oracle_rejects_a_wrong_score(tmp_path):
    case, out = _run_once("rank-onestep", tmp_path)

    def bump(text):
        lines = text.splitlines()
        rank, node, score = lines[1].split(",")
        lines[1] = f"{rank},{node},{float(score) * 1.001:.12g}"
        return "\n".join(lines) + "\n"

    _rewrite(out / "ranking.csv", bump)
    assert oracle.check("rank-onestep", case.oracle, out)


def test_oracle_rejects_a_wrong_theta(tmp_path):
    case, out = _run_once("rank-twostep", tmp_path)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["parameters"]["resolved_theta"] += 1e-3
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert any("mean minimum sign" in p for p in oracle.check("rank-twostep", case.oracle, out))


def test_oracle_rejects_a_wrong_sweep_row(tmp_path):
    case, out = _run_once("sweep-ad", tmp_path)
    rows = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    rows["sweep"][4]["theta"] *= 1.01
    (out / "sweep.json").write_text(json.dumps(rows), encoding="utf-8")
    assert any("mean score" in p for p in oracle.check("sweep-ad", case.oracle, out))


def test_oracle_rejects_an_intra_partition_injection(tmp_path):
    case, out = _run_once("preprocess-inject", tmp_path)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    labels = dict(line.split() for line in
                  Path(case.oracle["partition"]).read_text(encoding="utf-8").splitlines())
    u, w = report["injected_edges"][0]
    same = next(v for v in sorted(labels, key=int)
                if labels[v] == labels[str(u)] and int(v) > u)
    report["injected_edges"][0] = [u, int(same)]
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    assert oracle.check("preprocess-inject", case.oracle, out)


def test_oracle_rejects_a_short_injection(tmp_path):
    case, out = _run_once("preprocess-inject", tmp_path)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report["injected_edges"].pop()
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    assert any("injected" in p for p in oracle.check("preprocess-inject", case.oracle, out))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_account_for_the_operation(workload, tmp_path):
    import twistrank.cli

    case = workloads.build(workload, 4, "smoke", tmp_path / "in")
    originals = {(mod, name): getattr(sys.modules[mod], name)
                 for funcs in SPANS.values() for mod, name in funcs}
    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.operation(0, twistrank.cli.main, case.argv + ["--out", str(tmp_path / "o")])
    finally:
        tracer.uninstall()
    assert rc == 0
    for (mod, name), fn in originals.items():
        assert getattr(sys.modules[mod], name) is fn
    assert twistrank.cli.load_graph is originals[("twistrank.graph", "load_graph")]
    layers = tracer.breakdown(0)
    self_total = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert self_total == pytest.approx(tracer.op_seconds(0), rel=1e-9)
    assert all(v >= 0 for v in layers.values())
    if case.argv[0] == "rank" and "--beta2" in case.argv:
        assert layers["sampling.paths_enumerated"] > 0
        assert layers["twisting.solve_numeric_calls"] == 1
    if case.argv[0] == "sweep":
        assert layers["analysis.targets"] == len(workloads.SWEEP_FRACTIONS)
    if case.argv[0] == "preprocess":
        assert layers["graph.preprocess_s"] > 0
