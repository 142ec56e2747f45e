"""twistrank benchmark: one workload, one seed, one measured run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rank-onestep --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from ``--seed`` under ``.perfbench_work/``,
then drives the real CLI (``twistrank.cli.main``) from a fresh child
interpreter in a closed loop (one client, no threads, BLAS/OpenMP pinned to
one thread) for ``--seconds``.  Outputs are checked by an independent numpy
oracle.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics from a run that
alternates untraced and traced operations.  ``--scale smoke`` uses tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import workloads  # noqa: E402
from spans import COUNT_METRICS, TIME_METRICS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Timed fresh-interpreter imports per run, after one warm-up.
SETUP_LAUNCHES = {"full": 5, "smoke": 1}
MIN_OPS = 2             # so every run holds a same-seed rerun to compare against
# Allowance past --seconds for the child: its imports, the last operation and the oracle.
CHILD_MARGIN_S = 150

END_TO_END_UNITS = {"op_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio"}
LAYER_UNITS = {**{m: "s" for m in TIME_METRICS},
               **{m: "count" for m in COUNT_METRICS},
               "io.bytes_written": "bytes", "trace.op_s": "s", "trace.overhead_s": "s",
               "wall.op_s": "s"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    # Installed packages ship compiled bytecode; let the warm-up write it so
    # setup_s does not depend on the caller's PYTHONDONTWRITEBYTECODE.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure_setup(env: dict, launches: int) -> float:
    """Median time, in nominal seconds, for a fresh interpreter to import the CLI."""
    cmd = [sys.executable, "-c", "import twistrank.cli"]
    subprocess.run(cmd, env=env, check=True)   # warm-up: writes bytecode caches
    return statistics.median(
        clock.timed(subprocess.run, cmd, env=env, check=True)[2] for _ in range(launches))


def machine() -> dict:
    """Facts about this machine that are readable without leaving the checkout."""
    return {
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str,
        root: Path) -> dict:
    work = root / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    case = workloads.build(workload, seed, scale, work / "in")
    env = child_env(root)
    setup_s = None if trace else measure_setup(env, SETUP_LAUNCHES[scale])
    spec = {"workload": workload, "argv": case.argv, "oracle": case.oracle,
            "out": str(work / "out"), "seconds": seconds, "trace": trace,
            "min_ops": MIN_OPS, "walk": case.walk, "spans": str(work / "spans.tsv")}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                          env=env, cwd=root, capture_output=True, text=True,
                          timeout=seconds + CHILD_MARGIN_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    for problem in res["problems"]:
        print(f"{workload}: {problem}", file=sys.stderr)

    if trace:
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in res["layers"].items()}
    else:
        metrics = {
            "op_s": res["op_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": setup_s,
            "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in metrics.items()}
    return {"correct": res["failed"] == 0 and not res["problems"],
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics,
            "op_times": res["op_times"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "twistrank" / "cli.py").is_file():
        print(f"error: no twistrank sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, root)
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed,
                      "scale": args.scale, "untraced_op_s": result.pop("op_times")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
