"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/report.py --seeds 1-10 --seconds 20 --trace 0
    python3 perfbench/report.py --scale smoke --seeds 1 --seconds 0.5 --trace 0,1

Each (workload, seed, trace) is one ``run.py`` process, run from the current
directory (a source checkout root).  Prints one line per metric with its unit,
median, quartiles and spread (interquartile range over median), then the
whole summary as JSON on the last line; ``--write FILE`` also saves it, with
the machine's facts, as a baseline to compare later runs against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", default="0", help="comma-separated trace modes, 0 and/or 1")
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    parser.add_argument("--label", default="", help="free text stored in the summary")
    parser.add_argument("--write", metavar="FILE", help="save the summary as JSON")
    args = parser.parse_args(argv)

    machine = None
    summary = {"label": args.label, "scale": args.scale, "seconds": args.seconds,
               "seeds": parse_seeds(args.seeds), "workloads": {}}
    ok = True
    for workload in workloads.WORKLOADS:
        entry = {"attempted": 0, "failed": 0, "correct": True, "metrics": {}}
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for trace in (int(t) for t in args.trace.split(",")):
            for seed in summary["seeds"]:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--scale", args.scale]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
                lines = proc.stdout.strip().splitlines()
                machine = machine or json.loads(lines[-2])["machine"]
                res = json.loads(lines[-1])
                print(f"# {workload} seed {seed} trace {trace}: {wall:.1f} s wall, "
                      f"{res['attempted']} ops", file=sys.stderr)
                entry["attempted"] += res["attempted"]
                entry["failed"] += res["failed"]
                entry["correct"] &= res["correct"]
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
        for name, vals in values.items():
            entry["metrics"][name] = {"unit": units[name], **summarise(vals)}
            s = entry["metrics"][name]
            print(f"{workload:18s} {name:32s} {s['median']:14.6g} {units[name]:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} n={len(vals)}")
        print(f"{workload:18s} correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']}")
        ok &= entry["correct"]
        summary["workloads"][workload] = entry
    summary["machine"] = {**(machine or {}), "cpu_model": cpu_model()}
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
