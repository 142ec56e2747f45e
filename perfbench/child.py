"""One workload run inside a fresh interpreter: a closed loop over the CLI.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec names the argv,
the output directory, the run length and whether to trace.  One client calls
``twistrank.cli.main`` one operation at a time until the run length has
passed (at least ``min_ops`` times).  Untimed after each operation, the
outputs are hashed; after the loop, the last outputs are checked by the numpy
oracle, and every operation counts as correct only if its outputs hash the
same as the checked ones.  Prints one JSON line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import clock


def digest(out: Path) -> str:
    """Hash of every output file except manifest.json, which records the
    machine-dependent ``--threads`` default."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def call(main, argv) -> tuple[int | str, str]:
    """Run the CLI once; returns its exit code (or the exception) and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an operation failure, counted below
            rc = f"{type(exc).__name__}: {exc}"
    return rc, err.getvalue()


def run(spec: dict) -> dict:
    from twistrank.cli import main

    out = Path(spec["out"])
    argv = spec["argv"] + ["--out", str(out)]
    trace = spec["trace"]
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()

    wall_s, nominal_s, traced_ops, digests, problems = [], [], [], [], []
    start = time.perf_counter()
    op = 0
    while time.perf_counter() - start < spec["seconds"] or op < spec["min_ops"]:
        traced = trace and op % 2 == 1
        if traced:
            tracer.install()
            try:
                (rc, err), _, nominal = clock.timed(tracer.operation, op, call, main, argv)
            finally:
                tracer.uninstall()
            traced_ops.append(op)
        else:
            (rc, err), wall, nominal = clock.timed(call, main, argv)
            wall_s.append(wall)
        nominal_s.append(nominal)
        if rc != 0:
            problems.append(f"op {op}: exit {rc!r}: {err.strip()[-500:]}")
            digests.append(None)
        else:
            digests.append(digest(out))
            if traced:
                tracer.counts[op]["io.bytes_written"] = sum(
                    p.stat().st_size for p in out.iterdir())
                if spec["walk"] is not None and tracer.last_graph is not None:
                    from twistrank.sampling import WalkConfig, path_count
                    tracer.counts[op]["sampling.path_count"] = path_count(
                        tracer.last_graph, WalkConfig(*spec["walk"]))
                tracer.last_graph = None
        op += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracle
    verified = None
    if digests[-1] is not None:
        found = oracle.check(spec["workload"], spec["oracle"], out)
        problems += [f"oracle: {p}" for p in found]
        if not found:
            verified = digests[-1]
    failed = sum(d is None or d != verified for d in digests)
    if verified is not None and failed:
        problems.append(f"{failed} operations wrote outputs that differ from the checked ones")

    result = {"attempted": len(digests), "failed": failed, "problems": problems[:20],
              "op_s": statistics.median(n for i, n in enumerate(nominal_s)
                                        if i not in traced_ops),
              "wall_op_s": statistics.median(wall_s),
              "op_times": wall_s,
              "peak_rss_mb": peak_rss_mb}
    if trace:
        by_time = sorted(traced_ops, key=tracer.op_seconds)
        mid = by_time[(len(by_time) - 1) // 2]
        layers = tracer.breakdown(mid)
        layers["trace.op_s"] = tracer.op_seconds(mid)
        # Each traced operation (odd) against the untraced one just before it,
        # in nominal seconds, so the machine's speed drift cancels.
        layers["trace.overhead_s"] = statistics.median(
            nominal_s[i] - nominal_s[i - 1] for i in traced_ops)
        layers["wall.op_s"] = result["wall_op_s"]
        result["layers"] = layers
        tracer.dump(spec["spans"])
    return result


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        print(json.dumps(run(json.load(fh))))
