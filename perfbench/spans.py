"""Span tracing of twistrank's public functions, from outside the package.

``Tracer.install`` rebinds each traced function at every module attribute
that refers to it (``from .graph import stats`` makes a binding in the
importing module too), so the CLI and the library resolve the wrapper.
``Tracer.uninstall`` puts the originals back.  Spans stay in memory.

A span's self time is its duration minus the durations of its child spans;
calls are synchronous, so children never overlap.  Per layer, the self times
plus the root's self time (``cli.self_s``) add up to the operation's time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Layer bucket -> (module, function) pairs traced into it.  ``verify`` is
# left out: it is the enumeration oracle, not a production path.
SPANS = {
    "io.read": [("twistrank.io", f) for f in
                ("read_edge_list", "read_attributes", "read_vector", "read_partition")],
    "io.write": [("twistrank.io", f) for f in
                 ("write_edge_list", "write_attributes", "write_ranking_csv",
                  "write_ranking_json", "write_sweep_csv", "write_sweep_json",
                  "write_json", "write_manifest")],
    "graph.load": [("twistrank.graph", "load_graph")],
    "graph.stats": [("twistrank.graph", "stats")],
    "graph.preprocess": [("twistrank.graph", "preprocess")],
    "twisting.solve_closed": [("twistrank.twisting", "solve_theta_closed")],
    "twisting.solve_numeric": [("twistrank.twisting", "solve_theta_numeric")],
    "centrality.resolve_theta": [("twistrank.centrality", "resolve_theta")],
    "centrality.bivariate": [("twistrank.centrality", "bivariate")],
    "centrality.marginal": [("twistrank.centrality", "marginal")],
    "analysis.sweep": [("twistrank.analysis", "sweep")],
}
ROOT = "cli"

# Per-layer metric names, in report order.  Every ``_s`` metric is a self
# time in seconds; the rest are counts per operation.
TIME_METRICS = [f"{bucket}_s" for bucket in SPANS] + ["cli.self_s"]
COUNT_METRICS = [
    "io.records_read", "io.bytes_written", "graph.stats_calls",
    "sampling.paths_enumerated", "sampling.path_count",
    "twisting.solve_closed_calls", "twisting.solve_numeric_calls",
    "centrality.resolve_theta_calls", "analysis.targets", "analysis.target_failures",
]
CALL_COUNTS = {
    "graph.stats_calls": "graph.stats",
    "twisting.solve_closed_calls": "twisting.solve_closed",
    "twisting.solve_numeric_calls": "twisting.solve_numeric",
    "centrality.resolve_theta_calls": "centrality.resolve_theta",
}


class Tracer:
    """Collects spans ``[name, op, parent, start, end]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []
        self.last_graph = None

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> list:
        span = [name, self._op, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def operation(self, op: int, fn, *args):
        """Run ``fn(*args)`` as operation ``op`` under a root span."""
        self._op = op
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _count(self, key: str, value: float) -> None:
        self.counts[self._op][key] += value

    # -- wrapping ------------------------------------------------------
    def _wrap(self, bucket: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(bucket)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if bucket == "graph.load":
                tracer.last_graph = result
            elif bucket == "io.read":
                tracer._count("io.records_read", len(result))
            elif bucket == "analysis.sweep":
                tracer._count("analysis.targets", len(result))
                tracer._count("analysis.target_failures",
                              sum(row.error is not None for row in result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_enumerate(self, fn):
        tracer = self

        # enumerate_paths checks its budget before returning a generator;
        # calling it eagerly here keeps that behaviour.
        def counted(*args, **kwargs):
            return tracer._count_paths(fn(*args, **kwargs))

        counted.__wrapped__ = fn
        return counted

    def _count_paths(self, paths):
        count = 0
        try:
            for path in paths:
                count += 1
                yield path
        finally:
            self._count("sampling.paths_enumerated", count)

    def install(self) -> None:
        import twistrank.cli  # noqa: F401  (loads every module the CLI uses)

        targets = {}
        for bucket, funcs in SPANS.items():
            for mod, name in funcs:
                fn = getattr(sys.modules[mod], name)
                targets[id(fn)] = (fn, self._wrap(bucket, fn))
        fn = sys.modules["twistrank.sampling"].enumerate_paths
        targets[id(fn)] = (fn, self._wrap_enumerate(fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twistrank" or mod_name.startswith("twistrank.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- reduction -----------------------------------------------------
    def breakdown(self, op: int) -> dict[str, float]:
        """Self time per layer, call counts and counters of operation ``op``."""
        idx = [i for i, s in enumerate(self.spans) if s[1] == op]
        child_time = defaultdict(float)
        for i in idx:
            name, _, parent, start, end = self.spans[i]
            if parent is not None:
                child_time[parent] += end - start
        out = {metric: 0.0 for metric in TIME_METRICS + COUNT_METRICS}
        calls = defaultdict(int)
        for i in idx:
            name, _, _, start, end = self.spans[i]
            key = "cli.self_s" if name == ROOT else f"{name}_s"
            out[key] += (end - start) - child_time[i]
            calls[name] += 1
        for metric, bucket in CALL_COUNTS.items():
            out[metric] = float(calls[bucket])
        for key, value in self.counts[op].items():
            out[key] = float(value)
        return out

    def op_seconds(self, op: int) -> float:
        for name, span_op, _, start, end in self.spans:
            if span_op == op and name == ROOT:
                return end - start
        raise KeyError(op)

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\top\tparent\tstart\tend\n")
            for i, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{op}\t{'' if parent is None else parent}"
                         f"\t{start!r}\t{end!r}\n")
