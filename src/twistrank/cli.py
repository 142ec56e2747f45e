"""Command-line surface: preprocess, rank, sweep, verify.

Every command writes its outputs plus a manifest.json into --out; re-running
the same invocation reproduces the outputs byte for byte.  Exit codes:
0 success, 1 usage error, 2 bad data or out of memory, 3 failed verification.

One parser serves every call: build_parser() builds it on first use and
keeps it for the process, and main dispatches through _COMMANDS, where each
command is declared once.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .errors import TwistrankError
from .graph import NegativeInjection, load_graph, preprocess
from .sampling import WalkConfig
from .analysis import sweep
from .centrality import TiltModel, measure_for, resolve_theta
from . import io as tio

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

# ``twistrank --help`` prints the docstring's first two paragraphs.
_DESCRIPTION = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (TwistrankError, ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError message names the allocation but not the cause.
        oom = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {oom}{exc}", file=sys.stderr)
        return EXIT_DATA


@functools.cache
def build_parser() -> _Parser:
    # Grammar only: main looks each handler up in _COMMANDS, so the parser
    # kept for the process holds none.
    parser = _Parser(prog="twistrank", description=_DESCRIPTION)
    parser.add_argument("--version", action="version", version=f"twistrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (summary, flags, _) in _COMMANDS.items():
        flags(sub.add_parser(name, help=summary))
    return parser


def _preprocess_flags(p):
    p.add_argument("--edges", required=True, help="raw edge-list file (u w [sign])")
    p.add_argument("--attrs", help="node-attribute file (u v1 ... vp)")
    p.add_argument("--min-degree", type=int, default=0,
                   help="iteratively drop nodes below this degree")
    p.add_argument("--inject-negative", type=int, default=0, metavar="COUNT",
                   help="number of negative edges to add between partitions")
    p.add_argument("--partition", help="partition-label file (u label), required when injecting")
    p.add_argument("--seed", type=int, default=0, help="seed for negative-edge injection")
    p.add_argument("--out", required=True, help="output directory")


def _rank_flags(p):
    _ranking_flags(p)
    p.add_argument("--theta", type=float, help="temperature (exclusive with --gamma)")
    p.add_argument("--gamma", type=float, help="target mean path measure (exclusive with --theta)")


def _sweep_flags(p):
    _ranking_flags(p)
    p.add_argument("--gammas", help="comma-separated gamma targets (exclusive with --thetas)")
    p.add_argument("--thetas", help="comma-separated temperatures (exclusive with --gammas)")
    p.add_argument("--k", type=int, default=None,
                   help="top-k size (default 100, or 250 for --measure ad)")


def _verify_flags(p):
    _input_flags(p)
    p.add_argument("--out", help="optional output directory for the JSON report")


def _input_flags(p):
    p.add_argument("--edges", required=True, help="edge-list file (u w [sign])")
    p.add_argument("--attrs", help="node-attribute file (u v1 ... vp)")
    p.add_argument("--ad-vector", action="append", metavar="FILE",
                   help="advertisement score-vector file; repeat to combine "
                        "advertisements by elementwise sum")


def _ranking_flags(p):
    _input_flags(p)
    p.add_argument("--beta1", type=float, default=1.0, help="weight of length-1 walks")
    p.add_argument("--beta2", type=float, default=0.0, help="weight of length-2 walks")
    p.add_argument("--measure", required=True, choices=["influence", "trust", "ad"],
                   help="centrality kind")
    p.add_argument("--out", required=True, help="output directory")


def _records(args):
    edges = tio.read_edge_list(args.edges)
    return edges, tio.read_attributes(args.attrs) if args.attrs else None


def _ranking_inputs(args):
    """The graph, walk mix, centrality kind and ad vector of ``rank`` and ``sweep``."""
    g = load_graph(*_records(args))
    walk = WalkConfig(args.beta1, args.beta2)
    ad = _ad_vector(args)
    if args.measure == "ad" and ad is None:
        raise TwistrankError("--measure ad requires --ad-vector")
    return g, walk, args.measure, ad


def _ad_vector(args):
    files = args.ad_vector
    if not files:
        return None
    combined = tio.read_vector(files[0])
    for extra in files[1:]:
        vec = tio.read_vector(extra)
        if vec.size != combined.size:
            raise TwistrankError(
                f"advertisement vectors disagree in dimension: {combined.size} vs {vec.size}"
            )
        combined = combined + vec
    return combined


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_preprocess(args) -> int:
    # The count and seed are checked before any file is read, with or without injection.
    NegativeInjection.check(args.inject_negative, args.seed)
    if args.inject_negative and not args.partition:
        raise TwistrankError("--inject-negative requires --partition")
    edges, attrs = _records(args)
    inject = None
    if args.inject_negative:
        inject = NegativeInjection(
            count=args.inject_negative,
            seed=args.seed,
            partition=tio.read_partition(args.partition),
        )
    result = preprocess(edges, min_degree=args.min_degree, inject=inject, attr_records=attrs)
    out = _out_dir(args)
    tio.write_edge_list(out / "edges.txt", result.graph)
    if attrs is not None:
        tio.write_attributes(out / "attrs.txt", result.graph)
    # The report's own fields: write_json prints its arrays as to_dict()'s lists.
    tio.write_json(out / "report.json", vars(result.report))
    tio.write_manifest(out, "preprocess", _manifest_params(args))
    g = result.graph
    m_neg = int((g.pairs()[2] < 0).sum())
    print(
        f"preprocessed graph: n={g.n} m={g.m} "
        f"(m+={g.m - m_neg}, m-={m_neg}); removed {len(result.report.removed_nodes)} nodes"
    )
    return EXIT_OK


def cmd_rank(args) -> int:
    if (args.theta is None) == (args.gamma is None):
        raise TwistrankError("exactly one of --theta and --gamma must be given")
    g, walk, kind, ad = _ranking_inputs(args)
    model = TiltModel(g, measure_for(kind, ad), walk)
    theta = resolve_theta(model, theta=args.theta, gamma=args.gamma)
    ranking = model.ranking(theta)
    out = _out_dir(args)
    rows = tio.ranking_rows(ranking, g.original_ids)
    tio.write_ranking_csv(out / "ranking.csv", rows)
    tio.write_ranking_json(out / "ranking.json", rows)
    params = _manifest_params(args)
    params["resolved_theta"] = float(tio.format_score(theta))
    tio.write_manifest(out, "rank", params)
    print(f"resolved theta = {tio.format_score(theta)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if (args.gammas is None) == (args.thetas is None):
        raise TwistrankError("exactly one of --gammas and --thetas must be given")
    g, walk, kind, ad = _ranking_inputs(args)
    mode = "gamma" if args.gammas is not None else "theta"
    raw = args.gammas if mode == "gamma" else args.thetas
    try:
        values = [float(v) for v in raw.split(",") if v.strip()] if raw.strip() else []
    except ValueError:
        raise TwistrankError(f"could not parse target list {raw!r}") from None
    k = args.k if args.k is not None else (250 if kind == "ad" else 100)
    rows = sweep(g, kind, mode, values, walk=walk, k=k, ad_vector=ad)
    out = _out_dir(args)
    tio.write_sweep_csv(out / "sweep.csv", rows)
    tio.write_sweep_json(out / "sweep.json", rows)
    params = _manifest_params(args)
    params["k"] = k
    tio.write_manifest(out, "sweep", params)
    failures = [row for row in rows if row.error is not None]
    for row in failures:
        target = row.gamma if mode == "gamma" else row.theta
        print(f"target {target}: {row.error}", file=sys.stderr)
    print(f"swept {len(rows)} targets, {len(failures)} failed")
    return EXIT_DATA if failures else EXIT_OK


def cmd_verify(args) -> int:
    # Imported here, so that the other commands do not load the oracle checks.
    from .verify import run_checks

    g = load_graph(*_records(args))
    results = run_checks(g, ad_vector=_ad_vector(args))
    for result in results:
        print(result.line())
    if args.out:
        out = _out_dir(args)
        checks = [{**asdict(r), "max_error": tio.finite_or_none(r.max_error)} for r in results]
        tio.write_json(out / "verify.json", {"checks": checks})
        tio.write_manifest(out, "verify", _manifest_params(args))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def _manifest_params(args) -> dict:
    # The output directory is where results land, not an input to them; keep
    # it out so reruns into different directories stay byte-identical.
    skip = {"command", "out"}
    params = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        params[key] = value
    return params


# Every command once, in ``twistrank --help`` order: its name, its help line
# there, the function that adds its flags, and its handler.
_COMMANDS = {
    "preprocess": ("clean an edge list into a validated graph", _preprocess_flags,
                   cmd_preprocess),
    "rank": ("compute a centrality ranking", _rank_flags, cmd_rank),
    "sweep": ("rank over a grid of targets and compare to degree baselines", _sweep_flags,
              cmd_sweep),
    "verify": ("run the oracle cross-checks on a graph", _verify_flags, cmd_verify),
}


if __name__ == "__main__":
    raise SystemExit(main())
