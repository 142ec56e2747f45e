"""File formats: edge lists, attribute tables, rankings, sweeps, manifests.

All text is UTF-8 with LF line endings; ``#`` starts a comment.  Scores are
printed with 12 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .analysis import SweepRow
from .centrality import CentralityRanking
from .graph import AttributedGraph

TOOL_VERSION = "0.1.0"


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield line_no, line


def read_edge_list(path) -> list[tuple[int, int, int]]:
    """Parse ``u w [sign]`` records; the sign defaults to +1."""
    records = []
    for line_no, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError(path, line_no, f"expected 'u w [sign]', got {line!r}")
        try:
            u, w = int(tokens[0]), int(tokens[1])
            sign = int(tokens[2]) if len(tokens) == 3 else 1
        except ValueError:
            raise ParseError(path, line_no, f"non-integer field in {line!r}") from None
        records.append((u, w, sign))
    return records


def read_attributes(path) -> list[tuple[int, list[float]]]:
    """Parse ``u v1 v2 ... vp`` records, one node per line."""
    records = []
    for line_no, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(path, line_no, f"expected 'u v1 ... vp', got {line!r}")
        try:
            node = int(tokens[0])
            vector = [float(t) for t in tokens[1:]]
        except ValueError:
            raise ParseError(path, line_no, f"non-numeric field in {line!r}") from None
        records.append((node, vector))
    return records


def read_vector(path) -> np.ndarray:
    """Parse a single whitespace-separated vector of reals."""
    values = []
    for line_no, line in _data_lines(path):
        try:
            values.extend(float(t) for t in line.split())
        except ValueError:
            raise ParseError(path, line_no, f"non-numeric field in {line!r}") from None
    if not values:
        raise ParseError(path, 0, "vector file contains no values")
    return np.asarray(values, dtype=float)


def read_partition(path) -> dict[int, str]:
    """Parse ``u label`` records mapping nodes to partition labels.

    A node may be listed again only with the same label.
    """
    labels: dict[int, str] = {}
    for line_no, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(path, line_no, f"expected 'u label', got {line!r}")
        try:
            node = int(tokens[0])
        except ValueError:
            raise ParseError(path, line_no, f"non-integer node id in {line!r}") from None
        label = labels.setdefault(node, tokens[1])
        if label != tokens[1]:
            raise ParseError(
                path, line_no, f"node {node} has label {tokens[1]!r} here but {label!r} earlier"
            )
    return labels


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def format_score(x: float) -> str:
    return f"{x:.12g}"


def write_edge_list(path, graph: AttributedGraph) -> None:
    lines = [f"{u} {w} {s}" for u, w, s in graph.edge_list(original_ids=True)]
    _write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def write_attributes(path, graph: AttributedGraph) -> None:
    lines = [
        f"{node} " + " ".join(format_score(v) for v in vec)
        for node, vec in graph.attr_records(original_ids=True)
    ]
    _write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def ranking_rows(ranking: CentralityRanking, original_ids=None) -> list[dict]:
    ids = original_ids if original_ids is not None else range(ranking.scores.size)
    ids = list(ids)
    return [
        {"rank": pos + 1, "node_id": ids[int(u)], "score": float(format_score(ranking.scores[u]))}
        for pos, u in enumerate(ranking.order)
    ]


def write_ranking_csv(path, ranking: CentralityRanking, original_ids=None) -> None:
    ids = list(original_ids) if original_ids is not None else range(ranking.scores.size)
    lines = ["rank,node_id,score"]
    lines += [
        f"{pos},{ids[u]},{format_score(ranking.scores[u])}"
        for pos, u in enumerate(ranking.order.tolist(), start=1)
    ]
    _write_text(path, "\n".join(lines) + "\n")


def write_ranking_json(path, ranking: CentralityRanking, original_ids=None) -> None:
    _write_text(path, _dumps({"ranking": ranking_rows(ranking, original_ids)}))


def sweep_rows(rows: list[SweepRow]) -> list[dict]:
    out = []
    for row in rows:
        out.append(
            {
                "gamma": row.gamma,
                "theta": row.theta,
                "jaccard_pos": row.jaccard_pos,
                "jaccard_neg": row.jaccard_neg,
                "jaccard_total": row.jaccard_total,
                "error": row.error,
            }
        )
    return out


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    def cell(value) -> str:
        return "" if value is None else format_score(value)

    lines = ["gamma,theta,jaccard_pos,jaccard_neg,jaccard_total"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    cell(row.gamma),
                    cell(row.theta) if row.error is None else "",
                    cell(row.jaccard_pos),
                    cell(row.jaccard_neg),
                    cell(row.jaccard_total),
                ]
            )
        )
    _write_text(path, "\n".join(lines) + "\n")


def write_sweep_json(path, rows: list[SweepRow]) -> None:
    _write_text(path, _dumps({"sweep": sweep_rows(rows)}))


@dataclass
class RunManifest:
    """Everything needed to reproduce one CLI invocation bit-for-bit."""

    command: str
    parameters: dict
    version: str = TOOL_VERSION

    def to_dict(self) -> dict:
        return {"command": self.command, "version": self.version, "parameters": self.parameters}


def write_manifest(out_dir, manifest: RunManifest) -> None:
    _write_text(Path(out_dir) / "manifest.json", _dumps(manifest.to_dict()))


def write_json(path, payload: dict) -> None:
    _write_text(path, _dumps(payload))


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
