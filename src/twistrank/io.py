"""File formats: edge lists, attribute tables, rankings, sweeps, manifests.

All text is UTF-8 with LF line endings; ``#`` starts a comment.  Scores are
printed with 12 significant digits.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import ParseError
from .analysis import SweepRow
from .centrality import CentralityRanking
from .graph import AttributedGraph, _id_array


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield line_no, line


def _loadtxt(path, dtype, ndmin: int) -> np.ndarray | None:
    """The rows of one ``np.loadtxt`` call, or ``None`` if it fails or warns,
    in which case a line loop gives the records or the error."""
    import warnings

    try:
        with warnings.catch_warnings():
            # numpy < 2 reads "1.0" as 1 with only a DeprecationWarning; an
            # empty file warns too.
            warnings.simplefilter("error")
            return np.loadtxt(path, dtype=dtype, comments="#", ndmin=ndmin, encoding="utf-8")
    except (ValueError, OSError, Warning):
        return None


def read_edge_list(path) -> np.ndarray:
    """Parse ``u w [sign]`` records into a ``(k, 3)`` array; the sign defaults to +1.

    A file of only 2-field or only 3-field lines of int64 values is parsed in
    one ``np.loadtxt`` call.  Anything else is read line by line with
    Python's ``int``, which gives the same records (``1_000`` included) or
    the :class:`ParseError` of the first bad line.  Ids beyond int64 make an
    object array of Python ints.
    """
    rows = _loadtxt(path, np.int64, ndmin=2)
    if rows is None or rows.shape[1] not in (2, 3):
        records = _read_edge_lines(path)
        try:
            return np.array(records, dtype=np.int64).reshape(-1, 3)
        except OverflowError:
            return np.array(records, dtype=object).reshape(-1, 3)
    if rows.shape[1] == 2:
        rows = np.column_stack((rows, np.ones(len(rows), dtype=np.int64)))
    return rows


def _read_edge_lines(path) -> list[tuple[int, int, int]]:
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


def read_attributes(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``u v1 v2 ... vp`` records, one node per line, into ``(ids, values)``.

    ``ids`` holds the node ids in file order and ``values`` their vectors as
    a ``(k, p)`` float array.  A file whose lines all have ``1 + p`` fields,
    an int64 id and ``p`` floats, is parsed in one ``np.loadtxt`` call, with
    ``p`` taken from the first data line.  Anything else is read line by line
    with Python's ``int`` and ``float``, which gives the same records or the
    :class:`ParseError` of the first bad line.  There, ids beyond int64 make
    an object array of Python ints, and lines of differing lengths a ``(k,)``
    object array of the per-line lists, which :func:`~twistrank.graph.load_graph`
    rejects as ragged.
    """
    from contextlib import closing

    try:
        with closing(_data_lines(path)) as lines:
            _, first = next(lines, (0, ""))
    except (ValueError, OSError):  # the line loop gives the error
        first = ""
    dim = len(first.split()) - 1
    if dim > 0:  # else there is no data, or a bad first line
        rows = _loadtxt(path, [("id", np.int64), ("values", np.float64, (dim,))], ndmin=1)
        if rows is not None:
            return rows["id"], rows["values"]
    nodes, vectors = _read_attribute_lines(path)
    ids = _id_array(nodes)
    try:
        values = np.array(vectors, dtype=float).reshape(len(vectors), -1 if vectors else 0)
    except ValueError:  # lines of differing lengths
        values = np.empty(len(vectors), dtype=object)
        values[:] = vectors
    return ids, values


def _read_attribute_lines(path) -> tuple[list[int], list[list[float]]]:
    nodes, vectors = [], []
    for line_no, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(path, line_no, f"expected 'u v1 ... vp', got {line!r}")
        try:
            node = int(tokens[0])
            vector = [float(t) for t in tokens[1:]]
        except ValueError:
            raise ParseError(path, line_no, f"non-numeric field in {line!r}") from None
        nodes.append(node)
        vectors.append(vector)
    return nodes, vectors


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

    A node may be listed again only with the same label.  A file of only
    2-field lines with int64 ids and each node listed once is parsed in one
    ``np.loadtxt`` call.  Anything else is read line by line with Python's
    ``int``, which gives the same labels or the :class:`ParseError` of the
    first bad line.
    """
    rows = _loadtxt(path, [("id", np.int64), ("label", object)], ndmin=1)
    if rows is not None:
        labels = dict(zip(rows["id"].tolist(), rows["label"].tolist()))
        if len(labels) == len(rows):  # else a node is listed again
            return labels
    return _read_partition_lines(path)


def _read_partition_lines(path) -> dict[int, str]:
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
    """``u w sign`` per edge with ``u < w``, in ascending order, in original ids."""
    u, w, signs = graph._upper_entries()
    # Each id is formatted once; the original ids ascend, so mapping keeps
    # u < w and the order.
    names = np.array([str(v) for v in graph.original_ids.tolist()], dtype=object)
    _write_text(path, _fill("%s %s %s\n", names[u].tolist(), names[w].tolist(), signs.tolist()))


def write_attributes(path, graph: AttributedGraph) -> None:
    """``u v1 ... vp`` per node, in original ids, each value as :func:`format_score`
    prints it; an empty file if the graph has no attribute dimension."""
    if graph.attr_dim == 0:
        _write_text(path, "")
        return
    # "%.12g" % x is the text of f"{x:.12g}", so the rows fill one template.
    row = "%s" + " %.12g" * graph.attr_dim + "\n"
    _write_text(path, _fill(row, graph.original_ids.tolist(), *graph.node_attrs.T.tolist()))


class RankingRows(NamedTuple):
    """A ranking in rank order, as its writers print it."""

    node_ids: list
    scores: np.ndarray
    texts: list[str]


def ranking_rows(ranking: CentralityRanking, original_ids=None) -> RankingRows:
    """Node ids and scores in rank order, and their texts for both
    :func:`write_ranking_csv` and :func:`write_ranking_json`.

    ``original_ids`` is an array of node ids, such as a graph's
    :attr:`~twistrank.graph.AttributedGraph.original_ids`; without it the
    compact ids are printed.

    Each distinct score (bit pattern, so that ``-0.0`` stays apart from
    ``0.0``) is formatted once.
    """
    order = ranking.order
    node_ids = order if original_ids is None else original_ids[order]
    scores = ranking.scores[order].astype(np.float64, copy=False)
    bits, inverse = np.unique(scores.view(np.int64), return_inverse=True)
    texts = np.array([format_score(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return RankingRows(node_ids.tolist(), scores, texts[inverse].tolist())


def write_ranking_csv(path, rows: RankingRows) -> None:
    ranks = range(1, len(rows.texts) + 1)
    body = _fill("%s,%s,%s\n", ranks, rows.node_ids, rows.texts)
    _write_text(path, "rank,node_id,score\n" + body)


def write_ranking_json(path, rows: RankingRows) -> None:
    """``{"ranking": [{"node_id", "rank", "score"}, ...]}`` with the bytes of
    ``json.dumps(indent=2, sort_keys=True)``.

    A score is the JSON number of its 12-digit text, or ``null`` if it is not
    finite.
    """
    if not rows.texts:
        _write_text(path, '{\n  "ranking": []\n}\n')
        return
    row = '    {\n      "node_id": %s,\n      "rank": %s,\n      "score": %s\n    },\n'
    ranks = range(1, len(rows.texts) + 1)
    body = _fill(row, rows.node_ids, ranks, _json_numbers(rows.scores, rows.texts))
    _write_text(path, '{\n  "ranking": [\n' + body[:-2] + "\n  ]\n}\n")


def _fill(row: str, *columns) -> str:
    """``row`` once per entry of the equally long columns, filled in one ``%``."""
    width, count = len(columns), len(columns[0])
    cells = [None] * (width * count)
    for i, column in enumerate(columns):
        cells[i::width] = column
    return (row * count) % tuple(cells)


def _json_numbers(values: np.ndarray, texts: list[str]) -> list[str]:
    """What ``json.dumps`` writes for ``float(text)``, for the 12-digit texts
    of ``values``; ``null`` where a value is not finite.

    Where 1e-300 <= |value| < 0.5 the text already is that number: it has a
    point or an exponent, and ``repr`` finds no shorter digits because a
    normal double carries more than 12 digits.  Only the rest are converted.
    """
    out = list(texts)
    size = np.abs(values)
    for i in np.flatnonzero(~((size >= 1e-300) & (size < 0.5))).tolist():
        out[i] = json.dumps(finite_or_none(float(texts[i])))
    return out


def sweep_rows(rows: list[SweepRow]) -> list[dict]:
    out = []
    for row in rows:
        out.append(
            {
                "gamma": finite_or_none(row.gamma),
                "theta": finite_or_none(row.theta),
                "jaccard_pos": finite_or_none(row.jaccard_pos),
                "jaccard_neg": finite_or_none(row.jaccard_neg),
                "jaccard_total": finite_or_none(row.jaccard_total),
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


def write_manifest(out_dir, command: str, parameters: dict) -> None:
    """``manifest.json``: everything needed to reproduce one CLI invocation bit-for-bit."""
    manifest = {"command": command, "version": __version__, "parameters": parameters}
    _write_text(Path(out_dir) / "manifest.json", _dumps(manifest))


def write_json(path, payload: dict) -> None:
    _write_text(path, _dumps(payload))


def finite_or_none(x: float | None) -> float | None:
    """``x``, or ``None`` (JSON ``null``) if it is NaN or infinite, which
    strict JSON (RFC 8259) cannot hold."""
    return None if x is None or not abs(x) < float("inf") else x


def _dumps(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\\n"``.

    allow_nan=False: a writer that leaves a NaN or infinity in fails loudly.
    Top-level values that are lists of plain ints, or lists of equally long
    lists of them, are filled from one template (:func:`_int_list_json`);
    every other value is left to ``json.dumps``.  Only dicts with str keys are
    entered, so that the keys sort and print as ``json.dumps`` sorts and
    prints them.
    """
    texts = {}
    if type(payload) is dict and all(type(k) is str for k in payload):
        texts = {k: _int_list_json(v) for k, v in payload.items()}
    if all(text is None for text in texts.values()):
        return _plain_json(payload) + "\n"
    # In key order, so that the first value json.dumps rejects is the one it
    # would reject in the whole payload.
    items = ((k, texts[k] or _plain_json(payload[k]).replace("\n", "\n  "))
             for k in sorted(payload))
    return "{" + ",".join(f"\n  {json.dumps(k)}: {text}" for k, text in items) + "\n}\n"


def _plain_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def _int_list_json(value) -> str | None:
    """The JSON of a non-empty list of plain ints, or of equally long non-empty
    lists of them, as a top-level dict value, from one ``%`` template; else
    ``None``.

    ``bool`` is not a plain int here, and numpy scalars are left to
    ``json.dumps``, which rejects them.
    """
    if type(value) is not list or not value:
        return None
    width = len(value[0]) if type(value[0]) is list else 0
    if width:
        if not all(type(row) is list and len(row) == width for row in value):
            return None
        cells = [x for row in value for x in row]
    else:
        cells = value
    if not all(type(x) is int for x in cells):
        return None
    item = "\n    %d"
    if width:
        item = "\n    [" + ",".join(["\n      %d"] * width) + "\n    ]"
    return "[" + ",".join([item] * len(value)) % tuple(cells) + "\n  ]"
