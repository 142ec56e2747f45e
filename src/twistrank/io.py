"""File formats: edge lists, attribute tables, rankings, sweeps, manifests.

All text is UTF-8 with LF line endings; ``#`` starts a comment.  Scores are
printed with 12 significant digits.

The bulk writers (edge lists, attribute tables, both ranking files) render
their rows with one block renderer, :func:`_write_rows`.  Each column is a
NUL-padded ``(n, width)`` uint8 block of ASCII texts: vectorised base-10
digits for nonnegative integers, or rows gathered by index from a table of
distinct texts (scores, attribute values, signs, ids beyond int64).  A
fixed number of rows at a time, the columns and the row template's literal
pieces are laid side by side, and the block's non-NUL bytes are written in
order.  Invariant: no text or literal holds a NUL byte, so dropping the
padding leaves exactly the per-line text.
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
    # Each id's text is made once; the original ids ascend, so mapping keeps
    # u < w and the order.
    names = _int_texts(graph.original_ids)
    row = [_Column(names, u), " ", _Column(names, w), " ", _int8_column(signs), "\n"]
    _write_rows(path, row, u.size)


def write_attributes(path, graph: AttributedGraph) -> None:
    """``u v1 ... vp`` per node, in original ids, each value as :func:`format_score`
    prints it; an empty file if the graph has no attribute dimension."""
    if graph.attr_dim == 0:
        _write_text(path, "")
        return
    # One table of " v" texts for all p columns; each row gathers its p texts
    # side by side.
    _, texts, index = _distinct_texts(graph.node_attrs, lambda x: " " + format_score(x))
    row = [_Column(_int_texts(graph.original_ids)), _Column(texts, index), "\n"]
    _write_rows(path, row, graph.n)


class RankingRows(NamedTuple):
    """A ranking in rank order, as its writers print it.

    ``ranks`` and ``node_ids`` are text blocks (see :func:`_write_rows`), one
    row per rank.  The score of rank ``i + 1`` is ``scores[index[i]]``:
    ``scores`` holds each distinct bit pattern once, and row ``j`` of the
    text block ``texts`` is the :func:`format_score` text of ``scores[j]``.
    """

    ranks: np.ndarray
    node_ids: np.ndarray
    scores: np.ndarray
    texts: np.ndarray
    index: np.ndarray


def ranking_rows(ranking: CentralityRanking, original_ids=None) -> RankingRows:
    """Ranks, node ids and scores in rank order, shared by
    :func:`write_ranking_csv` and :func:`write_ranking_json`.

    ``original_ids`` is an array of node ids, such as a graph's
    :attr:`~twistrank.graph.AttributedGraph.original_ids`; without it the
    compact ids are printed.

    Each distinct score (bit pattern, so that ``-0.0`` stays apart from
    ``0.0``) is formatted once.
    """
    order = ranking.order
    node_ids = order if original_ids is None else original_ids[order]
    scores, texts, index = _distinct_texts(ranking.scores[order], format_score)
    ranks = _int_texts(np.arange(1, order.size + 1, dtype=np.int64))
    return RankingRows(ranks, _int_texts(node_ids), scores, texts, index)


def write_ranking_csv(path, rows: RankingRows) -> None:
    score = _Column(rows.texts, rows.index)
    row = [_Column(rows.ranks), ",", _Column(rows.node_ids), ",", score, "\n"]
    _write_rows(path, row, rows.index.size, head="rank,node_id,score\n")


def write_ranking_json(path, rows: RankingRows) -> None:
    """``{"ranking": [{"node_id", "rank", "score"}, ...]}`` with the bytes of
    ``json.dumps(indent=2, sort_keys=True)``.

    A score is the JSON number of its 12-digit text, or ``null`` if it is not
    finite.
    """
    if not rows.index.size:
        _write_text(path, '{\n  "ranking": []\n}\n')
        return
    score = _Column(_json_numbers(rows.scores, rows.texts), rows.index)
    row = ['    {\n      "node_id": ', _Column(rows.node_ids), ',\n      "rank": ',
           _Column(rows.ranks), ',\n      "score": ', score, "\n    },\n"]
    # The last row drops its ",\n".
    _write_rows(path, row, rows.index.size, head='{\n  "ranking": [\n', trim=2,
                tail="\n  ]\n}\n")


# -- the block renderer (see the module docstring) --------------------------------

# Rows per rendered block; it bounds a writer's memory, whatever the row count.
_BLOCK_ROWS = 1 << 14


class _Column(NamedTuple):
    """Row ``i`` is ``texts[index[i]]``, or ``texts[i]`` without an index.

    A 2-D ``(n, p)`` index puts ``p`` texts side by side in each row.
    """

    texts: np.ndarray
    index: np.ndarray | None = None


def _write_rows(path, row: list, count: int, head: str = "", tail: str = "",
                trim: int = 0) -> None:
    """Write ``head``, ``count`` rows of the template ``row``, then ``tail``.

    ``row`` lists the row's pieces in order: ``str`` literals and
    :class:`_Column` s with at least ``count`` rows.  The literals are placed
    in a block once, the columns' texts each block of rows; the last
    ``trim`` bytes of the rows are left out.
    """
    pieces, offset = [], 0
    for piece in row:
        if isinstance(piece, str):
            piece = np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
            width = piece.size
        else:
            # Each text as one opaque item, so that a gather moves whole texts.
            texts = np.ascontiguousarray(piece.texts)
            items = texts.view(f"V{texts.shape[1]}")[:, 0]
            per_row = 1 if piece.index is None or piece.index.ndim == 1 else piece.index.shape[1]
            piece = (items, piece.index)
            width = items.itemsize * per_row
        pieces.append((piece, slice(offset, offset + width)))
        offset += width
    block = np.empty((min(count, _BLOCK_ROWS), offset), dtype=np.uint8)
    columns = []
    for piece, cols in pieces:
        if isinstance(piece, np.ndarray):
            block[:, cols] = piece
        else:
            items, index = piece
            columns.append((items, index, block[:, cols].view(items.dtype)))
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        for start in range(0, count, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, count)
            size = stop - start
            for items, index, slot in columns:
                texts = items[start:stop] if index is None else items[index[start:stop]]
                slot[:size] = texts.reshape(size, -1)
            flat = block[:size].ravel()
            text = flat[flat != 0]
            fh.write(text[: text.size - trim] if stop == count else text)
        fh.write(tail.encode("ascii"))


def _text_block(texts: list[str]) -> np.ndarray:
    """ASCII ``texts`` as the rows of a NUL-padded ``(k, width)`` uint8 block."""
    block = np.array(texts, dtype=bytes)
    return block.view(np.uint8).reshape(len(texts), block.dtype.itemsize)


def _int_texts(values: np.ndarray) -> np.ndarray:
    """The base-10 texts of an int array as a text block.

    Nonnegative integer values get their digits in vectorised passes, one per
    decimal place, right-aligned behind NULs.  Anything else (a negative id,
    or Python ints beyond int64 in an object array) is printed by ``str``.
    """
    if values.dtype.kind not in "iu" or (values.size and values.min() < 0):
        return _text_block([str(v) for v in values.tolist()])
    top = int(values.max()) if values.size else 0
    width = len(str(top))
    rest = values.astype(np.uint32 if top < 2**32 else np.uint64)
    block = np.empty((values.size, width), dtype=np.uint8)
    for j in range(width - 1, -1, -1):
        quotient = rest // 10
        digit = (rest - quotient * 10).astype(np.uint8)
        digit += ord("0")
        if j < width - 1:  # a NUL before the leading digit
            digit *= rest > 0
        block[:, j] = digit
        rest = quotient
    return block


def _int8_column(values: np.ndarray) -> _Column:
    """The texts of int8 values, gathered by their bytes from a table of all 256."""
    table = _text_block([str(b - 256 if b > 127 else b) for b in range(256)])
    return _Column(table, values.astype(np.int8, copy=False).view(np.uint8))


def _distinct_texts(values: np.ndarray, fmt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct float64 bit pattern in ``values``, a text block of their
    ``fmt`` texts, and, in ``values``' shape, the index of each value's text."""
    bits, index = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.int64),
                            return_inverse=True)
    distinct = bits.view(np.float64)
    return distinct, _text_block(list(map(fmt, distinct.tolist()))), index.reshape(values.shape)


def _json_numbers(values: np.ndarray, texts: np.ndarray) -> np.ndarray:
    """What ``json.dumps`` writes for ``float(text)``, for the text block of
    the 12-digit texts of ``values``; ``null`` where a value is not finite.

    Where 1e-300 <= |value| < 0.5 the text already is that number: it has a
    point or an exponent, and ``repr`` finds no shorter digits because a
    normal double carries more than 12 digits.  Only the rest are converted.
    """
    size = np.abs(values)
    redo = np.flatnonzero(~((size >= 1e-300) & (size < 0.5)))
    if not redo.size:
        return texts
    numbers = _text_block([json.dumps(finite_or_none(float(texts[i].tobytes().rstrip(b"\0"))))
                           for i in redo.tolist()])
    out = np.zeros((len(texts), max(texts.shape[1], numbers.shape[1])), dtype=np.uint8)
    out[:, : texts.shape[1]] = texts
    out[redo] = 0
    out[redo, : numbers.shape[1]] = numbers
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
