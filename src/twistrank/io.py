"""File formats: edge lists, attribute tables, rankings, sweeps, manifests.

All text is UTF-8 with LF line endings; ``#`` starts a comment.  Scores are
printed with 12 significant digits.

Each reader parses a clean file in one ``np.loadtxt`` call and any other
file through one line loop, :func:`_line_records`, which owns the data
lines, the field-count check and both forms of :class:`ParseError`; a
reader hands it only its grammar.

The bulk writers (edge lists, attribute tables, both ranking files, the
integer arrays of a JSON payload such as the preprocessing report) render
their rows with one block renderer, :func:`_row_blocks`.  Each column is one
text per row, in a NUL-padded ``(n, width)`` uint8 block: vectorised base-10
digits for nonnegative integers, or texts gathered by a 1-D index from a
table of distinct texts (scores, attribute values, signs, ids beyond int64).  A
fixed number of rows at a time, the columns and the row template's literal
pieces are laid side by side, and the block's non-NUL bytes are written in
order; the digits of an integer array's column are made one block at a
time too.  Invariant: no text or literal holds a NUL byte, so dropping the
padding leaves exactly the per-line text.

Every writer rewrites its file in place (:func:`_rewrite`): an existing
file is opened without truncation, overwritten from its first byte, and
cut at the end of what was written.  The file keeps its inode, mode and
symlink target, and its bytes are those a fresh file would get.  A process
killed between its first write and the cut leaves the new bytes over the
old file's tail, where truncating first would leave the new bytes alone.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple

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


def _line_records(path, shape: str, fields, bad: str, parse) -> Iterator[tuple[int, object]]:
    """``(line_no, parse(tokens))`` for each data line of ``path``, in order.

    ``fields`` tells whether a line may have its count of tokens (``None``:
    any count); a line it refuses raises ``expected '<shape>', got '<line>'``,
    and one on which ``parse`` raises ``ValueError`` ``<bad> in '<line>'``.
    """
    for line_no, line in _data_lines(path):
        tokens = line.split()
        if fields is not None and not fields(len(tokens)):
            raise ParseError(path, line_no, f"expected '{shape}', got {line!r}")
        try:
            record = parse(tokens)
        except ValueError:
            raise ParseError(path, line_no, f"{bad} in {line!r}") from None
        yield line_no, record


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
        records = _line_records(path, "u w [sign]", lambda k: k in (2, 3), "non-integer field",
                                lambda t: (int(t[0]), int(t[1]), int(t[2]) if len(t) == 3 else 1))
        return _id_array([rec for _, rec in records]).reshape(-1, 3)
    if rows.shape[1] == 2:
        rows = np.column_stack((rows, np.ones(len(rows), dtype=np.int64)))
    return rows


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
    records = [rec for _, rec in _line_records(
        path, "u v1 ... vp", lambda k: k >= 2, "non-numeric field",
        lambda t: (int(t[0]), [float(v) for v in t[1:]]))]
    ids = _id_array([node for node, _ in records])
    vectors = [vector for _, vector in records]
    try:
        values = np.array(vectors, dtype=float).reshape(len(vectors), -1 if vectors else 0)
    except ValueError:  # lines of differing lengths
        values = np.empty(len(vectors), dtype=object)
        values[:] = vectors
    return ids, values


def read_vector(path) -> np.ndarray:
    """Parse a single whitespace-separated vector of reals."""
    lines = _line_records(path, "", None, "non-numeric field", lambda t: [float(v) for v in t])
    values = [v for _, line in lines for v in line]
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
    labels = {}
    for line_no, (node, label) in _line_records(path, "u label", lambda k: k == 2,
                                                "non-integer node id", lambda t: (int(t[0]), t[1])):
        known = labels.setdefault(node, label)
        if known != label:
            raise ParseError(
                path, line_no, f"node {node} has label {label!r} here but {known!r} earlier"
            )
    return labels


@contextmanager
def _rewrite(path):
    """A binary file object that writes ``path`` from its first byte; on
    exit, failed or not, a regular file is cut at the end of what was
    written.  Anything else (``/dev/null``, a FIFO) is written as is."""
    # ``open``'s own flags hold O_TRUNC, which these leave out: refilling a
    # file in place costs less than emptying it first.
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(path, "wb", opener=lambda name, _: os.open(name, flags, 0o666)) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _write_text(path, text: str) -> None:
    with _rewrite(path) as fh:
        fh.write(text.encode("utf-8"))


def format_score(x: float) -> str:
    return f"{x:.12g}"


def write_edge_list(path, graph: AttributedGraph) -> None:
    """``u w sign`` per edge with ``u < w``, in ascending order, in original ids."""
    u, w, signs = graph.pairs()
    # Each id's text is made once; the original ids ascend, so mapping keeps
    # u < w and the order.
    names = _int_texts(graph.original_ids)
    row = [_Column(names, u), " ", _Column(names, w), " ", _sign_column(signs), "\n"]
    _write_rows(path, row, u.size)


def write_attributes(path, graph: AttributedGraph) -> None:
    """``u v1 ... vp`` per node, in original ids, each value as :func:`format_score`
    prints it; an empty file if the graph has no attribute dimension."""
    if graph.attr_dim == 0:
        _write_text(path, "")
        return
    # One table of value texts serves all p columns; column j gathers its
    # texts by index[:, j].
    _, texts, index = _distinct_texts(graph.node_attrs, format_score)
    values = chain.from_iterable((" ", _Column(texts, column)) for column in index.T)
    _write_rows(path, [_Column(_int_texts(graph.original_ids)), *values, "\n"], graph.n)


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
    """One text per row: row ``i`` is ``texts[index[i]]`` with a 1-D index,
    or ``texts[i]`` without one."""

    texts: np.ndarray
    index: np.ndarray | None = None


class _IntColumn(NamedTuple):
    """Row ``i`` is the base-10 text of ``values[i]``, made by
    :func:`_int_texts` a block of rows at a time."""

    values: np.ndarray


def _write_rows(path, row: list, count: int, head: str = "", tail: str = "",
                trim: int = 0) -> None:
    """Write ``head``, ``count`` rows of the template ``row``, then ``tail``."""
    with _rewrite(path) as fh:
        fh.write(head.encode("ascii"))
        fh.writelines(_row_blocks(row, count, trim))
        fh.write(tail.encode("ascii"))


def _row_blocks(row: list, count: int, trim: int = 0) -> Iterator[np.ndarray]:
    """The bytes of ``count`` rows of the template ``row``, a block of rows at
    a time.

    ``row`` lists the row's pieces in order: ``str`` literals, and
    :class:`_Column` s and :class:`_IntColumn` s with at least ``count``
    rows.  The literals are placed in a block once, the columns' texts each
    block of rows; the last ``trim`` bytes of the rows are left out.
    """
    pieces, offset = [], 0
    for piece in row:
        if isinstance(piece, str):
            piece = np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
            width = piece.size
        elif isinstance(piece, _IntColumn):
            # The longest text is that of the least or the greatest value.
            values = piece.values
            width = max(len(str(values.min())), len(str(values.max()))) if values.size else 0
        else:
            # Each text as one opaque item, so that a gather moves whole texts.
            texts = np.ascontiguousarray(piece.texts)
            piece = _Column(texts.view(f"V{texts.shape[1]}")[:, 0], piece.index)
            width = texts.shape[1]
        pieces.append((piece, slice(offset, offset + width)))
        offset += width
    block = np.empty((min(count, _BLOCK_ROWS), offset), dtype=np.uint8)
    columns = []
    for piece, cols in pieces:
        if isinstance(piece, np.ndarray):
            block[:, cols] = piece
        elif isinstance(piece, _IntColumn):
            columns.append((piece, block[:, cols]))
        else:
            columns.append((piece, block[:, cols].view(piece.texts.dtype)[:, 0]))
    for start in range(0, count, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, count)
        size = stop - start
        for piece, slot in columns:
            if isinstance(piece, _IntColumn):
                # A block's texts may be narrower than the column: NULs pad them.
                texts = _int_texts(piece.values[start:stop])
                slot[:size, : texts.shape[1]] = texts
                slot[:size, texts.shape[1]:] = 0
            else:
                items, index = piece
                texts = items[start:stop] if index is None else items[index[start:stop]]
                slot[:size] = texts
        flat = block[:size].ravel()
        text = flat[flat != 0]
        yield text[: text.size - trim] if stop == count else text


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


def _sign_column(signs: np.ndarray) -> _Column:
    """The texts of ±1 signs, gathered from the two texts ``-1`` and ``1``."""
    return _Column(_text_block(["-1", "1"]), (signs > 0).view(np.uint8))


def _distinct_texts(values: np.ndarray, fmt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct float64 bit pattern in ``values``, a text block of their
    ``fmt`` texts, and, in ``values``' shape, the index of each value's text.
    Only the first value of each run of equal bits is sorted."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.int64)
    head = np.ones(bits.size, dtype=bool)
    head[1:] = bits[1:] != bits[:-1]
    # A pattern's runs may recur: -0.0 between runs of 0.0, NaN payloads.
    distinct, inverse = np.unique(bits[head], return_inverse=True)
    distinct = distinct.view(np.float64)
    index = inverse[np.cumsum(head) - 1].reshape(values.shape)
    return distinct, _text_block(list(map(fmt, distinct.tolist()))), index


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
                # The number of its 12-digit text, as in sweep.csv, so that
                # the file does not hang on the last bits of a solve.
                "theta": None if row.theta is None
                else finite_or_none(float(format_score(row.theta))),
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
    write_json(path, {"sweep": sweep_rows(rows)})


def write_manifest(out_dir, command: str, parameters: dict) -> None:
    """``manifest.json``: everything needed to reproduce one CLI invocation bit-for-bit."""
    manifest = {"command": command, "version": __version__, "parameters": parameters}
    write_json(Path(out_dir) / "manifest.json", manifest)


def write_json(path, payload: dict) -> None:
    """``payload`` with the bytes of :func:`_dumps`; integer arrays among its
    values are written a block of rows at a time."""
    chunks = _json_chunks(payload)
    with _rewrite(path) as fh:
        fh.writelines(chunks)


def finite_or_none(x: float | None) -> float | None:
    """``x``, or ``None`` (JSON ``null``) if it is NaN or infinite, which
    strict JSON (RFC 8259) cannot hold."""
    return None if x is None or not abs(x) < float("inf") else x


def _dumps(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\\n"``,
    where an integer array value is printed as its ``tolist()``.

    allow_nan=False: a writer that leaves a NaN or infinity in fails loudly.
    """
    return b"".join(_json_chunks(payload)).decode("utf-8")


def _json_chunks(payload: dict) -> Iterator:
    """The bytes of :func:`_dumps`, in chunks.

    A top-level value that is a 1-D or 2-D array of integers, or of Python
    ints, is printed from :func:`_int_texts` digit blocks, :data:`_BLOCK_ROWS`
    rows at a time; every other value is left to ``json.dumps``, which
    rejects arrays and numpy scalars.  Only dicts with str keys are entered,
    so that the keys sort and print as ``json.dumps`` sorts and prints them.
    Every ``json.dumps`` text is made before this returns, so a payload
    that fails does so before a byte is written.
    """
    arrays = {}
    if type(payload) is dict and all(type(k) is str for k in payload):
        arrays = {k: v for k, v in payload.items() if _is_int_array(v)}
    if not arrays:
        return iter([(_plain_json(payload) + "\n").encode("utf-8")])
    # In key order, so that the first value json.dumps rejects is the one it
    # would reject in the whole payload.
    chunks, sep = [], "{"
    for k in sorted(payload):
        text = "" if k in arrays else _plain_json(payload[k]).replace("\n", "\n  ")
        chunks.append([f"{sep}\n  {json.dumps(k)}: {text}".encode("utf-8")])
        if k in arrays:
            chunks.append(_int_array_json(arrays[k]))
        sep = ","
    chunks.append([b"\n}\n"])
    return chain.from_iterable(chunks)


def _plain_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def _is_int_array(value) -> bool:
    if type(value) is not np.ndarray or value.ndim not in (1, 2):
        return False
    if value.dtype == object:
        return all(type(x) is int for x in value.flat)
    return value.dtype.kind in "iu"


def _int_array_json(values: np.ndarray) -> Iterator:
    """The JSON of the ``tolist()`` of a 1-D or 2-D integer array as a
    top-level dict value, a block of rows at a time."""
    count = len(values)
    if not count:
        yield b"[]"
        return
    if values.ndim == 1:
        row = ["\n    ", _IntColumn(values), ","]
    else:
        row = ["\n    ["]
        for j in range(values.shape[1]):
            row += [",\n      " if j else "\n      ", _IntColumn(values[:, j])]
        row.append("\n    ]," if values.shape[1] else "],")
    # The last row drops its ",".
    yield b"["
    yield from _row_blocks(row, count, trim=1)
    yield b"\n  ]"
