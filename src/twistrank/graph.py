"""Attributed-graph data model, sign statistics, and dataset preprocessing.

Graphs are undirected, carry one sign (+1 or -1) per edge, and optionally a
real-valued attribute vector per node.  An :class:`AttributedGraph` is
immutable after construction.  Its edges are stored once, as read-only
arrays of its sorted pairs (low end, high end, sign), from which the degree
counts, every centrality kernel and the writers work.  The CSR arrays (row
pointers, neighbour ids, signs) are placed on first use by the oracle that
:mod:`twistrank.verify` runs, and kept.  Both can be shared freely between
workers: threads that race on the first :meth:`AttributedGraph.csr` call
place equal arrays.

The preprocessing pipeline turns raw (possibly directed, duplicated, or
self-looped) edge records into a validated graph: it symmetrizes the input,
collapses parallel edges, drops self-loops, optionally injects negative edges
between partitions, and iteratively removes low-degree nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import GraphError

# ``(node, vector)`` records, or the ``(ids, values)`` arrays of io.read_attributes.
AttrRecords = Iterable[tuple[int, Sequence[float]]] | tuple[np.ndarray, np.ndarray]


class AttributedGraph:
    """Undirected graph with edge signs and per-node attribute vectors.

    Node ids are compacted to ``0..n-1``; the original external ids are kept,
    in ascending order, in the read-only array :attr:`original_ids`: int64,
    or Python ints in an object array once an id is beyond int64.  The edges
    are the sorted pairs of :meth:`pairs`; :meth:`csr` places the neighbour
    lists from them on its first call, for the oracle.  Build instances through
    :func:`load_graph` or :func:`preprocess`, which validate the invariants
    (no self-loops, one sign per unordered pair, signs exactly +1 or -1, a
    single attribute dimension shared by all nodes).
    """

    __slots__ = ("n", "original_ids", "node_attrs", "_pairs", "_csr")

    def __init__(
        self,
        original_ids: Sequence[int] | np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        signs: np.ndarray,
        node_attrs: np.ndarray,
    ):
        """Edge ``k`` joins compact nodes ``lo[k]`` and ``hi[k]`` with sign
        ``signs[k]``; the pairs are distinct, in any order and orientation."""
        self.original_ids = _id_array(original_ids)
        self.original_ids.setflags(write=False)
        self.n = n = self.original_ids.size
        self.node_attrs = node_attrs

        # New arrays, so that the graph shares no memory with the caller's.
        node = _index_dtype(n)
        lo, hi = np.minimum(lo, hi, dtype=node), np.maximum(lo, hi, dtype=node)
        signs = np.array(signs, dtype=np.int8)
        if not _ascending(lo, hi):
            order = np.argsort(_pair_codes(lo, hi, n))
            lo, hi, signs = lo[order], hi[order], signs[order]
        self._pairs = (lo, hi, signs)
        for arr in self._pairs:
            arr.setflags(write=False)
        self._csr = None

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self._pairs[0].size

    @property
    def attr_dim(self) -> int:
        return self.node_attrs.shape[1]

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge once, as read-only ``(lo, hi, signs)`` arrays in ascending
        ``(lo, hi)`` order with ``lo < hi``; ids as in :meth:`csr`'s ``indices``."""
        return self._pairs

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All neighbour lists in one read-only ``(indptr, indices, signs)`` triple.

        Row ``u`` is ``indices[indptr[u]:indptr[u + 1]]`` (ascending ids) with
        the matching edge signs; every undirected edge appears in both rows.
        The arrays are placed from :meth:`pairs` on the first call and kept;
        only the oracle reads them, never ``rank``, ``sweep`` or ``preprocess``.
        """
        if self._csr is None:
            self._csr = _place_csr(self)
        return self._csr

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return (
            np.array_equal(self.original_ids, other.original_ids)
            and all(np.array_equal(a, b) for a, b in zip(self._pairs, other._pairs))
            and bool(np.array_equal(self.node_attrs, other.node_attrs))
        )

    def __repr__(self) -> str:
        return f"AttributedGraph(n={self.n}, m={self.m}, attr_dim={self.attr_dim})"


@dataclass(frozen=True)
class GraphStats:
    """Edge and degree counts split by sign.

    ``degree``, ``pos_degree`` and ``neg_degree`` are arrays indexed by the
    compact node id.  Invariants: ``m == m_pos + m_neg``, per-node degrees
    add up the same way, and ``degree.sum() == 2 * m``.
    """

    m: int
    m_pos: int
    m_neg: int
    degree: np.ndarray
    pos_degree: np.ndarray
    neg_degree: np.ndarray

    @property
    def n(self) -> int:
        return self.degree.size


def load_graph(
    edge_records: Iterable[Sequence[int]],
    attr_records: AttrRecords | None = None,
) -> AttributedGraph:
    """Validate raw records and build a compact :class:`AttributedGraph`.

    ``edge_records`` are ``(u, w, sign)`` triples (or ``(u, w)`` pairs, which
    default to sign +1), or an integer array with one such record per row.
    Duplicate records for the same unordered pair are collapsed when their
    signs agree and rejected otherwise.  Self-loops are rejected.
    ``attr_records`` are ``(node, vector)`` pairs of finite values, or an
    ``(ids, values)`` pair of arrays holding one record per row; all vectors
    must share one length, a later record for a node replaces earlier ones,
    and nodes without a record get the zero vector.

    The node set is the union of edge endpoints and attribute-record ids,
    compacted to ``0..n-1`` in ascending original-id order.
    """
    edges = _validate_edges(edge_records, drop_self_loops=False)
    attrs = _validate_attrs(attr_records)
    ids, lo, hi = _with_attr_nodes(edges, attrs)
    return _build_graph(ids, lo, hi, edges.signs, attrs)


def stats(g: AttributedGraph) -> GraphStats:
    """Edge counts and per-node degrees split by sign."""
    lo, hi, signs = g.pairs()
    pos = signs > 0
    degree = np.bincount(lo, minlength=g.n) + np.bincount(hi, minlength=g.n)
    pos_degree = np.bincount(lo[pos], minlength=g.n) + np.bincount(hi[pos], minlength=g.n)
    m_pos = int(np.count_nonzero(pos))
    return GraphStats(
        m=g.m,
        m_pos=m_pos,
        m_neg=g.m - m_pos,
        degree=degree,
        pos_degree=pos_degree,
        neg_degree=degree - pos_degree,
    )


@dataclass(frozen=True)
class NegativeInjection:
    """Seeded injection of negative edges between partitions.

    ``partition`` maps every (original) node id to a partition label; the
    injected edges are a uniformly random set of ``count`` non-adjacent node
    pairs whose labels differ.  ``count`` and ``seed`` must be nonnegative
    integers.
    """

    count: int
    seed: int
    partition: Mapping[int, object]

    def __post_init__(self):
        if not _is_nonnegative_int(self.count):
            raise GraphError(
                f"cannot inject {self.count!r} negative edges: "
                "the count must be a nonnegative integer"
            )
        if not _is_nonnegative_int(self.seed):
            raise GraphError(f"injection seed {self.seed!r} must be a nonnegative integer")


@dataclass
class PreprocessReport:
    """What preprocessing changed, in terms of the original node ids."""

    self_loops_removed: int = 0
    duplicate_edges_collapsed: int = 0
    injected_edges: list[tuple[int, int]] = field(default_factory=list)
    removed_nodes: list[int] = field(default_factory=list)
    filter_rounds: int = 0

    def to_dict(self) -> dict:
        return {
            "self_loops_removed": self.self_loops_removed,
            "duplicate_edges_collapsed": self.duplicate_edges_collapsed,
            "injected_edges": [list(e) for e in self.injected_edges],
            "removed_nodes": list(self.removed_nodes),
            "filter_rounds": self.filter_rounds,
        }


@dataclass
class PreprocessResult:
    graph: AttributedGraph
    report: PreprocessReport


def preprocess(
    source: AttributedGraph | Iterable[Sequence[int]],
    *,
    min_degree: int = 0,
    inject: NegativeInjection | None = None,
    attr_records: AttrRecords | None = None,
) -> PreprocessResult:
    """Clean raw edge records into a validated graph.

    Steps, in order: symmetrize and deduplicate the input (anti-parallel or
    duplicate records with conflicting signs are rejected), drop self-loops,
    optionally inject ``inject.count`` negative edges between uniformly
    random cross-partition non-adjacent pairs (seeded, reproducible), then
    repeatedly remove nodes of degree below ``min_degree``, a nonnegative
    int, until the graph is stable.  Surviving nodes are compacted; the
    report lists the removals in terms of the original ids.

    Records are checked exactly as :func:`load_graph` checks them, except
    that self-loops are counted and dropped.  Memory is O(m + inject.count)
    for m input records, and so is time, up to the sorts: one of the
    records unless they already ascend, those of the injection's batches,
    and one of the surviving edges by endpoint, made only when the peel
    takes a second round.  The injected pairs are merged into the ascending
    kept pairs, so the graph is built without a sort.

    ``source`` may be raw ``(u, w[, sign])`` records or an already validated
    :class:`AttributedGraph` (whose records are then re-filtered, which makes
    the operation idempotent when injection is disabled).
    """
    if not _is_nonnegative_int(min_degree):
        raise ValueError(f"min_degree {min_degree!r} must be a nonnegative integer")
    if isinstance(source, AttributedGraph):
        if attr_records is not None:
            raise ValueError("attr_records cannot be combined with a graph source")
        ids = source.original_ids
        u, w, signs = source.pairs()
        records = np.column_stack((ids[u], ids[w], signs))
        # Every node is handed over, with its (possibly 0-wide) attribute row,
        # so that isolated nodes stay nodes.
        attr_records = (ids, source.node_attrs)
    else:
        records = source

    edges = _validate_edges(records, drop_self_loops=True)
    attrs = _validate_attrs(attr_records)
    ids, lo, hi = _with_attr_nodes(edges, attrs)
    signs = edges.signs
    report = PreprocessReport(
        self_loops_removed=edges.self_loops, duplicate_edges_collapsed=edges.duplicates
    )

    if inject is not None:
        new_lo, new_hi = _inject_negative_edges(ids, lo, hi, inject)
        report.injected_edges = list(zip(ids[new_lo].tolist(), ids[new_hi].tolist()))
        # Both pair lists ascend: merged, the pairs reach the graph in order.
        n = ids.size
        at = np.searchsorted(_pair_codes(lo, hi, n), _pair_codes(new_lo, new_hi, n))
        lo, hi = np.insert(lo, at, new_lo), np.insert(hi, at, new_hi)
        signs = np.insert(signs, at, np.int8(-1))

    alive, report.filter_rounds = _peel(ids.size, lo, hi, min_degree)
    report.removed_nodes = ids[~alive].tolist()
    kept = alive[lo] & alive[hi]
    new_index = np.cumsum(alive) - 1
    graph = _build_graph(
        ids[alive], new_index[lo[kept]], new_index[hi[kept]], signs[kept], attrs
    )
    return PreprocessResult(graph=graph, report=report)


class _Edges(NamedTuple):
    """Edge records folded into distinct undirected pairs.

    ``ids`` holds every endpoint id, self-loop nodes included, in ascending
    order.  Pair ``k`` joins ``ids[lo[k]]`` and ``ids[hi[k]]`` with
    ``lo[k] < hi[k]`` and sign ``signs[k]``; pairs are in ascending order.
    """

    ids: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    signs: np.ndarray
    self_loops: int
    duplicates: int


def _validate_edges(records: Iterable[Sequence[int]], *, drop_self_loops: bool) -> _Edges:
    """Check raw ``(u, w[, sign])`` records and fold them into distinct pairs.

    Each record is checked in turn for its field count, node ids, sign,
    self-loop (counted instead when ``drop_self_loops``) and a sign that
    conflicts with an earlier record of the same pair.  The first record in
    input order that fails any check raises its :class:`GraphError`.
    """
    rows, error = _record_rows(records)
    ids, u, w = _compact_ids(rows[:, 0], rows[:, 1])
    loops = u == w
    if not drop_self_loops and loops.any():
        first = int(np.argmax(loops))
        error = GraphError(f"self-loop on node {rows[first, 0]} is not allowed")
        rows, u, w, loops = rows[:first], u[:first], w[:first], loops[:first]

    lo, hi, signs = np.minimum(u, w), np.maximum(u, w), rows[:, 2].astype(np.int8)
    del u, w  # before the pair sort, which sets the peak memory
    if loops.any():
        pair = ~loops
        lo, hi, signs = lo[pair], hi[pair], signs[pair]
    records = lo.size
    if not _ascending(lo, hi):  # else the pairs are distinct and in order
        codes = _pair_codes(lo, hi, ids.size)
        order = np.argsort(codes)
        codes = codes[order]
        head = np.ones(codes.size, dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        del codes, head
        # The sort is not stable: a pair's first record is its least position.
        first_of = np.minimum.reduceat(order, starts)
        grouped = signs[order]
        if (np.minimum.reduceat(grouped, starts) != np.maximum.reduceat(grouped, starts)).any():
            pair_of = np.empty_like(order)
            pair_of[order] = np.repeat(np.arange(starts.size), np.diff(starts, append=order.size))
            kept_signs = signs[first_of]
            k = int(np.argmax(signs != kept_signs[pair_of]))
            key = tuple(ids[[lo[k], hi[k]]].tolist())
            raise GraphError(
                f"conflicting signs for edge {key}: {kept_signs[pair_of[k]]} and {signs[k]}"
            )
        lo, hi, signs = lo[first_of], hi[first_of], signs[first_of]
    if error is not None:
        raise error
    return _Edges(ids, lo, hi, signs, int(loops.sum()), records - lo.size)


# Node ids up to this many times the record count are compacted through a
# presence mask of that size instead of a sort.
_DENSE_ID_FACTOR = 4


def _compact_ids(u: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ids of two equally long columns in ascending order, and
    the position of each entry of ``u`` and of ``w`` among them.

    Dense int64 ids are placed through a presence mask in O(k); sparse ids,
    and Python ints beyond int64, are sorted.
    """
    if u.dtype == np.int64 and u.size:
        top = max(int(u.max()), int(w.max()))
        if top < _DENSE_ID_FACTOR * u.size:
            present = np.zeros(top + 1, dtype=bool)
            present[u] = True
            present[w] = True
            rank = np.cumsum(present, dtype=_index_dtype(top))
            rank -= 1
            return np.flatnonzero(present), rank[u], rank[w]
    ids, index = np.unique(np.concatenate((u, w)), return_inverse=True)
    index = index.reshape(-1)
    return ids, index[: u.size], index[u.size :]


def _pair_codes(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """The int64 codes ``lo * n + hi``, whatever the width of ``lo`` and ``hi``."""
    codes = lo.astype(np.int64)
    codes *= n
    codes += hi
    return codes


def _ascending(lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the pairs strictly ascend in ``(lo, hi)`` order, checked
    without their 8-byte codes, which would set the peak memory of a load."""
    same = lo[1:] == lo[:-1]
    return bool(((lo[1:] > lo[:-1]) | (same & (hi[1:] > hi[:-1]))).all())


def _index_dtype(bound: int):
    """int32 if it holds every value in ``0..bound``, else int64."""
    return np.int32 if bound < 2**31 else np.int64


def _row_entries(g: AttributedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both directions of every pair, as ``(indptr, rows, cols)``: the
    ``(hi, lo)`` entries, then the ``(lo, hi)`` entries.

    The pairs ascend, so a stable sort of the entries by row lists each row's
    lower neighbours, then its upper ones, each ascending: the order of
    :meth:`AttributedGraph.csr`.  ``indptr`` delimits the rows after that sort.
    """
    lo, hi, _ = g.pairs()
    rows = np.concatenate((hi, lo))
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=g.n), out=indptr[1:])
    return indptr, rows, np.concatenate((lo, hi))


def _place_csr(g: AttributedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only CSR arrays of ``g``: :func:`_row_entries` in one stable sort by row."""
    indptr, rows, cols = _row_entries(g)
    order = np.argsort(rows, kind="stable")
    del rows
    indices, signs = cols[order], np.tile(g.pairs()[2], 2)[order]
    for arr in (indptr, indices, signs):
        arr.setflags(write=False)
    return indptr, indices, signs


def _record_rows(records) -> tuple[np.ndarray, GraphError | None]:
    """``(u, w, sign)`` rows of the records before the first one whose fields
    fail a check, and that record's error (``None`` if every record passes).

    An integer array of 2 or 3 columns is checked as one array, and its
    first bad row, if any, is checked alone as a record for its error; any
    other input, lists of records included, is walked record by record as
    Python values.
    """
    if isinstance(records, np.ndarray):
        rows = _int_rows(records)
        if rows is not None:
            bad = np.flatnonzero((rows[:, 0] < 0) | (rows[:, 1] < 0) | (np.abs(rows[:, 2]) != 1))
            first = int(bad[0]) if bad.size else len(rows)
            return rows[:first], _record_rows(records[first:first + 1].tolist())[1]
        records = records.tolist()
    checked = []
    error = None
    for rec in records:
        try:
            checked.append(_check_record(rec))
        except GraphError as exc:
            error = exc
            break
    return _id_array(checked).reshape(-1, 3), error


def _int_rows(records: np.ndarray) -> np.ndarray | None:
    """``records`` as a ``(k, 3)`` int64 array, or ``None`` unless they are
    integers of 2 or 3 columns whose values fit."""
    fits = records.dtype.kind in "iu" and np.can_cast(records.dtype, np.int64)
    if records.ndim != 2 or not fits:
        return None
    rows = records.astype(np.int64, copy=False)
    if rows.shape[1] == 2:
        rows = np.column_stack((rows, np.ones(len(rows), dtype=np.int64)))
    return rows if rows.shape[1] == 3 else None


def _check_record(rec) -> tuple[int, int, int]:
    if len(rec) == 2:
        u, w = rec
        s = 1
    elif len(rec) == 3:
        u, w, s = rec
    else:
        raise GraphError(f"edge record {tuple(rec)!r} must have 2 or 3 fields")
    u, w = _check_node_id(u), _check_node_id(w)
    return u, w, _check_sign(s, u, w)


def _validate_attrs(attrs) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct node ids and their attribute rows, a ``(k, p)`` array.

    ``attrs`` is ``None``, an ``(ids, values)`` pair of arrays, or
    ``(node, vector)`` records; a later record for a node replaces earlier
    ones.  Integer ids with a 2-D block of values are checked in one pass,
    and only their first bad row, if any, as a record.  Any other input is
    walked record by record as Python values.  Either way the first bad
    record raises its :class:`GraphError`.
    """
    if attrs is None:
        return np.empty(0, dtype=np.int64), np.empty((0, 0))
    if isinstance(attrs, tuple) and len(attrs) == 2 and all(
        isinstance(a, np.ndarray) for a in attrs
    ):
        ids, values = attrs
        if len(ids) != len(values):
            raise GraphError(
                f"{len(ids)} attribute node ids but {len(values)} attribute vectors"
            )
        fits = ids.dtype.kind in "iu" and np.can_cast(ids.dtype, np.int64)
        if fits and ids.ndim == 1 and values.ndim == 2 and values.dtype.kind in "iuf":
            values = values.astype(float, copy=False)
            first = np.flatnonzero((ids < 0) | ~np.isfinite(values).all(axis=1))[:1]
            _attr_rows(zip(ids[first].tolist(), values[first].tolist()))  # raises if bad
            return _last_rows(ids.astype(np.int64, copy=False), values)
        attrs = zip(ids.tolist(), values.tolist())
    return _last_rows(*_attr_rows(attrs))


def _attr_rows(records) -> tuple[np.ndarray, np.ndarray]:
    """Node ids and vectors of ``(node, vector)`` records, checked in order."""
    nodes, vectors = [], []
    for node, vec in records:
        node = _check_node_id(node)
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1:
            raise GraphError(f"attribute vector for node {node} must be one-dimensional")
        if not np.all(np.isfinite(vec)):
            raise GraphError(f"attribute vector for node {node} must be finite")
        if vectors and vec.size != vectors[-1].size:
            raise GraphError(
                f"ragged attribute vectors: node {node} has length {vec.size}, "
                f"expected {vectors[-1].size}"
            )
        nodes.append(node)
        vectors.append(vec)
    dim = vectors[0].size if vectors else 0
    return _id_array(nodes), np.array(vectors, dtype=float).reshape(len(vectors), dim)


def _id_array(nodes: Sequence[int] | np.ndarray) -> np.ndarray:
    """Node ids, or records of them, as a new int64 array, or as Python ints
    in an object array if one is beyond int64.

    An array that does not cast safely to int64 (unsigned, object) is read as
    its Python ints, so that no id wraps around or turns into a float.
    """
    if isinstance(nodes, np.ndarray) and not np.can_cast(nodes.dtype, np.int64):
        nodes = nodes.tolist()
    try:
        return np.array(nodes, dtype=np.int64)
    except OverflowError:
        return np.array(nodes, dtype=object)


def _last_rows(ids: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``ids`` in ascending order, each with its last row of ``values``."""
    distinct, first_from_end = np.unique(ids[::-1], return_index=True)
    return distinct, values[ids.size - 1 - first_from_end]


def _with_attr_nodes(
    edges: _Edges, attrs: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node ids of the edges and the attribute records, and the pairs re-indexed into them."""
    if attrs[0].size == 0:
        return edges.ids, edges.lo, edges.hi
    ids = np.union1d(edges.ids, attrs[0])
    remap = np.searchsorted(ids, edges.ids)
    return ids, remap[edges.lo], remap[edges.hi]


def _build_graph(
    ids: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    signs: np.ndarray,
    attrs: tuple[np.ndarray, np.ndarray],
) -> AttributedGraph:
    """The graph on the ascending ``ids`` with pairs ``(lo, hi)`` indexing into them.

    ``attrs`` are the ascending attribute ids and their rows.  The attribute
    dimension is that of the records on these nodes, or 0 if none of them
    has one.
    """
    attr_ids, values = attrs
    on_graph = _contains(ids, attr_ids)
    dim = values.shape[1] if on_graph.any() else 0
    node_attrs = np.zeros((ids.size, dim))
    node_attrs[np.searchsorted(ids, attr_ids[on_graph])] = values[on_graph, :dim]
    return AttributedGraph(ids, lo, hi, signs, node_attrs)


def _peel(n: int, lo: np.ndarray, hi: np.ndarray, min_degree: int) -> tuple[np.ndarray, int]:
    """Nodes that survive removing, in synchronous rounds, every node of degree
    below ``min_degree``; and the number of rounds that removed any.

    The first round finds its dying edges with one O(m) mask.  Only if a
    second round is needed are the surviving edges grouped by endpoint, in
    one sort, into each node's neighbours; each later round then reads only
    the neighbours of the nodes it removes, so all rounds together take
    O(n + m) after that sort.  A round counts a node's neighbours and does not
    depend on their order, which an unstable sort leaves open.
    """
    alive = np.ones(n, dtype=bool)
    degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    doomed = degree < min_degree
    if not doomed.any():
        return alive, 0
    alive[doomed] = False
    live = alive[lo] & alive[hi]
    dying = ~live
    degree -= np.bincount(lo[dying], minlength=n) + np.bincount(hi[dying], minlength=n)
    doomed = np.flatnonzero(alive & (degree < min_degree))
    if doomed.size == 0:
        return alive, 1
    # A dead node has no surviving edge, so ``degree`` is each node's row length.
    lo, hi = lo[live], hi[live]
    row_len = degree.copy()
    row_start = np.cumsum(row_len) - row_len
    neighbour = np.concatenate((hi, lo))[np.argsort(np.concatenate((lo, hi)))]
    rounds = 1
    while doomed.size:
        rounds += 1
        alive[doomed] = False
        counts = row_len[doomed]
        slots = np.repeat(row_start[doomed] - np.cumsum(counts) + counts, counts)
        # Each neighbour of a removed node loses an edge.  Neighbours that died
        # in an earlier round, or die in this one, lose it too, but the degree
        # of a dead node is not read again.
        touched = neighbour[slots + np.arange(slots.size)]
        np.subtract.at(degree, touched, 1)
        doomed = np.unique(touched[alive[touched] & (degree[touched] < min_degree)])
    return alive, rounds


# Batch sizing for injection: slack on the expected number of draws, and a
# cap on the draws per candidate pair, which bounds a batch's memory when the
# count is close to all available pairs.
_DRAW_SLACK = 1.25
_MAX_DRAWS_PER_PAIR = 3.0

# The label of a node that the partition does not list.
_NO_LABEL = object()


def _inject_negative_edges(
    ids: np.ndarray, lo: np.ndarray, hi: np.ndarray, inject: NegativeInjection
) -> tuple[np.ndarray, np.ndarray]:
    """``inject.count`` uniformly random cross-partition non-edges, as index
    pairs ``(lo, hi)`` into ``ids`` in ascending order.

    Rejection sampling: batches of uniformly random cross-partition pairs are
    drawn from ``default_rng(inject.seed)``, and existing edges, pairs chosen
    before and repeats within the batch are rejected.  The first ``count``
    accepted draws form a uniform subset without replacement.  A batch holds
    the expected number of draws for the pairs still needed, plus slack and
    capped at a few per cross pair: O(m + count) draws.
    """
    original_ids = ids.tolist()
    # ``get`` neither adds a key to nor defaults from a dict subclass such as
    # ``defaultdict``: a node it does not list has no label.
    labels = list(map(inject.partition.get, original_ids, repeat(_NO_LABEL)))
    # Label codes in order of first appearance over the ascending ids.
    code_of = {lab: code for code, lab in enumerate(dict.fromkeys(labels))}
    if _NO_LABEL in code_of:
        missing = [v for v, lab in zip(original_ids, labels) if lab is _NO_LABEL]
        raise GraphError(
            f"partition labels missing for {len(missing)} nodes (first: {missing[:5]})"
        )
    n = ids.size
    label = np.fromiter(map(code_of.__getitem__, labels), dtype=np.int64, count=n)
    size = np.bincount(label)
    # The pairs ascend, so their codes do.
    existing = _pair_codes(lo, hi, n)[label[lo] != label[hi]]
    cross = (n * n - int(size @ size)) // 2
    available = cross - existing.size
    if inject.count > available:
        raise GraphError(
            f"cannot inject {inject.count} negative edges: only "
            f"{available} cross-partition non-edges are available"
        )

    # An ordered cross pair is uniform when u is drawn with weight equal to its
    # number of other-label nodes and w uniformly among those.  Sorting the
    # nodes by label puts each label's nodes in one block of ``by_label``.
    by_label = np.argsort(label, kind="stable")
    block_start = np.cumsum(size) - size
    others = n - size[label]
    cum_others = np.cumsum(others)
    rng = np.random.default_rng(inject.seed)
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < inject.count:
        need = inject.count - chosen.size
        left = available - chosen.size
        # Drawing each of ``left`` pairs at least once takes cross * H(left)
        # draws on average; ``need`` of them take cross * (H(left) - H(left - need)).
        per_pair = min(np.log((left + 1) / (left - need + 1)), _MAX_DRAWS_PER_PAIR)
        draws = int(_DRAW_SLACK * cross * per_pair) + 16
        u = np.searchsorted(cum_others, rng.integers(0, cum_others[-1], size=draws), side="right")
        j = rng.integers(0, others[u])
        a = label[u]
        w = by_label[np.where(j < block_start[a], j, j + size[a])]
        codes, first = np.unique(np.minimum(u, w) * n + np.maximum(u, w), return_index=True)
        fresh = ~_contains(existing, codes) & ~_contains(chosen, codes)
        codes, first = codes[fresh], first[fresh]
        # Keep the earliest draws: a batch's pairs are taken in draw order.
        chosen = np.sort(np.concatenate((chosen, codes[np.argsort(first)[:need]])))
    return np.divmod(chosen, n)


def _contains(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Which of ``codes`` occur in the ascending ``sorted_codes``."""
    pos = np.searchsorted(sorted_codes, codes)
    hit = pos < sorted_codes.size
    hit[hit] = sorted_codes[pos[hit]] == codes[hit]
    return hit


def _is_nonnegative_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0


def _check_node_id(u) -> int:
    try:
        node = None if isinstance(u, bool) else int(u)
    except (OverflowError, TypeError, ValueError):  # int() of inf, NaN, None or text
        node = None
    if node is None or node != u or node < 0:
        raise GraphError(f"node id {u!r} must be a nonnegative integer")
    return node


def _check_sign(s, u, w) -> int:
    if s not in (1, -1):
        raise GraphError(f"edge ({u}, {w}) has sign {s!r}; signs must be +1 or -1")
    return int(s)
