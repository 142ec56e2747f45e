"""Graph loading, statistics, and the preprocessing pipeline."""

import collections
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twistrank as tr
from twistrank import graph as tg, verify
from twistrank.errors import GraphError

from conftest import edge_list, random_signed_graph, skewed_signed_graph


class TestLoadGraph:
    def test_basic_counts(self):
        g = tr.load_graph([(0, 1, 1), (1, 2, -1)])
        s = tr.stats(g)
        assert (g.n, g.m) == (3, 2)
        assert (s.m_pos, s.m_neg) == (1, 1)

    def test_duplicate_consistent_collapses(self):
        g = tr.load_graph([(0, 1, 1), (1, 0, 1)])
        assert g.m == 1

    def test_sign_defaults_to_positive(self):
        g = tr.load_graph([(0, 1)])
        assert edge_list(g) == [(0, 1, 1)]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            tr.load_graph([(0, 0, 1)])

    def test_conflicting_signs_rejected(self):
        with pytest.raises(GraphError, match=r"\(0, 1\)"):
            tr.load_graph([(0, 1, 1), (1, 0, -1)])

    def test_invalid_sign_rejected(self):
        with pytest.raises(GraphError, match="sign"):
            tr.load_graph([(0, 1, 2)])

    def test_negative_node_id_rejected(self):
        with pytest.raises(GraphError, match="node id"):
            tr.load_graph([(-1, 1, 1)])

    def test_ragged_attributes_rejected(self):
        with pytest.raises(GraphError, match="ragged"):
            tr.load_graph([(0, 1, 1)], [(0, [1.0, 2.0]), (1, [1.0])])

    def test_missing_attributes_get_zero_vector(self):
        g = tr.load_graph([(0, 1, 1)], [(0, [0.5, 0.25])])
        assert g.attr_dim == 2
        assert np.array_equal(g.node_attrs[1], [0.0, 0.0])

    def test_attr_only_node_is_isolated(self):
        g = tr.load_graph([(0, 1, 1)], [(7, [1.0])])
        assert g.original_ids.tolist() == [0, 1, 7]
        assert tr.stats(g).degree.tolist() == [1, 1, 0]

    def test_ids_compacted_with_map(self):
        g = tr.load_graph([(5, 20, 1), (10, 20, -1)])
        assert g.original_ids.tolist() == [5, 10, 20]
        assert np.searchsorted(g.original_ids, 10) == 1
        assert edge_list(g, original_ids=True) == [(5, 20, 1), (10, 20, -1)]


class TestStats:
    def test_all_positive_triangle(self, triangle_pos):
        s = tr.stats(triangle_pos)
        assert (s.m, s.m_pos, s.m_neg) == (3, 3, 0)
        assert list(s.degree) == [2, 2, 2]

    def test_star_with_negative_spokes(self, star_two_neg):
        s = tr.stats(star_two_neg)
        assert s.degree[0] == 4
        assert s.pos_degree[0] == 2
        assert s.neg_degree[0] == 2

    def test_paper_scale_counts(self, paper_scale_graph):
        s = tr.stats(paper_scale_graph)
        assert paper_scale_graph.n == 863
        assert (s.m, s.m_pos, s.m_neg) == (16650, 15225, 1425)

    def test_degree_sums(self):
        for seed in range(5):
            g = random_signed_graph(np.random.default_rng(seed))
            s = tr.stats(g)
            assert s.degree.sum() == 2 * s.m
            assert s.pos_degree.sum() == 2 * s.m_pos
            assert s.neg_degree.sum() == 2 * s.m_neg
            assert s.m == s.m_pos + s.m_neg
            assert np.array_equal(s.degree, s.pos_degree + s.neg_degree)

    def test_degrees_equal_those_of_the_csr_rows(self):
        """Counted from the pairs, the signed degrees are the CSR row lengths
        split by the entries' signs, on graphs with isolated nodes too."""
        rng = np.random.default_rng(17)
        graphs = [random_signed_graph(np.random.default_rng(seed)) for seed in range(3)]
        graphs += [tr.load_graph([(1, 2, 1), (2, 4, -1)], [(v, []) for v in range(6)]),
                   skewed_signed_graph(rng, 70_000, 150_000)]
        for g in graphs:
            indptr, _, signs = g.csr()
            rows = np.repeat(np.arange(g.n), np.diff(indptr))
            s = tr.stats(g)
            np.testing.assert_array_equal(s.degree, np.diff(indptr))
            np.testing.assert_array_equal(s.pos_degree,
                                          np.bincount(rows[signs > 0], minlength=g.n))
            np.testing.assert_array_equal(s.neg_degree,
                                          np.bincount(rows[signs < 0], minlength=g.n))
            assert s.m_pos == int((signs > 0).sum()) // 2
            assert s.degree.dtype == s.pos_degree.dtype == np.int64


class TestPairs:
    def test_pairs_are_the_ascending_upper_entries_of_the_csr(self):
        rng = np.random.default_rng(23)
        graphs = [random_signed_graph(np.random.default_rng(seed)) for seed in range(3)]
        graphs += [tr.load_graph([(9, 3, -1), (3, 5, 1)], [(v, []) for v in range(11)]),
                   tr.load_graph([]), skewed_signed_graph(rng, 70_000, 150_000)]
        for g in graphs:
            lo, hi, signs = g.pairs()
            node = tg._index_dtype(g.n)
            assert (lo.dtype, hi.dtype, signs.dtype) == (node, node, np.int8)
            assert not any(a.flags.writeable for a in g.pairs())
            assert lo.size == hi.size == signs.size == g.m
            assert (lo < hi).all()
            codes = lo.astype(np.int64) * g.n + hi
            assert (codes[1:] > codes[:-1]).all()
            indptr, indices, entry_signs = g.csr()
            assert not any(a.flags.writeable for a in g.csr())
            rows = np.repeat(np.arange(g.n), np.diff(indptr))
            upper = indices > rows
            for got, want in zip(g.pairs(), (rows[upper], indices[upper], entry_signs[upper])):
                np.testing.assert_array_equal(got, want)
            assert g.csr() is g.csr()

    def test_the_graph_keeps_no_array_of_its_caller(self):
        lo, hi = np.array([0, 1], dtype=np.int32), np.array([1, 2], dtype=np.int32)
        signs = np.array([1, -1], dtype=np.int8)
        g = tr.AttributedGraph(range(3), lo, hi, signs, np.zeros((3, 0)))
        assert all(a.flags.writeable for a in (lo, hi, signs))
        lo[0], signs[0] = 2, -1
        assert [a.tolist() for a in g.pairs()] == [[0, 1], [1, 2], [1, -1]]


class TestConstructorSigns:
    """The constructor holds every graph to signs of +1 and -1, which stats,
    the kernels, the oracle and the writers assume."""

    @pytest.mark.parametrize("signs, shown", [
        (np.array([1, 0]), "0"),
        (np.array([-1, 2]), "2"),
        (np.array([1.0, 1.5]), "1.5"),
        (np.array([1, 257], dtype=np.int64), "257"),  # 1 once cast to int8
        (np.array([-1, -129], dtype=np.int64), "-129"),  # 127 once cast to int8
        (np.array([1, np.nan]), "nan"),
    ], ids=["zero", "two", "fraction", "int64-257", "int64-minus-129", "nan"])
    def test_a_sign_other_than_plus_or_minus_one_names_its_edge(self, signs, shown):
        # The second edge is given high end first; the error names it low end first.
        with pytest.raises(GraphError, match=rf"^edge \(20, 30\) has sign {shown}; "
                                             r"signs must be \+1 or -1$"):
            tr.AttributedGraph([10, 20, 30], np.array([0, 2]), np.array([1, 1]), signs,
                               np.zeros((3, 0)))

    def test_naming_a_bad_sign_builds_no_object_per_edge(self):
        """Every one of 10**6 int64 signs is 257, beyond CPython's small-int
        cache: a list of them all would cost 40 bytes per edge, five times the
        array.  The error reads the first one alone."""
        m = 10**6
        signs = np.full(m, 257, dtype=np.int64)
        lo, hi = np.zeros(m, dtype=np.int64), np.ones(m, dtype=np.int64)
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match=r"^edge \(10, 20\) has sign 257; "):
                tr.AttributedGraph([10, 20], lo, hi, signs, np.zeros((2, 0)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * signs.nbytes

    @pytest.mark.parametrize("signs", [np.array([True, False]), np.array([True, True]),
                                       np.array([True, 1], dtype=object)])
    def test_bool_signs_are_rejected(self, signs):
        with pytest.raises(GraphError, match=r"^edge \(10, 20\) has sign True; "
                                             r"signs must be \+1 or -1$"):
            tr.AttributedGraph([10, 20, 30], np.array([0, 1]), np.array([1, 2]), signs,
                               np.zeros((3, 0)))

    @pytest.mark.parametrize("signs", [np.array([1.0, -1.0]), np.array([1, -1], dtype=object),
                                       [1, -1], np.array([1, 1], dtype=np.uint64)])
    def test_numeric_plus_and_minus_one_load(self, signs):
        g = tr.AttributedGraph([10, 20, 30], np.array([0, 1]), np.array([1, 2]), signs,
                               np.zeros((3, 0)))
        want = [(10, 20, int(signs[0])), (20, 30, int(signs[1]))]
        assert g == tr.load_graph(want)
        assert g.pairs()[2].dtype == np.int8


# The graph 10-20 (+), 10-30 (-), 20-40 (+), 30-40 (-) in canonical form.
_IDS, _LO, _HI, _SIGNS = [10, 20, 30, 40], [0, 0, 1, 2], [1, 2, 3, 3], [1, -1, 1, -1]

# Arguments that break the canonical form, each with the one error it gives.
CORRUPT = {
    "swapped": ((_IDS, [0, 1, 0, 2], [1, 3, 2, 3], _SIGNS),
                r"edge \(10, 30\) comes after edge \(20, 40\); pairs must ascend"),
    "flipped": ((_IDS, [0, 2, 1, 2], [1, 0, 3, 3], _SIGNS),
                r"edge \(10, 30\) is given high end first"),
    "repeated": ((_IDS, [0, 0, 0, 1, 2], [1, 2, 2, 3, 3], [1, -1, 1, 1, -1]),
                 r"edge \(10, 30\) is given twice"),
    "self-loop": ((_IDS, [0, 0, 1, 1, 2], [1, 2, 1, 3, 3], [1, -1, 1, 1, -1]),
                  "self-loop on node 20 is not allowed"),
    "hi-is-n": ((_IDS, _LO, [1, 2, 3, 4], _SIGNS),
                r"edge \(2, 4\) has a node index outside range\(4\)"),
    "lo-is-minus-one": ((_IDS, [-1, 0, 1, 2], _HI, _SIGNS),
                        r"edge \(-1, 1\) has a node index outside range\(4\)"),
    "fewer-signs": ((_IDS, _LO, _HI, _SIGNS[:3]),
                    r"lo, hi and signs must be 1-D arrays of one length, lo and hi of "
                    r"integers; got int64 \(4,\), int64 \(4,\) and int64 \(3,\)"),
    "2-d-pairs": ((_IDS, [_LO], [_HI], [_SIGNS]),
                  r"lo, hi and signs must be 1-D arrays of one length, lo and hi of "
                  r"integers; got int64 \(1, 4\), int64 \(1, 4\) and int64 \(1, 4\)"),
    "float-ends": ((_IDS, np.array(_LO, dtype=float), _HI, _SIGNS),
                   r"lo, hi and signs must be 1-D arrays of one length, lo and hi of "
                   r"integers; got float64 \(4,\), int64 \(4,\) and int64 \(4,\)"),
    "ids-unsorted": (([10, 30, 20, 40], _LO, _HI, _SIGNS),
                     "original ids must strictly ascend: node 2 has id 20 after 30"),
    "ids-repeated": (([10, 20, 20, 40], _LO, _HI, _SIGNS),
                     "original ids must strictly ascend: node 2 has id 20 after 20"),
    "id-negative": (([-10, 20, 30, 40], _LO, _HI, _SIGNS),
                    "node 0 has the negative original id -10"),
    "ids-2-d": (([[10, 20], [30, 40]], _LO, _HI, _SIGNS),
                r"original ids must be 1-D, got shape \(2, 2\)"),
    # An id is an integer value, by load_graph's rule, before any cast.
    "ids-fractional": (([1.5, 2.7, 30, 40], _LO, _HI, _SIGNS),
                       r"node id 1\.5 must be a nonnegative integer"),
    "ids-float-array": ((np.array([10.0, 20.0, 30.5, 40.0]), _LO, _HI, _SIGNS),
                        r"node id 30\.5 must be a nonnegative integer"),
    "ids-nan": ((np.array([10.0, np.nan, 30.0, 40.0]), _LO, _HI, _SIGNS),
                "node id nan must be a nonnegative integer"),
    "ids-bool-array": ((np.array([False, True, True, True]), _LO, _HI, _SIGNS),
                       "node id False must be a nonnegative integer"),
    "ids-bool-in-list": (([10, True, 30, 40], _LO, _HI, _SIGNS),
                         "node id True must be a nonnegative integer"),
    "ids-text": ((["10", "20", "30", "40"], _LO, _HI, _SIGNS),
                 "node id '10' must be a nonnegative integer"),
}

# Attribute matrices for the four nodes that the constructor refuses.
BAD_ATTRS = {
    "three-rows": (np.zeros((3, 2)),
                   r"node_attrs must have one row per node, shape \(4, p\); got \(3, 2\)"),
    "one-dimensional": (np.zeros(4),
                        r"node_attrs must have one row per node, shape \(4, p\); got \(4,\)"),
    "nan": (np.array([[0.0], [1.0], [np.nan], [2.0]]),
            "attribute vector for node 30 must be finite"),
    "inf": (np.array([[0.0, 1.0], [1.0, -np.inf], [np.inf, 2.0], [0.0, 0.0]]),
            "attribute vector for node 20 must be finite"),
}


class TestCanonicalForm:
    """The constructor takes only the form that ``pairs()`` returns, with
    ascending original ids and an ``(n, p)`` finite attribute matrix, and
    sorts nothing: any other input is one GraphError naming the first bad
    edge or node."""

    def _graph(self, ids, lo, hi, signs, attrs=None):
        attrs = np.zeros((len(ids), 0)) if attrs is None else attrs
        return tr.AttributedGraph(ids, np.array(lo), np.array(hi), np.array(signs), attrs)

    @pytest.mark.parametrize("args, message", CORRUPT.values(), ids=CORRUPT.keys())
    def test_a_broken_form_names_its_first_bad_edge_or_node(self, args, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            self._graph(*args)

    @pytest.mark.parametrize("attrs, message", BAD_ATTRS.values(), ids=BAD_ATTRS.keys())
    def test_attributes_are_one_finite_row_per_node(self, attrs, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            self._graph(_IDS, _LO, _HI, _SIGNS, attrs)

    @pytest.mark.parametrize("ids", [
        np.array([10.0, 20.0, 30.0, 40.0]), [10.0, 20, 30.0, 40],
        np.array([10, 20, 30, 40], dtype=np.uint16),
        np.array([10, 20, 30, 40], dtype=object),
    ], ids=["float-array", "float-list", "uint16", "object"])
    def test_integer_valued_ids_are_the_ids_load_graph_reads(self, ids):
        g = self._graph(ids, _LO, _HI, _SIGNS)
        want = tr.load_graph([(_IDS[a], _IDS[b], s) for a, b, s in zip(_LO, _HI, _SIGNS)])
        assert g == want and g.original_ids.dtype == np.int64

    def test_integer_valued_ids_beyond_int64_are_python_ints(self):
        ids = [10.0, 20, 2**70, 2.0**80]
        g = self._graph(ids, _LO, _HI, _SIGNS)
        assert g.original_ids.dtype == object
        assert [type(v) for v in g.original_ids] == [int] * 4
        assert g.original_ids.tolist() == [10, 20, 2**70, 2**80]

    def test_a_sign_is_checked_before_the_form(self):
        """A bad sign on a flipped, out-of-order edge is reported as a sign."""
        with pytest.raises(GraphError, match=r"^edge \(20, 30\) has sign 0; "):
            self._graph([10, 20, 30], [1, 2, 0], [2, 1, 1], [1, 0, 1])
        with pytest.raises(GraphError, match=r"^edge \(0, 7\) has sign 3; "):
            self._graph([10, 20, 30], [0, 7], [1, 0], [1, 3])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.sampled_from([1, -1])),
                 max_size=30),
        st.lists(st.integers(0, 15), max_size=6),
        st.integers(0, 2),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from([0, 10**12, 2**63 - 8]),
    )
    def test_any_built_graph_rebuilds_from_its_own_arrays(self, records, attr_nodes, dim,
                                                          min_degree, count, offset):
        """Whatever load_graph or preprocess builds, ids beyond int64 and
        injected edges included, is already the constructor's form."""
        signs = {(min(u, w), max(u, w)): s for u, w, s in records}
        records = [(u + offset, w + offset, signs[min(u, w), max(u, w)]) for u, w, _ in records]
        attrs = [(v + offset, [v / 7.0 - j for j in range(dim)]) for v in attr_nodes]
        nodes = {v for u, w, _ in records for v in (u, w)} | {v for v, _ in attrs}
        inject = tr.NegativeInjection(count=count, seed=count,
                                      partition={v: v % 3 for v in nodes})
        graphs = [tr.load_graph([r for r in records if r[0] != r[1]], attrs),
                  tr.preprocess(records, min_degree=min_degree, attr_records=attrs).graph]
        try:
            graphs.append(tr.preprocess(records, inject=inject, attr_records=attrs).graph)
        except GraphError as exc:  # fewer cross-partition non-edges than the count
            assert "cross-partition non-edges are available" in str(exc)
        for g in graphs:
            rebuilt = tr.AttributedGraph(g.original_ids, *g.pairs(), g.node_attrs)
            assert rebuilt == g
            assert repr(rebuilt.original_ids) == repr(g.original_ids)
            assert [a.dtype for a in rebuilt.pairs()] == [a.dtype for a in g.pairs()]


# Edge-endpoint ids and attribute ids, each ascending, as _with_attr_nodes merges them.
DISTINCT_CASES = {
    "both-empty": ([], []),
    "edges-empty": ([], [3, 7]),
    "attrs-empty": ([1, 4], []),
    "disjoint": ([1, 4, 9], [2, 3, 10, 11]),
    "overlapping": ([1, 4, 9], [0, 4, 9, 12]),
    "attribute-only-nodes": ([5, 6], [0, 5, 6, 100]),
    "same": ([2, 3], [2, 3]),
}


class TestDistinct:
    """graph._distinct, a stable sort and a mask of adjacent !=, gives what
    np.union1d gives, for int64 ids and for Python ints beyond int64."""

    @pytest.mark.parametrize("offset", [0, 2**63 - 10, 2**64], ids=["int64", "both", "object"])
    @pytest.mark.parametrize("a, b", DISTINCT_CASES.values(), ids=DISTINCT_CASES.keys())
    def test_equals_union1d(self, a, b, offset):
        a, b = (tg._id_array([v + offset for v in side]) for side in (a, b))
        got = tg._distinct(np.concatenate((a, b)))
        want = np.union1d(a, b)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 60) | st.integers(0, 2**65), max_size=40),
           st.lists(st.integers(0, 60), max_size=40),
           st.sampled_from(["stable", "quicksort"]), st.sampled_from([np.int64, np.int32]))
    def test_unsorted_values_equal_union1d(self, a, b, kind, narrow):
        """Either sort kind, on values in any order: the peel's nodes are
        int32 or int64, ids beyond int64 Python ints."""
        a, b = tg._id_array(a), tg._id_array(b)
        if a.dtype == b.dtype == np.int64 and max(a.max(initial=0), b.max(initial=0)) < 2**31:
            a, b = a.astype(narrow), b.astype(narrow)
        got = tg._distinct(np.concatenate((a, b)), kind=kind)
        want = np.union1d(a, b)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=25),
           st.lists(st.integers(0, 40), max_size=10),
           st.sampled_from([0, 2**63 - 20]))
    def test_a_graph_has_the_nodes_of_its_edges_and_its_attributes(self, pairs, attr_nodes,
                                                                    offset):
        records = [(u + offset, w + offset) for u, w in pairs if u != w]
        attrs = [(v + offset, [1.0]) for v in attr_nodes]
        g = tr.load_graph(records, attrs)
        want = np.union1d(tg._id_array([v for r in records for v in r]),
                          tg._id_array([v for v, _ in attrs]))
        assert g.original_ids.dtype == want.dtype
        assert g.original_ids.tolist() == want.tolist()
        assert edge_list(g, original_ids=True) == sorted(
            {(min(u, w), max(u, w), 1) for u, w in records})


class TestNodeAttrs:
    """A graph owns its attribute matrix: read-only floats, shared with no
    caller, so a model's cached builds cannot go stale."""

    def test_every_route_gives_a_read_only_float_matrix(self):
        loaded = tr.load_graph([(0, 1, 1), (1, 2, -1)], [(0, [1, 2]), (2, [3, 4])])
        built = tr.AttributedGraph([0, 1], np.array([0]), np.array([1]), np.array([1]),
                                   np.array([[1], [2]]))
        for g in (loaded, tr.preprocess(loaded).graph, built):
            assert g.node_attrs.dtype == np.float64
            assert not g.node_attrs.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                g.node_attrs[0, 0] = 9.0
        assert built.node_attrs.tolist() == [[1.0], [2.0]]

    def test_the_callers_matrix_is_copied(self):
        attrs = np.ones((3, 2))
        g = tr.AttributedGraph([10, 20, 30], np.array([0]), np.array([2]), np.array([1]), attrs)
        assert attrs.flags.writeable and not np.shares_memory(attrs, g.node_attrs)
        attrs[0, 0] = 5.0
        assert g.node_attrs.tolist() == [[1.0, 1.0]] * 3


class TestPreprocess:
    def test_cascade_empties_path_graph(self):
        result = tr.preprocess([(0, 1, 1), (1, 2, 1)], min_degree=2)
        assert result.graph.n == 0
        assert result.report.removed_nodes.tolist() == [0, 1, 2]
        assert result.report.filter_rounds >= 2

    def test_self_loop_dropped_rest_preserved(self):
        result = tr.preprocess([(0, 1, 1), (2, 2, 1)])
        assert result.report.self_loops_removed == 1
        assert result.graph.original_ids.tolist() == [0, 1, 2]
        assert edge_list(result.graph, original_ids=True) == [(0, 1, 1)]

    def test_symmetrize_collapses_antiparallel(self):
        result = tr.preprocess([(0, 1, 1), (1, 0, 1), (0, 1, 1)])
        assert result.graph.m == 1
        assert result.report.duplicate_edges_collapsed == 2

    def test_conflicting_antiparallel_rejected(self):
        with pytest.raises(GraphError, match="conflicting"):
            tr.preprocess([(0, 1, 1), (1, 0, -1)])

    def test_min_degree_holds_after_filtering(self):
        g = random_signed_graph(np.random.default_rng(3))
        result = tr.preprocess(g, min_degree=3)
        assert (tr.stats(result.graph).degree >= 3).all()

    @pytest.mark.parametrize("min_degree", [float("nan"), 1.5, True, -1, "2", None])
    def test_min_degree_must_be_a_nonnegative_int(self, min_degree):
        # NaN would peel nothing, 1.5 would act as 2 and True as 1.
        message = f"^min_degree {re.escape(repr(min_degree))} must be a nonnegative integer$"
        with pytest.raises(ValueError, match=message):
            tr.preprocess([(0, 1, 1), (1, 2, 1)], min_degree=min_degree)

    def test_numpy_integer_min_degree_peels_as_its_int(self):
        records = [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1)]
        want = tr.preprocess(records, min_degree=2)
        got = tr.preprocess(records, min_degree=np.int64(2))
        assert got.graph == want.graph
        assert got.report.to_dict() == want.report.to_dict() != tr.preprocess(records).report.to_dict()

    def test_idempotent_without_injection(self):
        g = random_signed_graph(np.random.default_rng(7))
        once = tr.preprocess(g, min_degree=3)
        twice = tr.preprocess(once.graph, min_degree=3)
        assert twice.graph == once.graph
        assert twice.report.removed_nodes.tolist() == []

    def test_isolated_nodes_of_a_graph_survive_at_min_degree_zero(self):
        g = tr.load_graph([(0, 1, 1)], [(7, [])])
        assert g.original_ids.tolist() == [0, 1, 7] and g.attr_dim == 0
        result = tr.preprocess(g)
        assert result.graph == g
        assert result.report.removed_nodes.tolist() == []

    def test_isolated_nodes_of_a_graph_are_reported_removed(self):
        g = tr.load_graph([(0, 1, 1)], [(7, [])])
        result = tr.preprocess(g, min_degree=1)
        assert result.graph.original_ids.tolist() == [0, 1]
        assert result.report.removed_nodes.tolist() == [7]
        assert result.report.filter_rounds == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.sampled_from([1, -1])),
                 max_size=30),
        st.lists(st.integers(0, 15), max_size=6),
        st.integers(0, 2),
        st.integers(0, 3),
    )
    def test_idempotent_on_any_records(self, records, attr_nodes, dim, min_degree):
        # One sign per unordered pair, so that the records are valid.
        signs = {(min(u, w), max(u, w)): s for u, w, s in records}
        records = [(u, w, signs[min(u, w), max(u, w)]) for u, w, _ in records]
        attrs = [(v, [v / 7.0 - j for j in range(dim)]) for v in attr_nodes]
        once = tr.preprocess(records, min_degree=min_degree, attr_records=attrs)
        twice = tr.preprocess(once.graph, min_degree=min_degree)
        assert twice.graph == once.graph
        assert repr(twice.graph.original_ids) == repr(once.graph.original_ids)
        assert twice.report.removed_nodes.tolist() == []

    def test_injection_determinism(self):
        edges = [(i, i + 2, 1) for i in range(8)]
        inject = tr.NegativeInjection(count=3, seed=42, partition={i: i % 2 for i in range(10)})
        runs = [tr.preprocess(edges, inject=inject) for _ in range(2)]
        blobs = [
            json.dumps(
                {"edges": edge_list(r.graph, original_ids=True), "report": r.report.to_dict()},
                sort_keys=True,
            )
            for r in runs
        ]
        assert blobs[0] == blobs[1]

    def test_injection_adds_cross_partition_negatives(self):
        edges = [(i, i + 2, 1) for i in range(8)]
        partition = {i: i % 2 for i in range(10)}
        inject = tr.NegativeInjection(count=4, seed=5, partition=partition)
        result = tr.preprocess(edges, inject=inject)
        assert len(result.report.injected_edges) == 4
        edges = edge_list(result.graph)
        for u, w in result.report.injected_edges:
            assert partition[u] != partition[w]
            a, b = np.searchsorted(result.graph.original_ids, [u, w]).tolist()
            assert (min(a, b), max(a, b), -1) in edges
        assert tr.stats(result.graph).m_neg == 4

    def test_injection_exhausting_candidates_rejected(self):
        inject = tr.NegativeInjection(count=100, seed=0, partition={0: "a", 1: "b", 2: "a"})
        with pytest.raises(GraphError, match="cross-partition"):
            tr.preprocess([(0, 2, 1)], inject=inject)

    def test_injection_requires_full_partition(self):
        inject = tr.NegativeInjection(count=1, seed=0, partition={0: "a"})
        with pytest.raises(GraphError, match="partition labels missing"):
            tr.preprocess([(0, 1, 1)], inject=inject)

    @pytest.mark.parametrize("partition", [
        collections.defaultdict(lambda: "a", {0: "b"}), collections.Counter({0: 3}),
    ], ids=["defaultdict", "counter"])
    def test_a_dict_subclass_default_is_no_label(self, partition):
        """A node the partition does not list is missing, whatever the
        mapping's default, and the partition gains no key."""
        inject = tr.NegativeInjection(count=1, seed=0, partition=partition)
        with pytest.raises(GraphError, match=r"^partition labels missing for 2 nodes "
                                             r"\(first: \[1, 2\]\)$"):
            tr.preprocess([(0, 1, 1), (1, 2, 1)], inject=inject)
        assert list(partition) == [0]

    def test_report_serializes(self):
        result = tr.preprocess([(0, 1, 1), (1, 2, 1)], min_degree=2)
        payload = json.dumps(result.report.to_dict())
        assert "removed_nodes" in payload


def _messy_records(rng, n_ids=9, count=25, bad=0.0):
    """Scattered-id records with repeats, reversals, self-loops and 2-field records.

    With probability ``bad`` a record gets a negative id or a sign of 2.
    """
    ids = [int(v) for v in rng.choice(40, size=n_ids, replace=False)]
    records = []
    for _ in range(count):
        u, w = (ids[int(i)] for i in rng.integers(0, n_ids, size=2))
        s = 1 if rng.random() < 0.7 else -1
        if bad and rng.random() < bad:
            u, s = (-u - 1, s) if rng.random() < 0.5 else (u, 2)
        records.append((u, w) if s == 1 and rng.random() < 0.2 else (u, w, s))
    return records


def _reference_preprocess(records, min_degree):
    """The per-record dictionary loop and per-node peeling that preprocess
    replaces with arrays: (error text) or (edge list, node ids, report dict)."""
    pair_signs, nodes, loops = {}, set(), 0
    for rec in records:
        u, w, s = rec if len(rec) == 3 else (*rec, 1)
        for v in (u, w):
            if v < 0:
                return f"node id {v} must be a nonnegative integer"
        if s not in (1, -1):
            return f"edge ({u}, {w}) has sign {s}; signs must be +1 or -1"
        nodes.update((u, w))
        if u == w:
            loops += 1
            continue
        key = (min(u, w), max(u, w))
        prev = pair_signs.setdefault(key, s)
        if prev != s:
            return f"conflicting signs for edge {key}: {prev} and {s}"
    dups = len(records) - loops - len(pair_signs)
    adjacency = _adjacency(nodes, pair_signs)
    removed, rounds = _reference_peel(adjacency, min_degree)
    edges = sorted(
        (u, w, s) for (u, w), s in pair_signs.items() if u in adjacency and w in adjacency
    )
    report = {"self_loops_removed": loops, "duplicate_edges_collapsed": dups,
              "injected_edges": [], "removed_nodes": sorted(removed), "filter_rounds": rounds}
    return edges, tuple(sorted(adjacency)), report


def _adjacency(nodes, pairs):
    """Each of ``nodes`` mapped to the set of its neighbours along ``pairs``."""
    adjacency = {v: set() for v in nodes}
    for u, w in pairs:
        adjacency[u].add(w)
        adjacency[w].add(u)
    return adjacency


def _reference_peel(adjacency, min_degree):
    """Per-node peeling of ``adjacency`` in place, in synchronous rounds:
    the removed nodes and the number of rounds that removed any."""
    removed, rounds = [], 0
    while doomed := sorted(v for v in adjacency if len(adjacency[v]) < min_degree):
        rounds += 1
        for v in doomed:
            for w in adjacency.pop(v):
                adjacency.get(w, set()).discard(v)
        removed += doomed
    return removed, rounds


def _cross_non_edges(records, partition):
    """Every cross-partition non-adjacent pair, by enumeration."""
    nodes = sorted({v for rec in records for v in rec[:2]})
    existing = {(min(u, w), max(u, w)) for u, w, *_ in records}
    return [
        (u, w)
        for u, w in itertools.combinations(nodes, 2)
        if partition[u] != partition[w] and (u, w) not in existing
    ]


class TestInjectionSampling:
    def test_count_and_error_match_enumeration(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            count = int(rng.integers(3, 30))
            records = [(u, w, 1) for u, w, *_ in _messy_records(rng, count=count)]
            partition = {v: f"L{rng.integers(0, 3)}" for rec in records for v in rec[:2]}
            candidates = _cross_non_edges(records, partition)
            inject = tr.NegativeInjection(
                count=len(candidates) + 1, seed=seed, partition=partition
            )
            want = (
                f"cannot inject {len(candidates) + 1} negative edges: only "
                f"{len(candidates)} cross-partition non-edges are available"
            )
            with pytest.raises(GraphError) as info:
                tr.preprocess(records, inject=inject)
            assert str(info.value) == want

    def test_count_equal_to_available_injects_every_candidate(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            count = int(rng.integers(3, 30))
            records = [(u, w, 1) for u, w, *_ in _messy_records(rng, count=count)]
            partition = {v: int(rng.integers(0, 3)) for rec in records for v in rec[:2]}
            candidates = _cross_non_edges(records, partition)
            inject = tr.NegativeInjection(count=len(candidates), seed=seed, partition=partition)
            result = tr.preprocess(records, inject=inject)
            assert list(map(tuple, result.report.injected_edges.tolist())) == candidates

    def test_single_pick_is_uniform_over_candidates(self):
        # Labels of unequal size, two same-label edges and two of the eight
        # cross pairs taken: six candidates remain.
        records = [(0, 2, 1), (1, 3, 1), (2, 3, 1), (4, 5, 1)]
        partition = {0: "a", 1: "a", 2: "b", 3: "b", 4: "b", 5: "b"}
        candidates = _cross_non_edges(records, partition)
        assert len(candidates) == 6
        trials = 3000
        counts = {pair: 0 for pair in candidates}
        for seed in range(trials):
            inject = tr.NegativeInjection(count=1, seed=seed, partition=partition)
            report = tr.preprocess(records, inject=inject).report
            (pair,) = map(tuple, report.injected_edges.tolist())
            counts[pair] += 1
        p = 1 / len(candidates)
        sigma = (trials * p * (1 - p)) ** 0.5
        assert set(counts) == set(candidates)
        for pair, seen in counts.items():
            assert abs(seen - trials * p) <= 5 * sigma, (pair, seen)

    def test_memory_grows_with_count_not_pairs(self):
        n = 4000
        records = [(i, (i + 1) % n, 1) for i in range(n)]
        inject = tr.NegativeInjection(count=100, seed=3, partition={i: i % 2 for i in range(n)})
        tracemalloc.start()
        try:
            result = tr.preprocess(records, inject=inject)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.report.injected_edges) == 100
        assert peak < 20 * 2**20

    def test_negative_count_rejected(self):
        with pytest.raises(GraphError, match="cannot inject -1 negative edges"):
            tr.NegativeInjection(count=-1, seed=0, partition={})

    @pytest.mark.parametrize("count", [2.5, 2.0, True, "2", None])
    def test_count_that_is_not_an_int_is_rejected(self, count):
        """Rejected on construction, not as a TypeError while drawing."""
        with pytest.raises(GraphError, match=f"^cannot inject {re.escape(repr(count))} negative "
                                             "edges: the count must be a nonnegative integer$"):
            tr.NegativeInjection(count=count, seed=0, partition={v: v % 2 for v in range(8)})

    @pytest.mark.parametrize("seed", [-3, 1.5, 2.0, True, "7", None])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        """Rejected on construction, whether or not any pair could be drawn."""
        with pytest.raises(GraphError, match=f"^injection seed {re.escape(repr(seed))} "
                                             "must be a nonnegative integer$"):
            tr.NegativeInjection(count=1, seed=seed, partition={0: "a", 1: "b"})

    def test_numpy_integer_seed_draws_as_its_int(self):
        records, partition = [(v, v + 1, 1) for v in range(7)], {v: v % 2 for v in range(8)}
        drawn = [
            tr.preprocess(records, inject=tr.NegativeInjection(
                count=5, seed=seed, partition=partition)).report.injected_edges.tolist()
            for seed in (11, np.int64(11), np.uint8(11))
        ]
        assert drawn[0] == drawn[1] == drawn[2]

    def test_existing_edges_are_found_on_more_than_46341_nodes(self):
        """n * n > 2**31: a star whose centre is the only node of its label has
        every cross pair but ten as an edge, so only those ten can be injected."""
        n = 50_001
        centre, missing = n - 1, list(range(0, 5000, 500))
        spokes = sorted(set(range(centre)) - set(missing))
        records = [(v, centre, 1) for v in spokes] + list(zip(missing, missing[1:], [1] * 9))
        partition = {v: "rest" for v in range(centre)} | {centre: "centre"}
        result = tr.preprocess(
            records, inject=tr.NegativeInjection(count=10, seed=3, partition=partition)
        )
        injected = sorted(map(tuple, result.report.injected_edges.tolist()))
        assert injected == [(v, centre) for v in missing]


def _path(k):
    return [(v, v + 1) for v in range(k - 1)]


def _caterpillar(spine, legs):
    """A path of ``spine`` nodes, each with ``legs`` leaves of its own."""
    leaves = ((s, spine + s * legs + j) for s in range(spine) for j in range(legs))
    return _path(spine) + list(leaves)


def _spider(legs, length):
    """``legs`` paths of ``length`` nodes into hub 0, and the hub's edge to a
    triangle: peeled at min-degree 2, the legs reach the hub in one round."""
    pairs = [(0, 1), (1, 2), (1, 3), (2, 3)]
    for leg in range(legs):
        nodes = [0, *range(4 + leg * length, 4 + (leg + 1) * length)]
        pairs += zip(nodes, nodes[1:])
    return pairs


def _random_pairs(rng, n, m):
    pairs = {tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(m)}
    return sorted(pairs)


class TestPeel:
    def _cases(self):
        """``(n, pairs, min_degree)``: cascades of 0, 1 and many rounds, and
        nodes that lose several edges in one round; some nodes have no edge
        at all."""
        for k in (1, 2, 3, 4, 5, 8, 31):
            for min_degree in range(4):
                yield k + 2, _path(k), min_degree
        for spine, legs in ((1, 3), (4, 1), (6, 2), (15, 3)):
            pairs = _caterpillar(spine, legs)
            for min_degree in range(5):
                yield spine * (legs + 1), pairs, min_degree
        for legs, length in ((1, 3), (2, 1), (2, 4), (3, 6)):
            for min_degree in range(4):
                yield 4 + legs * length, _spider(legs, length), min_degree
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 80))
            pairs = _random_pairs(rng, n, int(rng.integers(0, 3 * n)))
            yield n, pairs, int(rng.integers(0, 5))

    def test_matches_the_per_node_reference(self):
        rounds_seen = set()
        for n, pairs, min_degree in self._cases():
            removed, rounds = _reference_peel(_adjacency(range(n), pairs), min_degree)
            rng = np.random.default_rng(len(pairs))
            # The pairs in order, then shuffled and each turned either way.
            order = [np.arange(len(pairs)), rng.permutation(len(pairs))]
            for k, at in enumerate(order):
                ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)[at]
                if k:
                    ends = np.where(rng.random((len(ends), 1)) < 0.5, ends, ends[:, ::-1])
                alive, got_rounds = tg._peel(n, ends[:, 0], ends[:, 1], min_degree)
                assert np.flatnonzero(~alive).tolist() == sorted(removed), (n, pairs, min_degree)
                assert got_rounds == rounds
            rounds_seen.add(rounds)
        assert {0, 1, 2}.issubset(rounds_seen) and max(rounds_seen) >= 8

    def test_graph_receives_ascending_pairs_after_injection(self, monkeypatch):
        """The injected pairs are merged into the kept ones, so the graph is
        handed pairs that already ascend and needs no sort of its own."""
        handed = []

        class Recorded(tg.AttributedGraph):
            def __init__(self, ids, lo, hi, signs, node_attrs):
                handed.append(bool((lo < hi).all() and tg._ascends(lo, hi).all()))
                super().__init__(ids, lo, hi, signs, node_attrs)

        monkeypatch.setattr(tg, "AttributedGraph", Recorded)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 60))
            records = [(u, w, 1) for u, w in _random_pairs(rng, n, 2 * n)]
            partition = {v: int(rng.integers(0, 3)) for v in range(n)}
            inject = tr.NegativeInjection(count=n // 2, seed=seed, partition=partition)
            result = tr.preprocess(records[::-1], min_degree=seed % 4, inject=inject)
            assert len(result.report.injected_edges) == n // 2
        assert handed == [True] * 10


class TestRecordValidation:
    @pytest.mark.parametrize(
        "records, message",
        [
            ([(0, 1, 1), (0, 1, 1, 1)], r"edge record \(0, 1, 1, 1\) must have 2 or 3 fields"),
            ([(0, 1, 1), (-1, 2, 1)], "node id -1 must be a nonnegative integer"),
            ([(0, 1, 1), (2.5, 1, 1)], "node id 2.5 must be a nonnegative integer"),
            ([(0, 1, 1), (True, 2, 1)], "node id True must be a nonnegative integer"),
            ([(0, 1, 1), (np.True_, 2, 1)],
             f"node id {re.escape(repr(np.True_))} must be a nonnegative integer"),
            ([(0, 1, 1), (1, 2, 2)], r"edge \(1, 2\) has sign 2; signs must be \+1 or -1"),
            ([(0, 1, 1), (1, 2, True)], r"edge \(1, 2\) has sign True; signs must be \+1 or -1"),
            ([(0, 1, 1), (1, 2, np.True_)],
             rf"edge \(1, 2\) has sign {re.escape(repr(np.True_))}; signs must be \+1 or -1"),
            ([(0, 1, 1), (3, 4), (1, 0, -1)], r"conflicting signs for edge \(0, 1\): 1 and -1"),
            ([(0, 1), (1.0, 0, -1)], r"conflicting signs for edge \(0, 1\): 1 and -1"),
            # Arrays name plain ints in their errors, as lists do.
            (np.array([[0, 1, 1, 1]]), r"edge record \(0, 1, 1, 1\) must have 2 or 3 fields"),
            (np.array([[0, 1, 1], [-3, 2, 1]]), "node id -3 must be a nonnegative integer"),
            (np.array([[0, 1, 1], [2, 3, 4]]), r"edge \(2, 3\) has sign 4; signs must be \+1 or -1"),
            # int() of these raises OverflowError, ValueError or TypeError.
            ([(0, 1, 1), (0, float("inf"), 1)], "node id inf must be a nonnegative integer"),
            ([(0, 1, 1), (float("nan"), 2, 1)], "node id nan must be a nonnegative integer"),
            (np.array([[0, 1, 1], [0, np.inf, 1]]), "node id inf must be a nonnegative integer"),
            (np.array([[0, 1, 1], [np.nan, 2, 1]]), "node id nan must be a nonnegative integer"),
            ([(0, 1, 1), (0, None, 1)], "node id None must be a nonnegative integer"),
            ([(0, 1, 1), ("x", 2, 1)], "node id 'x' must be a nonnegative integer"),
        ],
        ids=["fields", "node-id", "float-id", "bool-id", "numpy-bool-id", "sign", "bool-sign",
             "numpy-bool-sign", "conflict", "mixed-conflict",
             "array-fields", "array-node-id", "array-sign", "inf-id", "nan-id", "array-inf-id",
             "array-nan-id", "none-id", "text-id"],
    )
    def test_load_graph_and_preprocess_report_the_same_error(self, records, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            tr.load_graph(records)
        with pytest.raises(GraphError, match=f"^{message}$"):
            tr.preprocess(records)

    @pytest.mark.parametrize("attrs", [
        [(0, [1.0]), (float("inf"), [2.0])],
        (np.array([0.0, np.inf]), np.ones((2, 1))),
    ], ids=["records", "arrays"])
    def test_non_finite_attribute_node_id_is_a_graph_error(self, attrs):
        message = "^node id inf must be a nonnegative integer$"
        with pytest.raises(GraphError, match=message):
            tr.load_graph([(0, 1, 1)], attrs)
        with pytest.raises(GraphError, match=message):
            tr.preprocess([(0, 1, 1)], attr_records=attrs)

    def test_self_loop_is_an_error_only_in_load_graph(self):
        with pytest.raises(GraphError, match="^self-loop on node 7 is not allowed$"):
            tr.load_graph([(0, 1, 1), (7, 7, -1)])
        assert tr.preprocess([(0, 1, 1), (7, 7, -1)]).report.self_loops_removed == 1

    @pytest.mark.parametrize(
        "records, load_message, preprocess_message",
        [
            ([(0, 1, 1), (1, 0, -1), (2, 2, 1), (3, 4, 5)], "conflicting", "conflicting"),
            ([(0, 1, 1), (2, 2, 1), (1, 0, -1), (3, 4, 5)], "self-loop", "conflicting"),
            ([(0, 1, 1), (3, 4, 5), (1, 0, -1)], "sign 5", "sign 5"),
            ([(0, 1, 1), (3, 3, 1), (4, -5, 1), (1, 0, -1)], "self-loop", "node id -5"),
        ],
    )
    def test_first_bad_record_in_input_order_is_reported(
        self, records, load_message, preprocess_message
    ):
        with pytest.raises(GraphError, match=load_message):
            tr.load_graph(records)
        with pytest.raises(GraphError, match=preprocess_message):
            tr.preprocess(records)

    def test_matches_reference_loop_on_messy_records(self):
        """Each case as given and as an int64 array of 3-field rows."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            records = _messy_records(rng, bad=0.02 if seed % 2 else 0.0)
            min_degree = int(rng.integers(0, 4))
            want = _reference_preprocess(records, min_degree)
            rows = np.array([(*rec, 1)[:3] for rec in records], dtype=np.int64)
            for source in (records, rows):
                if isinstance(want, str):
                    with pytest.raises(GraphError, match=f"^{re.escape(want)}$"):
                        tr.preprocess(source, min_degree=min_degree)
                    continue
                result = tr.preprocess(source, min_degree=min_degree)
                edges, nodes, report = want
                assert edge_list(result.graph, original_ids=True) == edges
                assert tuple(result.graph.original_ids.tolist()) == nodes
                assert result.report.to_dict() == report
                _check_csr_accessors(result.graph, edges, nodes, report["removed_nodes"], rng)

    def test_array_and_list_records_load_alike(self):
        """load_graph on an int64 array gives the graph or the first error of the list."""
        seen = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            records = [(*rec, 1)[:3] for rec in _messy_records(rng, bad=0.02)]
            if seed % 2:
                records = [rec for rec in records if rec[0] != rec[1]]
            want = _load_outcome(records)
            seen.add(want.split(" ")[0] if isinstance(want, str) else "graph")
            for dtype in (np.int64, np.int32, np.int16):
                assert _load_outcome(np.array(records).astype(dtype)) == want
            assert _load_outcome(np.array(records)[:, :2]) == _load_outcome(
                [rec[:2] for rec in records]
            )
        assert seen == {"graph", "self-loop", "node", "edge", "conflicting"}

    def test_array_with_bad_rows_fails_as_its_list_does(self, monkeypatch):
        """Bad ids and signs planted at random rows, some behind an earlier
        self-loop or sign conflict, give the error of the same records as a
        list, and an int64 array checks at most its first bad row as a record."""
        checked = []
        check = tg._check_record
        monkeypatch.setattr(tg, "_check_record", lambda rec: checked.append(rec) or check(rec))
        seen = set()
        for seed in range(150):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(3, 30)), int(rng.integers(1, 60))
            rows = np.column_stack([rng.integers(0, n, (k, 2)), rng.choice([-1, 1], k)])
            for at in rng.choice(k, size=int(rng.integers(0, 3)), replace=False):
                col = int(rng.integers(0, 3))
                rows[at, col] = rng.choice([-2, 0, 2]) if col == 2 else -rng.integers(1, 10)
            for build in (tr.load_graph, lambda records: tr.preprocess(records).graph):
                want = _load_outcome(rows.tolist(), build)
                seen.add(want.split(" ")[0] if isinstance(want, str) else "graph")
                for dtype in (np.int64, np.int32):
                    checked.clear()
                    assert _load_outcome(rows.astype(dtype), build) == want
                    assert len(checked) <= 1
        assert seen == {"graph", "self-loop", "node", "edge", "conflicting"}

    def test_attribute_array_with_a_bad_row_fails_as_its_records_do(self, monkeypatch):
        """A negative id or a non-finite value planted at a random row gives the
        error of the same records, and only that row is checked as a record."""
        checked = []
        attr_rows = tg._attr_rows

        def counted(records):
            records = list(records)
            checked.append(len(records))
            return attr_rows(records)

        monkeypatch.setattr(tg, "_attr_rows", counted)
        for seed in range(60):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, 40))
            ids, values = rng.integers(0, 8, k), rng.normal(size=(k, 3))
            for at in rng.choice(k, size=int(rng.integers(0, 3)), replace=False):
                if rng.random() < 0.5:
                    ids[at] = -rng.integers(1, 10)
                else:
                    values[at, rng.integers(0, 3)] = rng.choice([np.nan, np.inf, -np.inf])
            for build in ATTR_BUILDS.values():
                want = _built(build, list(zip(ids.tolist(), values.tolist())))
                checked.clear()
                assert _built(build, (ids, values)) == want
                assert sum(checked) <= 1

    def test_arrays_that_are_not_int64_are_walked(self):
        big = 2**64 - 1
        rows = np.array([[big, 3, 1], [3, 4, 1]], dtype=np.uint64)
        g = tr.load_graph(rows)
        assert g.original_ids.tolist() == [3, 4, big] and g.original_ids.dtype == object
        assert g == tr.load_graph(rows.tolist())
        assert tr.load_graph(np.array([[0.0, 1.0, -1.0]])) == tr.load_graph([(0, 1, -1)])
        with pytest.raises(GraphError, match="^node id True must be a nonnegative integer$"):
            tr.load_graph(np.array([[True, False]]))
        empty = tr.load_graph(np.empty((0, 3), dtype=np.int64))
        assert (empty.n, empty.m) == (0, 0)

    def test_node_ids_beyond_int64_are_kept(self):
        big = 2**70
        g = tr.load_graph([(big, 3, -1), (3, big + 1)])
        assert g.original_ids.tolist() == [3, big, big + 1] and g.original_ids.dtype == object
        assert edge_list(g, original_ids=True) == [(3, big, -1), (3, big + 1, 1)]


def _reference_edges(records, drop_self_loops):
    """``_validate_edges`` by two ``np.unique`` sorts: every endpoint id, then
    the pair codes with the first record of each (a stable sort)."""
    rows, error = tg._record_rows(records)
    ids, index = np.unique(rows[:, :2], return_inverse=True)
    u, w = index.reshape(-1, 2).T
    loops = u == w
    if not drop_self_loops and loops.any():
        first = int(np.argmax(loops))
        error = GraphError(f"self-loop on node {rows[first, 0]} is not allowed")
        rows, u, w, loops = rows[:first], u[:first], w[:first], loops[:first]
    pair = ~loops
    lo, hi = np.minimum(u, w)[pair], np.maximum(u, w)[pair]
    signs = rows[pair, 2].astype(np.int64)
    n = ids.size
    codes, first_of, pair_of = np.unique(
        lo.astype(np.int64) * n + hi, return_index=True, return_inverse=True
    )
    kept = signs[first_of]
    clash = signs != kept[pair_of.reshape(-1)]
    if clash.any():
        k = int(np.argmax(clash))
        key = tuple(ids[[lo[k], hi[k]]].tolist())
        raise GraphError(f"conflicting signs for edge {key}: {kept[pair_of[k]]} and {signs[k]}")
    if error is not None:
        raise error
    return tg._Edges(ids, *np.divmod(codes, n), kept, int(loops.sum()), lo.size - codes.size)


def _edges_outcome(validate, records, drop_self_loops):
    try:
        e = validate(records, drop_self_loops=drop_self_loops)
    except GraphError as exc:
        return str(exc)
    return (e.ids.tolist(), e.lo.tolist(), e.hi.tolist(), e.signs.tolist(),
            e.self_loops, e.duplicates)


# Node ids: dense (a mask over them is small), sparse (max id >> record count),
# near the int64 limit, and beyond it.
ID_POOLS = {
    "dense": st.integers(0, 12),
    "sparse": st.integers(0, 2**40),
    "near-int64-max": st.integers(2**63 - 20, 2**63 - 1),
    "beyond-int64": st.integers(2**63 - 3, 2**64 + 3),
}


@st.composite
def _ingest_records(draw):
    """Records over a few node ids, so that repeats, reversals, self-loops and
    conflicts are common, with the odd bad sign; as a list or an int64 array."""
    pool = draw(st.lists(draw(st.sampled_from(list(ID_POOLS.values()))),
                         min_size=1, max_size=8, unique=True))
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.integers(0, len(pool) - 1),
                  st.sampled_from([1, -1, 1, -1, 1, 2])),
        max_size=40,
    ))
    records = [(pool[a], pool[b], s) for a, b, s in picks]
    if draw(st.booleans()) and max(pool) < 2**63:
        return np.array(records, dtype=np.int64).reshape(-1, 3)
    return records


class TestIngestRoutes:
    @settings(max_examples=400, deadline=None)
    @given(_ingest_records(), st.booleans())
    def test_edges_match_the_sorting_reference(self, records, drop_self_loops):
        """Dense ids through the presence mask and pairs through one unstable
        sort give the edges, counts and error texts of the np.unique route."""
        want = _edges_outcome(_reference_edges, records, drop_self_loops)
        assert _edges_outcome(tg._validate_edges, records, drop_self_loops) == want

    def test_shuffled_duplicate_heavy_records_match_the_reference(self):
        rng = np.random.default_rng(11)
        for n_ids, top in ((30, 60), (30, 10**9), (300, 1000)):
            ids = rng.choice(top, size=n_ids, replace=False)
            ends = ids[rng.integers(0, n_ids, size=(2000, 2))]
            signs = np.where((ends.min(1) + ends.max(1)) % 3 == 0, -1, 1)
            rows = np.column_stack((ends, signs))
            for records in (rows, rows[rng.permutation(len(rows))], rows[:0]):
                for drop in (False, True):
                    want = _edges_outcome(_reference_edges, records, drop)
                    assert _edges_outcome(tg._validate_edges, records, drop) == want
            # A reversed repeat of an edge with the other sign, late in the input.
            k = int(np.argmax(rows[:, 0] != rows[:, 1]))
            rows = np.insert(rows, 1500, [rows[k, 1], rows[k, 0], -rows[k, 2]], axis=0)
            want = _edges_outcome(_reference_edges, rows, True)
            assert want.startswith("conflicting signs")
            assert _edges_outcome(tg._validate_edges, rows, True) == want

    @pytest.mark.parametrize("rows", [
        [[2**62, 2**62 + 5, 1], [2**62 + 5, 3, -1], [3, 2**62, 1]],
        [[5_000_000, 1, 1], [1, 2, 1], [2, 3, -1], [3, 4, 1], [4, 5, 1]],
    ], ids=["near-2**62", "one-far-id"])
    def test_sparse_ids_allocate_no_mask(self, rows):
        rows = np.array(rows, dtype=np.int64)
        tracemalloc.start()
        try:
            g = tr.load_graph(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(g.original_ids, np.unique(rows[:, :2]))
        assert peak < 2**20

    @pytest.mark.parametrize("n", [2, 3_000, 140_000])
    def test_csr_matches_a_lexsort_reference(self, n):
        """The placement (one stable sort by row) gives the CSR of a
        row-major sort of both directions of every edge, and the pairs are
        those in order, from pairs in order or those of another graph.
        Shuffled and partly reversed, the pairs are refused."""
        rng = np.random.default_rng(n)
        codes = np.unique(rng.integers(0, n * n, size=2 * n))
        lo, hi = np.divmod(codes, n)
        lo, hi = lo[lo < hi], hi[lo < hi]
        signs = rng.choice(np.array([1, -1]), size=lo.size)
        rows, cols = np.concatenate((lo, hi)), np.concatenate((hi, lo))
        order = np.lexsort((cols, rows))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        want = (indptr, cols[order], np.concatenate((signs, signs))[order])
        shuffle = rng.permutation(lo.size)
        flip = rng.random(lo.size) < 0.5
        flip[:1] = True  # at least one pair high end first
        if lo.size:
            with pytest.raises(GraphError, match="is given high end first|pairs must ascend"):
                tr.AttributedGraph(range(n), np.where(flip, hi, lo)[shuffle],
                                   np.where(flip, lo, hi)[shuffle], signs[shuffle],
                                   np.zeros((n, 0)))
        # A graph's own pairs are read-only, narrow and in order.
        own = tr.AttributedGraph(range(n), lo, hi, signs, np.zeros((n, 0))).pairs()
        for pairs in ((lo, hi, signs), own):
            g = tr.AttributedGraph(range(n), *pairs, np.zeros((n, 0)))
            indptr, indices, entry_signs = g.csr()
            assert (indices.dtype, entry_signs.dtype) == (tg._index_dtype(n), np.int8)
            for got, expected in zip(g.csr(), want):
                np.testing.assert_array_equal(got, expected)
            for got, expected in zip(g.pairs(), (lo, hi, signs)):
                np.testing.assert_array_equal(got, expected)

    def test_codes_beyond_int32_on_a_graph_of_more_than_46341_nodes(self):
        """n * n > 2**31, with edges among the highest ids: the pair codes
        and rankings equal those of the same edges on nodes 0..3, shifted."""
        n = 50_003
        off = n - 4
        small_edges = [(0, 1, 1), (1, 2, -1), (2, 3, 1), (0, 3, -1), (0, 2, 1)]
        g = tr.load_graph([(u + off, w + off, s) for u, w, s in small_edges],
                          (np.arange(n), np.ones((n, 1))))
        small = tr.load_graph(small_edges, (np.arange(4), np.ones((4, 1))))
        for measure in (tr.SignProduct(), tr.SignMin(), tr.MinInnerProduct([1.0])):
            model = tr.TiltModel(g, measure, tr.WalkConfig(0.6, 0.4))
            reference = tr.TiltModel(small, measure, tr.WalkConfig(0.6, 0.4))
            b, want = verify.bivariate(model, 0.7), verify.bivariate(reference, 0.7)
            codes = [(c // 4 + off) * n + c % 4 + off for c in want.codes.tolist()]
            assert b.codes.tolist() == codes
            indptr, indices, _ = g.csr()
            row = indices[indptr[off]:indptr[off + 1]]  # int32 ids
            assert b.pair_mass(row[0], row[-1]) == want.pair_mass(1, 3) > 0
            np.testing.assert_allclose(b.masses, want.masses, rtol=1e-14)
            ranking = model.ranking(0.7)
            np.testing.assert_allclose(
                ranking.scores[off:], reference.ranking(0.7).scores, rtol=1e-14
            )
            assert not ranking.scores[:off].any()
            assert ranking.order[:4].tolist() == (reference.ranking(0.7).order + off).tolist()
            np.testing.assert_allclose(verify.marginal(b).scores, ranking.scores, rtol=1e-12)


NAN, INF, BIG = float("nan"), float("inf"), 2**70
ATTR_EDGES = [(0, 1, 1), (1, 2, -1), (2, 3, 1)]

# Records, and either the GraphError text or the attribute rows by node id.
ATTR_CASES = {
    "negative-id": ([(0, [0.5]), (-1, [0.25])], "node id -1 must be a nonnegative integer"),
    "nan-in-later-row": ([(0, [0.5, 1.0]), (2, [0.25, NAN])],
                         "attribute vector for node 2 must be finite"),
    "inf-in-later-row": ([(0, [0.5]), (1, [0.5]), (3, [-INF])],
                         "attribute vector for node 3 must be finite"),
    "first-bad-row-wins": ([(1, [NAN]), (-2, [0.5])],
                           "attribute vector for node 1 must be finite"),
    "later-duplicate-wins": ([(0, [0.5]), (1, [0.25]), (0, [0.75])],
                             {0: [0.75], 1: [0.25], 2: [0.0]}),
    "attribute-only-nodes": ([(9, [1.0]), (7, [2.0])], {0: [0.0], 7: [2.0], 9: [1.0]}),
    "beyond-int64": ([(BIG, [1.0]), (2**63, [2.0]), (1, [3.0])],
                     {1: [3.0], 2**63: [2.0], BIG: [1.0]}),
    "no-records": ([], {0: [], 3: []}),
}


def _attr_pair(records):
    """``records`` as the ``(ids, values)`` arrays that ``io.read_attributes`` returns."""
    nodes = [node for node, _ in records]
    try:
        ids = np.array(nodes, dtype=np.int64)
    except OverflowError:
        ids = np.array(nodes, dtype=object)
    vectors = [vec for _, vec in records]
    return ids, np.array(vectors, dtype=float).reshape(len(vectors), -1 if vectors else 0)


def _built(build, attrs):
    """The graph's ids (by ``repr``, so ints and floats differ), edges and
    attribute rows, or the text of its GraphError."""
    try:
        g = build(ATTR_EDGES, attrs)
    except GraphError as exc:
        return str(exc)
    return repr(g.original_ids), edge_list(g), g.node_attrs.tolist()


ATTR_BUILDS = {
    "load_graph": tr.load_graph,
    "preprocess": lambda edges, attrs: tr.preprocess(edges, attr_records=attrs).graph,
}


class TestAttributeArrays:
    @pytest.mark.parametrize("build", ATTR_BUILDS.values(), ids=ATTR_BUILDS.keys())
    @pytest.mark.parametrize("records, expected", ATTR_CASES.values(), ids=ATTR_CASES.keys())
    def test_arrays_and_records_build_the_same_graph(self, build, records, expected):
        want = _built(build, records)
        assert _built(build, _attr_pair(records)) == want
        if isinstance(expected, str):
            assert want == expected
            return
        g = build(ATTR_EDGES, _attr_pair(records))
        assert all(type(v) is int for v in g.original_ids.tolist())
        rows = np.searchsorted(g.original_ids, list(expected)).tolist()
        assert dict(zip(expected, g.node_attrs[rows].tolist())) == expected

    def test_ragged_rows_of_the_line_reader_are_rejected_as_records_are(self):
        records = [(0, [0.5, 0.25]), (1, [0.5, 1.0]), (2, [0.5])]
        values = np.empty(3, dtype=object)
        values[:] = [vec for _, vec in records]
        pair = (np.array([0, 1, 2]), values)
        message = "ragged attribute vectors: node 2 has length 1, expected 2"
        for build in ATTR_BUILDS.values():
            assert _built(build, records) == message
            assert _built(build, pair) == message

    def test_integer_values_and_unsigned_ids_load_as_records_do(self):
        pair = (np.array([2**64 - 1, 1], dtype=np.uint64), np.array([[1, 2], [3, 4]]))
        records = [(2**64 - 1, [1.0, 2.0]), (1, [3.0, 4.0])]
        for build in ATTR_BUILDS.values():
            assert _built(build, pair) == _built(build, records)

    def test_dimension_is_zero_without_records_on_the_graph(self):
        empty = (np.empty(0, dtype=np.int64), np.empty((0, 3)))
        assert tr.load_graph(ATTR_EDGES, empty).attr_dim == 0
        # Node 9 holds the only record and has no edge, so min_degree removes it.
        for attrs in ([(9, [1.0, 2.0])], _attr_pair([(9, [1.0, 2.0])])):
            assert tr.preprocess(ATTR_EDGES, min_degree=1, attr_records=attrs).graph.attr_dim == 0

    def test_a_two_dimensional_vector_is_rejected(self):
        for build in ATTR_BUILDS.values():
            assert _built(build, [(0, [[0.5, 1.0]]), (1, [0.25])]) == (
                "attribute vector for node 0 must be one-dimensional")

    def test_preprocess_of_a_graph_takes_no_attribute_records(self):
        g = tr.load_graph(ATTR_EDGES, [(0, [0.5])])
        message = "^attr_records cannot be combined with a graph source$"
        with pytest.raises(ValueError, match=message):
            tr.preprocess(g, attr_records=[(0, [0.5])])

    def test_ids_and_values_of_different_lengths_are_rejected(self):
        pair = (np.array([0, 1, 2]), np.ones((2, 3)))
        with pytest.raises(GraphError, match="^3 attribute node ids but 2 attribute vectors$"):
            tr.load_graph(ATTR_EDGES, pair)

    @pytest.mark.parametrize("offset", [0, BIG])
    def test_preprocess_of_a_graph_keeps_its_attribute_rows(self, offset):
        g = random_signed_graph(np.random.default_rng(11), n_min=8)
        edges = [(u + offset, w + offset, s) for u, w, s in edge_list(g, original_ids=True)]
        records = [(v + offset, vec) for v, vec in zip(g.original_ids.tolist(), g.node_attrs)]
        g = tr.load_graph(edges, records)
        want = tr.preprocess(edges, min_degree=3, attr_records=records)
        got = tr.preprocess(g, min_degree=3)
        assert got.graph == want.graph and got.graph.attr_dim == 2
        assert repr(got.graph.original_ids) == repr(want.graph.original_ids)
        assert got.report.removed_nodes.tolist() == want.report.removed_nodes.tolist()


def _load_outcome(records, build=tr.load_graph):
    """The built graph's ids and edges, or the text of its GraphError."""
    try:
        g = build(records)
    except GraphError as exc:
        return str(exc)
    return g.original_ids.dtype, g.original_ids.tolist(), edge_list(g, original_ids=True)


def _check_csr_accessors(g, edges, nodes, removed, rng):
    """The graph's CSR rows and signs against the reference pair -> sign dict."""
    pair_signs = {(nodes.index(u), nodes.index(w)): s for u, w, s in edges}
    assert g.m == len(pair_signs)
    indptr, indices, signs = g.csr()
    for u in range(g.n):
        row = indices[indptr[u]:indptr[u + 1]].tolist()
        row_signs = signs[indptr[u]:indptr[u + 1]].tolist()
        want = {w: pair_signs.get((min(u, w), max(u, w))) for w in range(g.n)}
        assert dict(zip(row, row_signs)) == {w: s for w, s in want.items() if s is not None}
    assert edge_list(g) == [(u, w, s) for (u, w), s in pair_signs.items()]
    assert edge_list(g, original_ids=True) == edges
    assert g.original_ids.tolist() == list(nodes)
    assert not np.isin([*removed, 40], g.original_ids).any()

    # Rebuilt from the reference pairs, which ascend.  Shuffled and half of
    # them reversed, they are refused unless that left them as they were.
    pairs = np.array(list(pair_signs), dtype=np.int64).reshape(-1, 2)
    signs = np.array(list(pair_signs.values()), dtype=np.int64)
    order = rng.permutation(signs.size)
    flip = rng.random(signs.size) < 0.5
    lo, hi = pairs[:, 0], pairs[:, 1]
    attrs = np.zeros((g.n, 0))
    assert tr.AttributedGraph(nodes, lo, hi, signs, attrs) == g
    if flip.any() or (order != np.arange(signs.size)).any():
        with pytest.raises(GraphError, match="is given high end first$|; pairs must ascend$"):
            tr.AttributedGraph(nodes, np.where(flip, hi, lo)[order],
                               np.where(flip, lo, hi)[order], signs[order], attrs)
    if signs.size:
        signs[0] = -signs[0]
        assert tr.AttributedGraph(nodes, lo, hi, signs, attrs) != g
