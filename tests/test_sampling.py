"""The base short-walk distribution and its enumeration."""

import math
import tracemalloc

import numpy as np
import pytest

import twistrank as tr
from twistrank import verify
from twistrank.errors import EnumerationBudgetError, GraphError

from conftest import random_signed_graph, skewed_signed_graph


class TestBaseWalk:
    def test_beta_validation(self):
        with pytest.raises(ValueError):
            tr.WalkConfig(0.5, 0.6)
        with pytest.raises(ValueError):
            tr.WalkConfig(-0.1, 1.1)


class TestEnumeration:
    def test_triangle_length_one_count(self, triangle_pos):
        (one, p1), (two, p2) = tr.enumerate_paths(triangle_pos, tr.WalkConfig(1.0, 0.0))
        assert (one.shape, p1.shape, two.shape, p2.shape) == ((6, 2), (6,), (0, 3), (0,))

    def test_triangle_length_two_count_with_backtracking(self, triangle_pos):
        (one, _), (two, _) = tr.enumerate_paths(triangle_pos, tr.WalkConfig(0.0, 1.0))
        assert (one.shape, two.shape) == ((0, 2), (12, 3))
        assert np.any(two[:, 0] == two[:, 2])

    def test_single_edge(self):
        g = tr.load_graph([(0, 1, 1)])
        (one, p1), _ = tr.enumerate_paths(g, tr.WalkConfig(1.0, 0.0))
        assert sorted(map(tuple, one.tolist())) == [(0, 1), (1, 0)]
        assert all(p == pytest.approx(0.5) for p in p1)

    @pytest.mark.parametrize("beta1", [1.0, 0.7, 0.0])
    def test_total_mass_is_one(self, beta1):
        cfg = tr.WalkConfig(beta1, 1.0 - beta1)
        for seed in range(10):
            g = random_signed_graph(np.random.default_rng(seed))
            (_, p1), (_, p2) = tr.enumerate_paths(g, cfg)
            total = sum(p1.tolist() + p2.tolist())
            assert abs(total - 1.0) <= 1e-12

    def test_each_path_emitted_once(self):
        g = random_signed_graph(np.random.default_rng(4))
        blocks = tr.enumerate_paths(g, tr.WalkConfig(0.5, 0.5))
        paths = [tuple(row) for nodes, _ in blocks for row in nodes.tolist()]
        assert len(paths) == len(set(paths)) == tr.path_count(g, tr.WalkConfig(0.5, 0.5))

    def test_budget_enforced_before_yielding(self, triangle_pos, monkeypatch):
        monkeypatch.setattr(tr.sampling, "DEFAULT_PATH_BUDGET", 3)
        with pytest.raises(EnumerationBudgetError) as err:
            tr.enumerate_paths(triangle_pos, tr.WalkConfig(1.0, 0.0))
        assert (err.value.required, err.value.budget) == (6, 3)

    def test_edgeless_graph_rejected(self):
        g = tr.load_graph([], [(0, [1.0]), (1, [2.0])])
        with pytest.raises(GraphError, match="edgeless"):
            tr.enumerate_paths(g, tr.WalkConfig(1.0, 0.0))


def _walk_loop(g, cfg):
    """Every walk with its base mass, one at a time: the per-walk loop the
    blocks replaced, kept as their reference."""
    indptr, indices, _ = g.csr()
    indptr, indices = indptr.tolist(), indices.tolist()
    rows = [indices[start:stop] for start, stop in zip(indptr, indptr[1:])]
    two_m = 2 * g.m
    if cfg.beta1 > 0:
        p1 = cfg.beta1 / two_m
        for u, nb in enumerate(rows):
            for w in nb:
                yield (u, w), p1
    if cfg.beta2 > 0:
        for v, nb in enumerate(rows):
            if not nb:
                continue
            p2 = cfg.beta2 / (two_m * len(nb))
            for u in nb:
                for w in nb:
                    yield (u, v, w), p2


def _block_graphs():
    # Isolated nodes 0, 5 and 9 leave empty CSR rows at the start, middle and
    # end; 4 is a leaf.  The 70,000-node graph has isolated nodes too, and
    # its node ids times n overflow int32.
    edges = [(1, 2, 1), (1, 3, -1), (2, 3, 1), (3, 4, -1), (6, 7, -1), (6, 8, 1), (7, 8, -1)]
    isolated = tr.load_graph(edges, [(v, []) for v in range(10)])
    graphs = [isolated, skewed_signed_graph(np.random.default_rng(5), 70_000, 2_000)]
    return graphs + [random_signed_graph(np.random.default_rng(seed)) for seed in range(3)]


# 5e-324 is the smallest subnormal: the masses of its walks underflow to 0.
# At beta2 = 1e-319 only the walks through middle nodes of low degree keep
# their mass.
WALK_MIXES = [(1.0, 0.0), (0.7, 0.3), (0.0, 1.0), (5e-324, 1.0), (1.0, 5e-324), (1.0, 1e-319)]


class TestBlocks:
    @pytest.mark.parametrize("beta", WALK_MIXES)
    def test_blocks_match_the_walk_loop(self, beta):
        walk = tr.WalkConfig(*beta)
        for g in _block_graphs():
            want = [(nodes, p) for nodes, p in _walk_loop(g, walk) if p > 0]
            table = tr.path_table(g, tr.SignMin(), walk)
            got = []
            for nodes, _ in tr.enumerate_paths(g, walk):
                assert nodes.dtype == g.csr()[1].dtype
                got += map(tuple, nodes.tolist())
            assert got == [nodes for nodes, _ in want]
            masses = np.array([p for _, p in want])
            logs = np.array([math.log(p) for _, p in want])
            assert masses.tobytes() == table.p0.tobytes()
            assert logs.tobytes() == table.logp0.tobytes()
            assert len(table.f) == len(want)

    @pytest.mark.parametrize("beta", WALK_MIXES)
    def test_reverse_index_finds_each_walks_reverse(self, beta):
        walk = tr.WalkConfig(*beta)
        for g in _block_graphs():
            table = tr.path_table(g, tr.SignProduct(), walk)
            one, two = table.walks
            rev = verify._reverse_index(table)
            assert np.array_equal(one[rev[: len(one)]], one[:, ::-1])
            assert np.array_equal(two[rev[len(one):] - len(one)], two[:, ::-1])


def test_path_table_keeps_under_100_bytes_per_walk():
    g = skewed_signed_graph(np.random.default_rng(5), 70_000, 20_000)
    g.csr()  # placed once per graph, not per table
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = tr.path_table(g, tr.SignMin(), tr.WalkConfig(0.5, 0.5))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.f.size >= 300_000
    assert kept / table.f.size < 100
