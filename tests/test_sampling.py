"""The base short-walk distribution and its enumeration."""

import numpy as np
import pytest

import twistrank as tr
from twistrank.errors import EnumerationBudgetError, GraphError

from conftest import random_signed_graph


class TestBaseWalk:
    def test_beta_validation(self):
        with pytest.raises(ValueError):
            tr.WalkConfig(0.5, 0.6)
        with pytest.raises(ValueError):
            tr.WalkConfig(-0.1, 1.1)


class TestEnumeration:
    def test_triangle_length_one_count(self, triangle_pos):
        paths = list(tr.enumerate_paths(triangle_pos, tr.WalkConfig(1.0, 0.0)))
        assert len(paths) == 6

    def test_triangle_length_two_count_with_backtracking(self, triangle_pos):
        paths = list(tr.enumerate_paths(triangle_pos, tr.WalkConfig(0.0, 1.0)))
        assert len(paths) == 12
        assert any(p.nodes[0] == p.nodes[2] for p in paths)

    def test_single_edge(self):
        g = tr.load_graph([(0, 1, 1)])
        paths = list(tr.enumerate_paths(g, tr.WalkConfig(1.0, 0.0)))
        assert sorted(p.nodes for p in paths) == [(0, 1), (1, 0)]
        assert all(p.base_prob == pytest.approx(0.5) for p in paths)

    @pytest.mark.parametrize("beta1", [1.0, 0.7, 0.0])
    def test_total_mass_is_one(self, beta1):
        cfg = tr.WalkConfig(beta1, 1.0 - beta1)
        for seed in range(10):
            g = random_signed_graph(np.random.default_rng(seed))
            total = sum(p.base_prob for p in tr.enumerate_paths(g, cfg))
            assert abs(total - 1.0) <= 1e-12

    def test_each_path_emitted_once(self):
        g = random_signed_graph(np.random.default_rng(4))
        paths = [p.nodes for p in tr.enumerate_paths(g, tr.WalkConfig(0.5, 0.5))]
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
