"""Measure atoms and start marginals against the path-enumeration oracle.

The production path (``resolve_theta``, ``centrality``, ``sweep``) works
from per-node statistics; these tests pin it to ``solve_theta_numeric``,
``twist`` and ``bivariate`` on the seeded corpus.
"""

import importlib
import math

import numpy as np
import pytest

import twistrank as tr
from twistrank import sampling, twisting
from twistrank.errors import SolveError

from conftest import random_signed_graph

# The package binds ``twistrank.centrality`` to the function of that name.
centrality_module = importlib.import_module("twistrank.centrality")

BETA_MIXES = ((1.0, 0.0), (0.7, 0.3), (0.0, 1.0))
THETAS = (-2.0, 0.0, 1.5)
KINDS = ("influence", "trust", "advertisement")
FRACTIONS = (0.2, 0.5, 0.8)


def configs(corpus):
    """Every (graph, ad vector, kind, measure, walk) over 3 measures x BETA_MIXES."""
    for g, z in corpus:
        for kind in KINDS:
            measure = tr.measure_for(kind, z)
            for beta in BETA_MIXES:
                yield g, z, kind, measure, tr.WalkConfig(*beta)


class TestMeasureAtoms:
    def test_free_energy_matches_enumeration(self, corpus100):
        worst = 0.0
        for g, _, kind, measure, walk in configs(corpus100[:20]):
            values, masses = tr.measure_atoms(tr.TiltModel(g, measure, walk))
            table = tr.path_table(g, measure, walk)
            assert np.all(np.diff(values) > 0)
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)
            if kind == "advertisement":
                assert values.size <= g.n
            else:
                assert values.tolist() == [-1.0, 1.0]
            for theta in THETAS:
                result, _ = tr.twist(table, theta)
                free_energy = np.logaddexp.reduce(
                    theta * values[masses > 0] + np.log(masses[masses > 0])
                )
                worst = max(worst, abs(free_energy - result.free_energy))
        assert worst <= 1e-12

    def test_sign_atoms_by_hand(self, star_two_neg):
        # Center 0 with spokes +, +, -, -; every spoke node has degree 1.
        walk = tr.WalkConfig(0.5, 0.5)
        values, masses = tr.measure_atoms(tr.TiltModel(star_two_neg, tr.SignProduct(), walk))
        # Length 1: m+ / m = 2 / 4.  Length 2: the center is the middle node
        # with probability 4 / 8, and 8 of its 16 ordered neighbour pairs
        # agree in sign; a spoke middle node makes the walk backtrack over
        # one edge, whose product is +1.
        pos = 0.5 * (2 / 4) + 0.5 * (4 / 8 * 8 / 16 + 4 / 8)
        assert values.tolist() == [-1.0, 1.0]
        assert masses == pytest.approx([1.0 - pos, pos], abs=1e-15)

    def test_edgeless_graph_rejected(self):
        g = tr.load_graph([], [(0, [1.0])])
        with pytest.raises(tr.GraphError, match="edgeless"):
            tr.measure_atoms(tr.TiltModel(g, tr.SignMin(), tr.WalkConfig(0.7, 0.3)))

    def test_ad_dimension_mismatch_rejected(self, corpus100):
        g, _ = corpus100[0]
        with pytest.raises(tr.GraphError, match="dimension"):
            tr.measure_atoms(tr.TiltModel(g, tr.MinInnerProduct([1.0, 2.0, 3.0]), tr.WalkConfig()))


class TestSolveFromAtoms:
    def test_round_trip_and_oracle_agreement(self, corpus100):
        worst_round_trip = 0.0
        worst_vs_numeric = 0.0
        solved = 0
        for i, (g, z, kind, measure, walk) in enumerate(configs(corpus100)):
            table = tr.path_table(g, measure, walk)
            fmin, fmax = tr.achievable_range(table)
            if fmax - fmin < 1e-9:
                continue
            gamma = fmin + FRACTIONS[i % 3] * (fmax - fmin)
            theta = twisting.solve_theta_atoms(*tr.measure_atoms(tr.TiltModel(g, measure, walk)), gamma)
            back = tr.twist(table, theta)[0].mean_measure
            numeric = tr.solve_theta_numeric(table, gamma)
            resolved = tr.resolve_theta(tr.TiltModel(g, measure, walk), gamma=gamma)
            worst_round_trip = max(worst_round_trip, abs(back - gamma))
            scale = max(1.0, abs(theta))
            worst_vs_numeric = max(worst_vs_numeric, abs(theta - numeric) / scale)
            assert abs(resolved - theta) <= 1e-12 * scale
            solved += 1
        assert solved > 500
        assert worst_round_trip <= 1e-10
        assert worst_vs_numeric <= 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_errors_match_the_oracle(self, kind, corpus100):
        g, z = corpus100[9]
        measure = tr.measure_for(kind, z)
        walk = tr.WalkConfig(0.7, 0.3)
        atoms = tr.measure_atoms(tr.TiltModel(g, measure, walk))
        table = tr.path_table(g, measure, walk)
        _, fmax = tr.achievable_range(table)
        for solve in (
            lambda: twisting.solve_theta_atoms(*atoms, fmax + 0.1),
            lambda: tr.solve_theta_numeric(table, fmax + 0.1),
        ):
            with pytest.raises(SolveError, match="achievable range"):
                solve()

    def test_constant_measure_rejected(self, triangle_pos):
        walk = tr.WalkConfig(0.7, 0.3)
        with pytest.raises(SolveError, match="constant"):
            tr.resolve_theta(tr.TiltModel(triangle_pos, tr.SignMin(), walk), gamma=0.5)
        with pytest.raises(SolveError, match="constant"):
            tr.solve_theta_numeric(tr.path_table(triangle_pos, tr.SignMin(), walk), 0.5)

    def test_closed_form_is_unchanged(self):
        s = tr.GraphStats(m=16650, m_pos=15225, m_neg=1425, degree=np.array([1]),
                          pos_degree=np.array([1]), neg_degree=np.array([0]))
        for gamma in (-0.99, -0.5, 0.0, 0.9):
            expected = 0.5 * math.log(1425 * (1.0 + gamma) / (15225 * (1.0 - gamma)))
            assert tr.solve_theta_closed(s, gamma) == expected


class TestStartMarginal:
    def test_matches_bivariate_marginal(self, corpus100):
        worst = 0.0
        for g, z, kind, measure, walk in configs(corpus100):
            model = tr.TiltModel(g, measure, walk)
            for theta in THETAS:
                fast = tr.centrality(g, kind, theta=theta, walk=walk, ad_vector=z)
                slow = tr.marginal(tr.bivariate(model, theta))
                worst = max(worst, float(np.max(np.abs(fast.scores - slow.scores))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("theta", [-60.0, 45.0])
    def test_large_temperatures_match_bivariate(self, theta, corpus100):
        for g, z, kind, measure, walk in configs(corpus100[:10]):
            fast = tr.centrality(g, kind, theta=theta, walk=walk, ad_vector=z)
            slow = tr.marginal(tr.bivariate(tr.TiltModel(g, measure, walk), theta))
            assert np.max(np.abs(fast.scores - slow.scores)) <= 1e-12

    def test_edgeless_graph_rejected(self):
        g = tr.load_graph([], [(0, [1.0])])
        with pytest.raises(tr.GraphError, match="edgeless"):
            tr.centrality(g, "influence", theta=0.0)

    @pytest.mark.parametrize("kind", ["influence", "trust"])
    def test_single_step_ties_follow_node_ids(self, kind):
        # Many nodes share a signed degree pair (k+, k-).  With length-1
        # walks the score depends on that pair alone, so each class must tie
        # exactly and be listed in ascending node id.
        g = random_signed_graph(
            np.random.default_rng(7), n_min=120, n_max=120, attr_dim=0,
            edge_prob=0.04, neg_prob=0.3,
        )
        s = tr.stats(g)
        pairs = list(zip(s.pos_degree.tolist(), s.neg_degree.tolist()))
        assert len(set(pairs)) <= g.n // 3
        for theta in (-1.3, 0.0, 0.7, 2.5):
            ranking = tr.centrality(g, kind, theta=theta, walk=tr.WalkConfig(1.0, 0.0))
            position = np.argsort(ranking.order)
            for u in range(g.n):
                for w in range(u + 1, g.n):
                    if pairs[u] == pairs[w]:
                        assert ranking.scores[u] == ranking.scores[w]
                        assert position[u] < position[w]


def test_production_path_never_enumerates(monkeypatch, corpus100):
    corpus = corpus100[:12]
    targets = {}
    for i, (g, z, kind, measure, walk) in enumerate(configs(corpus)):
        table = tr.path_table(g, measure, walk)
        fmin, fmax = tr.achievable_range(table)
        if fmax - fmin >= 1e-9:
            targets[i] = tr.twist(table, 0.4)[0].mean_measure
    assert len(targets) > 90

    def forbidden(*args, **kwargs):
        raise AssertionError("the production path must not enumerate walks or pairs")

    monkeypatch.setattr(sampling, "enumerate_paths", forbidden)
    monkeypatch.setattr(twisting, "enumerate_paths", forbidden)
    monkeypatch.setattr(twisting, "path_table", forbidden)
    monkeypatch.setattr(centrality_module, "bivariate", forbidden)
    for i, (g, z, kind, measure, walk) in enumerate(configs(corpus)):
        if i not in targets:
            continue
        theta = tr.resolve_theta(tr.TiltModel(g, measure, walk), gamma=targets[i])
        assert theta == pytest.approx(0.4, abs=1e-9)
        ranking = tr.centrality(g, kind, gamma=targets[i], walk=walk, ad_vector=z)
        assert ranking.scores.sum() == pytest.approx(1.0, abs=1e-12)
        for mode, value in (("gamma", targets[i]), ("theta", 0.4)):
            rows = tr.sweep(g, kind, mode, [value], walk=walk, k=3, ad_vector=z)
            assert rows[0].error is None
