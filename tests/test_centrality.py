"""Pair distributions, marginals, closed form, and the centrality dispatcher."""

import numpy as np
import pytest

import twistrank as tr
from twistrank import verify
from twistrank.errors import EnumerationBudgetError, GraphError

from twistrank.verify import endpoint_grouped, pair_mass_deviation

from conftest import random_signed_graph, walk_masses


class TestBivariate:
    def test_untwisted_triangle_is_uniform_on_edges(self, triangle_pos):
        b = verify.bivariate(tr.TiltModel(triangle_pos, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), 0.0)
        for u in range(3):
            for w in range(3):
                expected = 1 / 6 if u != w else 0.0
                assert b.pair_mass(u, w) == pytest.approx(expected, abs=1e-15)

    def test_single_negative_edge_normalization_cancels(self):
        g = tr.load_graph([(0, 1, -1)])
        b = verify.bivariate(tr.TiltModel(g, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), 1.0)
        assert b.pair_mass(0, 1) == pytest.approx(0.5, abs=1e-15)
        assert b.pair_mass(1, 0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("beta", [(1.0, 0.0), (0.7, 0.3), (0.0, 1.0)])
    def test_matches_endpoint_grouped_enumeration(self, beta, corpus100):
        walk = tr.WalkConfig(*beta)
        # Isolated attribute-only nodes 0, 5 and 9 leave empty CSR rows at the
        # start, middle and end; 4 is a leaf; the signs are mixed.
        edges = [(1, 2, 1), (1, 3, -1), (2, 3, 1), (3, 4, -1), (6, 7, -1), (6, 8, 1), (7, 8, -1)]
        rng = np.random.default_rng(5)
        edge_cases = tr.load_graph(edges, [(v, rng.uniform(0.0, 1.0, 2)) for v in range(10)])
        for g, z in corpus100[:8] + [(edge_cases, np.array([0.6, 0.3]))]:
            for measure in (tr.SignProduct(), tr.SignMin(), tr.MinInnerProduct(z)):
                model = tr.TiltModel(g, measure, walk)
                table = verify.path_table(g, measure, walk)
                assert pair_mass_deviation(
                    verify.bivariate(model, -1.2), endpoint_grouped(table, -1.2)
                ) <= 1e-12

    def test_total_mass_one(self, corpus100):
        g, z = corpus100[0]
        model = tr.TiltModel(g, tr.MinInnerProduct(z), tr.WalkConfig(0.3, 0.7))
        assert verify.bivariate(model, 2.0).masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_pair_masses(self, corpus100):
        g, _ = corpus100[1]
        b = verify.bivariate(tr.TiltModel(g, tr.SignMin(), tr.WalkConfig(0.5, 0.5)), 0.8)
        starts, ends = np.divmod(b.codes, b.n)
        for u, w, mass in zip(starts.tolist(), ends.tolist(), b.masses.tolist()):
            assert b.pair_mass(w, u) == pytest.approx(mass, abs=1e-13)

    def test_budget_propagates(self, triangle_pos, monkeypatch):
        monkeypatch.setattr(verify, "DEFAULT_PATH_BUDGET", 2)
        model = tr.TiltModel(triangle_pos, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
        with pytest.raises(EnumerationBudgetError):
            verify.bivariate(model, 0.0)

    def test_empty_graph_rejected(self):
        g = tr.load_graph([], [(0, [1.0])])
        with pytest.raises(GraphError, match="edgeless"):
            verify.bivariate(tr.TiltModel(g, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), 0.0)

    def test_unknown_measure_rejected(self, triangle_pos):
        class Odd:
            dim = 1

        with pytest.raises(TypeError, match="structural pair assembly"):
            verify.bivariate(tr.TiltModel(triangle_pos, Odd(), tr.WalkConfig(1.0, 0.0)), 0.0)


class TestMarginal:
    def test_triangle_uniform(self, triangle_pos):
        b = verify.bivariate(tr.TiltModel(triangle_pos, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), 0.0)
        ranking = verify.marginal(b)
        assert ranking.scores == pytest.approx([1 / 3] * 3)

    def test_star_center_half(self):
        g = tr.load_graph([(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        b = verify.bivariate(tr.TiltModel(g, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), 0.0)
        ranking = verify.marginal(b)
        assert ranking.scores[0] == pytest.approx(0.5)
        assert ranking.scores[1:] == pytest.approx([1 / 6] * 3)
        assert ranking.order[0] == 0

    def test_start_equals_end_for_symmetric(self, corpus100):
        g, z = corpus100[2]
        b = verify.bivariate(tr.TiltModel(g, tr.MinInnerProduct(z), tr.WalkConfig(0.6, 0.4)), -0.7)
        assert np.max(np.abs(b.start_marginal() - b.end_marginal())) <= 1e-12
        assert np.array_equal(verify.marginal(b).scores, b.start_marginal())

    def test_scores_sum_to_one_and_order_is_permutation(self, corpus100):
        g, _ = corpus100[3]
        ranking = tr.centrality(g, "influence", theta=0.9, walk=tr.WalkConfig(0.7, 0.3))
        assert ranking.scores.sum() == pytest.approx(1.0, abs=1e-12)
        assert sorted(ranking.order.tolist()) == list(range(g.n))

    def test_tie_break_by_node_id(self):
        ranking = tr.CentralityRanking.from_scores([0.25, 0.5, 0.25])
        assert ranking.order.tolist() == [1, 0, 2]


class TestClosedForm:
    def test_zero_temperature_is_degree_over_2m(self, star_two_neg):
        s = tr.stats(star_two_neg)
        ranking = verify.influence_closed_form(s, 0.0)
        assert ranking.scores == pytest.approx(s.degree / (2 * s.m))

    def test_hand_evaluated_case(self):
        # Node 0 has two positive edges; m+ = 3, m- = 1, theta = ln 2 gives
        # (2 * 2) / (2 * (3 * 2 + 1 * 0.5)) = 4 / 13.
        g = tr.load_graph([(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, -1)])
        ranking = verify.influence_closed_form(tr.stats(g), np.log(2))
        assert ranking.scores[0] == pytest.approx(4 / 13, abs=1e-15)

    def test_matches_enumeration_pipeline(self, corpus100):
        walk = tr.WalkConfig(1.0, 0.0)
        for g, _ in corpus100[:10]:
            s = tr.stats(g)
            model = tr.TiltModel(g, tr.SignProduct(), walk)
            for theta in (-2.0, 0.0, 1.5):
                closed = verify.influence_closed_form(s, theta)
                piped = verify.marginal(verify.bivariate(model, theta))
                assert np.max(np.abs(closed.scores - piped.scores)) <= 1e-12

    def test_extreme_temperature_does_not_overflow(self, star_two_neg):
        ranking = verify.influence_closed_form(tr.stats(star_two_neg), 800.0)
        assert np.isfinite(ranking.scores).all()
        assert ranking.scores.sum() == pytest.approx(1.0)

    def test_empty_graph_rejected(self):
        g = tr.load_graph([], [(0, [1.0])])
        with pytest.raises(GraphError, match="edgeless"):
            verify.influence_closed_form(tr.stats(g), 0.0)


class TestCentralityDispatch:
    def test_trust_equals_influence_without_length_two(self, corpus100):
        walk = tr.WalkConfig(1.0, 0.0)
        for g, _ in corpus100[:5]:
            for theta in (-1.0, 0.0, 2.0):
                a = tr.centrality(g, "influence", theta=theta, walk=walk)
                b = tr.centrality(g, "trust", theta=theta, walk=walk)
                assert np.max(np.abs(a.scores - b.scores)) <= 1e-14

    def test_zero_temperature_equals_untwisted_marginal(self, corpus100):
        g, _ = corpus100[4]
        walk = tr.WalkConfig(0.7, 0.3)
        ranking = tr.centrality(g, "influence", theta=0.0, walk=walk)
        base = np.zeros(g.n)
        for nodes, mass in walk_masses(verify.enumerate_paths(g, walk)):
            base[nodes[0]] += mass
        assert np.max(np.abs(ranking.scores - base)) <= 1e-12

    def test_zero_ad_vector_degenerates_to_untwisted(self, corpus100):
        g, z = corpus100[5]
        walk = tr.WalkConfig(0.7, 0.3)
        twisted = tr.centrality(g, "advertisement", theta=3.0, ad_vector=np.zeros_like(z), walk=walk)
        untwisted = tr.centrality(g, "influence", theta=0.0, walk=walk)
        assert np.max(np.abs(twisted.scores - untwisted.scores)) <= 1e-12

    def test_ad_scale_invariance(self, corpus100):
        # Scaling the score vector by c while dividing theta by c leaves the
        # tilt exponent unchanged.
        g, z = corpus100[6]
        walk = tr.WalkConfig(0.5, 0.5)
        a = tr.centrality(g, "advertisement", theta=1.4, ad_vector=z, walk=walk)
        b = tr.centrality(g, "advertisement", theta=1.4 / 3.0, ad_vector=3.0 * z, walk=walk)
        assert np.max(np.abs(a.scores - b.scores)) <= 1e-12
        assert a.order.tolist() == b.order.tolist()

    def test_gamma_resolution_round_trip(self, corpus100):
        g, _ = corpus100[7]
        walk = tr.WalkConfig(0.7, 0.3)
        theta = tr.resolve_theta(tr.TiltModel(g, tr.SignProduct(), walk), gamma=0.25)
        by_gamma = tr.centrality(g, "influence", gamma=0.25, walk=walk)
        by_theta = tr.centrality(g, "influence", theta=theta, walk=walk)
        assert np.max(np.abs(by_gamma.scores - by_theta.scores)) <= 1e-14

    def test_exactly_one_of_theta_gamma(self, triangle_one_neg):
        with pytest.raises(ValueError, match="exactly one"):
            tr.centrality(triangle_one_neg, "influence", theta=1.0, gamma=0.0)
        with pytest.raises(ValueError, match="exactly one"):
            tr.centrality(triangle_one_neg, "influence")

    def test_ad_requires_vector(self, triangle_one_neg):
        with pytest.raises(ValueError, match="score vector"):
            tr.centrality(triangle_one_neg, "advertisement", theta=1.0)

    def test_unknown_kind_rejected(self, triangle_one_neg):
        with pytest.raises(ValueError, match="unknown centrality kind"):
            tr.centrality(triangle_one_neg, "fame", theta=1.0)

    def test_isolated_node_scores_zero_and_ranks_last(self):
        g = tr.load_graph([(0, 1, 1), (1, 2, -1)], [(3, [0.0])])
        ranking = tr.centrality(g, "influence", theta=0.5, walk=tr.WalkConfig(0.7, 0.3))
        assert ranking.scores[3] == 0.0
        assert ranking.order[-1] == 3

    def test_degree_order_limits_at_extreme_temperatures(self):
        # With only length-1 walks, the score order converges to the
        # positive-degree order as theta grows and to the negative-degree
        # order as it falls.
        g = random_signed_graph(np.random.default_rng(40), n_min=8, n_max=8)
        s = tr.stats(g)
        walk = tr.WalkConfig(1.0, 0.0)
        hot = tr.centrality(g, "influence", theta=20.0, walk=walk)
        cold = tr.centrality(g, "influence", theta=-20.0, walk=walk)
        top_by = lambda arr, k: set(np.lexsort((np.arange(arr.size), -arr))[:k].tolist())
        for k in range(1, g.n):
            if sorted(s.pos_degree)[::-1][k - 1] > sorted(s.pos_degree)[::-1][k]:
                assert set(hot.order[:k].tolist()) == top_by(s.pos_degree.astype(float), k)
            if sorted(s.neg_degree)[::-1][k - 1] > sorted(s.neg_degree)[::-1][k]:
                assert set(cold.order[:k].tolist()) == top_by(s.neg_degree.astype(float), k)
