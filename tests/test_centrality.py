"""Pair distributions, marginals, closed form, and the centrality dispatcher."""

import math

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

    @pytest.mark.parametrize("sign, thetas", [(-1, (373.0, 800.0, 1e4, -800.0)),
                                              (1, (-400.0, -800.0, -1e4, 800.0))])
    def test_one_signed_graph_matches_enumeration_at_extreme_temperatures(self, sign, thetas):
        """With edges of one sign, one atom's factor underflows past |theta| =
        372.5; the closed form must not divide 0 by 0 there."""
        g = tr.load_graph([(0, 1, sign), (0, 2, sign), (0, 3, sign), (1, 2, sign), (3, 4, sign)])
        s = tr.stats(g)
        model = tr.TiltModel(g, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
        for theta in thetas:
            closed = verify.influence_closed_form(s, theta)
            piped = verify.marginal(verify.bivariate(model, theta))
            assert np.max(np.abs(closed.scores - piped.scores)) <= 1e-12
            assert closed.scores == pytest.approx(s.degree / (2 * s.m), rel=1e-15)

    def test_extreme_temperature_does_not_overflow(self, star_two_neg):
        ranking = verify.influence_closed_form(tr.stats(star_two_neg), 800.0)
        assert np.isfinite(ranking.scores).all()
        assert ranking.scores.sum() == pytest.approx(1.0)

    def test_empty_graph_rejected(self):
        g = tr.load_graph([], [(0, [1.0])])
        with pytest.raises(GraphError, match="edgeless"):
            verify.influence_closed_form(tr.stats(g), 0.0)


class TestStarFamily:
    """A star of N = 10^6 leaves with seeded signs, P positive and Q negative,
    built straight through the constructor: the sign measures' scores and
    atoms at every walk mix against their closed forms, with no enumeration.

    With e^(+-theta s) for a leaf of sign s, the start masses times 2N are
    SignProduct: leaf b1 e^(theta s) + (b2 / N)(P e^(theta s) + Q e^(-theta s)),
    centre b1 (P e^theta + Q e^-theta) + b2 N e^theta;
    SignMin: positive leaf b1 e^theta + (b2 / N)(P e^theta + Q e^-theta),
    negative leaf (b1 + b2) e^-theta, centre (b1 + b2)(P e^theta + Q e^-theta).
    """

    N = 10**6

    @pytest.fixture(scope="class")
    def star(self):
        n = self.N
        signs = np.where(np.random.default_rng(19).random(n) < 0.3, -1, 1).astype(np.int8)
        g = tr.AttributedGraph(np.arange(n + 1), np.zeros(n, dtype=np.int64),
                               np.arange(1, n + 1), signs, np.zeros((n + 1, 0)))
        return g, signs > 0

    @staticmethod
    def _closed_scores(kind, beta, positive, theta):
        (b1, b2), n = beta, positive.size
        p = int(np.count_nonzero(positive))
        q = n - p
        up, down = math.exp(theta), math.exp(-theta)
        mix = p * up + q * down
        if kind == "influence":
            # A negative leaf sees e^(-theta) for its own sign and e^theta for the other.
            pos, neg = b1 * up + b2 / n * mix, b1 * down + b2 / n * (p * down + q * up)
            centre = b1 * mix + b2 * n * up
        else:
            pos, neg = b1 * up + b2 / n * mix, (b1 + b2) * down
            centre = (b1 + b2) * mix
        scores = np.concatenate(([centre], np.where(positive, pos, neg)))
        return scores / scores.sum()

    @staticmethod
    def _closed_atoms(kind, beta, positive):
        """The base masses of the walks of measure -1 and +1."""
        (b1, b2), n = beta, positive.size
        p = int(np.count_nonzero(positive))
        q = n - p
        if kind == "influence":
            plus = b1 * p / n + b2 * (p * p + q * q) / (2 * n * n) + b2 / 2
            minus = b1 * q / n + b2 * p * q / (n * n)
        else:
            plus = b1 * p / n + b2 * p * p / (2 * n * n) + b2 * p / (2 * n)
            minus = b1 * q / n + b2 * (n * n - p * p) / (2 * n * n) + b2 * q / (2 * n)
        return minus, plus

    @pytest.mark.parametrize("beta", [(1.0, 0.0), (0.7, 0.3), (0.0, 1.0)],
                             ids=["beta-1-0", "beta-0.7-0.3", "beta-0-1"])
    @pytest.mark.parametrize("kind", ["influence", "trust"])
    def test_scores_atoms_and_theta_match_the_closed_forms(self, star, kind, beta):
        g, positive = star
        model = tr.TiltModel(g, tr.measure_for(kind), tr.WalkConfig(*beta))
        for theta in (-2.0, 0.0, 1.5):
            want = self._closed_scores(kind, beta, positive, theta)
            np.testing.assert_allclose(model.scores(theta), want, rtol=1e-12, atol=0)
        values, masses = model.atoms
        minus, plus = self._closed_atoms(kind, beta, positive)
        assert values.tolist() == [-1.0, 1.0]
        np.testing.assert_allclose(masses, [minus, plus], rtol=1e-12, atol=0)
        # The theta round trip on the two sign atoms.
        for gamma in (-0.6, 0.0, 0.45):
            theta = model.theta(gamma)
            closed = 0.5 * math.log(minus * (1 + gamma) / (plus * (1 - gamma)))
            assert theta == pytest.approx(closed, rel=1e-12, abs=1e-12)
            up, down = plus * math.exp(theta), minus * math.exp(-theta)
            assert abs((up - down) / (up + down) - gamma) <= 1e-12


class TestOneSignedGraph:
    """Only one sign atom has mass, so the other's weight e^-2|theta| may
    underflow to 0 without leaving any start node's mass at 0."""

    @pytest.mark.parametrize("sign, thetas", [(-1, (373.0, 800.0, 1e4)),
                                              (1, (-373.0, -400.0, -800.0, -1e4))])
    @pytest.mark.parametrize("kind", ["influence", "trust"])
    @pytest.mark.parametrize("beta", [(1.0, 0.0), (0.7, 0.3), (0.0, 1.0)])
    def test_extreme_temperatures_score_degree_over_2m(self, sign, thetas, kind, beta):
        g = tr.load_graph([(0, 1, sign), (0, 2, sign), (0, 3, sign), (1, 2, sign), (3, 4, sign)])
        s = tr.stats(g)
        model = tr.TiltModel(g, tr.measure_for(kind), tr.WalkConfig(*beta))
        with np.errstate(all="raise"):
            for theta in thetas:
                assert model.scores(theta) == pytest.approx(s.degree / (2 * s.m), rel=1e-15)


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
