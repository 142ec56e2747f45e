"""Degree baselines, Jaccard overlap, and sweep tables."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import twistrank as tr
from twistrank.analysis import DEGREE_KINDS, SweepRow, _top_mask

from conftest import random_signed_graph

SPECIAL_SCORES = [0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, 1.0, -2.0]
SCORE_LISTS = st.one_of(
    st.lists(st.one_of(st.sampled_from(SPECIAL_SCORES), st.floats()), min_size=1, max_size=40),
    st.tuples(st.sampled_from(SPECIAL_SCORES), st.integers(1, 40)).map(lambda t: [t[0]] * t[1]),
)


class TestDegreeRanking:
    def test_negative_ranking_puts_center_first(self, star_two_neg):
        ranking = tr.degree_ranking(tr.stats(star_two_neg), "negative")
        assert ranking.order[0] == 0

    @pytest.mark.parametrize("kind", DEGREE_KINDS)
    def test_empty_graph_has_no_degree_ranking(self, kind):
        with pytest.raises(tr.TwistrankError,
                           match="^degree ranking is undefined on an empty graph$"):
            tr.degree_ranking(tr.stats(tr.load_graph([])), kind)

    def test_all_positive_negative_ranking_degenerates(self, triangle_pos):
        ranking = tr.degree_ranking(tr.stats(triangle_pos), "negative")
        assert np.all(ranking.scores == 0.0)
        assert ranking.order.tolist() == [0, 1, 2]

    def test_total_equals_positive_on_all_positive(self, triangle_pos):
        s = tr.stats(triangle_pos)
        total = tr.degree_ranking(s, "total")
        positive = tr.degree_ranking(s, "positive")
        assert total.order.tolist() == positive.order.tolist()
        assert total.scores == pytest.approx(positive.scores)

    def test_scores_normalized(self, star_two_neg):
        ranking = tr.degree_ranking(tr.stats(star_two_neg), "total")
        assert ranking.scores.sum() == pytest.approx(1.0)

    def test_unknown_kind_rejected(self, star_two_neg):
        with pytest.raises(ValueError, match="degree kind"):
            tr.degree_ranking(tr.stats(star_two_neg), "weighted")


class TestJaccard:
    def test_identical_sets(self):
        assert tr.jaccard({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint_sets(self):
        assert tr.jaccard({1, 2}, {3, 4}) == 0.0

    def test_half_overlap(self):
        assert tr.jaccard({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_both_empty_defined_as_one(self):
        assert tr.jaccard(set(), set()) == 1.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = set(rng.integers(0, 20, size=rng.integers(0, 10)).tolist())
            b = set(rng.integers(0, 20, size=rng.integers(0, 10)).tolist())
            j = tr.jaccard(a, b)
            assert j == tr.jaccard(b, a)
            assert 0.0 <= j <= 1.0
            if a == b:
                assert j == 1.0

    def test_accepts_topk_sets(self):
        s1 = tr.TopKSet(2, frozenset({0, 1}))
        s2 = tr.TopKSet(2, frozenset({1, 2}))
        assert tr.jaccard(s1, s2) == pytest.approx(1 / 3)


class TestTopK:
    def test_members_capped_at_n(self, triangle_pos):
        ranking = tr.degree_ranking(tr.stats(triangle_pos), "total")
        assert len(tr.top_k(ranking, 10).members) == 3

    def test_takes_highest_scores(self, star_two_neg):
        ranking = tr.degree_ranking(tr.stats(star_two_neg), "total")
        assert tr.top_k(ranking, 1).members == frozenset({0})


class TestTopKSelection:
    """The O(n) selection takes exactly the first k nodes of the ranking order,
    which is the (-score, id) lexsort order."""

    @settings(max_examples=600, deadline=None)
    @given(SCORE_LISTS, st.integers(-1, 45))
    @example([0.25] * 7, 3)
    @example([0.0, -0.0, 0.0, -0.0], 1)
    @example([math.nan, 1.0, math.nan, -math.inf, math.inf], 4)
    @example([1.0, 2.0, 3.0], 1)
    @example([1.0, 2.0, 3.0], 9)
    def test_equals_the_lexsort_prefix(self, values, k):
        scores = np.array(values, dtype=float)
        ranking = tr.CentralityRanking.from_scores(scores)
        assert np.array_equal(ranking.order, np.lexsort((np.arange(scores.size), -scores)))
        want = set(ranking.order[: max(k, 0)].tolist())
        assert set(np.flatnonzero(_top_mask(scores, k)).tolist()) == want
        assert tr.top_k(ranking, k).members == want


class TestSweep:
    GAMMAS = [-0.99, -0.9, -0.5, 0.0, 0.5, 0.9, 0.99]
    THETAS = [-3.8310, -2.6566, -1.7337, -1.1844, -0.6351, 0.2878, 1.4623]

    def test_paper_scale_theta_column(self, paper_scale_graph):
        rows = tr.sweep(paper_scale_graph, "influence", "gamma", self.GAMMAS,
                        walk=tr.WalkConfig(1.0, 0.0), k=100)
        assert [row.error for row in rows] == [None] * len(rows)
        for row, expected in zip(rows, self.THETAS):
            assert row.theta == pytest.approx(expected, abs=5e-5)

    def test_theta_column_increasing_in_gamma(self, paper_scale_graph):
        rows = tr.sweep(paper_scale_graph, "influence", "gamma", self.GAMMAS,
                        walk=tr.WalkConfig(1.0, 0.0), k=100)
        thetas = [row.theta for row in rows]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))

    def test_zero_theta_matches_total_degree(self):
        g = random_signed_graph(np.random.default_rng(14))
        rows = tr.sweep(g, "influence", "theta", [0.0], walk=tr.WalkConfig(1.0, 0.0), k=3)
        assert rows[0].jaccard_total == 1.0

    def test_all_positive_graph_tracks_degree(self, triangle_pos):
        g = tr.load_graph([(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1)])
        rows = tr.sweep(g, "influence", "theta", [-2.0, 0.0, 1.0],
                        walk=tr.WalkConfig(1.0, 0.0), k=2)
        for row in rows:
            assert row.jaccard_pos == 1.0
            assert row.jaccard_total == 1.0

    def test_bad_target_does_not_abort(self):
        g = random_signed_graph(np.random.default_rng(15))
        rows = tr.sweep(g, "influence", "gamma", [0.0, 1.5, -0.5],
                        walk=tr.WalkConfig(1.0, 0.0), k=3)
        assert rows[0].error is None
        assert rows[1].error is not None and rows[1].jaccard_pos is None
        assert rows[2].error is None

    def test_deterministic(self):
        g = random_signed_graph(np.random.default_rng(16))
        walk = tr.WalkConfig(0.7, 0.3)
        first = tr.sweep(g, "influence", "theta", [-1.0, 0.5], walk=walk, k=4)
        second = tr.sweep(g, "influence", "theta", [-1.0, 0.5], walk=walk, k=4)
        assert first == second

    def test_empty_target_list(self, triangle_one_neg):
        assert tr.sweep(triangle_one_neg, "influence", "theta", []) == []

    def test_bounds_on_jaccard_columns(self):
        g = random_signed_graph(np.random.default_rng(17))
        rows = tr.sweep(g, "trust", "theta", [-1.0, 0.0, 1.0],
                        walk=tr.WalkConfig(0.7, 0.3), k=5)
        for row in rows:
            for value in (row.jaccard_pos, row.jaccard_neg, row.jaccard_total):
                assert 0.0 <= value <= 1.0

    def test_bad_mode_rejected(self, triangle_one_neg):
        with pytest.raises(ValueError, match="mode"):
            tr.sweep(triangle_one_neg, "influence", "target", [0.0])

    def test_row_shape(self):
        row = SweepRow(gamma=0.0, theta=-1.0, jaccard_pos=1.0, jaccard_neg=0.0, jaccard_total=1.0)
        assert row.error is None

    @pytest.mark.parametrize("kind", ["influence", "trust", "advertisement"])
    @pytest.mark.parametrize("beta", [(1.0, 0.0), (0.7, 0.3)], ids=["beta-1-0", "beta-0.7-0.3"])
    @pytest.mark.parametrize("mode", ["gamma", "theta"])
    def test_jaccard_equals_the_sets_of_the_full_rankings(self, kind, beta, mode):
        """Every overlap equals, bit for bit, the frozenset Jaccard of the
        ``top(k)`` sets of the lexsorted target and baseline rankings."""
        walk = tr.WalkConfig(*beta)
        compared = 0
        for seed in range(40):
            rng = np.random.default_rng(900 + seed)
            g = random_signed_graph(rng, n_max=16)
            z = rng.uniform(0.1, 1.0, 2)
            k = int(rng.integers(1, g.n + 3))
            model = tr.TiltModel(g, tr.measure_for(kind, z), walk)
            if mode == "theta":
                values = [-1.5, 0.0, 0.8]
            else:
                lo, hi = float(model.solver.f.min()), float(model.solver.f.max())
                values = [lo + frac * (hi - lo) for frac in (0.1, 0.5, 0.9)]
            rows = tr.sweep(g, kind, mode, values, walk=walk, k=k, ad_vector=z)
            gs = tr.stats(g)
            bases = [frozenset(tr.degree_ranking(gs, name).top(k)) for name in DEGREE_KINDS]
            for row in rows:
                if row.error is not None:
                    continue
                mine = frozenset(model.ranking(row.theta).top(k))
                got = (row.jaccard_pos, row.jaccard_neg, row.jaccard_total)
                want = tuple(tr.jaccard(mine, base) for base in bases)
                assert [x.hex() for x in got] == [x.hex() for x in want]
                assert all(type(x) is float for x in got)
                compared += 1
        assert compared >= 100
