"""Path measures, the exponential tilt, free energy, and temperature solving."""

import itertools
import math

import numpy as np
import pytest

import twistrank as tr
from twistrank import twisting
from twistrank.errors import GraphError, SolveError

from conftest import random_signed_graph


class TestMeasures:
    def test_sign_product_two_negatives_is_positive(self):
        g = tr.load_graph([(0, 1, -1), (1, 2, -1)])
        assert tr.SignProduct().evaluate(g, (0, 1, 2)) == 1.0

    def test_sign_min_one_negative_poisons(self):
        g = tr.load_graph([(0, 1, 1), (1, 2, -1)])
        assert tr.SignMin().evaluate(g, (0, 1, 2)) == -1.0

    def test_min_inner_product(self):
        g = tr.load_graph([(0, 1, 1)], [(0, [0.2, 0.9]), (1, [0.5, 0.1])])
        measure = tr.MinInnerProduct([1.0, 0.0])
        assert measure.evaluate(g, (0, 1)) == pytest.approx(0.2)

    def test_min_inner_product_requires_attributes(self, triangle_pos):
        with pytest.raises(GraphError, match="dimension"):
            tr.MinInnerProduct([1.0]).evaluate(triangle_pos, (0, 1))

    def test_single_edge_signs_agree_across_measures(self, path3):
        for nodes in [(0, 1), (1, 2)]:
            assert tr.SignProduct().evaluate(path3, nodes) == tr.SignMin().evaluate(path3, nodes)


class TestTwist:
    def test_zero_temperature_is_identity(self):
        g = random_signed_graph(np.random.default_rng(0))
        table = tr.path_table(g, tr.SignProduct(), tr.WalkConfig(0.7, 0.3))
        result, probs = tr.twist(table, 0.0)
        assert result.free_energy == pytest.approx(0.0, abs=1e-12)
        for path, prob in zip(table.paths, probs.tolist()):
            assert prob == pytest.approx(path.base_prob, abs=1e-14)

    def test_triangle_hand_normalized_masses(self, triangle_one_neg):
        # Tilting the 6 directed edges by exp(theta * sign) with theta = ln 2:
        # positive edges carry 2/6 before normalization and negative edges
        # 1/12, so the normalized masses are 2/9 and 1/18.
        table = tr.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
        _, probs = tr.twist(table, math.log(2))
        masses = {}
        for prob in probs.tolist():
            masses.setdefault(round(prob, 14), 0)
            masses[round(prob, 14)] += 1
        assert masses == {round(2 / 9, 14): 4, round(1 / 18, 14): 2}

    def test_normalization_and_mean_in_hull(self, corpus100):
        for g, z in corpus100[:20]:
            table = tr.path_table(g, tr.MinInnerProduct(z), tr.WalkConfig(0.7, 0.3))
            result, probs = tr.twist(table, 1.5)
            values = np.array([tr.MinInnerProduct(z).evaluate(g, path.nodes) for path in table.paths])
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert values.min() - 1e-12 <= result.mean_measure <= values.max() + 1e-12

    def test_kl_nonnegative_and_zero_iff_constant_exponent(self, triangle_one_neg, triangle_pos):
        walk = tr.WalkConfig(1.0, 0.0)
        table = tr.path_table(triangle_one_neg, tr.SignProduct(), walk)
        result, p = tr.twist(table, 1.2)
        p0 = np.array([path.base_prob for path in table.paths])
        d = tr.kl_divergence(p, p0)
        assert d > 0
        assert d == pytest.approx(1.2 * result.mean_measure - result.free_energy, abs=1e-12)
        # Constant measure: the tilt cancels and the divergence vanishes.
        table0 = tr.path_table(triangle_pos, tr.SignProduct(), walk)
        result0, q = tr.twist(table0, 1.2)
        q0 = np.array([path.base_prob for path in table0.paths])
        assert tr.kl_divergence(q, q0) == pytest.approx(0.0, abs=1e-12)

    def test_survives_large_temperatures(self, triangle_one_neg):
        table = tr.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
        _, probs = tr.twist(table, 400.0)
        total = sum(probs.tolist())
        assert abs(total - 1.0) <= 1e-12

    def test_theta_dimension_validated(self, triangle_one_neg):
        table = tr.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
        with pytest.raises(ValueError, match="dimension"):
            tr.twist(table, np.array([1.0, 2.0]))


class TestLogSumExp:
    def test_matches_logaddexp_reduce_with_tied_maxima(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(2000):
            x = rng.uniform(-1e3, 1e3, int(rng.integers(1, 60)))
            ties = int(rng.integers(1, x.size + 1))
            x[rng.choice(x.size, ties, replace=False)] = x.max()
            ref = np.logaddexp.reduce(x)
            worst = max(worst, abs(twisting._logsumexp(x) - ref) / abs(ref))
        assert worst <= 1e-15


class TestFreeEnergyGradient:
    def test_balanced_graph_gradient_zero(self):
        g = tr.load_graph([(0, 1, 1), (2, 3, -1)])
        grad = tr.twist(tr.path_table(g, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), 0.0)[0].mean_measure
        assert grad == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_differences(self):
        step = 1e-5
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = random_signed_graph(rng)
            theta = float(rng.uniform(-2, 2))
            walk = tr.WalkConfig(0.7, 0.3)
            table = tr.path_table(g, tr.SignMin(), walk)
            grad = tr.twist(table, theta)[0].mean_measure
            hi, _ = tr.twist(table, theta + step)
            lo, _ = tr.twist(table, theta - step)
            fd = (hi.free_energy - lo.free_energy) / (2 * step)
            assert abs(grad - fd) <= 1e-6 * max(1.0, abs(grad))

    def test_saturates_to_plus_one(self, triangle_one_neg):
        table = tr.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
        grad = tr.twist(table, 20.0)[0].mean_measure
        assert abs(grad - 1.0) <= 1e-6

    def test_monotone_in_theta(self):
        g = random_signed_graph(np.random.default_rng(21))
        table = tr.path_table(g, tr.SignProduct(), tr.WalkConfig(0.5, 0.5))
        grads = [tr.twist(table, t)[0].mean_measure for t in np.linspace(-6, 6, 50)]
        assert np.all(np.diff(grads) >= -1e-12)


class TestSolveThetaClosed:
    # Regression targets for the blog-network sign counts m+ = 15225,
    # m- = 1425, to the four printed decimals.
    CASES = [
        (-0.99, -3.8310),
        (-0.9, -2.6566),
        (-0.5, -1.7337),
        (0.0, -1.1844),
        (0.5, -0.6351),
        (0.9, 0.2878),
        (0.99, 1.4623),
    ]

    @staticmethod
    def _stats(m_pos, m_neg):
        return tr.GraphStats(
            m=m_pos + m_neg, m_pos=m_pos, m_neg=m_neg,
            degree=np.array([1]), pos_degree=np.array([1]), neg_degree=np.array([0]),
        )

    @pytest.mark.parametrize("gamma,expected", CASES)
    def test_blog_network_regression(self, gamma, expected):
        theta = tr.solve_theta_closed(self._stats(15225, 1425), gamma)
        assert theta == pytest.approx(expected, abs=5e-5)

    def test_balanced_graph_gives_zero(self):
        assert tr.solve_theta_closed(self._stats(10, 10), 0.0) == pytest.approx(0.0)

    def test_single_sign_rejected(self):
        with pytest.raises(SolveError, match="positive and negative"):
            tr.solve_theta_closed(self._stats(10, 0), 0.0)

    @pytest.mark.parametrize("gamma", [-1.0, 1.0, 1.5])
    def test_gamma_out_of_range_rejected(self, gamma):
        with pytest.raises(SolveError, match="strictly"):
            tr.solve_theta_closed(self._stats(10, 10), gamma)

    def test_consistent_with_mean_sign(self):
        s = self._stats(7, 3)
        for gamma in (-0.8, -0.2, 0.0, 0.4, 0.95):
            theta = tr.solve_theta_closed(s, gamma)
            mean = (s.m_pos * math.exp(theta) - s.m_neg * math.exp(-theta)) / (
                s.m_pos * math.exp(theta) + s.m_neg * math.exp(-theta)
            )
            assert mean == pytest.approx(gamma, abs=1e-12)


class TestSolveThetaNumeric:
    def test_matches_closed_form(self, corpus100):
        for g, _ in corpus100[:15]:
            s = tr.stats(g)
            table = tr.path_table(g, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
            for gamma in (-0.7, 0.0, 0.6, 0.99):
                closed = tr.solve_theta_closed(s, gamma)
                numeric = tr.solve_theta_numeric(table, gamma)
                assert abs(closed - numeric) <= 1e-10

    def test_fixed_point_at_zero(self):
        g = random_signed_graph(np.random.default_rng(8))
        table = tr.path_table(g, tr.SignProduct(), tr.WalkConfig(0.7, 0.3))
        gamma = tr.twist(table, 0.0)[0].mean_measure
        assert abs(tr.solve_theta_numeric(table, gamma)) <= 1e-10

    def test_sign_min_round_trip(self):
        g = tr.load_graph([(0, 1, 1), (1, 2, 1), (2, 3, -1), (3, 4, 1), (0, 4, 1), (1, 3, -1)])
        table = tr.path_table(g, tr.SignMin(), tr.WalkConfig(0.5, 0.5))
        theta = tr.solve_theta_numeric(table, 0.5)
        back = tr.twist(table, theta)[0].mean_measure
        assert abs(back - 0.5) <= 1e-10

    def test_unachievable_target_names_range(self, triangle_one_neg):
        with pytest.raises(SolveError, match="achievable range") as info:
            tr.solve_theta_numeric(
                tr.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), 1.5
            )
        assert str(info.value) == (
            "target mean 1.5 is outside the achievable range (-1.0, 1.0) (open interval)"
        )

    def test_constant_measure_rejected(self, triangle_pos):
        with pytest.raises(SolveError, match="constant") as info:
            tr.solve_theta_numeric(
                tr.path_table(triangle_pos, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), 0.5
            )
        assert str(info.value).startswith("measure is constant (1.0) on the support")

    def test_achievable_range_brackets_sign_measure(self, triangle_one_neg):
        table = tr.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(0.5, 0.5))
        fmin, fmax = tr.achievable_range(table)
        assert (fmin, fmax) == (-1.0, 1.0)


class TestTwistedStructure:
    def test_reversibility(self, corpus100):
        walk = tr.WalkConfig(0.4, 0.6)
        for g, z in corpus100[:10]:
            for measure in (tr.SignProduct(), tr.SignMin(), tr.MinInnerProduct(z)):
                table = tr.path_table(g, measure, walk)
                _, probs = tr.twist(table, 1.3)
                by_nodes = {path.nodes: prob for path, prob in zip(table.paths, probs.tolist())}
                for nodes, prob in by_nodes.items():
                    assert abs(prob - by_nodes[nodes[::-1]]) <= 1e-12


class TestKLOptimality:
    def test_twist_minimizes_divergence_on_simplex_grid(self, path3):
        # Support: 4 directed edges with signs (+, +, -, -) and base mass 1/4.
        # Enumerate every distribution on a step-1/60 simplex grid whose mean
        # sign is exactly the target; none may beat the tilted distribution.
        gamma = 0.3
        walk = tr.WalkConfig(1.0, 0.0)
        table = tr.path_table(path3, tr.SignProduct(), walk)
        theta = tr.solve_theta_numeric(table, gamma)
        _, p = tr.twist(table, theta)
        p0 = np.array([path.base_prob for path in table.paths])
        f = np.array([tr.SignProduct().evaluate(path3, path.nodes) for path in table.paths])
        d_twist = tr.kl_divergence(p, p0)

        steps = 60
        best = np.inf
        checked = 0
        for cuts in itertools.combinations(range(steps + 3), 3):
            parts = np.diff((-1,) + cuts + (steps + 3,)) - 1
            q = np.array(parts) / steps
            if abs(q @ f - gamma) > 1e-12:
                continue
            checked += 1
            best = min(best, tr.kl_divergence(q, p0))
        assert checked > 100
        assert best >= d_twist - 1e-9
