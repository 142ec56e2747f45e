"""Path measures, the exponential tilt, free energy, and temperature solving."""

import bisect
import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twistrank as tr
from twistrank import graph as tg, twisting, verify
from twistrank.errors import ConvergenceError, GraphError, SolveError

from conftest import random_signed_graph, tilted_masses, walk_masses

centrality_module = importlib.import_module("twistrank.centrality")


def _kl(p, q):
    """Kullback-Leibler divergence sum(p * log(p / q)) over a shared support."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def _value(g, measure, nodes):
    """The measure of one walk, through a one-row block."""
    (value,) = verify.walk_values(g, measure, [nodes])
    return value


class TestMeasures:
    def test_sign_product_two_negatives_is_positive(self):
        g = tr.load_graph([(0, 1, -1), (1, 2, -1)])
        assert _value(g, tr.SignProduct(), (0, 1, 2)) == 1.0

    def test_sign_min_one_negative_poisons(self):
        g = tr.load_graph([(0, 1, 1), (1, 2, -1)])
        assert _value(g, tr.SignMin(), (0, 1, 2)) == -1.0

    def test_min_inner_product(self):
        g = tr.load_graph([(0, 1, 1)], [(0, [0.2, 0.9]), (1, [0.5, 0.1])])
        measure = tr.MinInnerProduct([1.0, 0.0])
        assert _value(g, measure, (0, 1)) == pytest.approx(0.2)

    @pytest.mark.parametrize("scores", [[], [[1.0, 0.5]]], ids=["empty", "2-D"])
    def test_min_inner_product_takes_a_nonempty_vector(self, scores):
        with pytest.raises(ValueError,
                           match="^score vector must be a nonempty one-dimensional array$"):
            tr.MinInnerProduct(scores)

    def test_min_inner_product_requires_attributes(self, triangle_pos):
        with pytest.raises(GraphError, match="dimension"):
            _value(triangle_pos, tr.MinInnerProduct([1.0]), (0, 1))

    def test_single_edge_signs_agree_across_measures(self, path3):
        for nodes in [(0, 1), (1, 2)]:
            assert _value(path3, tr.SignProduct(), nodes) == _value(path3, tr.SignMin(), nodes)

    @pytest.mark.parametrize("beta", [(1.0, 0.0), (0.7, 0.3), (0.0, 1.0)])
    def test_block_evaluation_equals_the_per_walk_code(self, beta, corpus100):
        walk = tr.WalkConfig(*beta)
        for g, z in corpus100:
            paths = [nodes for nodes, _ in walk_masses(verify.enumerate_paths(g, walk))]
            blocks = [np.array([p for p in paths if len(p) == length]) for length in (2, 3)]
            for measure in (tr.SignProduct(), tr.SignMin(), tr.MinInnerProduct(z)):
                want = np.array([_per_walk_measure(g, measure, nodes) for nodes in paths])
                got = np.concatenate([verify.walk_values(g, measure, b) for b in blocks if b.size])
                assert np.array_equal(got, want)
                assert np.array_equal(verify.path_table(g, measure, walk).f, want)
                assert _value(g, measure, paths[-1]) == want[-1]

    @pytest.mark.parametrize("measure", [tr.SignProduct(), tr.SignMin(), tr.MinInnerProduct([1.0, 0.5])],
                             ids=["prod", "min", "ad"])
    @pytest.mark.parametrize("bad", [(0, 2), (2, -1), (0, 3 + 2)],
                             ids=["non-edge", "negative-id", "aliasing-id"])
    def test_a_step_must_be_an_edge_between_graph_nodes(self, measure, bad):
        # Path 0 - 1 - 2 has no edge 0-2.  Read as entry codes u * 3 + w, the
        # steps 2 -> -1 and 0 -> 5 would both hit the code of the edge 1-2.
        # Node scores alone would read node 2 for node -1, and raise
        # IndexError for node 5.
        path3 = tr.load_graph([(0, 1, 1), (1, 2, -1)], [(u, [0.2, 0.1 * u]) for u in range(3)])
        message = f"^no edge between nodes {bad[0]} and {bad[1]}$"
        with pytest.raises(GraphError, match=message):
            verify.walk_values(path3, measure, np.array([(1, 2), bad]))
        with pytest.raises(GraphError, match=message):
            _value(path3, measure, bad)


def _per_walk_measure(g, measure, nodes):
    """A measure of one walk as it was evaluated before blocks: one bisection
    in the CSR row per step, and one dot product per node."""
    if isinstance(measure, tr.MinInnerProduct):
        return float(min(g.node_attrs[u] @ measure.scores for u in nodes))
    indptr, indices, signs = (a.tolist() for a in g.csr())
    steps = []
    for a, b in zip(nodes, nodes[1:]):
        i = bisect.bisect_left(indices, b, indptr[a], indptr[a + 1])
        assert i < indptr[a + 1] and indices[i] == b
        steps.append(signs[i])
    if isinstance(measure, tr.SignMin):
        return float(min(steps))
    value = 1
    for step in steps:
        value *= step
    return float(value)


class _GivenScores(tr.MinInnerProduct):
    """The advertisement measure with its node scores given outright."""

    def __init__(self, z):
        super().__init__([1.0])
        self.z = np.asarray(z, dtype=float)

    def node_scores(self, graph):
        return self.z


def _lexsorted_capped_rows(measure, g):
    """Capped rows as they were sorted before the integer key: one float lexsort."""
    z = measure.node_scores(g)
    indptr, neighbours, _ = g.csr()
    middles = np.repeat(np.arange(g.n), np.diff(indptr))
    capped = np.minimum(z[middles], z[neighbours])
    order = np.lexsort((capped, middles))
    return middles[order], neighbours[order], capped[order]


def _stable_capped_rows(measure, g):
    """Capped rows as they were sorted before the unique row key: one stable
    argsort of ``middle * r + level`` over the r used levels."""
    z = measure.node_scores(g)
    lo, hi, _ = g.pairs()
    middle, neighbour = np.concatenate((hi, lo)), np.concatenate((lo, hi))
    levels, rank = np.unique(z, return_inverse=True)
    rank = rank.astype(middle.dtype)
    level = np.minimum(rank[middle], rank[neighbour])
    used = np.zeros(levels.size, dtype=bool)
    used[level] = True
    level = (np.cumsum(used, dtype=level.dtype) - 1)[level]
    order = np.argsort(middle.astype(np.int64) * used.sum() + level, kind="stable")
    return middle[order], neighbour[order], level[order], levels[used] + 0.0


def _graph_with_isolated_nodes(rng, n, edge_prob, isolated):
    """A dense random graph on 0..n-1 plus ``isolated`` attribute-only nodes."""
    u, w = np.triu_indices(n, 1)
    keep = rng.random(u.size) < edge_prob
    edges = np.column_stack([u[keep], w[keep], np.where(rng.random(keep.sum()) < 0.2, -1, 1)])
    ids = np.arange(n + isolated)
    return tr.load_graph(edges, (ids, np.zeros((ids.size, 1))))


class TestCappedRows:
    # Rows of 20 and more entries with few distinct scores: an unstable sort
    # reorders the ties, and a key on the neighbour's rank alone misplaces
    # every neighbour scored above its middle node.
    SPECIALS = (-0.0, 0.0)
    NON_FINITE = (np.inf, -np.inf, np.nan)

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_the_float_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        g = _graph_with_isolated_nodes(rng, int(rng.integers(30, 70)), 0.5, int(rng.integers(0, 4)))
        pool = rng.normal(size=int(rng.integers(1, 6)))
        if seed % 2:
            pool = np.concatenate([pool, self.SPECIALS])
        z = rng.choice(pool, size=g.n)
        if seed % 2:
            z[:len(self.SPECIALS)] = self.SPECIALS
        measure = _GivenScores(z)
        got = tr.TiltModel(g, measure).capped_rows
        want = _lexsorted_capped_rows(measure, g)
        # The neighbours and levels take the width of the graph's ids.
        node = tg._index_dtype(g.n)
        assert got.neighbour.dtype == got.level.dtype == g.pairs()[0].dtype == node
        assert got.neighbour.dtype == want[1].dtype
        middle = np.repeat(np.arange(g.n), np.diff(got.indptr))
        for a, b in zip((middle, got.neighbour, got.levels[got.level]), want):
            assert np.array_equal(a, b)
        np.testing.assert_array_equal(got.indptr, g.csr()[0])
        # The levels ascend strictly, and every one is an entry's.
        assert np.all(got.levels[:-1] < got.levels[1:])
        assert np.array_equal(np.unique(got.level), np.arange(got.levels.size))
        # A score that is not finite, at any node, is a data error naming the first.
        if seed % 2:
            for value in self.NON_FINITE:
                bad = z.copy()
                at = np.sort(rng.choice(g.n, size=2, replace=False))
                bad[at] = value
                with pytest.raises(GraphError, match=f"score of node {g.original_ids[at[0]]} "
                                                     f"is {value}: the inner product"):
                    tr.TiltModel(g, _GivenScores(bad)).capped_rows

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=120),
           st.integers(0, 4),
           st.lists(st.sampled_from([-0.0, 0.0, 0.5, -1.5, 2.0, 2.0 ** -30]), min_size=1,
                    max_size=4),
           st.randoms(use_true_random=False))
    def test_equals_the_stable_argsort(self, pairs, isolated, pool, random):
        """Tied scores, both zeros and isolated nodes: the rows sorted by the
        unique key are, array for array, those of the stable argsort."""
        records = sorted({(min(u, w), max(u, w)) for u, w in pairs if u != w})
        ids = sorted({v for pair in records for v in pair} | set(range(25, 25 + isolated)))
        g = tr.load_graph(records, (np.array(ids, dtype=np.int64), np.zeros((len(ids), 1))))
        z = np.array([random.choice(pool) for _ in range(g.n)])
        measure = _GivenScores(z)
        got = tr.TiltModel(g, measure).capped_rows
        want = _stable_capped_rows(measure, g)
        assert np.array_equal(np.repeat(np.arange(g.n), np.diff(got.indptr)), want[0])
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert np.array_equal(got.indptr, g.csr()[0])

    def test_a_row_key_beyond_int64_is_refused_before_any_allocation(self):
        class Huge:
            n = 2**31
            original_ids = None

        class Unread(tr.MinInnerProduct):
            def node_scores(self, graph):
                raise AssertionError("the node scores were computed")

        with pytest.raises(GraphError, match=r"^cannot sort the capped rows of 2147483648 "
                                             r"nodes: "):
            centrality_module._capped_rows(Huge(), Unread([1.0]))

    def test_overflowing_attributes(self):
        # Finite attributes whose products with the score vector overflow:
        # rows of one sign give +-inf, and rows of both signs give inf - inf
        # = nan, or +-inf, depending on how the sum adds them.  The first such
        # node is named.
        rng = np.random.default_rng(3)
        n = 40
        u, w = np.triu_indices(n, 1)
        keep = rng.random(u.size) < 0.6
        big = 1e308
        rows = np.array([[big] * 4, [-big] * 4, [big, big, -big, -big], [big, -big, big, -big],
                         [0.5, 0.25, 0.0, 0.0], [0.0] * 4])
        attrs = rows[rng.integers(0, len(rows), n + 2)]
        g = tr.load_graph(np.column_stack([u[keep], w[keep]]), (np.arange(n + 2), attrs))
        measure = tr.MinInnerProduct([2.0] * 4)
        z = measure.node_scores(g)
        assert np.isposinf(z).any() and np.isneginf(z).any()
        first = int(np.flatnonzero(~np.isfinite(z))[0])
        with pytest.raises(GraphError, match=f"^the score of node {g.original_ids[first]} is "
                                             f"{z[first]}: the inner product"):
            tr.TiltModel(g, measure).capped_rows

    def test_edgeless_and_empty_rows(self):
        g = tr.load_graph([], [(u, [1.0]) for u in range(3)])
        rows = tr.TiltModel(g, _GivenScores([0.5, 1.0, 1.0])).capped_rows
        assert rows.neighbour.size == rows.level.size == rows.levels.size == 0
        assert rows.indptr.tolist() == [0, 0, 0, 0]

    def test_zero_level_is_positive_zero(self):
        """With -0.0 and 0.0 node scores the zero level is 0.0, so no
        "achievable range" message prints -0.0."""
        zeros = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            g = _graph_with_isolated_nodes(rng, int(rng.integers(5, 40)), 0.4, 1)
            z = rng.choice(np.array([-0.0, 0.0, 0.5, 2.0]), size=g.n)
            model = tr.TiltModel(g, _GivenScores(z), tr.WalkConfig(0.7, 0.3))
            levels = model.capped_rows.levels
            assert not np.signbit(levels).any()
            if g.m == 0:
                continue
            with pytest.raises(SolveError) as exc:
                model.theta(-1.0)
            assert "-0.0" not in str(exc.value)
            zeros += "achievable range (0.0, " in str(exc.value)
        assert zeros >= 20

    @pytest.mark.parametrize("beta", [(1.0, 0.0), (0.7, 0.3), (0.0, 1.0)],
                             ids=["beta-1-0", "beta-0.7-0.3", "beta-0-1"])
    def test_atoms_are_the_float_unique_of_the_capped_scores(self, beta):
        """The atoms summed by integer level equal those of one np.unique over
        the capped floats, masses bit for bit.  Which zero np.unique keeps of
        -0.0 and 0.0 depends on where its sort puts them, so a zero value is
        compared up to its sign."""
        walk = tr.WalkConfig(*beta)
        for seed in range(60):
            rng = np.random.default_rng(seed)
            g = _graph_with_isolated_nodes(rng, int(rng.integers(5, 60)), rng.uniform(0.05, 0.6),
                                           int(rng.integers(0, 3)))
            if g.m == 0:
                continue
            z = rng.choice(np.array([-0.0, 0.0, 0.5, -1.5, 2.0, 0.25]), size=g.n)
            model = tr.TiltModel(g, _GivenScores(z), walk)
            values, masses = model.atoms
            rows = model.capped_rows
            middle = np.repeat(np.arange(g.n), np.diff(rows.indptr))
            k = np.diff(rows.indptr)[middle]
            i = np.arange(rows.level.size) - rows.indptr[middle]
            weights = (walk.beta1 + walk.beta2 * (2 * (k - 1 - i) + 1) / k) / (2 * g.m)
            capped = np.minimum(z[middle], z[rows.neighbour])
            want, inverse = np.unique(capped, return_inverse=True)
            want_masses = np.bincount(inverse, weights=weights, minlength=want.size)
            assert masses.tobytes() == want_masses.tobytes()
            assert (values + 0.0).tobytes() == (want + 0.0).tobytes()


class TestTwist:
    def test_zero_temperature_is_identity(self):
        g = random_signed_graph(np.random.default_rng(0))
        table = verify.path_table(g, tr.SignProduct(), tr.WalkConfig(0.7, 0.3))
        result, probs = verify.twist(table, 0.0)
        assert result.free_energy == pytest.approx(0.0, abs=1e-12)
        for base, prob in zip(table.p0.tolist(), probs.tolist()):
            assert prob == pytest.approx(base, abs=1e-14)

    def test_triangle_hand_normalized_masses(self, triangle_one_neg):
        # Tilting the 6 directed edges by exp(theta * sign) with theta = ln 2:
        # positive edges carry 2/6 before normalization and negative edges
        # 1/12, so the normalized masses are 2/9 and 1/18.
        table = verify.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
        _, probs = verify.twist(table, math.log(2))
        masses = {}
        for prob in probs.tolist():
            masses.setdefault(round(prob, 14), 0)
            masses[round(prob, 14)] += 1
        assert masses == {round(2 / 9, 14): 4, round(1 / 18, 14): 2}

    def test_normalization_and_mean_in_hull(self, corpus100):
        for g, z in corpus100[:20]:
            table = verify.path_table(g, tr.MinInnerProduct(z), tr.WalkConfig(0.7, 0.3))
            result, probs = verify.twist(table, 1.5)
            values = np.array([_value(g, tr.MinInnerProduct(z), nodes)
                               for nodes in tilted_masses(table, probs)])
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert values.min() - 1e-12 <= result.mean_measure <= values.max() + 1e-12

    def test_kl_nonnegative_and_zero_iff_constant_exponent(self, triangle_one_neg, triangle_pos):
        walk = tr.WalkConfig(1.0, 0.0)
        table = verify.path_table(triangle_one_neg, tr.SignProduct(), walk)
        result, p = verify.twist(table, 1.2)
        d = _kl(p, table.p0)
        assert d > 0
        assert d == pytest.approx(1.2 * result.mean_measure - result.free_energy, abs=1e-12)
        # Constant measure: the tilt cancels and the divergence vanishes.
        table0 = verify.path_table(triangle_pos, tr.SignProduct(), walk)
        result0, q = verify.twist(table0, 1.2)
        assert _kl(q, table0.p0) == pytest.approx(0.0, abs=1e-12)

    def test_survives_large_temperatures(self, triangle_one_neg):
        table = verify.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
        _, probs = verify.twist(table, 400.0)
        total = sum(probs.tolist())
        assert abs(total - 1.0) <= 1e-12

    def test_theta_dimension_validated(self, triangle_one_neg):
        table = verify.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
        with pytest.raises(ValueError, match="dimension"):
            verify.twist(table, np.array([1.0, 2.0]))


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
        grad = verify.twist(verify.path_table(g, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), 0.0)[0].mean_measure
        assert grad == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_differences(self):
        step = 1e-5
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = random_signed_graph(rng)
            theta = float(rng.uniform(-2, 2))
            walk = tr.WalkConfig(0.7, 0.3)
            table = verify.path_table(g, tr.SignMin(), walk)
            grad = verify.twist(table, theta)[0].mean_measure
            hi, _ = verify.twist(table, theta + step)
            lo, _ = verify.twist(table, theta - step)
            fd = (hi.free_energy - lo.free_energy) / (2 * step)
            assert abs(grad - fd) <= 1e-6 * max(1.0, abs(grad))

    def test_saturates_to_plus_one(self, triangle_one_neg):
        table = verify.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
        grad = verify.twist(table, 20.0)[0].mean_measure
        assert abs(grad - 1.0) <= 1e-6

    def test_monotone_in_theta(self):
        g = random_signed_graph(np.random.default_rng(21))
        table = verify.path_table(g, tr.SignProduct(), tr.WalkConfig(0.5, 0.5))
        grads = [verify.twist(table, t)[0].mean_measure for t in np.linspace(-6, 6, 50)]
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
        theta = verify.solve_theta_closed(self._stats(15225, 1425), gamma)
        assert theta == pytest.approx(expected, abs=5e-5)

    def test_balanced_graph_gives_zero(self):
        assert verify.solve_theta_closed(self._stats(10, 10), 0.0) == pytest.approx(0.0)

    def test_single_sign_rejected(self):
        with pytest.raises(SolveError, match="positive and negative"):
            verify.solve_theta_closed(self._stats(10, 0), 0.0)

    @pytest.mark.parametrize("gamma", [-1.0, 1.0, 1.5])
    def test_gamma_out_of_range_rejected(self, gamma):
        with pytest.raises(SolveError, match="strictly"):
            verify.solve_theta_closed(self._stats(10, 10), gamma)

    def test_consistent_with_mean_sign(self):
        s = self._stats(7, 3)
        for gamma in (-0.8, -0.2, 0.0, 0.4, 0.95):
            theta = verify.solve_theta_closed(s, gamma)
            mean = (s.m_pos * math.exp(theta) - s.m_neg * math.exp(-theta)) / (
                s.m_pos * math.exp(theta) + s.m_neg * math.exp(-theta)
            )
            assert mean == pytest.approx(gamma, abs=1e-12)


class TestSolveThetaNumeric:
    def test_matches_closed_form(self, corpus100):
        for g, _ in corpus100[:15]:
            s = tr.stats(g)
            table = verify.path_table(g, tr.SignProduct(), tr.WalkConfig(1.0, 0.0))
            for gamma in (-0.7, 0.0, 0.6, 0.99):
                closed = verify.solve_theta_closed(s, gamma)
                numeric = verify.solve_theta_numeric(table, gamma)
                assert abs(closed - numeric) <= 1e-10

    def test_fixed_point_at_zero(self):
        g = random_signed_graph(np.random.default_rng(8))
        table = verify.path_table(g, tr.SignProduct(), tr.WalkConfig(0.7, 0.3))
        gamma = verify.twist(table, 0.0)[0].mean_measure
        assert abs(verify.solve_theta_numeric(table, gamma)) <= 1e-10

    def test_sign_min_round_trip(self):
        g = tr.load_graph([(0, 1, 1), (1, 2, 1), (2, 3, -1), (3, 4, 1), (0, 4, 1), (1, 3, -1)])
        table = verify.path_table(g, tr.SignMin(), tr.WalkConfig(0.5, 0.5))
        theta = verify.solve_theta_numeric(table, 0.5)
        back = verify.twist(table, theta)[0].mean_measure
        assert abs(back - 0.5) <= 1e-10

    def test_unachievable_target_names_range(self, triangle_one_neg):
        with pytest.raises(SolveError, match="achievable range") as info:
            verify.solve_theta_numeric(
                verify.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), 1.5
            )
        assert str(info.value) == (
            "target mean 1.5 is outside the achievable range (-1.0, 1.0) (open interval)"
        )

    def test_constant_measure_rejected(self, triangle_pos):
        with pytest.raises(SolveError, match="constant") as info:
            verify.solve_theta_numeric(
                verify.path_table(triangle_pos, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), 0.5
            )
        assert str(info.value).startswith("measure is constant (1.0) on the support")

    def test_achievable_range_brackets_sign_measure(self, triangle_one_neg):
        table = verify.path_table(triangle_one_neg, tr.SignProduct(), tr.WalkConfig(0.5, 0.5))
        fmin, fmax = verify.achievable_range(table)
        assert (fmin, fmax) == (-1.0, 1.0)


class TestBracket:
    """A solve brackets its root by doubling a step of +-1 away from 0 on
    the side where the root lies, and gives up past 10^6 on the scaled atoms."""

    @pytest.mark.parametrize("atoms, gamma, message", [
        ([0.0, 0.99999, 1.0], 1 - 1e-15,
         "failed to bracket the temperature from above (final residual -5.255e-08)"),
        ([0.0, 1e-5, 1.0], 1e-15,
         "failed to bracket the temperature from below (final residual 5.257e-08)"),
    ], ids=["above", "below"])
    def test_a_root_beyond_the_limit_fails_to_bracket(self, atoms, gamma, message):
        solver = twisting.AtomSolver(np.array(atoms), np.full(3, 1 / 3))
        with pytest.raises(ConvergenceError) as info:
            solver.theta(gamma)
        assert str(info.value) == message

    @pytest.mark.parametrize("gamma", [0.1, 0.45, 0.9])
    def test_a_solve_visits_only_its_root_side(self, gamma):
        solver = twisting.AtomSolver(np.array([0.0, 0.3, 0.7, 1.0]), np.full(4, 0.25))
        theta = solver.theta(gamma)
        assert theta != 0.0
        assert all(t * theta >= 0.0 for t in solver.moments)
        assert math.copysign(1.0, theta) in solver.moments


def _unframed_theta(values, masses, gamma):
    """A reference ``AtomSolver.theta`` whose closed form runs on two atoms
    scaled by a power of two and never shifted; other tables go to the
    Newton iteration of ``_solve_scalar``."""
    keep = masses > 0
    f, p = values[keep], masses[keep]
    gamma = float(gamma)
    lo, hi = float(f.min()), float(f.max())
    twisting._check_target(lo, hi, gamma)
    if f.size != 2:
        return twisting._solve_scalar(f, p, np.log(p), gamma, {})
    width = hi - lo
    k = math.frexp(width)[1] if math.isfinite(width) else 1025
    k = 0 if -9 <= k <= 10 else k
    mass_lo, mass_hi = p.tolist()
    lo, hi, gamma = math.ldexp(lo, -k), math.ldexp(hi, -k), math.ldexp(gamma, -k)
    return math.ldexp(math.log(mass_lo * (gamma - lo) / (mass_hi * (hi - gamma))) / (hi - lo), -k)


class TestOneSolve:
    """``AtomSolver.theta`` is one ``_solve_scalar`` call, which shifts two
    atoms far from 0 before the closed form; by Sterbenz's lemma the shift
    keeps every bit of the unshifted closed form."""

    @staticmethod
    def _outcome(solve, gamma):
        # A target within a subnormal of an end at 0, once scaled onto it,
        # reaches math.log(0.0) in the closed form: ValueError, on both sides.
        try:
            return solve(gamma).hex()
        except (SolveError, ConvergenceError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    @pytest.mark.parametrize("seed", range(4))
    def test_bits_equal_the_unframed_solve(self, seed):
        rng = np.random.default_rng(seed)
        solved = 0
        for _ in range(150):
            size = 2 if rng.random() < 0.5 else int(rng.integers(3, 13))
            unit = np.sort(np.concatenate([[0.0, 1.0], rng.random(size - 2)]))
            offset = float(rng.choice([0.0, 1.0, -1.0])) * 10.0 ** rng.uniform(0, 6)
            scale = math.ldexp(rng.uniform(1, 2), int(rng.integers(-900, 901)))
            values = (offset + unit) * scale
            masses = rng.dirichlet(np.ones(size))
            if size > 2 and rng.random() < 0.2:
                masses[int(rng.integers(1, size - 1))] = 0.0  # filtered out
            lo, hi = values[0], values[-1]
            gammas = [lo + t * (hi - lo) for t in rng.random(3)]
            gammas += [lo, hi, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)]
            solver = twisting.AtomSolver(values, masses)
            for gamma in gammas:
                want = self._outcome(lambda g: _unframed_theta(values, masses, g), gamma)
                assert self._outcome(solver.theta, gamma) == want
                solved += not want.startswith(("SolveError", "ConvergenceError", "ValueError"))
        assert solved > 300

    def test_a_constant_table_gives_the_same_error(self):
        values, masses = np.array([2.5, 2.5, 7.0]), np.array([0.5, 0.5, 0.0])
        want = self._outcome(lambda g: _unframed_theta(values, masses, g), 2.5)
        assert self._outcome(twisting.AtomSolver(values, masses).theta, 2.5) == want
        assert want.startswith("SolveError: measure is constant (2.5)")


class TestTwistedStructure:
    def test_reversibility(self, corpus100):
        walk = tr.WalkConfig(0.4, 0.6)
        for g, z in corpus100[:10]:
            for measure in (tr.SignProduct(), tr.SignMin(), tr.MinInnerProduct(z)):
                table = verify.path_table(g, measure, walk)
                _, probs = verify.twist(table, 1.3)
                by_nodes = tilted_masses(table, probs)
                for nodes, prob in by_nodes.items():
                    assert abs(prob - by_nodes[nodes[::-1]]) <= 1e-12


class TestKLOptimality:
    def test_twist_minimizes_divergence_on_simplex_grid(self, path3):
        # Support: 4 directed edges with signs (+, +, -, -) and base mass 1/4.
        # Enumerate every distribution on a step-1/60 simplex grid whose mean
        # sign is exactly the target; none may beat the tilted distribution.
        gamma = 0.3
        walk = tr.WalkConfig(1.0, 0.0)
        table = verify.path_table(path3, tr.SignProduct(), walk)
        theta = verify.solve_theta_numeric(table, gamma)
        _, p = verify.twist(table, theta)
        p0 = table.p0
        f = np.array([_value(path3, tr.SignProduct(), nodes)
                      for nodes in tilted_masses(table, p)])
        d_twist = _kl(p, p0)

        steps = 60
        best = np.inf
        checked = 0
        for cuts in itertools.combinations(range(steps + 3), 3):
            parts = np.diff((-1,) + cuts + (steps + 3,)) - 1
            q = np.array(parts) / steps
            if abs(q @ f - gamma) > 1e-12:
                continue
            checked += 1
            best = min(best, _kl(q, p0))
        assert checked > 100
        assert best >= d_twist - 1e-9
