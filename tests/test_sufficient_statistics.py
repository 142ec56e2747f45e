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
from twistrank import twisting, verify
from twistrank.errors import SolveError

from conftest import random_signed_graph, skewed_signed_graph

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
            values, masses = tr.TiltModel(g, measure, walk).atoms
            table = verify.path_table(g, measure, walk)
            assert np.all(np.diff(values) > 0)
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)
            if kind == "advertisement":
                assert values.size <= g.n
            else:
                assert values.tolist() == [-1.0, 1.0]
            for theta in THETAS:
                result, _ = verify.twist(table, theta)
                free_energy = np.logaddexp.reduce(
                    theta * values[masses > 0] + np.log(masses[masses > 0])
                )
                worst = max(worst, abs(free_energy - result.free_energy))
        assert worst <= 1e-12

    def test_sign_atoms_by_hand(self, star_two_neg):
        # Center 0 with spokes +, +, -, -; every spoke node has degree 1.
        walk = tr.WalkConfig(0.5, 0.5)
        values, masses = tr.TiltModel(star_two_neg, tr.SignProduct(), walk).atoms
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
            tr.TiltModel(g, tr.SignMin(), tr.WalkConfig(0.7, 0.3)).atoms

    def test_ad_dimension_mismatch_rejected(self, corpus100):
        g, _ = corpus100[0]
        with pytest.raises(tr.GraphError, match="dimension"):
            tr.TiltModel(g, tr.MinInnerProduct([1.0, 2.0, 3.0]), tr.WalkConfig()).atoms


class TestSolveFromAtoms:
    def test_round_trip_and_oracle_agreement(self, corpus100):
        worst_round_trip = 0.0
        worst_vs_numeric = 0.0
        solved = 0
        for i, (g, z, kind, measure, walk) in enumerate(configs(corpus100)):
            table = verify.path_table(g, measure, walk)
            fmin, fmax = verify.achievable_range(table)
            if fmax - fmin < 1e-9:
                continue
            gamma = fmin + FRACTIONS[i % 3] * (fmax - fmin)
            atoms = tr.TiltModel(g, measure, walk).atoms
            theta = twisting.AtomSolver(*atoms).theta(gamma)
            back = verify.twist(table, theta)[0].mean_measure
            numeric = verify.solve_theta_numeric(table, gamma)
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
        atoms = tr.TiltModel(g, measure, walk).atoms
        table = verify.path_table(g, measure, walk)
        _, fmax = verify.achievable_range(table)
        for solve in (
            lambda: twisting.AtomSolver(*atoms).theta(fmax + 0.1),
            lambda: verify.solve_theta_numeric(table, fmax + 0.1),
        ):
            with pytest.raises(SolveError, match="achievable range"):
                solve()

    def test_constant_measure_rejected(self, triangle_pos):
        walk = tr.WalkConfig(0.7, 0.3)
        with pytest.raises(SolveError, match="constant"):
            tr.resolve_theta(tr.TiltModel(triangle_pos, tr.SignMin(), walk), gamma=0.5)
        with pytest.raises(SolveError, match="constant"):
            verify.solve_theta_numeric(verify.path_table(triangle_pos, tr.SignMin(), walk), 0.5)

    def test_closed_form_is_unchanged(self):
        s = tr.GraphStats(m=16650, m_pos=15225, m_neg=1425, degree=np.array([1]),
                          pos_degree=np.array([1]), neg_degree=np.array([0]))
        for gamma in (-0.99, -0.5, 0.0, 0.9):
            expected = 0.5 * math.log(1425 * (1.0 + gamma) / (15225 * (1.0 - gamma)))
            assert verify.solve_theta_closed(s, gamma) == expected

    def test_one_step_sign_theta_is_the_closed_form(self):
        """At beta = (1, 0) both sign measures solve on the atoms (m-/m, m+/m),
        which gives the paper's formula on (m-, m+) to within 4 ulp."""
        rng = np.random.default_rng(2017)
        eps = np.finfo(float).eps
        for _ in range(60):
            m_pos, m_neg = (int(x) for x in rng.integers(1, 3000, size=2))
            m = m_pos + m_neg
            # A path of m edges, with the signs shuffled along it.
            signs = rng.permutation(np.repeat(np.array([1, -1], dtype=np.int8), [m_pos, m_neg]))
            g = tr.AttributedGraph(np.arange(m + 1), np.arange(m), np.arange(1, m + 1), signs,
                                  np.zeros((m + 1, 0)))
            s = tr.stats(g)
            assert (s.m_pos, s.m_neg) == (m_pos, m_neg)
            for gamma in rng.uniform(-1.0, 1.0, size=5):
                closed = verify.solve_theta_closed(s, gamma)
                for measure in (tr.SignProduct(), tr.SignMin()):
                    theta = tr.TiltModel(g, measure, tr.WalkConfig(1.0, 0.0)).theta(gamma)
                    assert abs(theta - closed) <= 4 * eps * max(1.0, abs(closed))


def _outcome(solve, gamma):
    """A solve's theta as its exact bits, or its error."""
    try:
        return solve(gamma).hex()
    except (tr.TwistrankError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _target_lists(rng, lo, hi):
    """Targets across (lo, hi), two rejected ones, and the list repeated and reversed."""
    gammas = (lo + rng.uniform(0.001, 0.999, 6) * (hi - lo)).tolist()
    gammas += [lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), hi, lo - 1.0]
    gammas = [gammas[i] for i in rng.permutation(len(gammas))]
    return gammas, gammas[::-1], gammas + gammas


class TestSharedSolver:
    """The targets of one model share its atoms and the moments its solves
    visit, yet each gets the theta of its own fresh solve, bit for bit."""

    def test_random_atom_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            size = int(rng.integers(3, 30))
            spread = float(rng.choice([1.0, 10.0, 300.0]))
            values = np.unique(rng.uniform(-spread, spread, size))
            masses = rng.dirichlet(np.ones(values.size)) * rng.choice([1.0, 1e-12], values.size)
            masses[rng.random(values.size) < 0.2] = 0.0
            keep = masses > 0
            if keep.sum() < 3:
                continue
            # The oracle path solves without a memo.
            table = verify.PathTable(n=0, walks=(), f=values[keep], p0=masses[keep],
                                 logp0=np.log(masses[keep]))
            lo, hi = verify.achievable_range(table)
            for gammas in _target_lists(rng, lo, hi):
                solver = twisting.AtomSolver(values, masses)
                shared = [_outcome(solver.theta, g) for g in gammas]
                fresh = [_outcome(lambda g: twisting.AtomSolver(values, masses).theta(g), g)
                         for g in gammas]
                oracle = [_outcome(lambda g: verify.solve_theta_numeric(table, g), g) for g in gammas]
                assert shared == fresh == oracle
                assert sum(isinstance(o, str) for o in shared) >= 6

    @pytest.mark.parametrize("beta", [(1.0, 0.0), (0.7, 0.3), (0.0, 1.0)])
    def test_one_model_per_sweep(self, beta, corpus100):
        rng = np.random.default_rng(12)
        walk = tr.WalkConfig(*beta)
        for g, z in corpus100[:25]:
            measure = tr.MinInnerProduct(z)
            values, masses = tr.TiltModel(g, measure, walk).atoms
            live = values[masses > 0]
            for gammas in _target_lists(rng, float(live.min()), float(live.max())):
                model = tr.TiltModel(g, measure, walk)
                shared = [_outcome(model.theta, gamma) for gamma in gammas]
                fresh = [
                    _outcome(lambda gamma: twisting.AtomSolver(
                        *tr.TiltModel(g, measure, walk).atoms).theta(gamma), gamma)
                    for gamma in gammas
                ]
                assert shared == fresh


def _ad_model(power, walk):
    """An ad model whose node scores are those of ``power`` = 0 times 2^power, exactly."""
    rng = np.random.default_rng(5)
    n = 30
    u, w = np.triu_indices(n, 1)
    keep = rng.random(u.size) < 0.3
    attrs = np.ldexp(rng.uniform(0.0, 1.0, (n, 3)), power)
    g = tr.load_graph(np.column_stack([u[keep], w[keep]]), (np.arange(n), attrs))
    return tr.TiltModel(g, tr.MinInnerProduct([1.0, 0.5, 0.25]), walk)


class TestScoreScale:
    """A Newton solve runs on the atoms scaled by a power of two, so a target
    lands at the same place in the range whatever the scale of the scores."""

    @pytest.mark.parametrize("beta", [(1.0, 0.0), (0.7, 0.3)], ids=["beta-1-0", "beta-0.7-0.3"])
    @pytest.mark.parametrize("power", [40, -40, 900, -900])
    def test_achieved_mean_and_scores_at_any_scale(self, beta, power):
        walk = tr.WalkConfig(*beta)
        unit, model = _ad_model(0, walk), _ad_model(power, walk)
        table = verify.path_table(model.graph, model.measure, walk)
        lo, hi = float(model.solver.f.min()), float(model.solver.f.max())
        assert model.solver.f.size > 2
        for frac in (0.1, 0.5, 0.9):
            gamma = lo + frac * (hi - lo)
            theta = model.theta(gamma)
            assert abs(verify.twist(table, theta)[0].mean_measure - gamma) <= 1e-9 * (hi - lo)
            want = unit.ranking(unit.theta(math.ldexp(gamma, -power)))
            got = model.ranking(theta)
            np.testing.assert_allclose(got.scores, want.scores, rtol=1e-9)
            assert np.array_equal(got.order, want.order)


class TestAtomOffset:
    """Atoms far from 0 relative to their width, and two atoms whose width
    overflows, are solved where theta times an atom stays exact."""

    UNIT = np.array([0.0, 0.3, 0.7, 1.0])

    @pytest.mark.parametrize("offset", [1e3, 1e6, 1e9, -1e3, -1e9])
    def test_shifted_atoms_give_the_theta_of_the_atoms_at_zero(self, offset):
        atoms, masses, gamma = offset + self.UNIT, np.full(4, 0.25), offset + 0.9
        theta = twisting.AtomSolver(atoms, masses).theta(gamma)
        # The atoms' end nearest 0; both subtractions are exact, so this is
        # the shifted solve itself.
        shift = atoms[0] if offset > 0 else atoms[-1]
        at_zero = atoms - shift
        assert theta == twisting.AtomSolver(at_zero, masses).theta(gamma - shift)
        p = masses * np.exp(theta * (at_zero - at_zero.max()))
        assert abs((p * at_zero).sum() / p.sum() - (gamma - shift)) <= 1e-10

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_targets_near_an_end_at_2_to_31_widths(self, sign):
        """Random 3-30-atom tables of unit width, with targets 1e-4 to 1e-3
        from either end: each solve converges, and its mean is within 1e-10
        of the target however many widths the atoms lie from 0."""
        rng = np.random.default_rng(0)
        for offset in (2, 8, 16, 24, 28, 31):
            for _ in range(50):
                size = int(rng.integers(3, 31))
                unit = np.concatenate([[0.0, 1.0], rng.random(size - 2)])
                masses = rng.dirichlet(np.ones(size))
                atoms = sign * (offset + unit)
                shift = atoms.min() if sign > 0 else atoms.max()
                at_zero = atoms - shift
                solver = twisting.AtomSolver(atoms, masses)
                for d in (1e-4, 3e-4, 1e-3):
                    for gamma in (atoms.min() + d, atoms.max() - d):
                        theta = solver.theta(gamma)
                        x = theta * at_zero + np.log(masses)
                        p = np.exp(x - x.max())
                        assert abs((p * at_zero).sum() / p.sum() - (gamma - shift)) <= 1e-10

    def test_two_atoms_whose_width_overflows(self):
        lo, hi, gamma = -1.5e308, 1.5e308, 1e307
        theta = twisting.AtomSolver(np.array([lo, hi]), np.array([0.5, 0.5])).theta(gamma)
        p_hi = 1.0 / (1.0 + math.exp(theta * lo - theta * hi))
        assert lo * (1.0 - p_hi) + hi * p_hi == pytest.approx(gamma, rel=1e-12)

    @pytest.mark.parametrize("gamma", [-0.9, -0.2, 0.0, 0.35, 0.99])
    def test_sign_atoms_keep_the_unscaled_closed_form(self, gamma):
        theta = twisting.AtomSolver(np.array([-1.0, 1.0]), np.array([0.3, 0.7])).theta(gamma)
        assert theta == math.log(0.3 * (gamma + 1.0) / (0.7 * (1.0 - gamma))) / 2.0


class TestStartMarginal:
    def test_matches_bivariate_marginal(self, corpus100):
        worst = 0.0
        for g, z, kind, measure, walk in configs(corpus100):
            model = tr.TiltModel(g, measure, walk)
            for theta in THETAS:
                fast = tr.centrality(g, kind, theta=theta, walk=walk, ad_vector=z)
                slow = verify.marginal(verify.bivariate(model, theta))
                worst = max(worst, float(np.max(np.abs(fast.scores - slow.scores))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("theta", [-60.0, 45.0])
    def test_large_temperatures_match_bivariate(self, theta, corpus100):
        for g, z, kind, measure, walk in configs(corpus100[:10]):
            fast = tr.centrality(g, kind, theta=theta, walk=walk, ad_vector=z)
            slow = verify.marginal(verify.bivariate(tr.TiltModel(g, measure, walk), theta))
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


def _two_pass_sign_masses(g, gs, walk, is_min):
    """The sign masses a and b from two plain real np.add.at passes each, one
    per direction over the pairs, in the order of the production kernel."""
    kp, kn, k = gs.pos_degree, gs.neg_degree, gs.degree
    masses = [walk.beta1 * kp, walk.beta1 * kn]
    if walk.beta2 > 0:
        def share(x):
            return np.divide(x, k, out=np.zeros(g.n), where=k > 0)

        after_pos = share(kp), share(kn)
        after_neg = (np.zeros(g.n), share(k)) if is_min else (share(kn), share(kp))
        lo, hi, signs = g.pairs()
        for part in range(2):
            two_step = np.zeros(g.n)
            for middle, start in ((lo, hi), (hi, lo)):
                np.add.at(two_step, start, np.where(signs > 0, after_pos[part][middle],
                                                    after_neg[part][middle]))
            masses[part] = masses[part] + walk.beta2 * two_step
    return masses


def _csr_order_sign_scores(g, gs, walk, theta, is_min):
    """The unnormalized sign scores as one bincount over the CSR entries in
    row order: the two-step kernel that ran on the CSR before the pairs."""
    ep, en = math.exp(theta - abs(theta)), math.exp(-theta - abs(theta))
    kp, kn, k = gs.pos_degree, gs.neg_degree, gs.degree
    out = kp * ep + kn * en
    scores = walk.beta1 * out
    _, starts, signs = g.csr()
    after_neg = k * en if is_min else kn * ep + kp * en
    inner = np.where(signs > 0, np.repeat(out, k), np.repeat(after_neg, k))
    return scores + walk.beta2 * np.bincount(
        starts, weights=inner / np.repeat(k, k), minlength=g.n
    )


def _sign_graphs(rng):
    graphs = [skewed_signed_graph(rng, 70_000, 150_000),
              tr.load_graph([(1, 2, 1), (1, 3, -1), (2, 3, 1), (3, 4, -1), (6, 7, -1)],
                            [(v, []) for v in range(9)])]
    return graphs + [random_signed_graph(np.random.default_rng(seed)) for seed in range(4)]


class TestSignScoreBits:
    @pytest.mark.parametrize("beta", [(0.7, 0.3), (0.0, 1.0), (0.2, 0.8)])
    def test_complex_pass_keeps_every_bit_of_two_real_passes(self, beta):
        """The real and imaginary parts of one complex np.add.at per direction
        are a and b bit for bit as two real passes each sum them, and neither
        takes a negative value."""
        walk = tr.WalkConfig(*beta)
        for g in _sign_graphs(np.random.default_rng(31)):
            gs = tr.stats(g)
            for is_min in (False, True):
                got = centrality_module._sign_masses(g, gs, walk, is_min)
                want = _two_pass_sign_masses(g, gs, walk, is_min)
                for mine, ref in zip(got, want):
                    assert (mine >= 0).all()
                    differ = np.flatnonzero(mine.view(np.int64) != ref.view(np.int64))
                    assert [(u, float.hex(mine[u]), float.hex(ref[u]))
                            for u in differ[:5].tolist()] == []

    @pytest.mark.parametrize("beta", [(1.0, 0.0), (0.7, 0.3), (0.0, 1.0)])
    def test_scores_match_the_csr_kernel(self, beta):
        """e^theta a + e^-theta b, normalized, is the CSR-order kernel's score
        to rounding.  Both sum a node's k_u neighbour terms in sequence, each
        within (k_u - 1) ulp, so a hub's score may differ by about 2 k_u ulp."""
        walk = tr.WalkConfig(*beta)
        for g in _sign_graphs(np.random.default_rng(31)):
            gs = tr.stats(g)
            bound = (2 * gs.degree + 32) * np.finfo(float).eps
            for measure in (tr.SignProduct(), tr.SignMin()):
                model = tr.TiltModel(g, measure, walk)
                for theta in (-3.0, -0.4, 0.0, 0.9, 2.5):
                    want = _csr_order_sign_scores(g, gs, walk, theta, model.is_min)
                    want = want / want.sum()
                    got = model.scores(theta)
                    assert np.all(np.abs(got - want) <= bound * want)


def _float_capped_ad_scores(g, walk, theta):
    """The unnormalized ad scores from one float capped score per entry: the
    kernel that ran before the capped rows kept integer levels only.  Its rows
    are a float lexsort of the CSR entries, its runs are runs of equal floats,
    and its shift is the largest entry exponent."""
    z = g.node_attrs[:, 0]
    indptr, neighbours, _ = g.csr()
    middles = np.repeat(np.arange(g.n), np.diff(indptr))
    capped = np.minimum(z[middles], z[neighbours])
    order = np.lexsort((capped, middles))
    starts, capped = neighbours[order], capped[order]
    x = theta * capped
    weight = np.exp(x - x.max())
    scores = walk.beta1 * np.bincount(starts, weights=weight, minlength=g.n)
    if walk.beta2 > 0:
        k = np.diff(indptr)[middles]
        prefix = centrality_module._row_cumsum(weight, indptr)
        run = np.ones(capped.size, dtype=bool)
        run[1:] = (middles[1:] != middles[:-1]) | (capped[1:] != capped[:-1])
        first = np.maximum.accumulate(np.where(run, np.arange(capped.size), 0))
        below = first - indptr[middles]
        head = np.where(below > 0, prefix[first - 1], 0.0)
        inner = head + (k - below) * weight
        scores = scores + walk.beta2 * np.bincount(starts, weights=inner / k, minlength=g.n)
    return scores


class TestAdScoreBits:
    @pytest.mark.parametrize("beta", [(1.0, 0.0), (0.7, 0.3), (0.0, 1.0)])
    def test_level_kernel_keeps_every_bit_of_the_float_kernel(self, beta):
        """Exponentiating once per used level and comparing levels gives every
        score the bits of the float kernel.  The node scores repeat, take both
        zeros, and have their maximum and minimum on isolated nodes, which no
        walk reaches: a shift over all node scores moves the bits."""
        rng = np.random.default_rng(43)
        walk = tr.WalkConfig(*beta)
        graphs = [skewed_signed_graph(rng, 20_000, 60_000)]
        graphs += [random_signed_graph(np.random.default_rng(seed), attr_dim=0)
                   for seed in range(30)]
        for base in graphs:
            lo, hi, signs = base.pairs()
            n = base.n + 2
            z = rng.choice(np.array([-0.0, 0.0, 0.5, -1.5, 2.0, 0.25, 2.0 ** -30]), size=n)
            z[-2:] = 9.0, -9.0
            g = tr.AttributedGraph(np.arange(n), lo, hi, signs, z[:, None])
            model = tr.TiltModel(g, tr.MinInnerProduct([1.0]), walk)
            for theta in (-40.0, -3.0, -0.4, 0.0, 0.9, 2.5, 40.0):
                got = centrality_module._min_inner_scores(g, walk, theta, model.capped_rows)
                want = _float_capped_ad_scores(g, walk, theta)
                differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
                assert [(u, float.hex(got[u]), float.hex(want[u]))
                        for u in differ[:5].tolist()] == []


def _per_entry_ad_atoms(g, walk, rows):
    """The ad atoms from each entry's own mass (beta1 + beta2 (2 (k - 1 - i)
    + 1) / k) / (2 m), where entry i of a row of length k is its i-th lowest."""
    middle = np.repeat(np.arange(g.n), np.diff(rows.indptr))
    k = np.diff(rows.indptr)[middle]
    i = np.arange(rows.level.size) - rows.indptr[middle]
    masses = (walk.beta1 + walk.beta2 * (2 * (k - 1 - i) + 1) / k) / (2 * g.m)
    return rows.levels, np.bincount(rows.level, weights=masses)


class TestAdAtomBits:
    def test_one_step_atoms_keep_the_bits_of_the_per_entry_masses(self):
        """At beta = (1, 0) every entry weighs beta1 / (2 m); summing that
        constant by level gives the bits of the per-entry expression."""
        rng = np.random.default_rng(47)
        walk = tr.WalkConfig(1.0, 0.0)
        graphs = [skewed_signed_graph(rng, 20_000, 60_000)]
        graphs += [random_signed_graph(np.random.default_rng(seed)) for seed in range(30)]
        for g in graphs:
            z = rng.choice(np.array([-0.0, 0.0, 0.5, -1.5, 2.0, 0.25]), size=g.n)
            g = tr.AttributedGraph(g.original_ids, *g.pairs(), z[:, None])
            rows = tr.TiltModel(g, tr.MinInnerProduct([1.0]), walk).capped_rows
            got = centrality_module._min_inner_atoms(g, walk, rows)
            want = _per_entry_ad_atoms(g, walk, rows)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


def test_production_path_never_enumerates(monkeypatch, corpus100):
    corpus = corpus100[:12]
    targets = {}
    for i, (g, z, kind, measure, walk) in enumerate(configs(corpus)):
        table = verify.path_table(g, measure, walk)
        fmin, fmax = verify.achievable_range(table)
        if fmax - fmin >= 1e-9:
            targets[i] = verify.twist(table, 0.4)[0].mean_measure
    assert len(targets) > 90

    def forbidden(*args, **kwargs):
        raise AssertionError("the production path must not enumerate walks or pairs")

    monkeypatch.setattr(verify, "enumerate_paths", forbidden)
    monkeypatch.setattr(verify, "path_table", forbidden)
    monkeypatch.setattr(verify, "bivariate", forbidden)
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
