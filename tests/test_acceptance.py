"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one pass/fail line; run `pytest tests/test_acceptance.py -v -s`
to see them as they execute.
"""

import numpy as np

import twistrank as tr
from twistrank import verify

from twistrank.verify import endpoint_grouped, pair_mass_deviation

from conftest import tilted_masses, walk_masses

BETA_MIXES = ((1.0, 0.0), (0.7, 0.3), (0.0, 1.0))
THETAS = (-2.0, 0.0, 1.5)


def report(num, name, ok, detail=""):
    line = f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def measures_for(g, z):
    return [tr.SignProduct(), tr.SignMin(), tr.MinInnerProduct(z)]


def test_01_theta_gamma_regression():
    """Closed-form temperatures for the published sign counts, to 4 decimals."""
    s = tr.GraphStats(m=16650, m_pos=15225, m_neg=1425,
                      degree=np.array([1]), pos_degree=np.array([1]), neg_degree=np.array([0]))
    targets = {
        -0.99: -3.8310, -0.9: -2.6566, -0.5: -1.7337, 0.0: -1.1844,
        0.5: -0.6351, 0.9: 0.2878, 0.99: 1.4623,
    }
    worst = max(abs(verify.solve_theta_closed(s, g) - t) for g, t in targets.items())
    report(1, "theta(gamma) regression", worst <= 5e-5, f"max dev {worst:.2e}")


def test_02_oracle_equivalence(corpus100):
    """Structural pair assembly equals endpoint-grouped enumeration, 1e-12."""
    worst = 0.0
    for g, z in corpus100:
        for measure in measures_for(g, z):
            for beta in BETA_MIXES:
                walk = tr.WalkConfig(*beta)
                model = tr.TiltModel(g, measure, walk)
                table = verify.path_table(g, measure, walk)
                for theta in THETAS:
                    dev = pair_mass_deviation(
                        verify.bivariate(model, theta), endpoint_grouped(table, theta)
                    )
                    worst = max(worst, dev)
    report(2, "pair-distribution oracle equivalence", worst <= 1e-12, f"max dev {worst:.2e}")


def test_03_closed_form_marginal(corpus100):
    """Single-step closed form equals the enumeration-pipeline marginal, 1e-12."""
    walk = tr.WalkConfig(1.0, 0.0)
    worst = 0.0
    for g, _ in corpus100:
        s = tr.stats(g)
        table = verify.path_table(g, tr.SignProduct(), walk)
        for theta in THETAS:
            closed = verify.influence_closed_form(s, theta)
            scores = endpoint_grouped(table, theta).start_marginal()
            worst = max(worst, float(np.max(np.abs(closed.scores - scores))))
    report(3, "closed-form marginal", worst <= 1e-12, f"max dev {worst:.2e}")


def test_04_free_energy_calculus(corpus100):
    """Analytic gradient vs central differences (1e-6 rel); monotone gradient."""
    step = 1e-5
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(100):
        g, z = corpus100[i % len(corpus100)]
        measure = measures_for(g, z)[int(rng.integers(3))]
        beta = BETA_MIXES[int(rng.integers(3))]
        theta = float(rng.uniform(-2.0, 2.0))
        table = verify.path_table(g, measure, tr.WalkConfig(*beta))
        grad = verify.twist(table, theta)[0].mean_measure
        hi, _ = verify.twist(table, theta + step)
        lo, _ = verify.twist(table, theta - step)
        fd = (hi.free_energy - lo.free_energy) / (2 * step)
        worst = max(worst, abs(grad - fd) / max(1.0, abs(grad)))
    gradient_ok = worst <= 1e-6

    monotone_ok = True
    grid = np.linspace(-8.0, 8.0, 50)
    for g, z in corpus100[:3]:
        for measure in measures_for(g, z):
            table = verify.path_table(g, measure, tr.WalkConfig(0.7, 0.3))
            grads = [verify.twist(table, t)[0].mean_measure for t in grid]
            monotone_ok = monotone_ok and bool(np.all(np.diff(grads) >= -1e-12))
    report(4, "free-energy calculus", gradient_ok and monotone_ok,
           f"max rel dev {worst:.2e}, monotone {monotone_ok}")


def test_05_round_trip_solving(corpus100):
    """Gradient of the solved temperature returns the target, 1e-10."""
    rng = np.random.default_rng(555)
    worst = 0.0
    solved = 0
    i = 0
    while solved < 50:
        g, z = corpus100[i % len(corpus100)]
        measure = measures_for(g, z)[solved % 3]
        beta = BETA_MIXES[int(rng.integers(3))]
        table = verify.path_table(g, measure, tr.WalkConfig(*beta))
        i += 1
        fmin, fmax = verify.achievable_range(table)
        if fmax - fmin < 1e-9:
            continue
        gamma = float(fmin + rng.uniform(0.05, 0.95) * (fmax - fmin))
        theta = verify.solve_theta_numeric(table, gamma)
        back = verify.twist(table, theta)[0].mean_measure
        worst = max(worst, abs(back - gamma))
        solved += 1
    report(5, "gamma round trip", worst <= 1e-10, f"max dev {worst:.2e} over {solved} targets")


def test_06_structural_invariants(corpus100):
    """Twisted mass sums to 1; reversal symmetry; start = end marginal."""
    worst_sum = 0.0
    worst_rev = 0.0
    worst_marg = 0.0
    for g, z in corpus100:
        for measure in measures_for(g, z):
            for beta in BETA_MIXES:
                walk = tr.WalkConfig(*beta)
                model = tr.TiltModel(g, measure, walk)
                table = verify.path_table(g, measure, walk)
                for theta in (-2.0, 1.5):
                    _, probs = verify.twist(table, theta)
                    by_nodes = tilted_masses(table, probs)
                    worst_sum = max(worst_sum, abs(sum(by_nodes.values()) - 1.0))
                    worst_rev = max(
                        worst_rev,
                        max(abs(p - by_nodes[nodes[::-1]]) for nodes, p in by_nodes.items()),
                    )
                    b = verify.bivariate(model, theta)
                    worst_marg = max(
                        worst_marg,
                        float(np.max(np.abs(b.start_marginal() - b.end_marginal()))),
                    )
    ok = worst_sum <= 1e-12 and worst_rev <= 1e-12 and worst_marg <= 1e-12
    report(6, "structural invariants", ok,
           f"sum {worst_sum:.2e}, reversal {worst_rev:.2e}, marginals {worst_marg:.2e}")


def test_07_degeneracy_identities(corpus100):
    """Trust = influence without length-2 walks; theta 0 = untwisted marginal."""
    walk1 = tr.WalkConfig(1.0, 0.0)
    worst_trust = 0.0
    for g, _ in corpus100:
        for theta in (-1.0, 0.0, 2.0):
            a = tr.centrality(g, "influence", theta=theta, walk=walk1)
            b = tr.centrality(g, "trust", theta=theta, walk=walk1)
            worst_trust = max(worst_trust, float(np.max(np.abs(a.scores - b.scores))))

    walk = tr.WalkConfig(0.7, 0.3)
    worst_zero = 0.0
    for g, z in corpus100[:25]:
        base = np.zeros(g.n)
        for nodes, mass in walk_masses(verify.enumerate_paths(g, walk)):
            base[nodes[0]] += mass
        for kind, vec in (("influence", None), ("trust", None), ("advertisement", z)):
            ranking = tr.centrality(g, kind, theta=0.0, walk=walk, ad_vector=vec)
            worst_zero = max(worst_zero, float(np.max(np.abs(ranking.scores - base))))
    ok = worst_trust <= 1e-12 and worst_zero <= 1e-12
    report(7, "degeneracy identities", ok,
           f"trust vs influence {worst_trust:.2e}, untwisted {worst_zero:.2e}")


def test_08_limit_order_property(corpus100):
    """At theta = +/-20 the single-step top-k matches the degree baselines."""
    walk = tr.WalkConfig(1.0, 0.0)
    checked = 0
    ok = True
    details = []
    for g, _ in corpus100:
        s = tr.stats(g)
        kpos = _gap_k(s.pos_degree)
        kneg = _gap_k(s.neg_degree)
        if kpos is None or kneg is None:
            continue
        pos_base = tr.top_k(tr.degree_ranking(s, "positive"), kpos)
        neg_base = tr.top_k(tr.degree_ranking(s, "negative"), kneg)
        if pos_base.members == tr.top_k(tr.degree_ranking(s, "negative"), kpos).members:
            continue  # degree orders must actually differ
        hot = tr.top_k(tr.centrality(g, "influence", theta=20.0, walk=walk), kpos)
        cold = tr.top_k(tr.centrality(g, "influence", theta=-20.0, walk=walk), kneg)
        jp = tr.jaccard(hot, pos_base)
        jn = tr.jaccard(cold, neg_base)
        ok = ok and jp == 1.0 and jn == 1.0
        if jp != 1.0 or jn != 1.0:
            details.append(f"graph n={g.n}: jp={jp}, jn={jn}")
        checked += 1
    report(8, "limit order property", ok and checked >= 10,
           f"{checked} graphs checked" + ("; " + "; ".join(details) if details else ""))


def _gap_k(degrees):
    """A k in the middle of the ranking where the sorted degrees drop strictly."""
    ordered = np.sort(degrees)[::-1]
    gaps = [k for k in range(1, degrees.size) if ordered[k - 1] > ordered[k]]
    if not gaps:
        return None
    return gaps[len(gaps) // 2]
