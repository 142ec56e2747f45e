"""Randomized invariant checks over generated graphs and targets."""

import numpy as np
from hypothesis import given, settings, strategies as st

import twistrank as tr
from twistrank import verify

from conftest import tilted_masses, walk_masses


def edge_sets(max_nodes=8):
    pair = st.tuples(st.integers(0, max_nodes - 1), st.integers(0, max_nodes - 1)).filter(
        lambda p: p[0] != p[1]
    ).map(lambda p: (min(p), max(p)))
    return st.dictionaries(pair, st.sampled_from([1, -1]), min_size=1, max_size=16)


def graphs(max_nodes=8):
    return edge_sets(max_nodes).map(
        lambda d: tr.load_graph([(u, w, s) for (u, w), s in d.items()])
    )


def walk_configs():
    return st.floats(0.0, 1.0).map(lambda b: tr.WalkConfig(b, 1.0 - b))


@given(edge_sets())
def test_load_graph_degree_identities(pairs):
    g = tr.load_graph([(u, w, s) for (u, w), s in pairs.items()])
    s = tr.stats(g)
    assert s.degree.sum() == 2 * s.m
    assert s.pos_degree.sum() == 2 * s.m_pos
    assert s.neg_degree.sum() == 2 * s.m_neg


@settings(max_examples=50, deadline=None)
@given(graphs(), walk_configs())
def test_enumeration_mass_and_reversal(g, walk):
    masses = dict(walk_masses(verify.enumerate_paths(g, walk)))
    assert abs(sum(masses.values()) - 1.0) <= 1e-12
    for nodes, prob in masses.items():
        assert masses[nodes[::-1]] == prob


@settings(max_examples=40, deadline=None)
@given(graphs(), walk_configs(), st.floats(-5, 5))
def test_twist_normalization_and_reversibility(g, walk, theta):
    table = verify.path_table(g, tr.SignMin(), walk)
    _, probs = verify.twist(table, theta)
    by_nodes = tilted_masses(table, probs)
    assert abs(sum(by_nodes.values()) - 1.0) <= 1e-12
    for nodes, prob in by_nodes.items():
        assert abs(prob - by_nodes[nodes[::-1]]) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(graphs(), st.floats(0.05, 0.95), st.floats(0.0, 1.0))
def test_round_trip_on_achievable_targets(g, frac, beta1):
    walk = tr.WalkConfig(beta1, 1.0 - beta1)
    table = verify.path_table(g, tr.SignProduct(), walk)
    fmin, fmax = verify.achievable_range(table)
    if fmax - fmin < 1e-9:
        return
    gamma = fmin + frac * (fmax - fmin)
    theta = verify.solve_theta_numeric(table, gamma)
    back = verify.twist(table, theta)[0].mean_measure
    assert abs(back - gamma) <= 1e-10


@given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
def test_jaccard_bounds_and_symmetry(a, b):
    j = tr.jaccard(a, b)
    assert 0.0 <= j <= 1.0
    assert j == tr.jaccard(b, a)
    assert (j == 1.0) == (a == b)
    if a and b and not (a & b):
        assert j == 0.0


@settings(max_examples=40, deadline=None)
@given(graphs(), st.floats(-3, 3))
def test_closed_form_matches_structural_marginal(g, theta):
    closed = verify.influence_closed_form(tr.stats(g), theta)
    piped = verify.marginal(
        verify.bivariate(tr.TiltModel(g, tr.SignProduct(), tr.WalkConfig(1.0, 0.0)), theta)
    )
    assert np.max(np.abs(closed.scores - piped.scores)) <= 1e-12
