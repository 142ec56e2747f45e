"""The self-verification checks themselves, apart from the graphs they run on."""

import importlib
import weakref
from collections import Counter

import numpy as np
import pytest

import twistrank as tr
from twistrank import sampling, twisting, verify
from twistrank.cli import main
from twistrank.errors import ConvergenceError

from conftest import random_signed_graph, skewed_signed_graph

# The package binds ``twistrank.centrality`` to the function of that name.
centrality_module = importlib.import_module("twistrank.centrality")

# 300,000 equal masses, about the path count of a 2,000-node two-step graph.
# A plain left-to-right sum of them misses 1 by 4.6e-12.
MASS_COUNT = 300_000


def test_normalization_checks_sum_many_masses_exactly():
    mass = 1.0 / MASS_COUNT
    assert abs(sum([mass] * MASS_COUNT) - 1.0) > 1e-12
    for name, masses in (
        ("base_walk_normalization", [mass] * MASS_COUNT),
        ("twisted_normalization", np.full(MASS_COUNT, mass)),
    ):
        error = verify._mass_error(masses)
        assert error <= verify.BOUNDS[name], name
        assert error <= 1e-15


def _union_deviation(a, b):
    """The pair-mass gap as it was taken on the sorted union of both code arrays."""
    codes, at = np.unique(np.concatenate([a.codes, b.codes]), return_inverse=True)
    gap = np.zeros(codes.size)
    gap[at[: a.codes.size]] = a.masses
    gap[at[a.codes.size :]] -= b.masses
    return float(np.max(np.abs(gap), initial=0.0))


def test_pair_mass_deviation_equals_the_union_formula():
    rng = np.random.default_rng(17)
    pool = np.array([0.0, -0.0, 0.25, 1e-300, 0.5, 3.0, np.nan, np.inf, -np.inf])
    for trial in range(3000):
        n = int(rng.integers(1, 7))
        pair = []
        for _ in range(2):
            codes = np.sort(rng.choice(n * n, size=int(rng.integers(0, n * n + 1)), replace=False))
            masses = rng.choice(pool, size=codes.size) if trial % 2 else rng.random(codes.size)
            pair.append(verify.BivariateDistribution(n, codes, masses))
        with np.errstate(invalid="ignore"):  # inf - inf
            got, want = verify.pair_mass_deviation(*pair), _union_deviation(*pair)
        assert float.hex(got) == float.hex(want), (trial, got, want)


def test_reversibility_check_fails_on_an_irreversible_measure(monkeypatch):
    # The sign product, negated on walks from an odd node: its value on a walk
    # and on the walk's reverse differ, so the tilt is not reversible.
    walk_values = verify.walk_values

    def start_parity_product(graph, measure, walks):
        walks = np.asarray(walks)
        return walk_values(graph, measure, walks) * np.where(walks[:, 0] % 2, -1.0, 1.0)

    monkeypatch.setattr(verify, "walk_values", start_parity_product)
    g = random_signed_graph(np.random.default_rng(5), n_min=8, attr_dim=0)
    checks = verify._pair_errors(g, twisting.SignProduct(), sampling.WalkConfig(0.7, 0.3), True)
    errors = [error for name, error, _ in checks if name == "twisted_reversibility"]
    assert len(errors) == len(verify.THETAS)
    assert max(errors) > 100 * verify.BOUNDS["twisted_reversibility"]


def _count_tables(monkeypatch):
    """Count walk enumerations, and check that no earlier path table is alive at a new build."""
    calls = Counter()
    enumerate_paths = verify.enumerate_paths
    path_table = verify.path_table
    built = []

    def counted_enumerate(*args, **kwargs):
        calls["enumerate_paths"] += 1
        return enumerate_paths(*args, **kwargs)

    def counted_table(*args, **kwargs):
        calls["alive_at_build"] = max(
            calls["alive_at_build"], sum(ref() is not None for ref in built)
        )
        table = path_table(*args, **kwargs)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(verify, "enumerate_paths", counted_enumerate)
    monkeypatch.setattr(verify, "path_table", counted_table)
    return calls


@pytest.mark.parametrize("attributed, pairs", [(False, 6), (True, 9)])
def test_one_enumeration_per_measure_and_walk(monkeypatch, attributed, pairs):
    g = random_signed_graph(np.random.default_rng(3), attr_dim=2 if attributed else 0)
    calls = _count_tables(monkeypatch)
    results = verify.run_checks(g)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
    assert calls == {"enumerate_paths": pairs, "alive_at_build": 0}


def test_checks_are_reported_in_bound_order(triangle_one_neg):
    names = [r.name for r in verify.run_checks(triangle_one_neg)]
    assert names == list(verify.BOUNDS)
    assert names[-1] == "ranking_vs_pair_marginal"


def _drop_two_step_term(g, gs, walk, is_min):
    return walk.beta1 * gs.pos_degree, walk.beta1 * gs.neg_degree


def _nan_masses(g, gs, walk, is_min):
    return np.full(g.n, np.nan), np.full(g.n, np.nan)


@pytest.mark.parametrize("plant", [_drop_two_step_term, _nan_masses])
def test_planted_ranking_bug_fails_verify(monkeypatch, plant):
    g = random_signed_graph(np.random.default_rng(11), attr_dim=0)
    monkeypatch.setattr(centrality_module, "_sign_masses", plant)
    with np.errstate(invalid="ignore"):
        results = {r.name: r for r in verify.run_checks(g)}
    assert not results["ranking_vs_pair_marginal"].passed
    assert all(r.passed for name, r in results.items() if name != "ranking_vs_pair_marginal")


def test_solver_failure_fails_the_round_trip(monkeypatch, tmp_path, capsys):
    def fail(table, gamma):
        raise ConvergenceError("temperature solve did not converge", 0.25)

    monkeypatch.setattr(verify, "solve_theta_numeric", fail)
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1 1\n1 2 1\n0 2 -1\n", encoding="utf-8")
    assert main(["verify", "--edges", str(edges)]) == 3
    line = [s for s in capsys.readouterr().out.splitlines() if s.startswith("gamma_round_trip")]
    assert line == [
        "gamma_round_trip: FAIL max error inf (solve failed: SignProduct at "
        "beta=(1.0, 0.0), gamma=-0.5: temperature solve did not converge "
        "(final residual 2.500e-01))"
    ]


def test_constant_measure_skips_the_round_trip(triangle_pos):
    results = {r.name: r for r in verify.run_checks(triangle_pos)}
    check = results["gamma_round_trip"]
    assert check.passed
    assert check.detail == "skipped: no steerable measure on this graph"


@pytest.mark.parametrize("walk", [(1.0, 0.0), (0.7, 0.3)])
def test_the_tilt_holds_at_the_theta_of_a_narrow_measure(walk):
    """An all-ones ad vector on Dirichlet rows: the walk values lie a few ulps
    from 1, so the round-trip targets solve to |theta| near 1e16.  The tilt is
    still that of the values less 1 (an exact difference), and returns each
    target."""
    rng = np.random.default_rng(3)
    g = skewed_signed_graph(rng, 60, 200)
    g = tr.AttributedGraph(g.original_ids, *g.pairs(), rng.dirichlet(np.ones(8), size=g.n))
    table = verify.path_table(g, tr.MinInnerProduct(np.ones(8)), tr.WalkConfig(*walk))
    fmin, fmax = verify.achievable_range(table)
    assert 0 < fmax - fmin < 1e-15
    for frac in (0.25, 0.5):
        gamma = fmin + frac * (fmax - fmin)
        theta = verify.solve_theta_numeric(table, gamma)
        assert abs(theta) > 1e15
        result, probs = verify.twist(table, theta)
        logw = theta * (table.f - 1.0) + table.logp0
        log_z = np.logaddexp.reduce(logw)
        assert np.max(np.abs(probs - np.exp(logw - log_z))) <= 1e-12
        assert result.free_energy == pytest.approx(log_z + theta, rel=1e-15)
        assert abs(result.mean_measure - gamma) <= verify.BOUNDS["gamma_round_trip"]


@pytest.mark.parametrize("seed", [1, 2])
def test_a_target_that_rounds_onto_an_end_moves_inside(seed):
    """An all-ones ad vector on Dirichlet rows spans a few ulps, so a
    round-trip target fmin + frac * (fmax - fmin) can round onto fmax, which
    no finite theta reaches; the target moves one ulp inside and solves."""
    rng = np.random.default_rng(seed)
    g = skewed_signed_graph(rng, 150, 500)
    g = tr.AttributedGraph(g.original_ids, *g.pairs(), rng.dirichlet(np.ones(8), size=g.n))
    results = verify.run_checks(g)
    assert [r.line() for r in results if not r.passed] == []
    check = {r.name: r for r in results}["gamma_round_trip"]
    assert check.detail == "" and check.max_error <= verify.BOUNDS["gamma_round_trip"]


def test_a_range_one_ulp_wide_skips_the_round_trip(triangle_pos):
    """Node scores 1 and the next float up: the ad measure's range holds no
    float strictly inside, so no target exists and the check is skipped, as
    for a constant measure, rather than failed."""
    attrs = np.array([[1.0], [np.nextafter(1.0, 2.0)], [np.nextafter(1.0, 2.0)]])
    g = tr.AttributedGraph(triangle_pos.original_ids, *triangle_pos.pairs(), attrs)
    for walk in verify.WALK_MIXES:
        table = verify.path_table(g, tr.MinInnerProduct(np.ones(1)), walk)
        fmin, fmax = verify.achievable_range(table)
        assert fmax == np.nextafter(fmin, np.inf)
    check = {r.name: r for r in verify.run_checks(g)}["gamma_round_trip"]
    assert check.passed
    assert check.detail == "skipped: no steerable measure on this graph"
