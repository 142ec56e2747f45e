"""The self-verification checks themselves, apart from the graphs they run on."""

from types import SimpleNamespace

import twistrank as tr
from twistrank import verify

# 300,000 equal masses, about the path count of a 2,000-node two-step graph.
# A plain left-to-right sum of them misses 1 by 4.6e-12.
MASS_COUNT = 300_000


def test_normalization_checks_sum_many_masses_exactly(monkeypatch, triangle_pos):
    mass = 1.0 / MASS_COUNT
    assert abs(sum([mass] * MASS_COUNT) - 1.0) > 1e-12
    monkeypatch.setattr(
        verify, "enumerate_paths",
        lambda g, walk, max_paths: [SimpleNamespace(base_prob=mass)] * MASS_COUNT,
    )
    monkeypatch.setattr(
        verify, "twist", lambda g, cfg, max_paths: (None, [(None, mass)] * MASS_COUNT)
    )
    for result in (
        verify._check_base_normalization(triangle_pos, 1),
        verify._check_twisted_normalization(triangle_pos, [tr.SignProduct()], 1),
    ):
        assert result.passed, result.line()
        assert result.max_error <= 1e-15
