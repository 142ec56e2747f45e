"""Shared fixtures: small canonical graphs and seeded random corpora."""

import itertools

import numpy as np
import pytest
from hypothesis import settings

import twistrank as tr

# CI runs with --hypothesis-profile=ci, so that a falsifying example found on
# a runner prints the @reproduce_failure blob that replays it; local runs keep
# the default profile.
settings.register_profile("ci", print_blob=True)


@pytest.fixture
def triangle_pos():
    """Triangle with all-positive edges."""
    return tr.load_graph([(0, 1, 1), (1, 2, 1), (0, 2, 1)])


@pytest.fixture
def triangle_one_neg():
    """Triangle with a single negative edge (0, 2)."""
    return tr.load_graph([(0, 1, 1), (1, 2, 1), (0, 2, -1)])


@pytest.fixture
def star_two_neg():
    """Star on 5 nodes, center 0, spokes to 1..4, two negative spokes."""
    return tr.load_graph([(0, 1, 1), (0, 2, 1), (0, 3, -1), (0, 4, -1)])


@pytest.fixture
def path3():
    """Path 0 - 1 - 2 with one positive and one negative edge."""
    return tr.load_graph([(0, 1, 1), (1, 2, -1)])


def edge_list(g, original_ids=False):
    """The graph's edges as ascending ``(u, w, sign)`` triples with ``u < w``,
    read off its CSR rows; in original node ids if ``original_ids``."""
    indptr, indices, signs = g.csr()
    rows = np.repeat(np.arange(g.n), np.diff(indptr))
    upper = indices > rows
    ids = g.original_ids.tolist() if original_ids else range(g.n)
    triples = zip(rows[upper].tolist(), indices[upper].tolist(), signs[upper].tolist())
    return [(ids[u], ids[w], s) for u, w, s in triples]


def walk_masses(blocks):
    """Each walk of ``enumerate_paths`` blocks, as a tuple of node ids, with its base mass."""
    for nodes, masses in blocks:
        yield from zip(map(tuple, nodes.tolist()), masses.tolist())


def tilted_masses(table, probs):
    """A path table's walks, as tuples of node ids, mapped to their masses in ``probs``."""
    rows = [row for nodes in table.walks for row in map(tuple, nodes.tolist())]
    return dict(zip(rows, probs.tolist()))


def random_signed_graph(rng, n_min=4, n_max=12, attr_dim=2, edge_prob=0.45, neg_prob=0.3):
    """A small random graph guaranteed to carry both edge signs."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        edges = []
        for u in range(n):
            for w in range(u + 1, n):
                if rng.random() < edge_prob:
                    sign = -1 if rng.random() < neg_prob else 1
                    edges.append((u, w, sign))
        signs = {s for _, _, s in edges}
        if len(edges) >= 3 and signs == {1, -1}:
            break
    attrs = None
    if attr_dim:
        attrs = [(u, rng.uniform(0.0, 1.0, attr_dim)) for u in range(n)]
    return tr.load_graph(edges, attrs)


def skewed_signed_graph(rng, n, m):
    """A graph on n nodes with about m edges between few hubs and many leaves,
    about a fifth of them negative; some nodes are isolated."""
    u = (n * rng.random(m) ** 3).astype(np.int64)
    w = rng.integers(0, n, size=m)
    keep = u != w
    codes = np.unique(np.minimum(u, w)[keep] * n + np.maximum(u, w)[keep])
    lo, hi = np.divmod(codes, n)
    signs = np.where(rng.random(codes.size) < 0.2, -1, 1)
    return tr.AttributedGraph(np.arange(n), lo, hi, signs, np.zeros((n, 0)))


def signed_corpus(count=100, attr_dim=2, seed0=1000):
    """Seeded corpus of (graph, advertisement vector) pairs."""
    out = []
    for i in range(count):
        rng = np.random.default_rng(seed0 + i)
        g = random_signed_graph(rng, attr_dim=attr_dim)
        z = rng.uniform(0.1, 1.0, attr_dim) if attr_dim else None
        out.append((g, z))
    return out


@pytest.fixture(scope="session")
def corpus100():
    return signed_corpus(100)


@pytest.fixture(scope="session")
def paper_scale_graph():
    """Synthetic graph matching the blog-network sign statistics.

    863 nodes; the lexicographically first 15225 node pairs are positive
    edges and the next 1425 are negative, for 16650 edges total.
    """
    pairs = itertools.islice(itertools.combinations(range(863), 2), 15225 + 1425)
    edges = [
        (u, w, 1 if i < 15225 else -1) for i, (u, w) in enumerate(pairs)
    ]
    return tr.load_graph(edges)

