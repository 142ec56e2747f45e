"""Seeded input generators and the four benchmark workloads.

Each workload turns a seed into input files plus the ``twistrank`` argv that
consumes them.  The program only ever sees the generated files; the oracle
re-reads the same files with numpy.  ``--threads`` is never passed: its
default is recorded in the manifest and the flag itself may go away.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Sizes per scale.  "full" is what the benchmark measures; each workload is
# sized so one operation takes a few seconds on a 2-core x86 box, which fits
# several operations into one measured run.  "smoke" runs everything in
# seconds and exists only to prove the harness works.
SCALES = {
    "full": {
        "rank-onestep": {"n": 20_000, "m": 100_000, "neg": 0.10},
        "rank-twostep": {"n": 2_000, "m": 4_000, "neg": 0.20, "alpha": 2.2},
        "sweep-ad": {"n": 3_000, "m": 12_000, "neg": 0.10, "dim": 8},
        "preprocess-inject": {"n": 3_000, "m": 15_000, "neg": 0.10, "loops": 50,
                              "labels": 4, "inject": 2_000},
    },
    "smoke": {
        "rank-onestep": {"n": 200, "m": 800, "neg": 0.10},
        "rank-twostep": {"n": 150, "m": 400, "neg": 0.20, "alpha": 2.2},
        "sweep-ad": {"n": 150, "m": 500, "neg": 0.10, "dim": 8},
        "preprocess-inject": {"n": 120, "m": 400, "neg": 0.10, "loops": 5,
                              "labels": 4, "inject": 40},
    },
}

MIN_DEGREE = 3
SWEEP_FRACTIONS = tuple(i / 10 for i in range(1, 10))


@dataclass(frozen=True)
class Case:
    """One generated workload instance: the CLI call and what checks it."""

    workload: str
    argv: list[str]          # twistrank argv without --out
    oracle: dict             # JSON-able parameters for oracle.check
    walk: tuple[float, float] | None = None   # (beta1, beta2) of rank and sweep


def _distinct_pairs(rng, n: int, m: int, weights=None) -> np.ndarray:
    """``m`` distinct undirected non-loop pairs ``(u < w)`` over ``0..n-1``.

    Endpoints are drawn independently, uniformly or proportionally to
    ``weights`` (Chung-Lu), until enough distinct pairs exist; then ``m`` of
    them are kept at random.
    """
    if m > n * (n - 1) // 2:
        raise ValueError(f"cannot place {m} distinct edges on {n} nodes")
    p = None if weights is None else weights / weights.sum()
    codes = np.empty(0, dtype=np.int64)
    while codes.size < m:
        u = rng.choice(n, size=2 * m, p=p)
        w = rng.choice(n, size=2 * m, p=p)
        keep = u != w
        lo, hi = np.minimum(u, w)[keep], np.maximum(u, w)[keep]
        codes = np.unique(np.concatenate([codes, lo * n + hi]))
    codes = np.sort(rng.choice(codes, size=m, replace=False))
    return np.stack([codes // n, codes % n], axis=1)


def _signs(rng, m: int, neg: float) -> np.ndarray:
    return np.where(rng.random(m) < neg, -1, 1)


def _chung_lu_weights(n: int, alpha: float) -> np.ndarray:
    # Expected degree of the i-th node ~ i^(-1/(alpha-1)): a power-law degree
    # tail with exponent alpha, so sum(d^2) >> m.
    return (np.arange(n) + 1.0) ** (-1.0 / (alpha - 1.0))


def _write_edges(path: Path, pairs: np.ndarray, signs: np.ndarray) -> None:
    lines = [f"{u} {w} {s}" for (u, w), s in zip(pairs.tolist(), signs.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def uniform_signed(rng, n, m, neg):
    pairs = _distinct_pairs(rng, n, m)
    return pairs, _signs(rng, m, neg)


def chung_lu_signed(rng, n, m, neg, alpha):
    pairs = _distinct_pairs(rng, n, m, _chung_lu_weights(n, alpha))
    return pairs, _signs(rng, m, neg)


def attributed(rng, n, m, neg, dim):
    """Uniform signed graph plus Dirichlet topic vectors and one ad vector."""
    pairs, signs = uniform_signed(rng, n, m, neg)
    topics = rng.dirichlet(np.ones(dim), size=n)
    ad = rng.dirichlet(np.ones(dim))
    return pairs, signs, topics, ad


def raw_records(rng, n, m, neg, loops, labels):
    """Messy edge records over scattered ids, with a partition labelling.

    The records hold ``m`` distinct edges, 10% extra records that repeat an
    edge (half of them reversed, always with the same sign) and ``loops``
    self-loops, shuffled together.
    """
    ids = np.sort(rng.choice(10 * n, size=n, replace=False))
    pairs, signs = uniform_signed(rng, n, m, neg)
    dup = rng.integers(0, m, size=m // 10)
    dup_pairs = pairs[dup].copy()
    flip = rng.random(dup.size) < 0.5
    dup_pairs[flip] = dup_pairs[flip][:, ::-1]
    loop_nodes = rng.choice(n, size=loops, replace=False)
    recs = np.concatenate([
        np.column_stack([pairs, signs]),
        np.column_stack([dup_pairs, signs[dup]]),
        np.column_stack([loop_nodes, loop_nodes, _signs(rng, loops, neg)]),
    ])
    recs = recs[rng.permutation(len(recs))]
    recs[:, :2] = ids[recs[:, :2]]
    label_of = rng.integers(0, labels, size=n)
    return recs, ids, label_of


def build(workload: str, seed: int, scale: str, work: Path) -> Case:
    """Generate ``workload``'s inputs under ``work`` and return its case."""
    p = SCALES[scale][workload]
    rng = np.random.default_rng([seed, sorted(SCALES[scale]).index(workload)])
    work.mkdir(parents=True, exist_ok=True)
    edges = work / "edges.txt"
    if workload == "rank-onestep":
        pairs, signs = uniform_signed(rng, p["n"], p["m"], p["neg"])
        _write_edges(edges, pairs, signs)
        argv = ["rank", "--edges", str(edges), "--measure", "influence",
                "--gamma", "0.5", "--beta1", "1"]
        return Case(workload, argv, {"edges": str(edges), "gamma": 0.5}, (1.0, 0.0))
    if workload == "rank-twostep":
        pairs, signs = chung_lu_signed(rng, p["n"], p["m"], p["neg"], p["alpha"])
        _write_edges(edges, pairs, signs)
        argv = ["rank", "--edges", str(edges), "--measure", "trust", "--gamma", "0.3",
                "--beta1", "0.7", "--beta2", "0.3"]
        return Case(workload, argv, {"edges": str(edges), "gamma": 0.3,
                                     "beta1": 0.7, "beta2": 0.3}, (0.7, 0.3))
    if workload == "sweep-ad":
        pairs, signs, topics, ad = attributed(rng, p["n"], p["m"], p["neg"], p["dim"])
        _write_edges(edges, pairs, signs)
        attrs, adf = work / "attrs.txt", work / "ad.txt"
        attrs.write_text(
            "".join(f"{u} " + " ".join(map(repr, row)) + "\n"
                    for u, row in enumerate(topics.tolist())),
            encoding="utf-8",
        )
        adf.write_text(" ".join(map(repr, ad.tolist())) + "\n", encoding="utf-8")
        # Targets at 10..90% of the achievable range of the edge-wise minimum
        # score, which the benchmark works out itself.
        z = topics @ ad
        f = np.minimum(z[pairs[:, 0]], z[pairs[:, 1]])
        lo, hi = float(f.min()), float(f.max())
        gammas = [lo + t * (hi - lo) for t in SWEEP_FRACTIONS]
        argv = ["sweep", "--edges", str(edges), "--attrs", str(attrs),
                "--ad-vector", str(adf), "--measure", "ad", "--beta1", "1",
                "--gammas", ",".join(map(repr, gammas))]
        return Case(workload, argv, {"edges": str(edges), "attrs": str(attrs),
                                     "ad": str(adf), "gammas": gammas, "k": 250}, (1.0, 0.0))
    if workload == "preprocess-inject":
        recs, ids, label_of = raw_records(rng, p["n"], p["m"], p["neg"], p["loops"],
                                          p["labels"])
        np.savetxt(edges, recs, fmt="%d")
        part = work / "partition.txt"
        part.write_text("".join(f"{v} L{lab}\n" for v, lab in zip(ids.tolist(),
                                                                   label_of.tolist())),
                        encoding="utf-8")
        argv = ["preprocess", "--edges", str(edges), "--partition", str(part),
                "--inject-negative", str(p["inject"]), "--min-degree", str(MIN_DEGREE),
                "--seed", str(seed)]
        return Case(workload, argv, {"edges": str(edges), "partition": str(part),
                                     "inject": p["inject"], "min_degree": MIN_DEGREE})
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(SCALES["full"])
