"""Independent numpy oracles for the benchmark's CLI operations.

Every check re-reads the generated inputs and the program's output files with
numpy and the standard library only; nothing here imports ``twistrank``.
``check`` returns a list of problems, empty when the outputs are right.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

SCORE_RTOL = 1e-9     # printed scores carry 12 significant digits
GAMMA_ATOL = 1e-8     # achieved mean measure against the target


def check(workload: str, params: dict, out: Path) -> list[str]:
    out = Path(out)
    if workload == "rank-onestep":
        return _check_onestep(params, out)
    if workload == "rank-twostep":
        return _check_twostep(params, out)
    if workload == "sweep-ad":
        return _check_sweep_ad(params, out)
    if workload == "preprocess-inject":
        return _check_preprocess(params, out)
    raise ValueError(f"unknown workload {workload!r}")


def _edges(path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.int64, ndmin=2)


def _compact(e: np.ndarray):
    """Node ids present in ``e`` and the edges re-indexed onto them."""
    ids, inv = np.unique(e[:, :2], return_inverse=True)
    return ids, inv.reshape(-1, 2), e[:, 2]


def _ranking(out: Path):
    with open(out / "ranking.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    node = np.array([int(r["node_id"]) for r in rows], dtype=np.int64)
    score = np.array([float(r["score"]) for r in rows])
    rank = np.array([int(r["rank"]) for r in rows], dtype=np.int64)
    return rank, node, score


def _resolved_theta(out: Path) -> float:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return float(manifest["parameters"]["resolved_theta"])


def _check_ranking(ids: np.ndarray, expected: np.ndarray, out: Path) -> list[str]:
    """Scores match ``expected`` (indexed like ``ids``), sum to 1, and the
    order is nonincreasing."""
    problems = []
    rank, node, score = _ranking(out)
    if node.size != ids.size or not np.array_equal(np.sort(node), ids):
        return [f"ranking covers {node.size} nodes, expected the {ids.size} graph nodes"]
    if not np.array_equal(rank, np.arange(1, rank.size + 1)):
        problems.append("ranks are not 1..n in order")
    if abs(score.sum() - 1.0) > 1e-9:
        problems.append(f"scores sum to {score.sum()!r}, not 1")
    want = expected[np.searchsorted(ids, node)]
    err = np.abs(score - want) / np.maximum(np.abs(want), 1e-300)
    if err.max() > SCORE_RTOL:
        i = int(err.argmax())
        problems.append(f"node {node[i]} scored {score[i]!r}, oracle {want[i]!r}")
    # Ties by ascending node id hold for the program's own floats, but it
    # sums mathematically equal scores in different orders, so nodes that tie
    # at the printed 12 digits can differ in the last bit and come in any
    # order.  Only the printed order itself is checked.
    if np.any(np.diff(score) > 0):
        problems.append("scores increase down the ranking")
    return problems


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _check_onestep(params: dict, out: Path) -> list[str]:
    """Influence with length-1 walks: closed-form theta and scores."""
    ids, e, s = _compact(_edges(params["edges"]))
    gamma = params["gamma"]
    m_pos, m_neg = int(np.sum(s > 0)), int(np.sum(s < 0))
    theta = 0.5 * math.log(m_neg * (1.0 + gamma) / (m_pos * (1.0 - gamma)))
    got = _resolved_theta(out)
    problems = []
    if not _close(got, theta, 1e-11):
        problems.append(f"resolved theta {got!r}, closed form {theta!r}")
    k_pos = np.bincount(e[s > 0].ravel(), minlength=ids.size)
    k_neg = np.bincount(e[s < 0].ravel(), minlength=ids.size)
    ep, en = math.exp(theta), math.exp(-theta)
    scores = (k_pos * ep + k_neg * en) / (2.0 * (m_pos * ep + m_neg * en))
    return problems + _check_ranking(ids, scores, out)


def _check_twostep(params: dict, out: Path) -> list[str]:
    """Trust (minimum sign) with length-1 and length-2 walks.

    The tilted law only sees two atoms, f = +1 and f = -1; their base masses
    follow from the signed degrees, so the achieved mean is a tanh.
    """
    ids, e, s = _compact(_edges(params["edges"]))
    n, m = ids.size, s.size
    b1, b2 = params["beta1"], params["beta2"]
    theta = _resolved_theta(out)
    k = np.bincount(e.ravel(), minlength=n).astype(float)
    kp = np.bincount(e[s > 0].ravel(), minlength=n).astype(float)
    # Base mass of the f = +1 atom: positive directed edges, plus 2-walks
    # whose both edges are positive (kp^2 of the k^2 walks through a middle).
    p_pos = b1 * np.sum(s > 0) / m + b2 * np.sum(kp**2 / np.where(k > 0, k, 1)) / (2 * m)
    p_neg = 1.0 - p_pos
    mean = math.tanh(theta + 0.5 * math.log(p_pos / p_neg))
    problems = []
    if abs(mean - params["gamma"]) > GAMMA_ATOL:
        problems.append(f"mean minimum sign {mean!r} at theta {theta!r}, target {params['gamma']}")

    # Start marginal: from u, a 1-walk along (u, w) weighs e^{theta s_uw};
    # a 2-walk u - v - * weighs e^{-theta} per continuation when s_uv < 0,
    # otherwise kp_v e^{theta} + (k_v - kp_v) e^{-theta}; 2-walks through v
    # carry an extra 1/k_v.
    ep, en = math.exp(theta), math.exp(-theta)
    tail = (kp * ep + (k - kp) * en) / np.where(k > 0, k, 1)
    score = np.zeros(n)
    for a, b in ((0, 1), (1, 0)):
        u, v = e[:, a], e[:, b]
        one = np.where(s > 0, ep, en)
        two = np.where(s > 0, tail[v], en)
        np.add.at(score, u, b1 * one + b2 * two)
    return problems + _check_ranking(ids, score / score.sum(), out)


def _check_sweep_ad(params: dict, out: Path) -> list[str]:
    """Advertisement sweep with length-1 walks over min-score atoms."""
    ids, e, s = _compact(_edges(params["edges"]))
    topics = np.loadtxt(params["attrs"], ndmin=2)
    ad = np.loadtxt(params["ad"], ndmin=1)
    z_all = dict(zip(topics[:, 0].astype(np.int64).tolist(), (topics[:, 1:] @ ad).tolist()))
    z = np.array([z_all[int(v)] for v in ids])
    f = np.minimum(z[e[:, 0]], z[e[:, 1]])      # one atom per edge, both directions
    rows = json.loads((out / "sweep.json").read_text(encoding="utf-8"))["sweep"]
    gammas = params["gammas"]
    if len(rows) != len(gammas):
        return [f"sweep has {len(rows)} rows for {len(gammas)} targets"]

    # Top-k baselines by degree, ties by ascending node id.  Attribute-only
    # nodes (degree 0) are part of the graph too.
    all_ids = np.union1d(ids, topics[:, 0].astype(np.int64))
    k = min(params["k"], all_ids.size)
    at = np.searchsorted(all_ids, ids)
    base = {name: _top_k(np.bincount(at[sel.ravel()], minlength=all_ids.size), k)
            for name, sel in (("pos", e[s > 0]), ("neg", e[s < 0]), ("total", e))}

    problems = []
    for row, gamma in zip(rows, gammas):
        if row["error"] is not None or row["theta"] is None:
            problems.append(f"target {gamma!r} failed: {row['error']}")
            continue
        if row["gamma"] != gamma:
            problems.append(f"row gamma {row['gamma']!r} != requested {gamma!r}")
        theta = float(row["theta"])
        x = theta * f
        w = np.exp(x - x.max())
        mean = float(w @ f / w.sum())
        if abs(mean - gamma) > GAMMA_ATOL:
            problems.append(f"mean score {mean!r} at theta {theta!r}, target {gamma!r}")
        score = (np.bincount(at[e[:, 0]], w, all_ids.size)
                 + np.bincount(at[e[:, 1]], w, all_ids.size))
        mine = _top_k(score, k, gap_rtol=1e-9)
        for name in ("pos", "neg", "total"):
            got = row[f"jaccard_{name}"]
            if mine is None:
                # Scores tie at the top-k boundary within rounding: only the
                # set sizes are known, so check that j = i / (2k - i).
                i = round(2 * k * got / (1 + got))
                if not 0 <= i <= k or abs(i / (2 * k - i) - got) > 1e-12:
                    problems.append(f"jaccard_{name} {got!r} is not a top-{k} overlap")
            elif got != _jaccard(mine, base[name]):
                problems.append(
                    f"jaccard_{name} {got!r} at gamma {gamma!r}, oracle "
                    f"{_jaccard(mine, base[name])!r}"
                )
    return problems


def _top_k(score: np.ndarray, k: int, gap_rtol: float = 0.0):
    """Indices of the k best scores (ties by index), or None when the k-th
    and (k+1)-th scores are closer than ``gap_rtol`` so the set is unsure."""
    order = np.lexsort((np.arange(score.size), -score))
    if gap_rtol and k < score.size:
        a, b = score[order[k - 1]], score[order[k]]
        if a - b <= gap_rtol * abs(a):
            return None
    return frozenset(order[:k].tolist())


def _jaccard(a: frozenset, b: frozenset) -> float:
    return len(a & b) / len(a | b) if a | b else 1.0


def _check_preprocess(params: dict, out: Path) -> list[str]:
    """Injection count, pair validity, the k-core and the report counters.

    The injected set itself is taken from the report, not pinned: it is
    checked for validity, and everything else follows from it.
    """
    raw = _edges(params["edges"])
    labels = {}
    for line in Path(params["partition"]).read_text(encoding="utf-8").splitlines():
        node, label = line.split()
        labels[int(node)] = label
    loops = raw[:, 0] == raw[:, 1]
    lo = np.minimum(raw[~loops, 0], raw[~loops, 1])
    hi = np.maximum(raw[~loops, 0], raw[~loops, 1])
    pairs, first = np.unique(np.stack([lo, hi], axis=1), axis=0, return_index=True)
    signs = raw[~loops, 2][first]
    nodes = np.unique(raw[:, :2])

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = []
    if report["self_loops_removed"] != int(loops.sum()):
        problems.append(f"self_loops_removed {report['self_loops_removed']}, expected {int(loops.sum())}")
    if report["duplicate_edges_collapsed"] != int((~loops).sum()) - len(pairs):
        problems.append("duplicate_edges_collapsed is wrong")

    inj = np.array(report["injected_edges"], dtype=np.int64).reshape(-1, 2)
    if len(inj) != params["inject"]:
        problems.append(f"injected {len(inj)} edges, asked for {params['inject']}")
    existing = {tuple(p) for p in pairs.tolist()}
    node_set = set(nodes.tolist())
    seen = set()
    for u, w in inj.tolist():
        if not (u < w and u in node_set and w in node_set):
            problems.append(f"injected pair ({u}, {w}) is not an ordered pair of graph nodes")
        elif labels[u] == labels[w]:
            problems.append(f"injected pair ({u}, {w}) lies inside partition {labels[u]}")
        elif (u, w) in existing or (u, w) in seen:
            problems.append(f"injected pair ({u}, {w}) was already an edge")
        seen.add((u, w))
    if problems:
        return problems

    # Peel to the min-degree core in synchronous rounds, as documented.
    all_pairs = np.concatenate([pairs, inj])
    all_signs = np.concatenate([signs, -np.ones(len(inj), dtype=np.int64)])
    idx = np.searchsorted(nodes, all_pairs)
    alive = np.ones(nodes.size, dtype=bool)
    rounds = 0
    while True:
        live = alive[idx].all(axis=1)
        deg = np.bincount(idx[live].ravel(), minlength=nodes.size)
        doomed = alive & (deg < params["min_degree"])
        if not doomed.any():
            break
        alive &= ~doomed
        rounds += 1
    live = alive[idx].all(axis=1)
    keep = np.column_stack([all_pairs[live], all_signs[live]])
    keep = keep[np.lexsort((keep[:, 2], keep[:, 1], keep[:, 0]))]
    want = "".join(f"{u} {w} {s}\n" for u, w, s in keep.tolist())
    if (out / "edges.txt").read_text(encoding="utf-8") != want:
        problems.append("edges.txt differs from the min-degree core of the injected graph")
    if report["removed_nodes"] != nodes[~alive].tolist():
        problems.append("removed_nodes differs from the peeled nodes")
    if report["filter_rounds"] != rounds:
        problems.append(f"filter_rounds {report['filter_rounds']}, expected {rounds}")
    out_deg = np.bincount(np.searchsorted(nodes, keep[:, :2]).ravel(), minlength=nodes.size)
    if np.any(out_deg[alive] < params["min_degree"]):
        problems.append("a surviving node is below the minimum degree")
    return problems
