"""Scalar reference implementations of the Q-cut plan step, used as test
oracles for the vectorised code in ``repro.core`` and
``repro.controller.simulator``.

Each function is the straightforward loop the vectorised version must
reproduce exactly: the steepest-descent scan over (c, w, w2) with a strict
``<``, Karger contraction that rebuilds its edge list after every merge,
the one-move-at-a-time rebalance drawing with ``rng.choice``, the pandas
chunk assignment and the full Gauss–Seidel residual sweeps.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.state import QcutState


def move_delta(state: QcutState, c: int, w: int, w2: int) -> float:
    """Cost change if scope (c, w) moved to w2."""
    row = state.ls[c]
    x = row[w]
    new_row = row.copy()
    new_row[w] = 0.0
    new_row[w2] += x
    return float(row.max() - new_row.max())


def move_allowed(state: QcutState, c: int, w: int, w2: int) -> bool:
    """δ-balance predicate for moving scope (c, w) to w2 (Alg. 2 line 15)."""
    if w == w2:
        return False
    x = state.ls[c, w]
    if x <= 0:
        return False
    lw, lw2 = state.L[w] - x, state.L[w2] + x
    m = max(lw, lw2)
    if m <= 0:
        return True
    return abs(lw - lw2) / m < state.delta


def local_search(state: QcutState) -> QcutState:
    for _ in range(10_000):
        best_delta = 0.0
        best_move = None
        for c in range(len(state.ls)):
            nz = np.flatnonzero(state.ls[c] > 0)
            if len(nz) < 2:
                continue
            for w in nz:
                for w2 in range(state.k):
                    if w2 == int(w) or not move_allowed(state, c, int(w), w2):
                        continue
                    d = move_delta(state, c, int(w), w2)
                    if d < best_delta - 1e-12:
                        best_delta = d
                        best_move = (c, int(w), w2)
        if best_move is None:
            break
        state.move(*best_move)
    return state


def rebalance(state: QcutState, rng: np.random.Generator, *, max_moves: int = 200) -> bool:
    moves = 0
    for _ in range(max_moves):
        if state.is_balanced():
            break
        w_max = int(np.argmax(state.L))
        w_min = int(np.argmin(state.L))
        candidates = np.flatnonzero(state.ls[:, w_max] > 0)
        if len(candidates) == 0 or w_max == w_min:
            break
        state.move(int(rng.choice(candidates)), w_max, w_min)
        moves += 1
    return moves == max_moves and not state.is_balanced()


def karger_cluster(qids, overlaps, *, target, rng, masses=None, max_mass=None):
    parent = {q: q for q in qids}
    mass = {q: float((masses or {}).get(q, 0.0)) for q in qids}

    def find(q):
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    edges = [
        (a, b, float(w))
        for (a, b), w in sorted(overlaps.items())
        if a in parent and b in parent and a != b and w > 0
    ]
    n_comp = len(qids)
    while n_comp > target and edges:
        weights = np.array([w for _, _, w in edges])
        idx = int(rng.choice(len(edges), p=weights / weights.sum()))
        a, b, _ = edges[idx]
        ra, rb = find(a), find(b)
        if ra != rb and (max_mass is None or mass[ra] + mass[rb] <= max_mass):
            parent[rb] = ra
            mass[ra] += mass[rb]
            n_comp -= 1
            edges = [(x, y, w) for x, y, w in edges if find(x) != find(y)]
        else:
            edges.pop(idx)

    clusters: dict[int, list[int]] = {}
    for q in qids:
        clusters.setdefault(find(q), []).append(q)
    return [sorted(v) for _, v in sorted(clusters.items())]


def exclusive_cluster_of(scope: pd.DataFrame, clusters: list[list[int]]) -> pd.DataFrame:
    """(vid, cluster) rows: each vertex to its most-activating cluster."""
    q2c = {q: ci for ci, qs in enumerate(clusters) for q in qs}
    counts = (
        scope.assign(cluster=scope["qid"].map(q2c))
        .groupby(["vid", "cluster"])["n_active"].sum().rename("n").reset_index()
        .sort_values(["vid", "n", "cluster"], ascending=[True, False, True])
    )
    return counts.drop_duplicates("vid")[["vid", "cluster"]]


def residual_sweeps(workers: np.ndarray, free: np.ndarray, net, k: int, sweeps: int = 3) -> None:
    """Full Gauss–Seidel majority sweeps over every free vertex, in place."""
    indptr, dst, _ = net.csr
    for _ in range(sweeps):
        changed = False
        for v in np.flatnonzero(free):
            counts = np.bincount(workers[dst[indptr[v]:indptr[v + 1]]], minlength=k)
            best = int(np.argmax(counts))
            if counts[best] > counts[workers[v]]:
                workers[v] = best
                changed = True
        if not changed:
            break
