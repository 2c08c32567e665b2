"""Reference implementations of the Q-cut plan step, used as test oracles
for ``repro.core`` and ``repro.controller.simulator``.

The scalar loops come first; the program must reproduce each exactly: the
steepest-descent scan over (c, w, w2) with a strict ``<``, Karger
contraction that rebuilds its edge list after every merge, the
one-move-at-a-time rebalance drawing with ``rng.choice``, the pandas chunk
assignment and the full Gauss–Seidel residual sweeps. The previous
vectorised versions follow; against them the program must also leave the
random stream where they leave it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.state import QcutState, balanced


def edges(overlaps: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A {(qa, qb): weight} dict as the (qa, qb, weight) arrays that
    ``QcutInput.overlaps`` holds."""
    qa = np.array([a for a, _ in overlaps], dtype=np.int64)
    qb = np.array([b for _, b in overlaps], dtype=np.int64)
    return qa, qb, np.array(list(overlaps.values()), dtype=float)


def overlap_dict(overlaps) -> dict:
    """``QcutInput.overlaps`` arrays as a {(qa, qb): weight} dict."""
    return {(int(a), int(b)): float(w) for a, b, w in zip(*overlaps)}


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


# ---- the previous vectorised implementations -------------------------------
# Each is exact against the scalar loops above and pins the random stream.

def move_deltas(state: QcutState) -> np.ndarray:
    """Cost change ``d[c, w, w2]`` of moving scope (c, w) to w2, for every
    (c, w, w2) at once."""
    ls = state.ls
    top = ls.argmax(axis=1)
    rows = np.arange(len(ls))
    top1 = ls[rows, top]
    rest = ls.copy()
    rest[rows, top] = -np.inf
    excl = np.where(np.arange(state.k) == top[:, None],
                    rest.max(axis=1)[:, None], top1[:, None])
    new_mx = np.maximum(ls[:, None, :] + ls[:, :, None], excl[:, :, None])
    return top1[:, None, None] - new_mx


def moves_allowed(state: QcutState) -> np.ndarray:
    """δ-balance predicate ``ok[c, w, w2]`` for every (c, w, w2) at once."""
    x = state.ls[:, :, None]
    lw = state.L[None, :, None] - x
    lw2 = state.L[None, None, :] + x
    m = np.maximum(lw, lw2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = (m <= 0) | (np.abs(lw - lw2) / m < state.delta)
    return ok & (x > 0) & ~np.eye(state.k, dtype=bool)


def local_search_dense(state: QcutState) -> QcutState:
    """Steepest descent that prices every (c, w, w2) move at each step."""
    if state.ls.size == 0:
        return state
    for _ in range(10_000):
        spread = (state.ls > 0).sum(axis=1) >= 2
        ok = moves_allowed(state) & spread[:, None, None]
        d = np.where(ok, move_deltas(state), 0.0)
        best = int(np.argmin(d))
        if d.flat[best] >= -1e-12:
            break
        state.move(*(int(i) for i in np.unravel_index(best, d.shape)))
    return state


def rebalance_replay(state: QcutState, rng: np.random.Generator, *,
                     max_moves: int = 200) -> bool:
    """Rebalance on Python floats that rebuilds the candidate list on every
    move, then replays the moves on the state one by one."""
    ls = state.ls.T.tolist()  # ls[w][c]
    L = state.L.tolist()
    moves: list[tuple[int, int, int]] = []
    for _ in range(max_moves):
        lo, hi = min(L), max(L)
        if balanced(lo, hi, state.delta):
            break
        w_max, w_min = L.index(hi), L.index(lo)
        candidates = [c for c, x in enumerate(ls[w_max]) if x > 0]
        if not candidates or w_max == w_min:
            break
        c = candidates[rng.integers(len(candidates))]
        x = ls[w_max][c]
        ls[w_max][c] = 0.0
        ls[w_min][c] += x
        L[w_max] -= x
        L[w_min] += x
        moves.append((c, w_max, w_min))
    for m in moves:
        state.move(*m)
    return len(moves) == max_moves and not state.is_balanced()


def perturb_replay(state: QcutState, rng: np.random.Generator) -> tuple[QcutState, bool]:
    """Fuse a random spread cluster on its argmax worker, then
    :func:`rebalance_replay`."""
    s = state.copy()
    spread = s.spread_clusters()
    if len(spread) == 0:
        return s, False
    c = int(rng.choice(spread))
    target = int(np.argmax(s.ls[c]))
    for w in np.flatnonzero(s.ls[c] > 0):
        if int(w) != target:
            s.move(c, int(w), target)
    return s, rebalance_replay(s, rng)


def karger_cluster_choice(qids, overlaps, *, target, rng, masses=None, max_mass=None):
    """Contraction over a weight array that keeps every edge (0 once it
    can no longer fire), drawing with ``rng.choice(p=…)``; ``overlaps`` is a
    {(qa, qb): weight} dict."""
    pos = {q: i for i, q in enumerate(qids)}
    mass = [float((masses or {}).get(q, 0.0)) for q in qids]
    comp = np.arange(len(qids))
    pairs = [(pos[a], pos[b], float(w)) for (a, b), w in sorted(overlaps.items())
             if a in pos and b in pos and a != b and w > 0]
    ea = np.array([a for a, _, _ in pairs], dtype=np.int64)
    eb = np.array([b for _, b, _ in pairs], dtype=np.int64)
    w = np.array([x for _, _, x in pairs], dtype=float)
    n_comp = len(qids)
    while n_comp > target and w.any():
        idx = int(rng.choice(len(w), p=w / w.sum()))
        ra, rb = comp[ea[idx]], comp[eb[idx]]
        if max_mass is None or mass[ra] + mass[rb] <= max_mass:
            comp[comp == rb] = ra
            mass[ra] += mass[rb]
            n_comp -= 1
            w[comp[ea] == comp[eb]] = 0.0
        else:
            w[idx] = 0.0

    clusters: dict[int, list[int]] = {}
    for q, r in zip(qids, comp.tolist()):
        clusters.setdefault(qids[r], []).append(q)
    return [sorted(v) for _, v in sorted(clusters.items())]
