"""Q-cut: iterated local search over the high-level query representation.

Implements Algorithm 1 (ILS driver), Algorithm 2 (steepest-descent local
search with the δ-balance successor filter), the perturbation of Appendix
A.2 (fuse a spread query's scopes on its argmax worker, then rebalance by
random scope moves from the most- to the least-loaded worker) and the
initial-solution / termination choices of Appendix A.3 (start from the
current partitioning; stop on an external budget — here a round cap, so a
result never depends on how fast the host is; the ILS wall time is
recorded, not used to stop).
"""
from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from repro.core.clustering import karger_cluster
from repro.core.state import QcutState, improving_moves, move_allowed

# Safety cap on one descent; each step lowers the cost, so a descent ends
# at a local minimum long before it.
_MAX_DESCENT_STEPS = 10_000


@dataclass
class QcutInput:
    """Controller-side statistics feeding one Q-cut run.

    ``ls``: (n_queries x k) matrix of |LS(q,w)| from the monitoring window.
    ``vcounts``: |V(w)| per worker. ``overlaps``: ``(qa, qb, shared)``
    arrays, the global scope intersection ``shared`` of each query pair
    that has one (aggregated I_w stats), used for Karger clustering.
    """

    qids: list[int]
    ls: np.ndarray
    vcounts: np.ndarray
    overlaps: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.zeros(0, np.int64),) * 3)


@dataclass
class QcutResult:
    """Best solution found plus the diagnostics plotted in Fig. 6g."""

    cluster_placement: dict[tuple[int, int], int]  # (cluster_idx, w_from) -> w_to
    cost_initial: float
    cost_final: float
    history: list[float]          # best cost after each local search
    perturbation_steps: list[int] # indices into history where we perturbed
    clusters: list[list[int]]
    ils_s: float                  # wall time of the ILS rounds (data only)
    rebalance_capped: int         # rebalance calls left unbalanced at the move cap (data only)
    balanced: bool                # final state meets the all-pairs δ-balance (data only)
    load_spread: float            # (max − min) / max of the final loads L (data only)


def local_search(state: QcutState) -> QcutState:
    """Algorithm 2: steepest descent over single-scope moves until a local
    minimum; every step is a move the δ-balance predicate allows.

    Each step applies the first move of minimum cost change in (c, w, w2)
    order among the allowed improving ones. Only those can be picked, so a
    step checks the balance of each cluster's :func:`improving_moves`
    under the current loads, and a move re-lists only its own cluster's.
    The descent runs on Python floats (the same IEEE operations as
    :meth:`QcutState.move`) and is written back to the state once."""
    ls, L, delta = state.ls.tolist(), state.L.tolist(), state.delta
    improving = [improving_moves(row) for row in ls]
    moves: list[tuple[int, int, int]] = []
    for _ in range(_MAX_DESCENT_STEPS):
        best_d, best = -1e-12, None
        for c, cand in enumerate(improving):
            for d, w, w2 in cand:
                if d < best_d and move_allowed(L, w, w2, ls[c][w], delta):
                    best_d, best = d, (c, w, w2)
        if best is None:
            break
        c, w, w2 = best
        row = ls[c]
        x = row[w]
        row[w] = 0.0
        row[w2] += x
        L[w] -= x
        L[w2] += x
        improving[c] = improving_moves(row)
        moves.append(best)
    state.update(ls, L, moves)
    return state


def rebalance(state: QcutState, rng: np.random.Generator, *, max_moves: int = 200) -> bool:
    """Appendix A.2 step III (in place): random scope moves from the
    maximally to the least loaded worker until the all-pairs δ-balance of
    Appendix A.1 is established, no movable scope remains, or ``max_moves``
    moves are made. Returns True if it made ``max_moves`` moves and the
    state is still unbalanced. Each move draws its scope with one
    ``rng.integers(n)`` over the worker's n non-empty scopes in cluster
    order (what ``rng.choice`` over them draws).

    Also used on the *initial* solution: the paper restricts the solution
    space to balanced states ("all solution states have balanced
    workload"), so an unbalanced current partitioning — e.g. Domain with a
    hot hotspot worker — is first moved toward the valid space. This is
    what lets Q-cut trade a little locality for balance on top of Domain
    (paper §4.2, Fig. 6e discussion).
    """
    # the loop runs on Python floats (the same IEEE operations as
    # QcutState.move) and keeps each worker's non-empty scopes as an
    # ascending cluster list; the result is written to the state once
    ls, L, delta = state.ls.tolist(), state.L.tolist(), state.delta
    scopes = [[c for c, row in enumerate(ls) if row[w] > 0] for w in range(state.k)]
    moves: list[tuple[int, int, int]] = []
    while len(moves) < max_moves:
        lo, hi = min(L), max(L)
        if hi <= 0 or (hi - lo) / hi < delta:  # balanced(lo, hi, delta)
            break
        w_max, w_min = L.index(hi), L.index(lo)
        candidates = scopes[w_max]
        if not candidates or w_max == w_min:
            break
        c = candidates.pop(rng.integers(len(candidates)))
        row = ls[c]
        x = row[w_max]
        row[w_max] = 0.0
        if row[w_min] <= 0:
            insort(scopes[w_min], c)
        row[w_min] += x
        L[w_max] -= x
        L[w_min] += x
        moves.append((c, w_max, w_min))
    state.update(ls, L, moves)
    return len(moves) == max_moves and not state.is_balanced()


def perturb(state: QcutState, rng: np.random.Generator) -> tuple[QcutState, bool]:
    """Appendix A.2: fuse a random spread query on its argmax worker, then
    rebalance by random max→min loaded scope moves. Returns the new state
    and whether its rebalance stopped on the move cap (see
    :func:`rebalance`)."""
    s = state.copy()
    spread = s.spread_clusters()
    if len(spread) == 0:
        return s, False
    c = int(rng.choice(spread))
    target = int(np.argmax(s.ls[c]))
    for w in np.flatnonzero(s.ls[c] > 0):
        if int(w) != target:
            s.move(c, int(w), target)
    return s, rebalance(s, rng)


def run_qcut(
    inp: QcutInput,
    *,
    delta: float = 0.25,
    max_rounds: int = 40,
    seed: int = 0,
) -> QcutResult:
    """Algorithm 1: cluster the queries, then iterate perturbation and local
    search from the current partitioning. The ILS stops after
    ``max_rounds`` perturbations, or earlier at cost 0; its wall time is
    recorded in ``ils_s``."""
    k = len(inp.vcounts)
    if inp.ls.shape != (len(inp.qids), k):
        raise ValueError("ls shape must be (n_queries, k)")
    rng = np.random.default_rng(seed)
    # Balanced-Karger variant (paper A.1 speaks of "a variant of ...
    # Karger's algorithm"): contract overlap edges until none remain,
    # except that no cluster may exceed a 1/k share of the total window
    # scope mass. Clusters therefore become whole hotspot communities —
    # preserving the per-query spread information in the cluster-level cost
    # — while over-heavy hotspots stay divided into movable chunks that the
    # δ-balance constraint can split across workers (the Berlin tradeoff,
    # Fig. 6e/6f). Only the mass cap stops the contraction (target 1): the
    # resulting cluster count is far below the paper's 4k cap for these
    # workloads.
    masses = dict(zip(inp.qids, inp.ls.sum(axis=1).tolist()))
    clusters = karger_cluster(
        list(inp.qids),
        inp.overlaps,
        target=1,
        rng=rng,
        masses=masses,
        # a cluster within (1+δ)/k of total mass can still be balanced as a
        # whole; only genuinely over-heavy hotspots must stay divided
        max_mass=(1.0 + delta) * sum(masses.values()) / k,
    )
    qpos = {q: i for i, q in enumerate(inp.qids)}
    ls_c = np.zeros((len(clusters), k))
    for ci, qs in enumerate(clusters):
        ls_c[ci] = inp.ls[[qpos[q] for q in qs]].sum(axis=0)

    best = QcutState(ls_c, np.asarray(inp.vcounts, dtype=float), delta)
    cost_initial = best.cost()
    capped = int(rebalance(best, rng))  # toward the balanced solution space (A.1)
    best = local_search(best)
    history = [best.cost()]
    perturbation_steps: list[int] = []

    t0 = time.monotonic()
    for _ in range(max_rounds):
        if len(best.spread_clusters()) == 0:  # cost 0: nothing left to fuse
            break
        perturbation_steps.append(len(history))
        s, s_capped = perturb(best, rng)
        capped += s_capped
        s = local_search(s)
        if s.cost() < best.cost():
            best = s
        history.append(best.cost())
    ils_s = time.monotonic() - t0

    hi = best.L.max()
    return QcutResult(
        cluster_placement={(ci, w_init): w_fin
                           for ci in range(len(clusters))
                           for w_init, w_fin in best.origins[ci].items()},
        cost_initial=cost_initial,
        cost_final=best.cost(),
        history=history,
        perturbation_steps=perturbation_steps,
        clusters=clusters,
        ils_s=ils_s,
        rebalance_capped=capped,
        balanced=bool(best.is_balanced()),
        load_spread=float((hi - best.L.min()) / hi) if hi > 0 else 0.0,
    )
