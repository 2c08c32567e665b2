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
from dataclasses import dataclass, field

import numpy as np

from repro.core.clustering import karger_cluster
from repro.core.state import QcutState

# Safety cap on one descent; each step lowers the cost, so a descent ends
# at a local minimum long before it.
_MAX_DESCENT_STEPS = 10_000


@dataclass
class QcutInput:
    """Controller-side statistics feeding one Q-cut run.

    ``ls``: (n_queries x k) matrix of |LS(q,w)| from the monitoring window.
    ``vcounts``: |V(w)| per worker. ``overlaps``: global scope intersection
    per query pair (aggregated I_w stats), used for Karger clustering.
    """

    qids: list[int]
    ls: np.ndarray
    vcounts: np.ndarray
    overlaps: dict[tuple[int, int], float] = field(default_factory=dict)


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


def local_search(state: QcutState) -> QcutState:
    """Algorithm 2: steepest descent over single-scope moves until a local
    minimum; every visited state satisfies the δ-balance predicate."""
    for _ in range(_MAX_DESCENT_STEPS):
        best_delta = 0.0
        best_move: tuple[int, int, int] | None = None
        for c in range(state.n_clusters):
            nz = np.flatnonzero(state.ls[c] > 0)
            if len(nz) < 2:  # fully local cluster: any move only adds cost
                continue
            for w in nz:
                for w2 in range(state.k):
                    if w2 == int(w) or not state.move_allowed(c, int(w), w2):
                        continue
                    d = state.move_delta(c, int(w), w2)
                    if d < best_delta - 1e-12:
                        best_delta = d
                        best_move = (c, int(w), w2)
        if best_move is None:
            break
        state.move(*best_move)
    return state


def rebalance(state: QcutState, rng: np.random.Generator, *, max_moves: int = 200) -> QcutState:
    """Appendix A.2 step III (in place): random scope moves from the
    maximally to the least loaded worker until the all-pairs δ-balance of
    Appendix A.1 is established (or no movable scope remains).

    Also used on the *initial* solution: the paper restricts the solution
    space to balanced states ("all solution states have balanced
    workload"), so an unbalanced current partitioning — e.g. Domain with a
    hot hotspot worker — is first brought into the valid space. This is
    what lets Q-cut trade a little locality for balance on top of Domain
    (paper §4.2, Fig. 6e discussion).
    """
    for _ in range(max_moves):
        if state.is_balanced():
            break
        w_max = int(np.argmax(state.L))
        w_min = int(np.argmin(state.L))
        candidates = np.flatnonzero(state.ls[:, w_max] > 0)
        if len(candidates) == 0 or w_max == w_min:
            break
        state.move(int(rng.choice(candidates)), w_max, w_min)
    return state


def perturb(state: QcutState, rng: np.random.Generator) -> QcutState:
    """Appendix A.2: fuse a random spread query on its argmax worker, then
    rebalance by random max→min loaded scope moves."""
    s = state.copy()
    spread = s.spread_clusters()
    if len(spread) == 0:
        return s
    c = int(rng.choice(spread))
    target = int(np.argmax(s.ls[c]))
    for w in np.flatnonzero(s.ls[c] > 0):
        if int(w) != target:
            s.move(c, int(w), target)
    return rebalance(s, rng)


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
    masses = {q: float(inp.ls[i].sum()) for i, q in enumerate(inp.qids)}
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
    best = rebalance(best, rng)  # enter the balanced solution space (A.1)
    best = local_search(best)
    history = [best.cost()]
    perturbation_steps: list[int] = []

    t0 = time.monotonic()
    for _ in range(max_rounds):
        if len(best.spread_clusters()) == 0:  # cost 0: nothing left to fuse
            break
        perturbation_steps.append(len(history))
        s = perturb(best, rng)
        s = local_search(s)
        if s.cost() < best.cost():
            best = s
        history.append(best.cost())
    ils_s = time.monotonic() - t0

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
    )
