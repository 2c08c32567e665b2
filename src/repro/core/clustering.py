"""Karger-style query clustering (paper Appendix A.1).

The number of (query, worker, worker) move combinations in the local search
can be very high, so the paper clusters queries "as a preprocessing step
into 4k clusters using a variant of the well-known Karger's algorithm with
linear runtime complexity [16] and moved whole clusters between workers".

We contract the *query-overlap graph* — queries as nodes, edge weight =
global-scope intersection size (the controller's aggregated I_w statistics)
— by repeatedly picking a random edge with probability proportional to its
weight and merging its endpoints, until at most ``target`` clusters remain
or no overlapping pair is left. Queries that never overlap stay singletons
(moving them jointly would be uninformed).

Cost: the edges that can still fire are kept as arrays. Each draw is one
vectorised pass over them: the cdf search ``Generator.choice(p=…)`` makes
over every edge, made over these alone (:func:`karger_cluster` shows why it
picks the same edge). Each merge is one pass that drops the edges it made
internal. A run makes at most n − 1 merging draws plus one draw per
edge refused at the mass cap, so it is not the linear time of [16]; it is
array work over at most n(n − 1)/2 edges for a controller window of n
queries.
"""
from __future__ import annotations

import numpy as np


def _positions(qids: list[int], q: np.ndarray) -> np.ndarray:
    """The position of each ``q`` in ``qids``, or -1 where it is not there."""
    ids = np.asarray(qids, dtype=np.int64)
    if len(ids) == 0:
        return np.full(len(q), -1)
    order = np.argsort(ids)
    i = order[np.searchsorted(ids, q, sorter=order).clip(max=len(ids) - 1)]
    return np.where(ids[i] == q, i, -1)


def karger_cluster(
    qids: list[int],
    overlaps: tuple[np.ndarray, np.ndarray, np.ndarray],
    *,
    target: int,
    rng: np.random.Generator,
    masses: dict[int, float] | None = None,
    max_mass: float | None = None,
) -> list[list[int]]:
    """Contract the overlap graph to <= ``target`` clusters of qids.

    ``overlaps`` is ``(qa, qb, w)``: edge weight ``w`` (an integer count)
    between queries ``qa`` and ``qb``. Edges are drawn in (qa, qb) order;
    self-loops, edges of weight 0 and edges to qids not in ``qids`` are
    ignored.

    ``masses``/``max_mass`` implement the *balanced* variant: a contraction
    is skipped when the merged cluster's total scope mass would exceed
    ``max_mass``. Without the cap, weight-proportional contraction merges
    an entire query hotspot (the Berlin case) into one atomic cluster that
    the δ-balance constraint can then never split across workers; capping
    keeps hotspots divided into a few movable chunks.

    Each draw picks the edge ``rng.choice(E, p=w_all / w_all.sum())``
    would pick over every edge, ``w_all`` holding 0 for an edge that can no
    longer fire, and consumes the same double. ``choice`` builds ``cdf =
    p.cumsum(); cdf /= cdf[-1]`` and returns ``cdf.searchsorted(u,
    side="right")`` for one ``u = rng.random()``; here the same three steps
    run over ``w`` — the edges still kept, in the same order, which may
    include refused ones at weight 0 — and the position found is mapped
    back to its edge. They agree because:

    * the weights are integers with exact sums, so ``w.sum()`` equals
      ``w_all.sum()`` in any summation order, and each kept edge's ``p``
      is the same double;
    * adding ``0.0`` leaves a partial sum unchanged, so the cumulative sum
      at each kept edge, and the last one (the divisor), are the same
      doubles, hence so is every normalised cdf value;
    * a ``"right"`` search returns the first slot whose cdf exceeds ``u``;
      that slot's cdf exceeds its predecessor's, so its weight is not 0,
      and both searches stop at the same edge;
    * both draws consume exactly one double.
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    mass = [float((masses or {}).get(q, 0.0)) for q in qids]
    qa, qb, w = (np.asarray(x) for x in overlaps)
    order = np.lexsort((qb, qa))
    ea, eb = _positions(qids, qa[order]), _positions(qids, qb[order])
    w = w[order].astype(float)
    keep = (ea >= 0) & (eb >= 0) & (ea != eb) & (w > 0)
    ea, eb, w = ea[keep], eb[keep], w[keep]
    # comp[i]: the component of qids[i], labelled by the position of its
    # root query (the root stays the first-drawn endpoint's, as in union-find)
    comp = np.arange(len(qids))
    n_comp = len(qids)
    n_live = len(w)  # kept edges of positive weight
    while n_comp > target and n_live:
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        j = int(cdf.searchsorted(rng.random(), side="right"))
        ra, rb = int(comp[ea[j]]), int(comp[eb[j]])
        if max_mass is None or mass[ra] + mass[rb] <= max_mass:
            comp[comp == rb] = ra
            mass[ra] += mass[rb]
            n_comp -= 1
            # drop the edges now inside one cluster, and the refused ones
            keep = (comp[ea] != comp[eb]) & (w > 0)
            ea, eb, w = ea[keep], eb[keep], w[keep]
            n_live = len(w)
        else:
            w[j] = 0.0  # over the mass cap: this edge can never fire again
            n_live -= 1

    clusters: dict[int, list[int]] = {}
    for q, r in zip(qids, comp.tolist()):
        clusters.setdefault(qids[r], []).append(q)
    return [sorted(v) for _, v in sorted(clusters.items())]
