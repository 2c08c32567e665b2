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

Cost: the edges keep one weight array. Each draw is one vectorised pass
over it (the cdf ``Generator.choice`` searches), and so is each merge (a
component-label compare that zeroes the edges it made internal). A run
makes at most n − 1 merging draws plus one draw per edge refused at the
mass cap, so it is not the linear time of [16]; it is array work over at
most n(n − 1)/2 edges for a controller window of n queries.
"""
from __future__ import annotations

import numpy as np


def karger_cluster(
    qids: list[int],
    overlaps: dict[tuple[int, int], float],
    *,
    target: int,
    rng: np.random.Generator,
    masses: dict[int, float] | None = None,
    max_mass: float | None = None,
) -> list[list[int]]:
    """Contract the overlap graph to <= ``target`` clusters of qids.

    ``masses``/``max_mass`` implement the *balanced* variant: a contraction
    is skipped when the merged cluster's total scope mass would exceed
    ``max_mass``. Without the cap, weight-proportional contraction merges
    an entire query hotspot (the Berlin case) into one atomic cluster that
    the δ-balance constraint can then never split across workers; capping
    keeps hotspots divided into a few movable chunks.
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    pos = {q: i for i, q in enumerate(qids)}
    mass = [float((masses or {}).get(q, 0.0)) for q in qids]
    # comp[i]: the component of qids[i], labelled by the position of its
    # root query (the root stays the first-drawn endpoint's, as in union-find)
    comp = np.arange(len(qids))
    pairs = [(pos[a], pos[b], float(w)) for (a, b), w in sorted(overlaps.items())
             if a in pos and b in pos and a != b and w > 0]
    ea = np.array([a for a, _, _ in pairs], dtype=np.int64)
    eb = np.array([b for _, b, _ in pairs], dtype=np.int64)
    # Edges that can no longer fire keep their slot with weight 0, so a draw
    # over all slots picks the edge a draw over the live edges alone would:
    # the weights are integer counts, their sums are exact, and a zero adds
    # nothing to the cdf that Generator.choice searches.
    w = np.array([x for _, _, x in pairs], dtype=float)
    n_comp = len(qids)
    while n_comp > target and w.any():
        idx = int(rng.choice(len(w), p=w / w.sum()))
        ra, rb = comp[ea[idx]], comp[eb[idx]]
        if max_mass is None or mass[ra] + mass[rb] <= max_mass:
            comp[comp == rb] = ra
            mass[ra] += mass[rb]
            n_comp -= 1
            w[comp[ea] == comp[eb]] = 0.0  # edges now inside one cluster
        else:
            w[idx] = 0.0  # over the mass cap: this edge can never fire again

    clusters: dict[int, list[int]] = {}
    for q, r in zip(qids, comp.tolist()):
        clusters.setdefault(qids[r], []).append(q)
    return [sorted(v) for _, v in sorted(clusters.items())]
