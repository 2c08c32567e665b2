"""Initial (static) partitioning algorithms of paper Section 4.1.

* ``hash_partition`` — ideal workload balance, poor locality (the paper's
  Hash baseline, vid mod k).
* ``domain_partition`` — the paper's best-case static partitioner: "a domain
  expert, who already knows the hotspots of the query distribution in
  advance, manually partitions the graph such that each hotspot is assigned
  to a single partition". Here: geographically contiguous blocks of whole
  cities per worker, highways attached to the nearest city. Near-perfect
  locality, but hotspot populations are Zipf so query workload is imbalanced.
* ``ldg_partition`` — linear deterministic greedy streaming partitioning
  (Stanton & Kliot [36]), the state-of-the-art baseline the paper measured
  and then *excluded* because the skewed query distribution left it highly
  imbalanced (factor 2–6 worse latency). Implemented so that finding is
  reproducible (EXPERIMENTS.md T3).
"""
from __future__ import annotations

import numpy as np

from repro.cluster.assignment import Assignment
from repro.roadnet.generator import HIGHWAY_CITY, RoadNetwork


def hash_partition(n_vertices: int, k: int) -> Assignment:
    """vid mod k (the paper's Hash)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Assignment(workers=(np.arange(n_vertices) % k).astype(np.int32), k=k)


def domain_partition(net: RoadNetwork, k: int) -> Assignment:
    """Whole hotspot cities per worker, geographically contiguous blocks."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cx, cy, cid = (net.cities[c].to_numpy() for c in ("cx", "cy", "city"))
    by_x = np.lexsort((cy, cx))  # the cities in (cx, cy) order
    n_cities = len(by_x)
    # contiguous blocks in x-order; block sizes as equal as possible
    city_to_worker = np.empty(n_cities, dtype=np.int32)
    bounds = np.linspace(0, n_cities, k + 1).round().astype(int)
    for w in range(k):
        city_to_worker[bounds[w] : bounds[w + 1]] = w
    # cities with fewer blocks than workers: spread round-robin
    if n_cities < k:
        city_to_worker = (np.arange(n_cities) % k).astype(np.int32)
    worker_of_city = np.full(int(cid.max()) + 1, -1, dtype=np.int32)
    worker_of_city[cid[by_x]] = city_to_worker

    v = net.vertices
    workers = np.empty(len(v), dtype=np.int32)
    city_col = v["city"].to_numpy()
    in_city = city_col != HIGHWAY_CITY
    workers[in_city] = worker_of_city[city_col[in_city]]
    # highways: nearest city centroid
    if (~in_city).any():
        hx = v["x"].to_numpy()[~in_city]
        hy = v["y"].to_numpy()[~in_city]
        nearest = np.argmin(
            np.hypot(hx[:, None] - cx[None, :], hy[:, None] - cy[None, :]), axis=1
        )
        workers[~in_city] = worker_of_city[cid[nearest]]
    return Assignment(workers=workers, k=k)


def ldg_partition(net: RoadNetwork, k: int, *, slack: float = 0.1) -> Assignment:
    """Linear deterministic greedy: stream vertices in vid order, place each
    on the worker maximizing |N(v) ∩ P_w| · (1 − |P_w|/C), capacity
    C = n(1+slack)/k. Ties break toward the least-loaded worker."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = net.n_vertices
    cap = n * (1.0 + slack) / k
    indptr, dst, _ = net.csr
    workers = np.full(n, -1, dtype=np.int32)
    sizes = np.zeros(k, dtype=np.int64)
    for vid in range(n):
        nbr = workers[dst[indptr[vid]:indptr[vid + 1]]]
        nbr_w = np.bincount(nbr[nbr >= 0], minlength=k)
        score = nbr_w * (1.0 - sizes / cap)
        score[sizes >= cap] = -np.inf
        best = np.flatnonzero(score == score.max())
        w = int(best[np.argmin(sizes[best])])
        workers[vid] = w
        sizes[w] += 1
    return Assignment(workers=workers, k=k)
