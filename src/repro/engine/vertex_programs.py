"""Vertex programs for the paper's two query types (Section 4.1).

Both SSSP and POI are distance relaxations from a single start vertex under
the vertex-centric model: a vertex's query-specific data is its tentative
travel time from the start; active vertices send ``dist + w`` to neighbours;
a vertex re-activates when it receives a smaller value (min combiner).

They differ only in the *target set* that bounds the search:

* **SSSP(start, end)** — target = {end}. Messages that cannot be part of a
  shorter path to ``end`` (candidate >= current tentative dist(end)) are
  pruned; with positive weights every true shortest-path prefix strictly
  beats the bound, so the final dist(end) is exact.
* **POI(start)** — target = all tagged vertices; the bound is the distance
  of the closest tagged vertex found so far. Final result: the nearest
  tagged vertex and its travel time.

The relaxation itself is :mod:`repro.engine.kernel`, run by
:mod:`repro.engine.pregel`; this module builds the per-query target sets.
"""
from __future__ import annotations

import numpy as np

from repro.queries.workload import Query
from repro.roadnet.generator import RoadNetwork


def targets_for(queries: list[Query], net: RoadNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Target membership driving bound pruning & termination, as int64
    arrays ``(tq, tv)``: ``queries[tq[i]]`` has target vertex ``tv[i]``."""
    tagged = net.vertices.loc[net.vertices["tag"], "vid"].to_numpy(np.int64)
    ends = []
    for q in queries:
        if q.kind == "sssp":
            if q.end is None:
                raise ValueError(f"SSSP query {q.qid} has no end vertex")
            ends.append([q.end])
        elif q.kind == "poi":
            ends.append(tagged)
        else:
            raise ValueError(f"unknown query kind {q.kind!r}")
    tq = np.repeat(np.arange(len(queries), dtype=np.int64), [len(e) for e in ends])
    return tq, np.concatenate(ends, dtype=np.int64)
