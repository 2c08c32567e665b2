"""Synthetic road-network generator.

Substitute for the paper's OpenStreetMap graphs (Baden-Wuerttemberg and
Germany, Section 4.1). A road network here is:

* ``n_cities`` cities on a jittered coarse grid over a square plane, each a
  ``grid_side x grid_side`` street lattice (junction vertices, 4-neighbour
  street edges plus a few random chords),
* inter-city *highways*: a minimum spanning tree over city centroids plus
  each city's ``n_neighbors`` nearest cities, realised as chains of
  ``highway_hops`` intermediate junction vertices,
* Zipf-distributed city populations (rank 1 is the largest city — the
  "Berlin" of the paper's GY experiment),
* edge weight = euclidean length / speed limit (city vs highway speed),
  i.e. estimated travel time, exactly as in the paper,
* a POI *tag* per vertex with probability ``tag_prob`` (the paper's gas
  stations).

Everything is deterministic in ``seed`` and built in numpy/pandas; the
dataset presets are in :mod:`repro.roadnet.datasets`, and the engine reads
a network's CSR (:attr:`RoadNetwork.csr`) directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import pandas as pd

HIGHWAY_CITY = -1  # ``city`` value for inter-city highway vertices


@dataclass
class RoadNetwork:
    """A generated road network.

    ``vertices``: columns ``vid`` (int64), ``city`` (int32, -1 for highway
    vertices), ``x``/``y`` (float64 plane coordinates), ``tag`` (bool, POI).
    ``edges``: columns ``src``, ``dst`` (int64), ``w`` (float64 travel time);
    contains both directions of every road segment.
    ``cities``: columns ``city``, ``cx``, ``cy``, ``population``.
    """

    vertices: pd.DataFrame
    edges: pd.DataFrame
    cities: pd.DataFrame
    seed: int = 0
    name: str = "roadnet"
    # adjacency cache for driver-side reference algorithms (tests/oracles)
    _adj: dict | None = field(default=None, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Out-adjacency as CSR ``(indptr, dst, w)``, edges sorted by
        (src, dst): the out-edges of ``v`` are ``indptr[v]:indptr[v + 1]``.
        Every caller shares the arrays, so they are read-only."""
        e = self.edges.sort_values(["src", "dst"], kind="stable")
        indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(e["src"], minlength=self.n_vertices), out=indptr[1:])
        csr = (indptr, e["dst"].to_numpy(np.int64), e["w"].to_numpy(np.float64))
        for a in csr:
            a.setflags(write=False)
        return csr

    @cached_property
    def out_neighbours(self) -> list[list[int]]:
        """``csr``'s out-neighbours of each vertex as Python lists, for the
        driver's scalar loops; shared like ``csr``, so callers must not
        mutate them."""
        indptr, dst, _ = self.csr
        return [dst[a:b].tolist() for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]

    def adjacency(self) -> dict[int, list[tuple[int, float]]]:
        """Out-adjacency ``{src: [(dst, w), ...]}`` for reference Dijkstra."""
        if self._adj is None:
            adj: dict[int, list[tuple[int, float]]] = {
                int(v): [] for v in self.vertices["vid"]
            }
            for s, d, w in self.edges.itertuples(index=False):
                adj[int(s)].append((int(d), float(w)))
            self._adj = adj
        return self._adj

    @cached_property
    def _city_vids(self) -> dict[int, np.ndarray]:
        """Each city's vids in vid order, read-only like ``csr``."""
        city = self.vertices["city"].to_numpy()
        order = np.argsort(city, kind="stable")
        vids = self.vertices["vid"].to_numpy()[order]
        vids.setflags(write=False)
        cities, first = np.unique(city[order], return_index=True)
        return dict(zip(cities.tolist(), np.split(vids, first[1:])))

    def city_vertices(self, city: int) -> np.ndarray:
        """vids of the street lattice of ``city`` (excludes highways)."""
        return self._city_vids[city]


def _city_centroids(n_cities: int, plane: float, rng: np.random.Generator):
    """Cities on a jittered coarse grid — guarantees pairwise separation."""
    side = int(np.ceil(np.sqrt(n_cities)))
    cell = plane / side
    cells = rng.permutation(side * side)[:n_cities]
    cx = (cells % side) * cell + cell / 2 + rng.uniform(-0.15, 0.15, n_cities) * cell
    cy = (cells // side) * cell + cell / 2 + rng.uniform(-0.15, 0.15, n_cities) * cell
    return cx, cy, cell


def _mst_edges(cx: np.ndarray, cy: np.ndarray) -> list[tuple[int, int]]:
    """Prim's MST over city centroids (euclidean) — connectivity backbone."""
    n = len(cx)
    if n <= 1:
        return []
    dist = np.hypot(cx[:, None] - cx[None, :], cy[:, None] - cy[None, :])
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    parent = np.zeros(n, dtype=int)
    out: list[tuple[int, int]] = []
    for _ in range(n - 1):
        j = int(np.argmin(np.where(in_tree, np.inf, best)))
        out.append((int(parent[j]), j))
        in_tree[j] = True
        upd = dist[j] < best
        best[upd] = dist[j][upd]
        parent[upd] = j
    return out


def generate_road_network(
    *,
    n_cities: int = 16,
    grid_side: int = 12,
    plane: float = 100.0,
    n_neighbors: int = 2,
    highway_hops: int = 3,
    city_speed: float = 50.0,
    highway_speed: float = 100.0,
    chord_frac: float = 0.05,
    tag_prob: float = 1.0 / 200.0,
    zipf_exponent: float = 0.9,
    seed: int = 0,
    name: str = "roadnet",
) -> RoadNetwork:
    """Generate a deterministic synthetic road network (see module doc)."""
    if n_cities < 1 or grid_side < 2:
        raise ValueError("need n_cities >= 1 and grid_side >= 2")
    rng = np.random.default_rng(seed)
    cx, cy, cell = _city_centroids(n_cities, plane, rng)
    extent = cell * 0.55  # every lattice spans ~55% of a grid cell

    # --- populations (Zipf over city rank) ---------------------------------
    ranks = np.arange(1, n_cities + 1, dtype=float)
    pop = 1.0 / ranks**zipf_exponent
    pop = (pop / pop.sum() * 1_000_000).astype(np.int64)

    # Bigger cities have bigger/denser road networks: lattice side scales
    # sub-linearly with population share (Berlin's junction count dwarfs a
    # rank-50 town's). This drives the paper's GY straggler finding — "the
    # higher complexity of the road network and higher number of queries
    # processed by the worker responsible for ... Berlin" (§4.2).
    rel = (pop / pop.mean()) ** 0.15
    sides = np.clip(np.round(grid_side * rel), max(4, grid_side * 0.6),
                    grid_side * 2.0).astype(int)

    # --- city street lattices -------------------------------------------
    vx_parts, vy_parts, city_col = [], [], []
    lat_src, lat_dst = [], []
    offsets = np.zeros(n_cities + 1, dtype=np.int64)
    for c in range(n_cities):
        side = int(sides[c])
        per_city = side * side
        base = int(offsets[c])
        offsets[c + 1] = base + per_city
        spacing = extent / (side - 1)
        gx, gy = np.meshgrid(np.arange(side), np.arange(side))
        gx, gy = gx.ravel(), gy.ravel()  # local lattice coords, row-major
        jitter = rng.uniform(-0.2, 0.2, (2, per_city)) * spacing
        vx_parts.append(cx[c] - extent / 2 + gx * spacing + jitter[0])
        vy_parts.append(cy[c] - extent / 2 + gy * spacing + jitter[1])
        city_col.append(np.full(per_city, c, dtype=np.int32))
        right = np.nonzero(gx < side - 1)[0]
        up = np.nonzero(gy < side - 1)[0]
        lat_src.append(base + right)
        lat_dst.append(base + right + 1)
        lat_src.append(base + up)
        lat_dst.append(base + up + side)
        # random chords: connect random non-adjacent pairs inside the city
        n_chords = max(1, int(chord_frac * per_city))
        a = rng.integers(0, per_city, n_chords) + base
        b = rng.integers(0, per_city, n_chords) + base
        keep = a != b
        lat_src.append(a[keep])
        lat_dst.append(b[keep])
    vx = np.concatenate(vx_parts)
    vy = np.concatenate(vy_parts)
    city_col = np.concatenate(city_col)
    n_city_v = int(offsets[-1])
    src = np.concatenate(lat_src)
    dst = np.concatenate(lat_dst)

    # --- highways ---------------------------------------------------------
    pairs = set(tuple(sorted(p)) for p in _mst_edges(cx, cy))
    if n_cities > 1:
        dist = np.hypot(cx[:, None] - cx[None, :], cy[:, None] - cy[None, :])
        np.fill_diagonal(dist, np.inf)
        order = np.argsort(dist, axis=1)
        for c in range(n_cities):
            for j in order[c, : min(n_neighbors, n_cities - 1)]:
                pairs.add(tuple(sorted((c, int(j)))))

    hw_x, hw_y = [], []
    hw_src, hw_dst = [], []
    next_vid = n_city_v

    def _border_vertex(c: int, tx: float, ty: float) -> int:
        """Lattice vertex of city ``c`` closest to the target point."""
        lo, hi = int(offsets[c]), int(offsets[c + 1])
        d = np.hypot(vx[lo:hi] - tx, vy[lo:hi] - ty)
        return lo + int(np.argmin(d))

    for a, b in sorted(pairs):
        va = _border_vertex(a, cx[b], cy[b])
        vb = _border_vertex(b, cx[a], cy[a])
        chain = [va]
        for h in range(1, highway_hops + 1):
            t = h / (highway_hops + 1)
            hw_x.append(vx[va] + t * (vx[vb] - vx[va]) + rng.uniform(-0.02, 0.02) * cell)
            hw_y.append(vy[va] + t * (vy[vb] - vy[va]) + rng.uniform(-0.02, 0.02) * cell)
            chain.append(next_vid)
            next_vid += 1
        chain.append(vb)
        hw_src.extend(chain[:-1])
        hw_dst.extend(chain[1:])

    all_x = np.concatenate([vx, np.asarray(hw_x)]) if hw_x else vx
    all_y = np.concatenate([vy, np.asarray(hw_y)]) if hw_y else vy
    n_total = next_vid
    city_all = np.concatenate(
        [city_col, np.full(n_total - n_city_v, HIGHWAY_CITY, dtype=np.int32)]
    )
    is_hw_edge = np.concatenate(
        [np.zeros(len(src), dtype=bool), np.ones(len(hw_src), dtype=bool)]
    )
    src = np.concatenate([src, np.asarray(hw_src, dtype=np.int64)])
    dst = np.concatenate([dst, np.asarray(hw_dst, dtype=np.int64)])

    # --- weights: travel time = length / speed ----------------------------
    length = np.hypot(all_x[src] - all_x[dst], all_y[src] - all_y[dst])
    length = np.maximum(length, 1e-6)  # chords between co-located jittered pts
    speed = np.where(is_hw_edge, highway_speed, city_speed)
    w = length / speed

    # deduplicate undirected segments, then emit both directions
    und = pd.DataFrame(
        {"a": np.minimum(src, dst), "b": np.maximum(src, dst), "w": w}
    ).drop_duplicates(subset=["a", "b"])
    und = und[und["a"] != und["b"]]
    edges = pd.DataFrame(
        {
            "src": np.concatenate([und["a"].to_numpy(), und["b"].to_numpy()]),
            "dst": np.concatenate([und["b"].to_numpy(), und["a"].to_numpy()]),
            "w": np.concatenate([und["w"].to_numpy()] * 2),
        }
    ).astype({"src": np.int64, "dst": np.int64})

    # --- cities table & tags -----------------------------------------------
    cities = pd.DataFrame(
        {"city": np.arange(n_cities, dtype=np.int32), "cx": cx, "cy": cy, "population": pop}
    )
    tags = rng.random(n_total) < tag_prob
    vertices = pd.DataFrame(
        {
            "vid": np.arange(n_total, dtype=np.int64),
            "city": city_all,
            "x": all_x,
            "y": all_y,
            "tag": tags,
        }
    )
    return RoadNetwork(vertices=vertices, edges=edges, cities=cities, seed=seed, name=name)
