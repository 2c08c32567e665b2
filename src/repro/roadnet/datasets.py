"""Dataset presets — lite substitutes for the paper's BW and GY graphs.

The paper uses OpenStreetMap Baden-Wuerttemberg (1.8M vertices, 16 hotspot
cities) and Germany (11.8M vertices, 64 hotspot cities). At laptop scale we
keep the *structure* (number of hotspot cities, Zipf populations, highway
sparsity) and shrink the per-city lattice; see DESIGN.md §2.

Population skew is calibrated to the real city-size distributions the paper
samples queries from: Stuttgart holds ~23% of the top-16 BW cities' summed
population (Zipf exponent ≈ 0.75 over 16 ranks) and Berlin ~20% of the
top-64 German cities' sum (≈ 0.95 over 64 ranks). The skew drives the
paper's straggler findings (Fig. 5b, Fig. 6e), so it must be realistic —
an over-skewed hotspot would force Q-cut into far more locality sacrifice
than the paper observed.
"""
from __future__ import annotations

from functools import lru_cache

from pyspark.sql import DataFrame, SparkSession

from repro.roadnet.generator import RoadNetwork, generate_road_network


@lru_cache(maxsize=8)
def bw_lite(seed: int = 7) -> RoadNetwork:
    """Baden-Wuerttemberg-lite: 16 cities, ~4k vertices (paper: 1.8M)."""
    return generate_road_network(
        n_cities=16, grid_side=14, plane=100.0, n_neighbors=2,
        highway_hops=3, tag_prob=1 / 100, zipf_exponent=0.75,
        seed=seed, name="bw_lite",
    )


@lru_cache(maxsize=8)
def gy_lite(seed: int = 11) -> RoadNetwork:
    """Germany-lite: 64 cities, ~8k vertices (paper: 11.8M)."""
    return generate_road_network(
        n_cities=64, grid_side=10, plane=200.0, n_neighbors=2,
        highway_hops=3, tag_prob=1 / 100, zipf_exponent=0.95,
        seed=seed, name="gy_lite",
    )


@lru_cache(maxsize=8)
def tiny_grid(seed: int = 3) -> RoadNetwork:
    """4 cities x 5x5 lattice — unit-test sized (~110 vertices)."""
    return generate_road_network(
        n_cities=4, grid_side=5, plane=40.0, n_neighbors=1,
        highway_hops=2, tag_prob=1 / 20, seed=seed, name="tiny_grid",
    )


def edges_df(spark: SparkSession, net: RoadNetwork) -> DataFrame:
    """The (src, dst, w) edges of ``net`` as a Spark DataFrame (not cached).
    Kept only for ``qgbench/workloads.py``, which still passes it as
    ``run_queries``' unused ``edges`` (ROADMAP item 1)."""
    return spark.createDataFrame(net.edges)
