"""Road-network generator properties (substrate for the paper's BW/GY)."""
import collections

import numpy as np
import pandas as pd
import pytest

from repro.roadnet.datasets import bw_lite, gy_lite, tiny_grid
from repro.roadnet.generator import HIGHWAY_CITY, generate_road_network

PRESETS = [tiny_grid, bw_lite, gy_lite]


def _bfs_component(net, start=0):
    adj = net.adjacency()
    seen = {start}
    dq = collections.deque([start])
    while dq:
        u = dq.popleft()
        for v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                dq.append(v)
    return seen


@pytest.fixture(params=PRESETS, ids=lambda f: f.__name__)
def net(request):
    return request.param()


class TestStructure:
    def test_connected(self, net):
        assert len(_bfs_component(net)) == net.n_vertices

    def test_vids_contiguous(self, net):
        assert (net.vertices["vid"].to_numpy() == np.arange(net.n_vertices)).all()

    def test_edges_reference_existing_vertices(self, net):
        assert net.edges["src"].between(0, net.n_vertices - 1).all()
        assert net.edges["dst"].between(0, net.n_vertices - 1).all()

    def test_no_self_loops(self, net):
        assert (net.edges["src"] != net.edges["dst"]).all()

    def test_edges_bidirectional(self, net):
        fwd = set(zip(net.edges["src"], net.edges["dst"]))
        assert all((d, s) in fwd for s, d in fwd)

    def test_edge_weights_positive(self, net):
        assert (net.edges["w"] > 0).all()

    def test_symmetric_weights(self, net):
        e = net.edges.set_index(["src", "dst"])["w"]
        rev = net.edges.rename(columns={"src": "dst", "dst": "src"}).set_index(
            ["src", "dst"]
        )["w"]
        pd.testing.assert_series_equal(
            e.sort_index(), rev.sort_index(), check_names=False
        )

    def test_no_duplicate_directed_edges(self, net):
        assert not net.edges.duplicated(subset=["src", "dst"]).any()

    def test_highway_vertices_marked(self, net):
        hw = net.vertices[net.vertices["city"] == HIGHWAY_CITY]
        assert len(hw) > 0
        # highways occupy the tail of the vid range
        assert hw["vid"].min() > net.vertices[net.vertices["city"] >= 0]["vid"].max() - len(
            net.vertices
        )

    def test_city_vertices_match_column(self, net):
        for c in range(min(3, len(net.cities))):
            vids = net.city_vertices(c)
            assert (net.vertices.loc[vids, "city"] == c).all()
            assert len(vids) > 0


class TestPopulations:
    def test_population_rank_order(self, net):
        pop = net.cities["population"].to_numpy()
        assert (np.diff(pop) <= 0).all()  # rank 1 is the largest city

    def test_population_positive(self, net):
        assert (net.cities["population"] > 0).all()

    def test_big_cities_have_bigger_lattices(self, net):
        if len(net.cities) < 4:
            pytest.skip("too few cities")
        sizes = net.vertices[net.vertices["city"] >= 0].groupby("city").size()
        assert sizes.loc[0] >= sizes.loc[len(net.cities) - 1]

    def test_zipf_exponent_controls_skew(self):
        flat = generate_road_network(n_cities=8, grid_side=5, zipf_exponent=0.1, seed=1)
        steep = generate_road_network(n_cities=8, grid_side=5, zipf_exponent=1.5, seed=1)
        share = lambda n: n.cities["population"].iloc[0] / n.cities["population"].sum()
        assert share(steep) > share(flat)


class TestWeightsSemantics:
    def test_weight_is_length_over_speed(self):
        net = generate_road_network(
            n_cities=2, grid_side=4, city_speed=50.0, highway_speed=100.0, seed=9
        )
        v = net.vertices.set_index("vid")
        for s, d, w in net.edges.sample(20, random_state=0).itertuples(index=False):
            length = np.hypot(v.loc[s, "x"] - v.loc[d, "x"], v.loc[s, "y"] - v.loc[d, "y"])
            t50, t100 = length / 50.0, length / 100.0
            assert (
                abs(w - t50) < 1e-9 or abs(w - t100) < 1e-9
            ), "weight must be travel time at one of the two speed limits"

    def test_highway_edges_faster_per_unit_length(self):
        net = tiny_grid()
        v = net.vertices.set_index("vid")
        hw_vids = set(net.vertices.loc[net.vertices["city"] == HIGHWAY_CITY, "vid"])
        e = net.edges
        hw_edges = e[e["src"].isin(hw_vids) & e["dst"].isin(hw_vids)]
        if hw_edges.empty:
            pytest.skip("no pure highway edges at this size")
        row = hw_edges.iloc[0]
        length = np.hypot(
            v.loc[row.src, "x"] - v.loc[row.dst, "x"],
            v.loc[row.src, "y"] - v.loc[row.dst, "y"],
        )
        assert row.w == pytest.approx(length / 100.0)


class TestDeterminism:
    @pytest.mark.parametrize("maker", PRESETS, ids=lambda f: f.__name__)
    def test_preset_deterministic(self, maker):
        a, b = maker(), maker()
        pd.testing.assert_frame_equal(a.vertices, b.vertices)
        pd.testing.assert_frame_equal(a.edges, b.edges)
        pd.testing.assert_frame_equal(a.cities, b.cities)

    def test_seed_changes_graph(self):
        a = generate_road_network(n_cities=4, grid_side=5, seed=1)
        b = generate_road_network(n_cities=4, grid_side=5, seed=2)
        assert not a.vertices["x"].equals(b.vertices["x"])

    def test_same_seed_same_graph(self):
        a = generate_road_network(n_cities=4, grid_side=5, seed=3)
        b = generate_road_network(n_cities=4, grid_side=5, seed=3)
        pd.testing.assert_frame_equal(a.edges, b.edges)


class TestValidation:
    def test_rejects_no_cities(self):
        with pytest.raises(ValueError):
            generate_road_network(n_cities=0, grid_side=5)

    def test_rejects_tiny_grid_side(self):
        with pytest.raises(ValueError):
            generate_road_network(n_cities=2, grid_side=1)

    def test_single_city_works(self):
        net = generate_road_network(n_cities=1, grid_side=4, seed=0)
        assert len(_bfs_component(net)) == net.n_vertices


class TestAdjacency:
    def test_adjacency_matches_edges(self, net):
        adj = net.adjacency()
        assert sum(len(v) for v in adj.values()) == net.n_edges

    def test_adjacency_cached(self, net):
        assert net.adjacency() is net.adjacency()

    def test_csr_matches_adjacency(self, net):
        indptr, dst, w = net.csr
        adj = net.adjacency()
        assert indptr[-1] == net.n_edges
        for v in range(net.n_vertices):
            row = slice(indptr[v], indptr[v + 1])
            assert sorted(zip(dst[row].tolist(), w[row].tolist())) == sorted(adj[v])

    def test_csr_cached_and_read_only(self, net):
        assert net.csr is net.csr
        assert not any(a.flags.writeable for a in net.csr)
