"""Cost model semantics (paper §3.3 barrier hierarchy, §4.1 infrastructures)."""
import pytest

from repro.cluster.costmodel import C1, M1, M2, CostModel


class TestBarrierCost:
    def test_local_barrier_is_free(self):
        """A single-worker (local) query barrier is communication-free (§3.3)."""
        assert CostModel().barrier_cost(1) == 0.0
        assert CostModel().barrier_cost(0) == 0.0

    def test_limited_barrier_grows_with_group(self):
        c = CostModel()
        costs = [c.barrier_cost(g) for g in range(2, 9)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_limited_cheaper_than_global(self):
        c = CostModel()
        assert c.barrier_cost(2) < c.barrier_cost(8)

    def test_formula(self):
        c = CostModel(barrier_rtt=10, barrier_per_worker=3)
        assert c.barrier_cost(4) == 10 + 12


class TestPresets:
    def test_scale_out_network_pricier_than_loopback(self):
        assert C1.msg_remote > M2.msg_remote
        assert C1.barrier_rtt > M2.barrier_rtt

    def test_m1_slower_compute_than_m2(self):
        assert M1.comp_per_vertex > M2.comp_per_vertex

    def test_remote_message_costs_more_than_local(self):
        for preset in (M1, M2, C1):
            assert preset.msg_remote > preset.msg_local


class TestWith:
    def test_frozen(self):
        with pytest.raises(Exception):
            M2.msg_remote = 1.0


class TestNetworkPorts:
    def test_no_ports_no_scaling(self):
        c = CostModel(msg_remote=2.0, network_ports=None)
        assert c.remote_cost(64) == 2.0

    def test_sharing_multiplies_cost(self):
        c = CostModel(msg_remote=2.0, network_ports=8)
        assert c.remote_cost(8) == 2.0
        assert c.remote_cost(16) == 4.0
        assert c.remote_cost(9) == 4.0  # ceil(9/8) = 2

    def test_c1_models_eight_nodes(self):
        assert C1.network_ports == 8
        assert C1.remote_cost(16) == 2 * C1.msg_remote
