"""Tick-based barrier simulation — hand-verified arithmetic (paper §3.3)."""
import numpy as np
import pytest

from repro.cluster.costmodel import CostModel
from repro.sync.barriers import imbalance, simulate_batch, simulate_batch_switch

COST = CostModel(
    comp_per_vertex=2.0, msg_local=0.5, msg_remote=1.0,
    barrier_rtt=8.0, barrier_per_worker=2.0, iter_floor=1.0,
)


def _report(rows, columns):
    cols = np.array(rows, dtype=np.int64).reshape(-1, len(columns)).T
    return dict(zip(columns, cols))


def _ac(rows):
    return _report(rows, ["qid", "iter", "worker", "n_active"])


def _mc(rows):
    return _report(rows, ["qid", "iter", "w_src", "w_dst", "n_msgs"])


EMPTY_MC = _mc([])

# A result lists its queries by ascending qid: in the batches below, qid 1
# is position 0 and qid 2 position 1.


class TestLocalQuery:
    """One query fully local on worker 0 — local barriers are free."""

    def test_latency(self):
        res = simulate_batch(
            _ac([(1, 0, 0, 1), (1, 1, 0, 2)]), EMPTY_MC, k=2, cost=COST
        )
        # iter0: 2*1 + 0 + 1 = 3 ; iter1: 2*2 + 0 + 1 = 5
        assert res.latencies[0] == pytest.approx(8.0)

    def test_perfect_locality(self):
        res = simulate_batch(
            _ac([(1, 0, 0, 1), (1, 1, 0, 2)]), EMPTY_MC, k=2, cost=COST
        )
        assert res.locality[0] == 1.0

    def test_local_messages_priced_on_owner(self):
        res = simulate_batch(
            _ac([(1, 0, 0, 1)]), _mc([(1, 0, 0, 0, 4)]), k=2, cost=COST
        )
        # 2*1 compute + 4*0.5 local msgs + floor
        assert res.latencies[0] == pytest.approx(2 + 2 + 1)
        assert res.locality[0] == 1.0


class TestRemoteQuery:
    def test_limited_barrier_and_remote_split(self):
        res = simulate_batch(
            _ac([(1, 0, 0, 1)]), _mc([(1, 0, 0, 1, 2)]), k=2, cost=COST
        )
        # L[0] = 2 (compute) + 2*0.5 (send half) = 3 ; L[1] = 1 (recv half)
        # dur = max(3,1) + barrier(2)=8+4 + floor = 16
        assert res.latencies[0] == pytest.approx(16.0)
        assert res.locality[0] == 0.0

    def test_group_includes_message_receiver(self):
        res = simulate_batch(
            _ac([(1, 0, 0, 1)]), _mc([(1, 0, 0, 1, 1)]), k=4, cost=COST
        )
        # L[0] = 2 + 0.5 = 2.5 ; the group is {sender, receiver}: barrier(2)
        # = 8+4 = 12, not barrier(4) = 16 ; dur = 2.5 + 12 + 1
        assert res.latencies[0] == pytest.approx(15.5)


class TestContention:
    """Co-located queries inflate each other's ticks (straggler coupling)."""

    def test_shared_worker_load_added(self):
        ac = _ac([(1, 0, 0, 5), (2, 0, 0, 5)])
        res = simulate_batch(ac, EMPTY_MC, k=2, cost=COST)
        # both queries wait for L[0] = 2*(5+5) = 20, plus floor
        assert res.qids.tolist() == [1, 2]
        assert res.latencies[0] == pytest.approx(21.0)
        assert res.latencies[1] == pytest.approx(21.0)

    def test_separate_workers_no_contention(self):
        ac = _ac([(1, 0, 0, 5), (2, 0, 1, 5)])
        res = simulate_batch(ac, EMPTY_MC, k=2, cost=COST)
        assert res.latencies[0] == pytest.approx(11.0)
        assert res.latencies[1] == pytest.approx(11.0)

    def test_finished_query_stops_paying(self):
        ac = _ac([(1, 0, 0, 1), (2, 0, 1, 1), (2, 1, 1, 1)])
        res = simulate_batch(ac, EMPTY_MC, k=2, cost=COST)
        assert res.latencies[0] == pytest.approx(3.0)   # one tick only
        assert res.latencies[1] == pytest.approx(6.0)


class TestGlobalBarrierMode:
    def test_every_query_waits_for_slowest_worker(self):
        ac = _ac([(1, 0, 0, 1), (2, 0, 1, 10)])
        res = simulate_batch(ac, EMPTY_MC, k=4, cost=COST, mode="global")
        # tick = max L = 20, + barrier(4)=8+8=16, + floor = 37 — for BOTH
        assert res.latencies[0] == pytest.approx(37.0)
        assert res.latencies[1] == pytest.approx(37.0)

    def test_global_slower_than_hybrid_for_local_queries(self):
        ac = _ac([(1, 0, 0, 2), (1, 1, 0, 2)])
        hyb = simulate_batch(ac, EMPTY_MC, k=8, cost=COST, mode="hybrid")
        glo = simulate_batch(ac, EMPTY_MC, k=8, cost=COST, mode="global")
        assert glo.latencies[0] > hyb.latencies[0]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            simulate_batch(_ac([(1, 0, 0, 1)]), EMPTY_MC, k=2, cost=COST, mode="xxx")


class TestMetrics:
    def test_locality_fraction(self):
        ac = _ac([(1, 0, 0, 1), (1, 1, 0, 1)])
        mc = _mc([(1, 0, 0, 1, 1)])  # iter 0 crosses workers, iter 1 local
        res = simulate_batch(ac, mc, k=2, cost=COST)
        assert res.locality[0] == pytest.approx(0.5)

    def test_imbalance_balanced(self):
        ac = _ac([(1, 0, 0, 5), (1, 0, 1, 5)])
        res = simulate_batch(ac, EMPTY_MC, k=2, cost=COST)
        assert res.imbalance == pytest.approx(0.0)

    def test_imbalance_one_sided(self):
        ac = _ac([(1, 0, 0, 10)])
        res = simulate_batch(ac, EMPTY_MC, k=2, cost=COST)
        # totals (10, 0): mean 5, mean abs dev 5 -> 1.0
        assert res.imbalance == pytest.approx(1.0)

    def test_imbalance_function(self):
        assert imbalance(np.array([3.0, 1.0])) == 0.5
        assert imbalance(np.zeros(4)) == 0.0

    def test_worker_totals(self):
        ac = _ac([(1, 0, 0, 3), (1, 1, 1, 4)])
        res = simulate_batch(ac, EMPTY_MC, k=2, cost=COST)
        np.testing.assert_allclose(res.worker_totals, [3.0, 4.0])

    def test_aggregates(self):
        ac = _ac([(1, 0, 0, 1), (2, 0, 1, 1)])
        res = simulate_batch(ac, EMPTY_MC, k=2, cost=COST)
        assert res.sum_latency == pytest.approx(res.latencies.sum())
        assert res.avg_latency == pytest.approx(res.latencies.mean())
        assert res.avg_locality == pytest.approx(1.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            simulate_batch(_ac([]), EMPTY_MC, k=2, cost=COST)

    def test_message_of_query_outside_batch_rejected(self):
        with pytest.raises(ValueError, match=r"outside the batch: \[7\]"):
            simulate_batch(_ac([(1, 0, 0, 1), (3, 0, 1, 1)]),
                           _mc([(7, 0, 0, 1, 1)]), k=2, cost=COST)

    @pytest.mark.parametrize("foreign", ["ac_after", "mc_after", "mc_before"])
    def test_activation_of_query_outside_batch_rejected(self, foreign):
        """The batch's qids are those of ``ac_before``; a row of query 2 is
        rejected in any other report, also where the splice at the switch
        would drop it: an *after* row before tick 1, a *before* row after."""
        reports = {"ac_before": _ac([(1, 0, 0, 1), (1, 1, 0, 1)]), "mc_before": EMPTY_MC,
                   "ac_after": _ac([(1, 0, 0, 1), (1, 1, 0, 1)]), "mc_after": EMPTY_MC}
        reports[foreign] = {"ac_after": _ac([(1, 0, 0, 1), (2, 0, 0, 1), (1, 1, 0, 1)]),
                            "mc_after": _mc([(2, 0, 0, 1, 1)]),
                            "mc_before": _mc([(2, 1, 0, 1, 1)])}[foreign]
        with pytest.raises(ValueError, match=r"outside the batch: \[2\]"):
            simulate_batch_switch(
                *reports.values(), switch_tick=1, switch_overhead=0.0, k=2, cost=COST,
            )


class TestSwitch:
    """Mid-batch repartitioning: a global STOP/START barrier (§3.3 phase 3)."""

    def test_segments_priced_under_their_assignment(self):
        # before: query remote (expensive); after: local (cheap)
        ac_b = _ac([(1, 0, 0, 1), (1, 1, 0, 1)])
        mc_b = _mc([(1, 0, 0, 1, 2), (1, 1, 0, 1, 2)])
        ac_a = _ac([(1, 0, 0, 1), (1, 1, 0, 1)])
        res = simulate_batch_switch(
            ac_b, mc_b, ac_a, EMPTY_MC,
            switch_tick=1, switch_overhead=0.0, k=2, cost=COST,
        )
        # tick0 (before): max(2+1, 1) + 12 + 1 = 16 ; tick1 (after): 2+1 = 3
        assert res.latencies[0] == pytest.approx(19.0)
        assert res.locality[0] == pytest.approx(0.5)

    def test_overhead_charged_to_live_queries_only(self):
        ac = _ac([(1, 0, 0, 1), (2, 0, 1, 1), (2, 1, 1, 1)])
        res = simulate_batch_switch(
            ac, EMPTY_MC, ac, EMPTY_MC,
            switch_tick=1, switch_overhead=100.0, k=2, cost=COST,
        )
        assert res.latencies[0] == pytest.approx(3.0)      # finished before
        assert res.latencies[1] == pytest.approx(6.0 + 100.0)

    def test_switch_at_zero_prices_everything_after(self):
        ac = _ac([(1, 0, 0, 1)])
        res = simulate_batch_switch(
            ac, _mc([(1, 0, 0, 1, 2)]), ac, EMPTY_MC,
            switch_tick=0, switch_overhead=0.0, k=2, cost=COST,
        )
        assert res.locality[0] == 1.0

    def test_switch_beyond_end_is_noop(self):
        ac = _ac([(1, 0, 0, 1)])
        plain = simulate_batch(ac, EMPTY_MC, k=2, cost=COST)
        sw = simulate_batch_switch(
            ac, EMPTY_MC, ac, EMPTY_MC,
            switch_tick=99, switch_overhead=50.0, k=2, cost=COST,
        )
        assert sw.latencies[0] == pytest.approx(plain.latencies[0])
