"""MAPE-loop adaptivity policy (paper §3.4), at the shipped constants:
Φ = 0.7, trigger 2δ = 0.5, a 6-batch window, at least 48 window queries."""
import numpy as np
import pytest

from repro.controller.adaptivity import (
    DELTA,
    IMBALANCE_TRIGGER,
    MIN_WINDOW_QUERIES,
    PHI,
    PLAN_WINDOW_QUERIES,
    WINDOW_BATCHES,
    AdaptiveController,
)

BALANCED = np.array([1.0, 1.0])


def _loc(qids, value):
    """(qids, locality) of a batch whose queries all have locality ``value``."""
    return np.array(qids, dtype=np.int64), np.full(len(qids), float(value))


def _batch_qids(batch, n=16):
    return list(range(batch * n, (batch + 1) * n))


def _ctrl(n_batches, locality, totals=BALANCED, n=16):
    """A controller that observed batches 0..n_batches-1 of ``n`` queries."""
    c = AdaptiveController()
    for b in range(n_batches):
        c.observe_batch(b, *_loc(_batch_qids(b, n), locality), totals)
    return c


class TestWindow:
    def test_window_qids_tumbling(self):
        c = _ctrl(WINDOW_BATCHES + 2, 1.0)
        want = [q for b in range(2, WINDOW_BATCHES + 2) for q in _batch_qids(b)]
        assert c.window_qids(WINDOW_BATCHES + 1).tolist() == want  # last 6 batches

    def test_window_qids_uncapped(self):
        """The 128-query cap applies to the plan window, not to the monitor
        window: six batches of 40 queries all count."""
        c = _ctrl(WINDOW_BATCHES, 1.0, n=40)
        assert len(c.window_qids(WINDOW_BATCHES - 1)) == 40 * WINDOW_BATCHES > PLAN_WINDOW_QUERIES

    def test_window_locality_mean(self):
        c = AdaptiveController()
        c.observe_batch(0, *_loc([1, 2], 0.2), BALANCED)
        c.observe_batch(1, *_loc([3, 4], 0.6), BALANCED)
        assert c.window_locality(1) == pytest.approx(0.4)
        # batch 0 leaves the window once WINDOW_BATCHES newer batches exist
        assert c.window_locality(WINDOW_BATCHES) == pytest.approx(0.6)

    def test_window_locality_no_stats(self):
        assert AdaptiveController().window_locality(0) == 1.0

    def test_window_imbalance_sums_before_deviation(self):
        c = AdaptiveController()
        # alternating hot workers: individually imbalanced, summed balanced
        c.observe_batch(0, *_loc([1], 1.0), np.array([10.0, 0.0]))
        c.observe_batch(1, *_loc([2], 1.0), np.array([0.0, 10.0]))
        assert c.window_imbalance(1) == pytest.approx(0.0)

    def test_window_imbalance_hot_worker(self):
        c = AdaptiveController()
        c.observe_batch(0, *_loc([1], 1.0), np.array([10.0, 0.0]))
        assert c.window_imbalance(0) == pytest.approx(1.0)

    def test_window_imbalance_empty(self):
        assert AdaptiveController().window_imbalance(5) == 0.0


class TestTrigger:
    # three batches of 16 queries fill the window to MIN_WINDOW_QUERIES = 48
    def test_low_locality_triggers(self):
        assert _ctrl(3, 0.1).should_repartition(2)

    def test_high_locality_balanced_does_not_trigger(self):
        assert not _ctrl(3, 0.95, np.array([5.0, 5.0])).should_repartition(2)

    def test_locality_threshold_is_strict(self):
        assert not _ctrl(3, PHI).should_repartition(2)

    def test_imbalance_triggers_even_when_local(self):
        """Balance violations make the partitioning suboptimal too (Fig. 6e:
        Q-cut always ensures workload balance)."""
        assert _ctrl(3, 1.0, np.array([20.0, 0.0])).should_repartition(2)
        # imbalance exactly 2δ = 0.5 triggers: totals 3 and 1
        assert _ctrl(3, 1.0, np.array([3.0, 1.0])).should_repartition(2)
        assert not _ctrl(3, 1.0, np.array([2.9, 1.0])).should_repartition(2)

    def test_cooldown_blocks(self):
        """No repartition in the batch right after one; the next may."""
        c = _ctrl(4, 0.0)
        c.repartitioned(3)
        assert not c.should_repartition(3)
        c.observe_batch(4, *_loc(_batch_qids(4), 0.0), BALANCED)
        assert c.should_repartition(4)

    def test_min_window_queries_gate(self):
        c = _ctrl(2, 0.0)
        assert not c.should_repartition(1)  # 32 queries of stats
        c.observe_batch(2, *_loc(list(range(32, 47)), 0.0), BALANCED)
        assert not c.should_repartition(2)  # 47
        c.observe_batch(3, *_loc([47], 0.0), BALANCED)
        assert c.should_repartition(3)      # 48

    def test_defaults_match_paper(self):
        assert PHI == 0.7
        assert DELTA == 0.25
        assert IMBALANCE_TRIGGER == 2 * DELTA
        assert PLAN_WINDOW_QUERIES == 128
        assert MIN_WINDOW_QUERIES == 48
        # a full window of 16-query batches plus the running one fits the cap
        assert (WINDOW_BATCHES + 1) * 16 <= PLAN_WINDOW_QUERIES
