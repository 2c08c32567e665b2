"""Q-cut ILS: local search, perturbation, rebalance, full runs (App. A)."""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qcut import QcutInput, local_search, perturb, rebalance, run_qcut
from repro.core.state import QcutState
from tests.qcut_reference import edges


def _state(ls, vcounts=None, delta=0.25):
    ls = np.asarray(ls, dtype=float)
    if vcounts is None:
        vcounts = np.zeros(ls.shape[1])
    return QcutState(ls, np.asarray(vcounts, dtype=float), delta)


def random_instance(rng, n_clusters=6, k=4, scale=20):
    ls = rng.integers(0, scale, (n_clusters, k)).astype(float)
    vcounts = rng.integers(10, 50, k).astype(float)
    return ls, vcounts


class TestLocalSearch:
    def test_fuses_spread_query_when_balanced(self):
        s = _state([[5, 5]], vcounts=[100, 100], delta=0.25)
        out = local_search(s)
        assert out.cost() == 0.0

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        for i in range(10):
            ls, vc = random_instance(rng)
            s = _state(ls, vc, delta=0.8)
            before = s.cost()
            assert local_search(s).cost() <= before

    def test_respects_balance_predicate(self):
        # moving the only scope would unbalance the pair → blocked
        s = _state([[10, 2]], vcounts=[0, 0], delta=0.1)
        out = local_search(s)
        assert out.ls[0, 0] == 10  # big scope can't move under tight delta

    def test_local_minimum_is_fixed_point(self):
        rng = np.random.default_rng(1)
        ls, vc = random_instance(rng)
        s = local_search(_state(ls, vc, delta=0.8))
        again = local_search(s.copy())
        assert again.cost() == pytest.approx(s.cost())


class TestRebalance:
    def test_enters_balanced_space(self):
        s = _state([[40, 0], [40, 0], [40, 0], [40, 0]], vcounts=[0, 0], delta=0.3)
        assert not s.is_balanced()
        assert not rebalance(s, np.random.default_rng(0))
        assert s.is_balanced()

    def test_noop_when_already_balanced(self):
        s = _state([[5, 5]], vcounts=[50, 50], delta=0.5)
        ls_before = s.ls.copy()
        assert not rebalance(s, np.random.default_rng(0))
        np.testing.assert_allclose(s.ls, ls_before)

    def test_terminates_when_impossible(self):
        # one atomic scope cannot be balanced: it ping-pongs until the cap,
        # and after an even number of moves it is back where it started
        s = _state([[100, 0]], vcounts=[0, 0], delta=0.1)
        assert rebalance(s, np.random.default_rng(0), max_moves=50)
        assert not s.is_balanced()
        np.testing.assert_array_equal(s.ls, [[100, 0]])
        np.testing.assert_array_equal(s.L, [50, 0])
        assert s.origins == [{0: 0}]
        s = _state([[100, 0]], vcounts=[0, 0], delta=0.1)
        assert rebalance(s, np.random.default_rng(0), max_moves=49)
        np.testing.assert_array_equal(s.ls, [[0, 100]])
        assert s.origins == [{0: 1}]

    def test_cap_counted_in_result(self):
        inp = QcutInput(qids=[1], ls=np.array([[100.0, 0.0]]), vcounts=np.zeros(2))
        assert run_qcut(inp, delta=0.1, seed=0).rebalance_capped == 1
        inp = QcutInput(qids=[1, 2], ls=np.array([[5.0, 0.0], [0.0, 5.0]]), vcounts=np.zeros(2))
        assert run_qcut(inp, delta=0.1, seed=0).rebalance_capped == 0


class TestPerturb:
    def test_fuses_selected_cluster_scopes(self):
        s = _state([[5, 5, 0]], vcounts=[100, 100, 100], delta=0.9)
        out, _ = perturb(s, np.random.default_rng(0))
        assert (out.ls[0] > 0).sum() == 1  # all scopes on one worker

    def test_target_is_argmax_worker(self):
        s = _state([[2, 9, 3]], vcounts=[100, 100, 100], delta=0.9)
        out, _ = perturb(s, np.random.default_rng(0))
        assert out.ls[0, 1] == 14.0

    def test_does_not_mutate_input(self):
        s = _state([[5, 5]], vcounts=[100, 100], delta=0.9)
        before = s.ls.copy()
        perturb(s, np.random.default_rng(0))
        np.testing.assert_allclose(s.ls, before)

    def test_noop_when_everything_local(self):
        s = _state([[5, 0], [0, 5]], vcounts=[10, 10], delta=0.9)
        out, capped = perturb(s, np.random.default_rng(0))
        np.testing.assert_allclose(out.ls, s.ls)
        assert not capped


class TestRunQcut:
    def _input(self, ls, vcounts, overlaps=None, qids=None):
        ls = np.asarray(ls, dtype=float)
        return QcutInput(
            qids=qids or list(range(1, len(ls) + 1)),
            ls=ls,
            vcounts=np.asarray(vcounts, dtype=float),
            overlaps=edges(overlaps or {}),
        )

    def test_perfect_split_two_workers(self):
        """The paper's Figure 3 example: two spread queries fuse on separate
        workers with zero final cost."""
        inp = self._input([[6, 4], [4, 6]], [100, 100])
        res = run_qcut(inp, max_rounds=20, seed=0)
        assert res.cost_final == 0.0
        assert res.cost_initial == 8.0

    def test_cost_never_increases(self):
        rng = np.random.default_rng(3)
        for i in range(5):
            ls = rng.integers(0, 20, (8, 4)).astype(float)
            inp = self._input(ls, rng.integers(50, 100, 4))
            res = run_qcut(inp, max_rounds=10, seed=i)
            assert res.cost_final <= res.cost_initial
            assert res.history == sorted(res.history, reverse=True)

    def test_placement_keys_are_initial_scopes(self):
        ls = np.array([[6.0, 4.0], [0.0, 6.0]])
        inp = self._input(ls, [100, 100])
        res = run_qcut(inp, max_rounds=10, seed=0)
        keys = {(c, w) for c, qs in enumerate(res.clusters)
                for w in range(2) if ls[[q - 1 for q in qs], w].sum() > 0}
        assert set(res.cluster_placement) == keys
        assert all(0 <= w_to < 2 for w_to in res.cluster_placement.values())

    def test_overlapping_queries_clustered_together(self):
        # combined mass (8) stays under the (1+delta)/k cap of 17*1.25/2
        inp = self._input(
            [[4, 0], [4, 0], [0, 9]], [100, 100], overlaps={(1, 2): 4.0}
        )
        res = run_qcut(inp, max_rounds=5, seed=0)
        as_sets = [set(c) for c in res.clusters]
        assert {1, 2} in as_sets

    def test_mass_cap_keeps_hotspot_divisible(self):
        # a hotspot community over the cap must remain in >= 2 clusters
        inp = self._input(
            [[8, 0], [8, 0], [8, 0]], [10, 10],
            overlaps={(1, 2): 8.0, (2, 3): 8.0, (1, 3): 8.0},
        )
        res = run_qcut(inp, max_rounds=5, seed=0)
        hot = [c for c in res.clusters if set(c) & {1, 2, 3}]
        assert len(hot) >= 2

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(9)
        ls = rng.integers(0, 20, (6, 4)).astype(float)
        inp = self._input(ls, [100] * 4)
        a = run_qcut(inp, max_rounds=15, seed=5)
        b = run_qcut(inp, max_rounds=15, seed=5)
        assert a.cluster_placement == b.cluster_placement
        assert a.history == b.history

    def test_clock_does_not_stop_the_search(self, monkeypatch):
        """The round cap is the only stop rule besides cost 0: a clock that
        jumps 10 s per read changes neither the history nor the placement."""
        rng = np.random.default_rng(9)
        inp = self._input(rng.integers(0, 20, (6, 4)).astype(float), [100] * 4)
        want = run_qcut(inp, max_rounds=15, seed=5)
        assert len(want.history) > 1
        now = iter(range(0, 10**6, 10))
        monkeypatch.setattr(time, "monotonic", lambda: float(next(now)))
        got = run_qcut(inp, max_rounds=15, seed=5)
        assert got.history == want.history
        assert got.cluster_placement == want.cluster_placement
        assert got.ils_s > 0

    def test_perturbation_steps_recorded(self):
        rng = np.random.default_rng(11)
        ls = rng.integers(1, 20, (8, 4)).astype(float)
        inp = self._input(ls, [100] * 4)
        res = run_qcut(inp, max_rounds=10, seed=0)
        assert all(0 < s <= len(res.history) for s in res.perturbation_steps)

    def test_final_balance_recorded(self):
        # one spread query fuses at cost 0, which moves its whole scope to
        # one worker: loads (2.5, 2.5) become (7.5, -2.5), as A.1 counts them
        inp = QcutInput(qids=[1], ls=np.array([[5.0, 5.0]]), vcounts=np.zeros(2))
        res = run_qcut(inp, delta=0.1, seed=0)
        assert res.cost_final == 0.0
        assert res.balanced is False
        assert res.load_spread == pytest.approx(10 / 7.5)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            run_qcut(QcutInput(qids=[1], ls=np.zeros((2, 2)), vcounts=np.zeros(2)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_instances_balanced_result(self, seed):
        rng = np.random.default_rng(seed)
        ls = rng.integers(0, 15, (6, 4)).astype(float)
        if ls.sum() == 0:
            return
        inp = self._input(ls, rng.integers(20, 60, 4))
        res = run_qcut(inp, max_rounds=8, seed=seed)
        assert res.cost_final <= res.cost_initial
        assert res.balanced == (res.load_spread < 0.25)
