"""Q-cut solution state: cost function, balance predicate, moves (App. A.1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import QcutState, improving_moves, move_allowed


def _state(ls, vcounts=None, delta=0.25):
    ls = np.asarray(ls, dtype=float)
    if vcounts is None:
        vcounts = np.zeros(ls.shape[1])
    return QcutState(ls, np.asarray(vcounts, dtype=float), delta)


def brute_cost(ls):
    """§3.2.2 cost, computed the slow explicit way."""
    total = 0.0
    for row in np.asarray(ls, dtype=float):
        argmax = int(np.argmax(row))
        total += sum(x for w, x in enumerate(row) if w != argmax)
    return total


class TestCost:
    def test_zero_when_all_local(self):
        assert _state([[5, 0], [0, 3]]).cost() == 0.0

    def test_counts_vertices_off_argmax(self):
        assert _state([[5, 2], [1, 3]]).cost() == 3.0

    def test_matches_paper_example(self):
        """Two workers executing two queries independently → zero cost."""
        assert _state([[10, 0], [0, 20]]).cost() == 0.0

    @given(
        st.lists(
            st.lists(st.integers(0, 50), min_size=3, max_size=3),
            min_size=1, max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, ls):
        assert _state(ls).cost() == pytest.approx(brute_cost(ls))

    def test_empty_state(self):
        s = _state(np.zeros((0, 3)))
        assert s.cost() == 0.0


class TestMoveDelta:
    @given(
        st.lists(
            st.lists(st.integers(0, 6), min_size=4, max_size=4),
            min_size=1, max_size=5,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_delta_matches_recompute(self, ls):
        """Every move whose recomputed cost change is negative is listed,
        in (w, w2) order, with that change (small values: many tied row
        maxima); no other move is."""
        s = _state(ls)
        for c in range(len(s.ls)):
            want = []
            for w, w2 in np.ndindex(s.k, s.k):
                if w == w2:
                    continue
                t = s.copy()
                t.move(c, w, w2)
                if t.cost() < s.cost():
                    want.append((t.cost() - s.cost(), w, w2))
            assert improving_moves(s.ls[c].tolist()) == want

    def test_tied_row_maximum(self):
        # cost 11 - 5: fusing the tied maxima costs 1, moving onto the 1 costs 5
        got = {(w, w2): d for d, w, w2 in improving_moves([5.0, 5.0, 1.0])}
        assert got[0, 1] == got[1, 0] == -5
        assert got[0, 2] == got[2, 0] == -1


class TestMove:
    def test_merges_scopes(self):
        s = _state([[4, 6, 0]])
        s.move(0, 0, 1)
        np.testing.assert_allclose(s.ls[0], [0, 10, 0])

    def test_updates_workload_by_scope_size(self):
        """Algorithm 2 line 15: L_w -= x, L_w' += x."""
        s = _state([[4, 0]], vcounts=[10, 10])
        l0 = s.L.copy()
        s.move(0, 0, 1)
        assert s.L[0] == l0[0] - 4
        assert s.L[1] == l0[1] + 4

    def test_noop_moves(self):
        s = _state([[4, 0]])
        before = s.ls.copy()
        s.move(0, 1, 0)  # empty source scope
        s.move(0, 0, 0)  # same worker
        np.testing.assert_allclose(s.ls, before)

    def test_origins_track_chained_moves(self):
        s = _state([[4, 3, 0]])
        s.move(0, 0, 2)
        s.move(0, 2, 1)
        assert s.origins[0] == {0: 1, 1: 1}

    def test_copy_is_independent(self):
        s = _state([[4, 3]])
        t = s.copy()
        t.move(0, 0, 1)
        assert s.ls[0, 0] == 4
        assert s.origins[0] == {0: 0, 1: 1}


class TestBalance:
    def test_move_allowed_formula(self):
        """|(L_w - x) - (L_w' + x)| / max(...) < delta (Alg. 2 line 15)."""
        # L = [10, 5]; moving 10: L_w = 0, L_w' = 15 -> deviation 1.0
        assert not move_allowed([10.0, 5.0], 0, 1, 10.0, 0.25)

    def test_move_allowed_passes_small_move(self):
        # L = [6, 6]; moving 2 gives (4, 8): deviation exactly 0.5
        assert move_allowed([6.0, 6.0], 0, 1, 2.0, 0.6)
        assert not move_allowed([6.0, 6.0], 0, 1, 2.0, 0.5)
        # symmetric small move keeps deviation below delta
        assert move_allowed([6.0, 6.0], 1, 0, 2.0, 0.6)

    def test_move_not_allowed_same_worker_or_empty(self):
        assert not move_allowed([5.0, 0.0], 0, 0, 5.0, 0.25)
        assert not move_allowed([5.0, 0.0], 1, 0, 0.0, 0.25)

    @given(
        st.lists(
            st.lists(st.integers(0, 20), min_size=3, max_size=3),
            min_size=1, max_size=4,
        ),
        st.lists(st.integers(0, 30), min_size=3, max_size=3),
        st.sampled_from([0.1, 0.25, 0.9]),
    )
    @settings(max_examples=80, deadline=None)
    def test_mask_matches_formula(self, ls, vcounts, delta):
        """The predicate is Alg. 2 line 15 for each (c, w, w2) move."""
        s = _state(ls, vcounts, delta)
        for c, w, w2 in np.ndindex(len(s.ls), s.k, s.k):
            x = s.ls[c, w]
            lw, lw2 = s.L[w] - x, s.L[w2] + x
            m = max(lw, lw2)
            want = w != w2 and x > 0 and (m <= 0 or abs(lw - lw2) / m < delta)
            assert move_allowed(s.L.tolist(), w, w2, float(x), delta) == want

    def test_is_balanced_all_pairs(self):
        assert _state([[0, 0]], vcounts=[10, 10]).is_balanced()
        assert not _state([[8, 0]], vcounts=[2, 2], delta=0.25).is_balanced()

    def test_is_balanced_empty(self):
        assert _state([[0, 0]], vcounts=[0, 0]).is_balanced()


class TestSpread:
    def test_spread_clusters(self):
        s = _state([[5, 0, 0], [3, 2, 0], [1, 1, 1]])
        np.testing.assert_array_equal(s.spread_clusters(), [1, 2])


class TestValidation:
    def test_rejects_1d_ls(self):
        with pytest.raises(ValueError):
            QcutState(np.zeros(3), np.zeros(3), 0.25)

    def test_rejects_mismatched_vcounts(self):
        with pytest.raises(ValueError):
            QcutState(np.zeros((2, 3)), np.zeros(2), 0.25)
