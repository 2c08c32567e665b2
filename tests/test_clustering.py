"""Balanced-Karger query clustering (paper Appendix A.1)."""
import numpy as np
import pytest

from repro.core import clustering
from tests.qcut_reference import edges


def _rng(seed=0):
    return np.random.default_rng(seed)


def karger_cluster(qids, overlaps: dict, **kw):
    """The clustering over a {(qa, qb): weight} dict."""
    return clustering.karger_cluster(qids, edges(overlaps), **kw)


class TestContraction:
    def test_disjoint_exhaustive_partition(self):
        qids = [1, 2, 3, 4]
        clusters = karger_cluster(qids, {(1, 2): 5.0}, target=1, rng=_rng())
        flat = sorted(q for c in clusters for q in c)
        assert flat == qids

    def test_overlapping_pairs_merge(self):
        clusters = karger_cluster([1, 2, 3], {(1, 2): 5.0}, target=1, rng=_rng())
        as_sets = [set(c) for c in clusters]
        assert {1, 2} in as_sets
        assert {3} in as_sets

    def test_full_contraction_to_components(self):
        overlaps = {(1, 2): 1.0, (2, 3): 1.0, (4, 5): 1.0}
        clusters = karger_cluster([1, 2, 3, 4, 5, 6], overlaps, target=1, rng=_rng())
        as_sets = [set(c) for c in clusters]
        assert {1, 2, 3} in as_sets
        assert {4, 5} in as_sets
        assert {6} in as_sets

    def test_target_stops_contraction(self):
        overlaps = {(i, i + 1): 1.0 for i in range(1, 10)}
        clusters = karger_cluster(list(range(1, 11)), overlaps, target=5, rng=_rng())
        assert len(clusters) == 5

    def test_no_overlaps_all_singletons(self):
        clusters = karger_cluster([1, 2, 3], {}, target=1, rng=_rng())
        assert sorted(map(len, clusters)) == [1, 1, 1]

    def test_zero_weight_edges_ignored(self):
        clusters = karger_cluster([1, 2], {(1, 2): 0.0}, target=1, rng=_rng())
        assert len(clusters) == 2


class TestMassCap:
    def test_cap_blocks_heavy_merge(self):
        """A merged cluster may not exceed max_mass (the Berlin divisibility
        rule — DESIGN.md / qcut docstring)."""
        overlaps = {(1, 2): 10.0}
        clusters = karger_cluster(
            [1, 2], overlaps, target=1, rng=_rng(),
            masses={1: 60.0, 2: 60.0}, max_mass=100.0,
        )
        assert len(clusters) == 2

    def test_cap_allows_light_merge(self):
        clusters = karger_cluster(
            [1, 2], {(1, 2): 10.0}, target=1, rng=_rng(),
            masses={1: 40.0, 2: 40.0}, max_mass=100.0,
        )
        assert len(clusters) == 1

    def test_cap_splits_hotspot_but_merges_rest(self):
        overlaps = {(1, 2): 9.0, (2, 3): 9.0, (4, 5): 1.0}
        clusters = karger_cluster(
            [1, 2, 3, 4, 5], overlaps, target=1, rng=_rng(),
            masses={1: 50.0, 2: 50.0, 3: 50.0, 4: 5.0, 5: 5.0},
            max_mass=100.0,
        )
        assert any(set(c) == {4, 5} for c in clusters)
        # hotspot 1-2-3 (150 mass) must be split into two clusters
        hot = [c for c in clusters if set(c) & {1, 2, 3}]
        assert len(hot) == 2


class TestDeterminism:
    def test_same_rng_same_clusters(self):
        overlaps = {(i, j): float(i + j) for i in range(1, 8) for j in range(i + 1, 8)}
        a = karger_cluster(list(range(1, 8)), overlaps, target=3, rng=_rng(42))
        b = karger_cluster(list(range(1, 8)), overlaps, target=3, rng=_rng(42))
        assert a == b


class TestValidation:
    def test_rejects_target_zero(self):
        with pytest.raises(ValueError):
            karger_cluster([1], {}, target=0, rng=_rng())

    def test_unknown_qids_in_overlaps_ignored(self):
        clusters = karger_cluster([1, 2], {(1, 99): 5.0}, target=1, rng=_rng())
        assert sorted(map(len, clusters)) == [1, 1]
