"""Vertex→worker assignment (the paper's A function)."""
import numpy as np
import pytest

from repro.cluster.assignment import Assignment


def _mk(n=10, k=4):
    return Assignment(workers=(np.arange(n) % k).astype(np.int32), k=k)


class TestConstruction:
    def test_rejects_out_of_range_worker(self):
        with pytest.raises(ValueError):
            Assignment(workers=np.array([0, 5]), k=4)

    def test_rejects_negative_worker(self):
        with pytest.raises(ValueError):
            Assignment(workers=np.array([0, -1]), k=4)


class TestLookup:
    def test_worker_of_vectorized(self):
        a = _mk(10, 4)
        np.testing.assert_array_equal(a.worker_of([0, 1, 4, 9]), [0, 1, 0, 1])

    def test_vertex_counts(self):
        a = _mk(10, 4)
        np.testing.assert_array_equal(a.vertex_counts(), [3, 3, 2, 2])

    def test_vertex_counts_includes_empty_workers(self):
        a = Assignment(workers=np.zeros(5, dtype=np.int32), k=3)
        np.testing.assert_array_equal(a.vertex_counts(), [5, 0, 0])
