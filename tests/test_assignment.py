"""Vertex→worker assignment (paper's A function, Table 2 move requests)."""
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

    def test_n_vertices(self):
        assert _mk(10).n_vertices == 10


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


class TestMove:
    def test_move_vertices(self):
        a = _mk(10, 4)
        b = a.move_vertices([0, 1, 2], 3)
        assert list(b.worker_of([0, 1, 2])) == [3, 3, 3]
        # original untouched (immutability)
        assert list(a.worker_of([0, 1, 2])) == [0, 1, 2]

    def test_move_empty_set(self):
        a = _mk()
        b = a.move_vertices([], 1)
        np.testing.assert_array_equal(a.workers, b.workers)

    def test_move_rejects_bad_worker(self):
        with pytest.raises(ValueError):
            _mk().move_vertices([0], 7)


class TestConversion:
    def test_to_pandas_roundtrip(self):
        a = _mk(6, 2)
        pdf = a.to_pandas()
        assert list(pdf.columns) == ["vid", "worker"]
        np.testing.assert_array_equal(pdf["worker"].to_numpy(), a.workers)
