"""The numpy :class:`AdaptiveController` against the pandas oracle it
replaced (``tests/controller_reference.py``) on seeded random streams.

Streams hold batches of 1–40 queries, gaps in the batch numbers (some wider
than the window), repartitions whenever the controller asks for one plus
random extra ones, and windows of more than 128 queries. Decisions must be
identical and the window statistics bit-equal; the plan window (monitor
window plus the running batch) must hold the same queries wherever it holds
at most 128.
"""
import numpy as np
import pandas as pd
import pytest

from repro.controller.adaptivity import PLAN_WINDOW_QUERIES, AdaptiveController
from tests.controller_reference import MAX_WINDOW_QUERIES, ReferenceController

K = 4


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _stream(seed: int, n_batches: int = 30):
    """(batch, locality Series, worker totals) per batch, batch numbers
    increasing with gaps; the middle third is a burst of consecutive large
    batches, whose window exceeds 128 queries."""
    rng = np.random.default_rng(seed)
    batch, qid = 0, 0
    for i in range(n_batches):
        burst = n_batches // 3 <= i < 2 * n_batches // 3
        batch += 1 if burst else int(rng.choice([1, 1, 1, 2, 3, 7]))
        n = int(rng.integers(30 if burst else 1, 41))
        qids = np.arange(qid, qid + n)
        qid += n
        # locality on a coarse grid (ties at Φ) or continuous
        loc = (rng.integers(0, 5, n) / 4 if rng.random() < 0.5
               else rng.random(n) ** rng.uniform(0.2, 2.0))
        totals = rng.integers(0, 50, K).astype(float)
        if rng.random() < 0.3:
            totals[rng.integers(K)] += rng.integers(50, 500)  # hot worker
        if rng.random() < 0.05:
            totals[:] = 0.0
        yield batch, pd.Series(loc, index=pd.Index(qids, name="qid")), totals


def _check_window(new: AdaptiveController, ref: ReferenceController, b: int,
                  nxt: np.ndarray) -> bool:
    """Compare the decision and window statistics at ``b``, and the plan
    window with the running batch ``nxt`` if it holds at most 128 queries
    (returns whether it did)."""
    assert new.should_repartition(b) == ref.should_repartition(b)
    assert _bits(new.window_locality(b)) == _bits(ref.window_locality(b))
    assert _bits(new.window_imbalance(b)) == _bits(ref.window_imbalance(b))
    window = np.concatenate([new.window_qids(b), nxt])
    if len(window) <= PLAN_WINDOW_QUERIES:
        want = (ref.window_qids(b) + nxt.tolist())[:MAX_WINDOW_QUERIES]
        assert set(window[-PLAN_WINDOW_QUERIES:].tolist()) == set(want)
        return True
    return False


@pytest.mark.parametrize("seed", range(12))
def test_matches_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    new, ref = AdaptiveController(), ReferenceController()
    decisions, compared, wide = [], 0, 0
    for batch, loc, totals in _stream(seed):
        # analyze on the window up to the previous batch, as run_experiment does
        nxt = loc.index.to_numpy()
        if _check_window(new, ref, batch - 1, nxt):
            compared += 1
        else:
            wide += 1
        decision = new.should_repartition(batch - 1)
        decisions.append(decision)
        if decision or rng.random() < 0.1:
            new.repartitioned(batch)
            ref.repartitioned(batch)
        new.observe_batch(batch, nxt, loc.to_numpy(), totals)
        ref.observe_batch(batch, loc, totals)
        for b in (batch, batch + 3, batch + 6):
            _check_window(new, ref, b, np.empty(0, np.int64))
    # the stream exercises both outcomes and both plan-window regimes
    assert any(decisions) and not all(decisions)
    assert compared and wide


def test_no_stats():
    new, ref = AdaptiveController(), ReferenceController()
    for b in (-1, 0, 5):
        _check_window(new, ref, b, np.empty(0, np.int64))
