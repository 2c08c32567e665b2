"""The one-pass ``simulate_batch_switch`` against the two-pass version it
replaced (``tests/switch_reference.py``): bit-identical results on seeded
random batches, each reported under two random assignments of one trace."""
import numpy as np
import pandas as pd
import pytest

import repro.sync.barriers as barriers
from repro.cluster.assignment import Assignment
from repro.cluster.costmodel import CostModel
from repro.controller.stats import TraceStats
from repro.engine.trace import Trace
from tests import switch_reference as ref

# msg_local = 0.05 has no exact binary form, so the tick sums round
COST = CostModel(msg_local=0.05, msg_remote=0.9)
N_VERTICES = 40


def _trace(rng) -> Trace:
    """A few queries of 1–12 supersteps; each superstep activates some
    vertices, and each active vertex messages some random vertices."""
    act, msg = [], []
    for qid in rng.choice(100, int(rng.integers(1, 9)), replace=False):
        for it in range(int(rng.integers(1, 13))):
            for vid in rng.choice(N_VERTICES, int(rng.integers(1, 8)), replace=False):
                act.append((qid, it, vid))
                msg += [(qid, it, vid, dst)
                        for dst in rng.integers(0, N_VERTICES, int(rng.integers(0, 4)))]
    act = np.array(act, dtype=np.int64).reshape(-1, 3)
    msg = np.array(msg, dtype=np.int64).reshape(-1, 4)
    act, msg = act[np.lexsort(act.T[::-1])], msg[np.lexsort(msg.T[::-1])]
    return Trace(activations=pd.DataFrame(act, columns=["qid", "iter", "vid"]),
                 messages=pd.DataFrame(msg, columns=["qid", "iter", "src", "dst"]),
                 final=pd.DataFrame({"qid": [], "vid": [], "dist": []}))


def _reports(rng, stats, k):
    """(ac, mc) under a random assignment, rows shuffled half of the time."""
    a = Assignment(workers=rng.integers(0, k, N_VERTICES), k=k)
    out = []
    for r in (stats.active_counts(a), stats.message_counts(a)):
        if rng.random() < 0.5:
            order = rng.permutation(len(r["qid"]))
            r = {c: v[order] for c, v in r.items()}
        out.append(r)
    return out


@pytest.mark.parametrize("mode", ["hybrid", "global"])
@pytest.mark.parametrize("where", ["start", "mid", "end"])
@pytest.mark.parametrize("seed", range(8))
def test_matches_two_pass(seed, where, mode):
    rng = np.random.default_rng(seed)
    k = int(rng.choice([2, 3, 4, 8]))
    stats = TraceStats(_trace(rng))
    reports = [*_reports(rng, stats, k), *_reports(rng, stats, k)]
    T = int(reports[0]["iter"].max()) + 1
    tick = {"start": 0, "mid": int(rng.integers(1, T)) if T > 1 else 0,
            "end": T + int(rng.integers(0, 3))}[where]
    kw = dict(switch_tick=tick, switch_overhead=float(rng.uniform(1, 50)),
              k=k, cost=COST, mode=mode)
    got = barriers.simulate_batch_switch(*reports, **kw)
    want = ref.simulate_batch_switch(*reports, **kw)
    np.testing.assert_array_equal(got.qids, want.qids)
    np.testing.assert_array_equal(got.latencies, want.latencies)
    np.testing.assert_array_equal(got.locality, want.locality)
    np.testing.assert_array_equal(got.worker_totals, want.worker_totals)
    assert np.float64(got.imbalance).tobytes() == np.float64(want.imbalance).tobytes()


def test_prices_once(monkeypatch):
    rng = np.random.default_rng(0)
    stats = TraceStats(_trace(rng))
    reports = [*_reports(rng, stats, 4), *_reports(rng, stats, 4)]
    calls = []
    price = barriers._price
    monkeypatch.setattr(barriers, "_price", lambda *a, **kw: calls.append(1) or price(*a, **kw))
    barriers.simulate_batch_switch(*reports, switch_tick=2, switch_overhead=1.0, k=4, cost=COST)
    assert len(calls) == 1
