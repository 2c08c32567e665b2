"""Test-only oracle: the two-pass ``simulate_batch_switch`` that
``repro.sync.barriers`` replaced.

It prices the whole batch under the assignment before the switch and again
under the one after, keeps the ticks before ``switch_tick`` of the first and
the rest of the second, and charges the overhead to the queries the *before*
pricing has live at or after the switch.
``tests/test_switch_equivalence.py`` checks the one-pass version against it.
"""
from __future__ import annotations

import numpy as np

from repro.sync.barriers import BatchSimResult, _price, imbalance


def simulate_batch_switch(ac_before, mc_before, ac_after, mc_after, *, switch_tick,
                          switch_overhead, k, cost, mode="hybrid") -> BatchSimResult:
    qids = np.unique(ac_before["qid"])
    dur_b, gs_b, av_b = _price(ac_before, mc_before, qids, k=k, cost=cost, mode=mode)
    dur_a, gs_a, av_a = _price(ac_after, mc_after, qids, k=k, cost=cost, mode=mode)
    T = dur_b.shape[1]
    s = int(min(max(switch_tick, 0), T))
    dur = np.concatenate([dur_b[:, :s], dur_a[:, s:]], axis=1)
    group_size = np.concatenate([gs_b[:, :s], gs_a[:, s:]], axis=1)
    AV = np.concatenate([av_b[:, :s], av_a[:, s:]], axis=1)
    live_at_switch = (gs_b[:, s:] > 0).any(axis=1) if s < T else np.zeros(len(qids), bool)
    dur[live_at_switch, s if s < T else T - 1] += switch_overhead
    live = group_size > 0
    return BatchSimResult(
        qids=qids,
        latencies=dur.sum(axis=1),
        locality=(group_size == 1).sum(axis=1) / np.maximum(live.sum(axis=1), 1),
        imbalance=imbalance(AV.sum(axis=1)),
        worker_totals=AV.sum(axis=1),
    )
