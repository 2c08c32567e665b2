"""Test-only oracle: the pandas :class:`AdaptiveController` that
``repro.controller.adaptivity`` replaced, at the paper's values.

It keeps the window as one DataFrame per batch, concatenates and filters
them on every call, and caps ``window_qids`` at the newest 128 queries
itself; the plan window of a repartition was ``(window_qids(b) +
batch_qids)[:128]``. ``tests/test_controller_equivalence.py`` checks the
numpy controller against it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

PHI = 0.7
IMBALANCE_TRIGGER = 0.5
WINDOW_BATCHES = 6
MAX_WINDOW_QUERIES = 128
COOLDOWN_BATCHES = 0
MIN_WINDOW_QUERIES = 48


@dataclass
class ReferenceController:
    _locality: list[pd.DataFrame] = field(default_factory=list)  # per batch
    _worker_totals: dict[int, np.ndarray] = field(default_factory=dict)
    _last_repartition: int = -10**9

    def observe_batch(self, batch: int, locality: pd.Series, worker_totals) -> None:
        self._locality.append(
            pd.DataFrame({"batch": batch, "qid": locality.index, "locality": locality.values})
        )
        self._worker_totals[batch] = np.asarray(worker_totals, dtype=float)

    def window_qids(self, batch: int) -> list[int]:
        lo = batch - WINDOW_BATCHES + 1
        rows = pd.concat(self._locality, ignore_index=True) if self._locality else pd.DataFrame(
            columns=["batch", "qid", "locality"]
        )
        w = rows[rows["batch"].between(lo, batch)]
        qids = w.sort_values("batch", ascending=False)["qid"].tolist()
        return [int(q) for q in qids[:MAX_WINDOW_QUERIES]]

    def window_locality(self, batch: int) -> float:
        if not self._locality:
            return 1.0
        lo = batch - WINDOW_BATCHES + 1
        rows = pd.concat(self._locality, ignore_index=True)
        w = rows[rows["batch"].between(lo, batch)]
        return float(w["locality"].mean()) if len(w) else 1.0

    def window_imbalance(self, batch: int) -> float:
        lo = batch - WINDOW_BATCHES + 1
        mats = [v for b, v in self._worker_totals.items() if lo <= b <= batch]
        if not mats:
            return 0.0
        totals = np.sum(mats, axis=0)
        if totals.sum() <= 0:
            return 0.0
        return float(np.abs(totals - totals.mean()).mean() / totals.mean())

    def should_repartition(self, batch: int) -> bool:
        if batch - self._last_repartition <= COOLDOWN_BATCHES:
            return False
        if len(self.window_qids(batch)) < MIN_WINDOW_QUERIES:
            return False
        return (
            self.window_locality(batch) < PHI
            or self.window_imbalance(batch) >= IMBALANCE_TRIGGER
        )

    def repartitioned(self, batch: int) -> None:
        self._last_repartition = batch
