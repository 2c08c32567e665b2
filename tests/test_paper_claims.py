"""The paper-claim gates of ``benchmarks/bench_t*.py`` as a routine check,
and every table T1–T10 against its golden record under ``results/``.

Each bench function runs as written, with a pass-through ``benchmark`` stub
in place of pytest-benchmark's fixture: the table is computed once, untimed,
and the bench's own asserts gate it. No assert is copied here. Traces go to
the session's trace cache, so every BW table after T1 loads the trace T1
builds; T7 and T8 are views over the phase-1 results T3 priced
(``repro.experiments`` memoises them for the process).

The table's ``rows``, and its ``extras["summary"]`` where it has one, must
then equal ``results/tNN.csv`` and ``results/tNN_summary.csv`` exactly
(``python jobs/all_tables.py`` writes them). The tables depend on numpy's
float reductions (sums, means, cumsums); if another host reads different
last bits here, report it as a finding, do not loosen the comparison.
"""
import importlib
import os
from pathlib import Path

import pandas as pd
import pytest

from jobs._session import result_paths

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


class PassThrough:
    """Stands in for pytest-benchmark's ``benchmark`` fixture; keeps the
    result."""

    result = None

    def pedantic(self, target, **_):
        self.result = target()
        return self.result


def _golden(path: str) -> pd.DataFrame:
    # pandas writes each float in its shortest exact repr, but its default
    # reader can be off in the last bit
    return pd.read_csv(path, float_precision="round_trip")


@pytest.mark.parametrize("name", sorted(p.stem for p in BENCHMARKS.glob("bench_t*.py")))
def test_paper_claim(spark, name):
    module = importlib.import_module(f"benchmarks.{name}")
    [bench] = [fn for attr, fn in vars(module).items() if attr.startswith("test_")]
    stub = PassThrough()
    bench(stub, spark)
    result = stub.result
    rows_path, summary_path = result_paths(result.table)
    pd.testing.assert_frame_equal(result.rows, _golden(rows_path), check_exact=True)
    assert ("summary" in result.extras) == os.path.exists(summary_path)
    if "summary" in result.extras:
        pd.testing.assert_frame_equal(
            result.extras["summary"], _golden(summary_path), check_exact=True)
