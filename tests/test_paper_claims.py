"""The paper-claim gates of ``benchmarks/bench_t*.py`` as a routine check.

Each bench function runs as written, with a pass-through ``benchmark`` stub
in place of pytest-benchmark's fixture: the table is computed once, untimed,
and the bench's own asserts gate it. No assert is copied here. Traces go to
the session's trace cache, so T3, T7, T8 and T9 reuse the BW trace T1
builds.
"""
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


class PassThrough:
    """Stands in for pytest-benchmark's ``benchmark`` fixture."""

    def pedantic(self, target, **_):
        return target()


@pytest.mark.parametrize("name", sorted(p.stem for p in BENCHMARKS.glob("bench_t*.py")))
def test_paper_claim(spark, name):
    module = importlib.import_module(f"benchmarks.{name}")
    [bench] = [fn for attr, fn in vars(module).items() if attr.startswith("test_")]
    bench(PassThrough(), spark)
