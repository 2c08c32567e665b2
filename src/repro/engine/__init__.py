"""Multi-query vertex-centric BSP engine: one Spark task per shard of queries."""
from repro.engine.pregel import run_queries
from repro.engine.trace import cached_trace

__all__ = ["run_queries", "cached_trace"]
