"""Multi-query vertex-centric BSP engine: one Spark task per shard of queries."""
from repro.engine.pregel import run_queries
from repro.engine.trace import Trace, cached_trace
from repro.engine.vertex_programs import targets_for

__all__ = ["run_queries", "Trace", "cached_trace", "targets_for"]
