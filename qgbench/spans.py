"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces each layer function at the name the program calls
it by with a wrapper that records a span (name, start, end, parent, Python
CPU time, Spark jobs, and counts taken from the call's result), and puts the
original back on :meth:`Tracer.uninstall`. Untraced runs execute the program
unwrapped.

Spark jobs are counted per span with a job group: the wrapper sets a fresh
group, drains the listener bus after the call and asks the status tracker
for the group's job ids. A span's jobs include those of its child spans.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import repro.controller.adaptivity as adaptivity
import repro.controller.simulator as simulator
import repro.controller.stats as stats
import repro.core.qcut as qcut
import repro.engine.pregel as pregel
import repro.engine.trace as trace
import repro.experiments as experiments


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    cpu_s: float = 0.0
    jobs: int = 0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _engine_counts(args, kwargs, out) -> dict:
    supersteps = int(out.activations["iter"].max()) + 1 if len(out.activations) else 0
    return {"supersteps": supersteps, "activation_rows": len(out.activations),
            "message_rows": len(out.messages)}


def _qcut_counts(args, kwargs, out) -> dict:
    rounds = len(out.history) - 1
    budget_stop = (kwargs.get("time_budget") is not None and out.cost_final > 0
                   and rounds < kwargs.get("max_rounds", 50))
    return {"ils_rounds": rounds, "clusters": len(out.clusters),
            "cost_initial": out.cost_initial, "cost_final": out.cost_final,
            "budget_stops": int(budget_stop)}


def _experiment_counts(args, kwargs, out) -> dict:
    pb = out.per_batch
    return {"repartitions": int(pb["repartitioned"].sum()),
            "moved_vertices": int(pb["moved_vertices"].sum())}


def _decision_counts(args, kwargs, out) -> dict:
    return {"triggers": int(bool(out))}


# (owner, attribute, span name, counts taken from the result)
TARGETS = [
    (pregel, "run_queries", "engine.run_queries", _engine_counts),
    (experiments, "run_queries", "engine.run_queries", _engine_counts),
    (trace.Trace, "save", "engine.trace_save", None),
    (stats.TraceStats, "__init__", "stats.init", None),
    (stats.TraceStats, "close", "stats.close", None),
    (stats.TraceStats, "active_counts", "stats.active_counts", None),
    (stats.TraceStats, "message_counts", "stats.message_counts", None),
    (stats.TraceStats, "scope_vertices", "stats.scope_vertices", None),
    (simulator, "run_experiment", "simulator.run_experiment", _experiment_counts),
    (simulator, "run_qcut", "core.run_qcut", _qcut_counts),
    (qcut, "karger_cluster", "core.karger", None),
    (qcut, "local_search", "core.local_search", None),
    (simulator, "simulate_batch", "sync.simulate_batch", None),
    (simulator, "simulate_batch_switch", "sync.simulate_batch_switch", None),
    (simulator, "initial_assignment", "cluster.initial_assignment", None),
    (adaptivity.AdaptiveController, "should_repartition", "adaptivity.decisions",
     _decision_counts),
]


class Tracer:
    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, counts in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counts))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, time.perf_counter(),
                        self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(idx)
            prev_group = self.sc.getLocalProperty("spark.jobGroup.id")
            group = f"qgbench-span-{idx}"
            self.sc.setJobGroup(group, name)
            cpu0 = time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.cpu_s = time.process_time() - cpu0
                span.end = time.perf_counter()
                self._stack.pop()
                self.sc._jsc.sc().listenerBus().waitUntilEmpty()
                span.jobs += len(self.sc.statusTracker().getJobIdsForGroup(group))
                self.sc.setLocalProperty("spark.jobGroup.id", prev_group)
                if span.parent is not None:
                    parent = self.spans[span.parent]
                    parent.jobs += span.jobs
                    parent.child_s += span.seconds
            if counts is not None:
                span.counts = counts(args, kwargs, out)
            return out
        return traced

    # -- aggregation ------------------------------------------------------
    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.by_name(name))

    def calls(self, name: str) -> int:
        return len(self.by_name(name))

    def total(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.by_name(name))

    def jobs(self, name: str) -> int:
        return sum(s.jobs for s in self.by_name(name))


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced calls: name -> (value, unit). A layer
    that did no work reports 0."""
    def ratio(a, b):
        return a / b if b else 0.0

    supersteps = t.total("engine.run_queries", "supersteps")
    engine_s = t.seconds("engine.run_queries")
    engine_jobs = t.jobs("engine.run_queries")
    qcut_calls = t.calls("core.run_qcut")
    m = {
        "engine.run_queries_s": (engine_s, "s"),
        "engine.supersteps": (supersteps, "count"),
        "engine.s_per_superstep": (ratio(engine_s, supersteps), "s"),
        "engine.spark_jobs": (engine_jobs, "count"),
        "engine.jobs_per_superstep": (ratio(engine_jobs, supersteps), "count"),
        "engine.activation_rows": (t.total("engine.run_queries", "activation_rows"), "count"),
        "engine.message_rows": (t.total("engine.run_queries", "message_rows"), "count"),
        "engine.driver_cpu_s": (sum(s.cpu_s for s in t.by_name("engine.run_queries")), "s"),
        "engine.trace_save_s": (t.seconds("engine.trace_save"), "s"),
        "stats.init_s": (t.seconds("stats.init"), "s"),
        "stats.close_s": (t.seconds("stats.close"), "s"),
    }
    stats_spans = ["stats.init", "stats.close"]
    for name in ("stats.active_counts", "stats.message_counts", "stats.scope_vertices"):
        m[f"{name}_s"] = (t.seconds(name), "s")
        m[f"{name}_calls"] = (t.calls(name), "count")
        stats_spans.append(name)
    m.update({
        "stats.spark_jobs": (sum(t.jobs(n) for n in stats_spans), "count"),
        "core.run_qcut_s": (t.seconds("core.run_qcut"), "s"),
        "core.run_qcut_calls": (qcut_calls, "count"),
        "core.karger_s": (t.seconds("core.karger"), "s"),
        "core.local_search_s": (t.seconds("core.local_search"), "s"),
        "core.local_search_calls": (t.calls("core.local_search"), "count"),
        "core.ils_rounds": (t.total("core.run_qcut", "ils_rounds"), "count"),
        "core.clusters": (ratio(t.total("core.run_qcut", "clusters"), qcut_calls), "count"),
        "core.budget_stops": (t.total("core.run_qcut", "budget_stops"), "count"),
        "core.cost_final_frac": (ratio(t.total("core.run_qcut", "cost_final"),
                                       t.total("core.run_qcut", "cost_initial")), "frac"),
        "simulator.run_experiment_s": (t.seconds("simulator.run_experiment"), "s"),
        "simulator.self_s": (sum(s.seconds - s.child_s
                                 for s in t.by_name("simulator.run_experiment")), "s"),
        "simulator.repartitions": (t.total("simulator.run_experiment", "repartitions"),
                                   "count"),
        "simulator.moved_vertices": (t.total("simulator.run_experiment", "moved_vertices"),
                                     "count"),
    })
    for name in ("sync.simulate_batch", "sync.simulate_batch_switch",
                 "cluster.initial_assignment"):
        m[f"{name}_s"] = (t.seconds(name), "s")
        m[f"{name}_calls"] = (t.calls(name), "count")
    m["adaptivity.decisions"] = (t.calls("adaptivity.decisions"), "count")
    m["adaptivity.triggers"] = (t.total("adaptivity.decisions", "triggers"), "count")
    return m
