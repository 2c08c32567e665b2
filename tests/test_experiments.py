"""Experiment-harness building blocks (full tables run in benchmarks/)."""
import os

import pandas as pd
import pytest

import repro.engine.trace as trace_mod
import repro.experiments as experiments
from repro.controller.simulator import run_experiment
from repro.engine.trace import Trace, cached_trace
from repro.experiments import (
    ALL_TABLES,
    BATCH,
    N_DISTURB,
    N_MAIN,
    poi_workload,
    sssp_workload,
    trace_for,
)
from repro.roadnet.datasets import tiny_grid


class TestWorkloadBuilders:
    def test_sssp_workload_phases(self):
        net = tiny_grid()
        qs = sssp_workload(net, seed=1, n=32, disturb=16)
        assert len(qs) == 48
        assert len({q.qid for q in qs}) == 48
        main_batches = {q.batch for q in qs[:32]}
        disturb_batches = {q.batch for q in qs[32:]}
        assert max(main_batches) < min(disturb_batches)
        # disturbance queries are inter-urban: end outside start city
        for q in qs[32:]:
            assert int(net.vertices.loc[q.end, "city"]) != q.city

    def test_poi_workload(self):
        net = tiny_grid()
        qs = poi_workload(net, seed=2, n=8)
        assert all(q.kind == "poi" for q in qs)

    def test_paper_constants(self):
        assert BATCH == 16          # 16 parallel queries per batch (paper)
        assert N_MAIN % BATCH == 0
        assert N_DISTURB % BATCH == 0

    def test_all_tables_registered(self):
        assert list(ALL_TABLES) == [f"T{i}" for i in range(1, 11)]


class TestTraceCache:
    def test_trace_for_is_cached(self, spark):
        net = tiny_grid()
        qs = sssp_workload(net, seed=3, n=4)
        a = trace_for(spark, net, qs)
        b = trace_for(spark, net, qs)  # second call: loaded from parquet
        assert a.activations.equals(b.activations)
        assert a.final.sort_values(["qid", "vid"]).reset_index(drop=True).equals(
            b.final.sort_values(["qid", "vid"]).reset_index(drop=True)
        )

    def test_max_iters_in_key(self, spark, tmp_path, monkeypatch):
        """Two caps are two entries, even where both traces are complete and
        equal."""
        monkeypatch.setattr(trace_mod, "CACHE_DIR", str(tmp_path))
        net = tiny_grid()
        qs = sssp_workload(net, seed=3, n=4)
        a = trace_for(spark, net, qs, max_iters=80)
        b = trace_for(spark, net, qs, max_iters=150)
        assert a.activations.equals(b.activations) and a.final.equals(b.final)
        assert len(os.listdir(tmp_path)) == 2

    def test_failed_write_leaves_no_entry(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trace_mod, "CACHE_DIR", str(tmp_path))
        t = Trace(
            activations=pd.DataFrame({"qid": [0], "iter": [0], "vid": [1]}),
            messages=pd.DataFrame({"qid": [0], "iter": [0], "src": [1], "dst": [2]}),
            final=pd.DataFrame({"qid": [0], "vid": [1], "dist": [0.0]}),
        )
        builds = []

        def builder():
            builds.append(1)
            return t

        real_to_parquet = pd.DataFrame.to_parquet

        def fail_on_last_file(self, path, *args, **kwargs):
            if path.endswith("final.parquet"):
                raise OSError("disk full")
            return real_to_parquet(self, path, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(pd.DataFrame, "to_parquet", fail_on_last_file)
            with pytest.raises(OSError):
                cached_trace("k", builder)
        assert os.listdir(tmp_path) == []
        got = cached_trace("k", builder)
        assert len(builds) == 2
        assert got.activations.equals(t.activations)
        assert cached_trace("k", builder).final.equals(t.final)
        assert len(builds) == 2


class TestPhase1Memo:
    def test_t7_t8_are_views_over_t3(self, spark, monkeypatch):
        """T3 prices the BW phase-1 workload under the four strategies and
        LDG; T7 and T8 then price nothing, and their tail means are T3's
        tail columns to the last bit."""
        monkeypatch.setattr(experiments, "_FIG5_WORKLOAD", {})
        monkeypatch.setattr(experiments, "_PHASE1", {})
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return run_experiment(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_experiment", counted)
        tables, made = {}, {}
        for name in ("T3", "T7", "T8"):
            before = len(calls)
            tables[name] = ALL_TABLES[name](spark)
            made[name] = len(calls) - before
        assert made == {"T3": 5, "T7": 0, "T8": 0}
        t3 = tables["T3"].rows.set_index("strategy")
        for name, column in (("T7", "imbalance_tail"), ("T8", "locality_tail")):
            tail = tables[name].extras["summary"].set_index("strategy")["tail_mean"]
            assert len(tail) == 4
            assert (tail == t3.loc[tail.index, column]).all()

    def test_t9_prices_nothing(self, spark, monkeypatch):
        """T9 run first reads the phase-1 workload without pricing its
        strategies; T3 after it still prices the four and LDG."""
        monkeypatch.setattr(experiments, "_FIG5_WORKLOAD", {})
        monkeypatch.setattr(experiments, "_PHASE1", {})
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return run_experiment(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_experiment", counted)
        made = {}
        for name in ("T9", "T3"):
            before = len(calls)
            ALL_TABLES[name](spark)
            made[name] = len(calls) - before
        assert made == {"T9": 0, "T3": 5}

    def test_fig5_trace_read_once(self, spark, monkeypatch):
        """T9 and then T1 read the BW Fig-5 trace once: T1 prices the full
        workload, T9 its phase-1 view, both from one memo entry."""
        monkeypatch.setattr(experiments, "_FIG5_WORKLOAD", {})
        monkeypatch.setattr(experiments, "_PHASE1", {})
        calls = []

        def counted(spark, net, queries, **kwargs):
            calls.append((net.name, len(queries)))
            return trace_for(spark, net, queries, **kwargs)

        monkeypatch.setattr(experiments, "trace_for", counted)
        for name in ("T9", "T1"):
            ALL_TABLES[name](spark)
        assert calls == [("bw_lite", N_MAIN + N_DISTURB)]
