"""BSP engine correctness vs Dijkstra and the frontier replay, trace
invariants, query independence, truncation, shipping the kernel to workers
and the engine's Spark job count."""
import dataclasses
import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest
from pyspark import cloudpickle

import repro.engine.trace as trace_mod
from repro.engine import pregel, run_queries
from repro.engine.trace import Trace, workload_key
from repro.experiments import trace_for
from repro.queries.workload import Query, hotspot_queries
from repro.roadnet.datasets import bw_lite, tiny_grid

from tests.reference import dijkstra, nearest_tagged


@pytest.fixture(scope="module")
def net():
    return tiny_grid()


@pytest.fixture(scope="module")
def workload(net):
    qs = hotspot_queries(net, n_queries=10, batch_size=5, seed=21)
    qs += hotspot_queries(net, n_queries=4, batch_size=2, kind="poi", seed=22,
                          qid_offset=100, batch_offset=10)
    qs += hotspot_queries(net, n_queries=4, batch_size=4, inter_urban=True,
                          seed=23, qid_offset=200, batch_offset=20)
    return qs


@pytest.fixture(scope="module")
def trace(spark, net, workload) -> Trace:
    return run_queries(spark, None, workload, net, max_iters=80)


@pytest.fixture(scope="module")
def counted_run(spark, net, workload) -> tuple[Trace, int]:
    """A second run of the workload and the number of Spark jobs it ran,
    counted with a job group as ``qgbench/spans.py`` counts them."""
    sc = spark.sparkContext
    prev = sc.getLocalProperty("spark.jobGroup.id")
    sc.setJobGroup("test-engine-jobs", "run_queries")
    try:
        out = run_queries(spark, None, workload, net, max_iters=80)
    finally:
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        sc.setLocalProperty("spark.jobGroup.id", prev)
    return out, len(sc.statusTracker().getJobIdsForGroup("test-engine-jobs"))


@pytest.fixture(scope="module")
def reference():
    """``qgbench/reference.py``, the numpy frontier-BSP replay, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "qgbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("qgbench_reference", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


class TestSSSPCorrectness:
    def test_target_distances_exact(self, net, workload, trace):
        fin = trace.final.set_index(["qid", "vid"])["dist"]
        truth = {}
        for q in workload:
            if q.kind != "sssp":
                continue
            if q.start not in truth:
                truth[q.start] = dijkstra(net, q.start)
            got = fin.get((q.qid, q.end), float("inf"))
            assert got == pytest.approx(truth[q.start].get(q.end, float("inf"))), (
                f"query {q.qid}: wrong distance to end vertex"
            )

    def test_all_final_distances_admissible(self, net, workload, trace):
        """Tentative distances never undercut the true shortest distance."""
        fin = trace.final
        for q in workload[:4]:
            truth = dijkstra(net, q.start)
            sub = fin[fin["qid"] == q.qid]
            for vid, dist in zip(sub["vid"], sub["dist"]):
                assert dist >= truth.get(int(vid), float("inf")) - 1e-9


class TestPOICorrectness:
    def test_nearest_tag_distance_exact(self, net, workload, trace):
        tags = set(net.vertices.loc[net.vertices["tag"], "vid"].tolist())
        fin = trace.final
        for q in workload:
            if q.kind != "poi":
                continue
            sub = fin[(fin["qid"] == q.qid) & (fin["vid"].isin(tags))]
            got = sub["dist"].min() if len(sub) else float("inf")
            assert got == pytest.approx(nearest_tagged(net, q.start))


class TestTraceInvariants:
    def test_iteration_zero_is_start_vertices(self, workload, trace):
        it0 = trace.activations[trace.activations["iter"] == 0]
        starts = {q.qid: q.start for q in workload}
        assert dict(zip(it0["qid"], it0["vid"])) == starts

    def test_message_sources_are_active(self, trace):
        act = set(map(tuple, trace.activations[["qid", "iter", "vid"]].to_numpy()))
        msg_src = set(map(tuple, trace.messages[["qid", "iter", "src"]].to_numpy()))
        assert msg_src <= act

    def test_activations_follow_messages(self, trace):
        """A vertex active in iteration i>0 received a message in i-1."""
        act = trace.activations
        later = act[act["iter"] > 0]
        received = set(
            map(tuple, (trace.messages[["qid", "iter", "dst"]]
                        .assign(iter=lambda d: d["iter"] + 1)).to_numpy())
        )
        got = set(map(tuple, later[["qid", "iter", "vid"]].to_numpy()))
        assert got <= received

    def test_every_query_terminates(self, workload, trace):
        assert set(trace.activations["qid"]) == {q.qid for q in workload}
        assert (trace.activations.groupby("qid")["iter"].max() + 1).max() < 80

    def test_iters_contiguous_per_query(self, trace):
        for qid, grp in trace.activations.groupby("qid"):
            iters = sorted(grp["iter"].unique())
            assert iters == list(range(len(iters)))

    def test_no_duplicate_activations(self, trace):
        assert not trace.activations.duplicated(["qid", "iter", "vid"]).any()

    def test_messages_follow_graph_edges(self, net, trace):
        edges = set(zip(net.edges["src"], net.edges["dst"]))
        pairs = set(zip(trace.messages["src"], trace.messages["dst"]))
        assert pairs <= edges

    def test_columns_and_dtypes(self, trace):
        """The cached parquet layout: columns in this order, all 64-bit."""
        def layout(df):
            return [(c, str(t)) for c, t in df.dtypes.items()]

        assert layout(trace.activations) == [
            ("qid", "int64"), ("iter", "int64"), ("vid", "int64")]
        assert layout(trace.messages) == [
            ("qid", "int64"), ("iter", "int64"), ("src", "int64"), ("dst", "int64")]
        assert layout(trace.final) == [
            ("qid", "int64"), ("vid", "int64"), ("dist", "float64")]

    @pytest.mark.parametrize("name, keys", [
        ("activations", ["qid", "iter", "vid"]),
        ("messages", ["qid", "iter", "src", "dst"]),
        ("final", ["qid", "vid"]),
    ])
    def test_frames_sorted_by_key(self, trace, name, keys):
        """Each frame is in the canonical order ``run_queries`` documents,
        with a fresh 0..n-1 index."""
        df = getattr(trace, name)
        assert pd.MultiIndex.from_frame(df[keys]).is_monotonic_increasing
        assert df.index.equals(pd.RangeIndex(len(df)))

    def test_restrict(self, trace, workload):
        qids = [workload[0].qid, workload[1].qid]
        sub = trace.restrict(qids)
        assert set(sub.activations["qid"]) == set(qids)
        assert set(sub.final["qid"]) <= set(qids) | set(sub.final["qid"])

    def test_determinism(self, trace, counted_run):
        again, _ = counted_run
        a = trace.activations.sort_values(["qid", "iter", "vid"]).reset_index(drop=True)
        b = again.activations.sort_values(["qid", "iter", "vid"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def assert_same_trace(got: Trace, want: Trace) -> None:
    for name in ("activations", "messages", "final"):
        g, w = (getattr(t, name).reset_index(drop=True) for t in (got, want))
        assert g.equals(w), name


class TestQueryIndependence:
    """A query's trace is the one it has when run alone, whatever runs with
    it and in which order: T3/T7/T8 restrict one traced workload to its
    first phase, and the engine shards the queries."""

    def test_subset_runs_alone(self, spark, net, workload, trace):
        subset = workload[::3]
        alone = run_queries(spark, None, subset, net, max_iters=80)
        assert_same_trace(trace.restrict([q.qid for q in subset]), alone)

    def test_query_order(self, spark, net, workload, trace):
        again = run_queries(spark, None, workload[::-1], net, max_iters=80)
        assert_same_trace(again, trace)


class TestTruncation:
    def test_cut_trace_is_prefix(self, spark, net, workload, trace):
        """Cut at ``max_iters``, the trace is the first supersteps of the
        full one, and its final state is the state after the last superstep:
        the starts and the receivers of its messages, none closer than at
        convergence."""
        cut = run_queries(spark, None, workload, net, max_iters=3)
        for name in ("activations", "messages"):
            full = getattr(trace, name)
            assert getattr(cut, name).equals(full[full["iter"] < 3].reset_index(drop=True))
        reached = {(q.qid, q.start) for q in workload}
        reached |= set(zip(cut.messages["qid"], cut.messages["dst"]))
        assert set(zip(cut.final["qid"], cut.final["vid"])) == reached
        converged = trace.final.set_index(["qid", "vid"])["dist"]
        assert (cut.final["dist"].to_numpy()
                >= converged.loc[list(zip(cut.final["qid"], cut.final["vid"]))].to_numpy()).all()

    def test_truncated_qids(self, spark, net, workload, trace):
        """``truncated`` lists, sorted, the queries the full trace has
        active at iteration 3 or later; it is empty for a complete trace."""
        cut = run_queries(spark, None, workload, net, max_iters=3)
        late = np.unique(trace.activations.loc[trace.activations["iter"] >= 3, "qid"])
        assert len(late) and cut.truncated.dtype == np.int64
        assert np.array_equal(cut.truncated, late)
        assert trace.truncated.dtype == np.int64 and len(trace.truncated) == 0
        keep = [int(late[0]), next(q.qid for q in workload if q.qid not in set(late))]
        assert cut.restrict(keep).truncated.tolist() == [int(late[0])]

    def test_truncated_trace_not_cached(self, spark, net, workload, trace, tmp_path,
                                        monkeypatch):
        """``trace_for`` raises on a cut trace, naming the queries still
        active, and leaves no cache entry."""
        monkeypatch.setattr(trace_mod, "CACHE_DIR", str(tmp_path))
        late = np.unique(trace.activations.loc[trace.activations["iter"] >= 3, "qid"])
        with pytest.raises(RuntimeError, match=rf"queries \[{', '.join(map(str, late))}\]"):
            trace_for(spark, net, workload, max_iters=3)
        assert os.listdir(tmp_path) == []


class TestShipping:
    def test_task_runs_without_repro(self, net, workload, tmp_path):
        """A Python worker needs only numpy: the task unpickles and runs in a
        process that can import neither ``repro`` nor pandas nor pyarrow."""
        task = pregel._shard_task(net, workload[:5], 2, 80)
        (tmp_path / "task.pkl").write_bytes(cloudpickle.dumps(task))
        script = (
            "import pickle, sys\n"
            "for name in ('repro', 'pandas', 'pyarrow'):\n"
            "    sys.modules[name] = None  # any import of it fails\n"
            "task = pickle.load(open('task.pkl', 'rb'))\n"
            "pickle.dump(list(task(iter([1]))), open('out.pkl', 'wb'))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        (got,) = pickle.loads((tmp_path / "out.pkl").read_bytes())
        (want,) = task(iter([1]))
        assert len(got) == len(want) == 5 and len(got[0][0])
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


class TestReference:
    """The trace equals the independent numpy frontier replay: the same
    activations and messages per (qid, iter), the same final state, and
    Dijkstra's distance at each query's nearest target."""

    def _bad_qids(self, reference, trace, net, queries, max_iters):
        return reference.check_trace(
            trace, net, queries, reference.replay(net, queries),
            reference.dijkstra_targets(net, queries), max_iters=max_iters)

    def test_tiny_grid(self, reference, net, workload, trace):
        assert self._bad_qids(reference, trace, net, workload, 80) == set()

    def test_bw_lite_sample(self, spark, reference):
        net = bw_lite()
        qs = hotspot_queries(net, n_queries=8, batch_size=8, seed=1)
        qs += hotspot_queries(net, n_queries=8, batch_size=8, kind="poi", seed=101,
                              qid_offset=100, batch_offset=1)
        got = run_queries(spark, None, qs, net, max_iters=150)
        assert self._bad_qids(reference, got, net, qs, 150) == set()


class TestSparkJobs:
    def test_jobs_per_trace(self, counted_run):
        """One job runs every shard and collects the trace, however many
        supersteps the queries take."""
        _, jobs = counted_run
        assert jobs == 1


class TestValidation:
    def test_empty_workload_rejected(self, spark, net):
        with pytest.raises(ValueError):
            run_queries(spark, None, [], net, max_iters=80)

    def test_duplicate_qids_rejected(self, spark, net):
        q = Query(qid=1, kind="poi", start=0, end=None, city=0, batch=0)
        with pytest.raises(ValueError):
            run_queries(spark, None, [q, q], net, max_iters=80)

    def test_sssp_without_end_rejected(self, spark, net):
        q = Query(qid=1, kind="sssp", start=0, end=None, city=0, batch=0)
        with pytest.raises(ValueError):
            run_queries(spark, None, [q], net, max_iters=80)


class TestWorkloadKey:
    def test_key_stable(self, net, workload):
        assert workload_key(net, workload) == workload_key(net, workload)

    def test_key_depends_on_queries(self, net, workload):
        assert workload_key(net, workload) != workload_key(net, workload[:-1])

    def test_key_depends_on_graph(self, workload):
        other = tiny_grid(seed=99)
        assert workload_key(tiny_grid(), workload) != workload_key(other, workload)

    @pytest.mark.parametrize("change", ["edge_weight", "poi_tag", "kernel_source"])
    def test_key_depends_on_trace_inputs(self, net, workload, change, tmp_path, monkeypatch):
        """One edge weight, one POI tag or one edit of the engine's kernel
        source makes a new key, though the graph's name, seed and sizes stay."""
        before = workload_key(net, workload)
        if change == "edge_weight":
            edges = net.edges.copy()
            edges.loc[0, "w"] += 1.0
            net = dataclasses.replace(net, edges=edges)
        elif change == "poi_tag":
            vertices = net.vertices.copy()
            vertices.loc[0, "tag"] = not vertices.loc[0, "tag"]
            net = dataclasses.replace(net, vertices=vertices)
        else:
            kernel, *rest = trace_mod.ENGINE_SOURCES
            edited = tmp_path / "kernel.py"
            edited.write_bytes(kernel.read_bytes() + b"\n# edited\n")
            monkeypatch.setattr(trace_mod, "ENGINE_SOURCES", (edited, *rest))
        assert workload_key(net, workload) != before
