"""Controller statistics vs the DuckDB oracle.

Every report of :mod:`repro.controller.stats` and the Q-cut input built from
them are checked against the equivalent SQL over the same inputs via
``tests.oracle.assert_equivalent`` — a broken gather or group-by shows up as
a row diff, not a green "it ran". A report's numpy columns go to the oracle
as ``pd.DataFrame(report)``.
"""
import numpy as np
import pandas as pd
import pytest

from repro.cluster.partitioners import domain_partition, hash_partition
from repro.controller.stats import TraceStats, qcut_input
from repro.engine import run_queries
from repro.engine.trace import Trace
from repro.queries.workload import hotspot_queries
from repro.roadnet.datasets import tiny_grid
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def net():
    return tiny_grid()


@pytest.fixture(scope="module")
def trace(spark, net):
    qs = hotspot_queries(net, n_queries=8, batch_size=4, seed=31)
    qs += hotspot_queries(net, n_queries=2, batch_size=2, kind="poi", seed=32,
                          qid_offset=50, batch_offset=5)
    return run_queries(spark, None, qs, net, max_iters=80)


@pytest.fixture(scope="module")
def stats(trace):
    s = TraceStats(trace)
    yield s
    s.close()


@pytest.fixture(scope="module", params=["hash", "domain"])
def assignment(request, net):
    if request.param == "hash":
        return hash_partition(net.n_vertices, 3)
    return domain_partition(net, 3)


@pytest.fixture(scope="module")
def qids(trace):
    return sorted(int(q) for q in trace.activations["qid"].unique())


def _restriction_sql(qids, iter_lt=None, table="a") -> str:
    """SQL predicate on ``table`` for a report's ``qids`` (and, for
    ``scope_vertices``, ``iter_lt``) restriction."""
    conds = ["TRUE"]
    if qids is not None:
        conds.append(f"{table}.qid IN ({','.join(str(q) for q in qids)})")
    for q, bound in (iter_lt or {}).items():
        conds.append(f"({table}.qid <> {q} OR {table}.iter < {bound})")
    return " AND ".join(conds)


def _assign(assignment) -> pd.DataFrame:
    """The (vid, worker) table of an assignment."""
    return pd.DataFrame({"vid": np.arange(len(assignment.workers)), "worker": assignment.workers})


def _ls_rows(inp) -> pd.DataFrame:
    q, w = np.nonzero(inp.ls)
    return pd.DataFrame({"qid": np.asarray(inp.qids)[q], "worker": w, "size": inp.ls[q, w]})


class TestOracle:
    def test_active_counts(self, stats, trace, assignment, qids):
        for sel in (None, qids[::3], qids[-2:]):
            assert_equivalent(
                pd.DataFrame(stats.active_counts(assignment, sel)),
                f"""
                SELECT a.qid, a.iter, s.worker, count(*) AS n_active
                FROM activations a JOIN assign s USING (vid)
                WHERE {_restriction_sql(sel)}
                GROUP BY a.qid, a.iter, s.worker
                """,
                activations=trace.activations,
                assign=_assign(assignment),
            )

    def test_message_counts(self, stats, trace, assignment, qids):
        for sel in (None, qids[::3], qids[-2:]):
            assert_equivalent(
                pd.DataFrame(stats.message_counts(assignment, sel)),
                f"""
                SELECT m.qid, m.iter, s1.worker AS w_src, s2.worker AS w_dst,
                       count(*) AS n_msgs
                FROM messages m
                JOIN assign s1 ON m.src = s1.vid
                JOIN assign s2 ON m.dst = s2.vid
                WHERE {_restriction_sql(sel, table="m")}
                GROUP BY m.qid, m.iter, s1.worker, s2.worker
                """,
                messages=trace.messages,
                assign=_assign(assignment),
            )

    def test_reports_sorted_by_key(self, stats, assignment):
        for report in (stats.active_counts(assignment), stats.message_counts(assignment),
                       stats.scope_vertices()):
            assert all(v.dtype == np.int64 for v in report.values())
            keys = [c for c in report if not c.startswith("n_")]
            order = np.lexsort([report[c] for c in reversed(keys)])
            np.testing.assert_array_equal(order, np.arange(len(order)))

    def test_scope_vertices(self, stats, trace, qids):
        for sel, iter_lt in ((None, None), (qids[:3], {qids[0]: 2}), (None, {qids[1]: 3})):
            assert_equivalent(
                pd.DataFrame(stats.scope_vertices(sel, iter_lt)),
                f"SELECT qid, vid, count(*) AS n_active FROM activations a "
                f"WHERE {_restriction_sql(sel, iter_lt)} GROUP BY qid, vid",
                activations=trace.activations,
            )

    def test_local_scope_sizes(self, stats, trace, assignment, qids):
        inp = qcut_input(stats.scope_vertices(), assignment)
        assert inp.qids == qids
        np.testing.assert_array_equal(inp.vcounts, assignment.vertex_counts())
        assert_equivalent(
            _ls_rows(inp),
            """
            SELECT qid, worker, count(*) AS size FROM (
                SELECT DISTINCT a.qid, a.vid, s.worker
                FROM activations a JOIN assign s USING (vid)
            ) GROUP BY qid, worker
            """,
            activations=trace.activations,
            assign=_assign(assignment),
        )

    def test_local_scope_sizes_partial(self, stats, trace, assignment, qids):
        sel, iter_lt = qids[:3], {qids[0]: 2}
        inp = qcut_input(stats.scope_vertices(sel, iter_lt), assignment)
        assert_equivalent(
            _ls_rows(inp),
            f"""
            SELECT qid, worker, count(*) AS size FROM (
                SELECT DISTINCT a.qid, a.vid, s.worker
                FROM activations a JOIN assign s USING (vid)
                WHERE {_restriction_sql(sel, iter_lt)}
            ) GROUP BY qid, worker
            """,
            activations=trace.activations,
            assign=_assign(assignment),
        )

    def test_global_pair_overlaps(self, stats, trace, net):
        inp = qcut_input(stats.scope_vertices(), hash_partition(net.n_vertices, 3))
        assert_equivalent(
            pd.DataFrame(dict(zip(["qa", "qb", "shared"], inp.overlaps))),
            """
            WITH scoped AS (SELECT DISTINCT qid, vid FROM activations)
            SELECT x.qid AS qa, y.qid AS qb, count(*) AS shared
            FROM scoped x JOIN scoped y ON x.vid = y.vid AND x.qid < y.qid
            GROUP BY x.qid, y.qid
            """,
            activations=trace.activations,
        )

    @pytest.mark.parametrize("kind", ["pandas", "spark"])
    def test_oracle_catches_wrong_result(self, spark, stats, trace, net, kind):
        assignment = hash_partition(net.n_vertices, 3)
        wrong = pd.DataFrame(stats.active_counts(assignment)).assign(
            n_active=lambda d: d["n_active"] + 1)
        if kind == "spark":
            wrong = spark.createDataFrame(wrong)
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                """
                SELECT a.qid, a.iter, s.worker, count(*) AS n_active
                FROM activations a JOIN assign s USING (vid)
                GROUP BY a.qid, a.iter, s.worker
                """,
                activations=trace.activations,
                assign=_assign(assignment),
            )


class TestSelection:
    @pytest.mark.parametrize("frame", ["activations", "messages"])
    def test_rejects_trace_out_of_qid_order(self, trace, frame):
        frames = {"activations": trace.activations, "messages": trace.messages}
        frames[frame] = frames[frame].iloc[::-1].reset_index(drop=True)
        with pytest.raises(ValueError, match=f"{frame} are not sorted by qid"):
            TraceStats(Trace(**frames, final=trace.final))

    def test_duplicate_qid_selected_once(self, stats, trace, assignment, qids):
        once = [qids[0], qids[1]]
        twice = [qids[1], qids[0], qids[1]]
        for report in (lambda s: stats.active_counts(assignment, s),
                       lambda s: stats.message_counts(assignment, s),
                       lambda s: stats.scope_vertices(s)):
            got, want = report(twice), report(once)
            assert list(got) == list(want)
            for c in want:
                np.testing.assert_array_equal(got[c], want[c])
        n_rows = int(trace.activations["qid"].isin(once).sum())
        assert stats.active_counts(assignment, twice)["n_active"].sum() == n_rows
        assert stats.scope_vertices(twice)["n_active"].sum() == n_rows
