"""The vectorised Q-cut plan step against the scalar loops in
``tests/qcut_reference.py``: identical results on seeded integer instances."""
import numpy as np
import pandas as pd
import pytest

import repro.core.qcut as qcut
from repro.controller.simulator import _exclusive_cluster_of, _residual_sweeps
from repro.core.clustering import karger_cluster
from repro.core.qcut import QcutInput, local_search, rebalance, run_qcut
from repro.core.state import QcutState
from repro.roadnet.datasets import tiny_grid
from tests import qcut_reference as ref

KS = (2, 4, 8, 16)
DELTAS = (0.1, 0.25, 0.9)


def _instance(seed, k, delta, *, hi):
    """A random integer state; a small ``hi`` makes many tied deltas."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, min(3 * k, 10) + 1))
    ls = rng.integers(0, hi, (n, k)) * (rng.random((n, k)) < 0.5)
    vcounts = rng.integers(0, 40, k)
    return QcutState(ls.astype(float), vcounts.astype(float), delta)


def _same_state(a: QcutState, b: QcutState):
    np.testing.assert_array_equal(a.ls, b.ls)
    np.testing.assert_array_equal(a.L, b.L)
    assert a.origins == b.origins


def _same_stream(r1: np.random.Generator, r2: np.random.Generator):
    assert r1.random() == r2.random()


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("hi", [3, 30])
def test_local_search(k, delta, hi):
    for seed in range(12):
        s = _instance(seed, k, delta, hi=hi)
        _same_state(local_search(s.copy()), ref.local_search(s.copy()))


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("delta", DELTAS)
def test_rebalance(k, delta):
    capped = 0
    for seed in range(12):
        s = _instance(seed, k, delta, hi=30)
        a, b = s.copy(), s.copy()
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        max_moves = (5, 200)[seed % 2]
        got = rebalance(a, r1, max_moves=max_moves)
        assert got == ref.rebalance(b, r2, max_moves=max_moves)
        capped += got
        _same_state(a, b)
        _same_stream(r1, r2)
    if delta == 0.1:
        assert capped  # the cap is reached in these instances


def _overlap_graph(rng, n, density):
    qids = sorted(rng.choice(1000, n, replace=False).tolist())
    overlaps = {(a, b): float(rng.integers(0, 6))
                for i, a in enumerate(qids) for b in qids[i + 1:]
                if rng.random() < density}
    masses = {q: float(rng.integers(1, 20)) for q in qids}
    return qids, overlaps, masses


@pytest.mark.parametrize("seed", range(30))
def test_karger(seed):
    rng = np.random.default_rng(seed)
    qids, overlaps, masses = _overlap_graph(rng, int(rng.integers(2, 40)), rng.random())
    total = sum(masses.values())
    for target, max_mass in ((1, None), (1, total / 4), (1, total / 12), (5, total / 3)):
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        kw = dict(target=target, masses=masses, max_mass=max_mass)
        got = karger_cluster(qids, overlaps, rng=r1, **kw)
        assert got == ref.karger_cluster(qids, overlaps, rng=r2, **kw)
        _same_stream(r1, r2)


def test_karger_refuses_and_caps():
    """The instances above include refused merges and target stops."""
    refused = stopped = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        qids, overlaps, masses = _overlap_graph(rng, int(rng.integers(2, 40)), rng.random())
        total = sum(masses.values())
        capped = karger_cluster(qids, overlaps, target=1, rng=np.random.default_rng(seed),
                                masses=masses, max_mass=total / 12)
        free = karger_cluster(qids, overlaps, target=1, rng=np.random.default_rng(seed))
        refused += len(capped) > len(free)
        stopped += len(karger_cluster(qids, overlaps, target=5, rng=np.random.default_rng(seed),
                                      masses=masses, max_mass=total / 3)) == 5
    assert refused and stopped


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("delta", DELTAS)
def test_run_qcut(monkeypatch, k, delta):
    """Whole runs: the module's functions against the reference loops."""
    for seed in range(3):
        rng = np.random.default_rng(100 * k + seed)
        qids, overlaps, _ = _overlap_graph(rng, 24, 0.3)
        ls = (rng.integers(0, 25, (24, k)) * (rng.random((24, k)) < 0.4)).astype(float)
        inp = QcutInput(qids=qids, ls=ls, vcounts=rng.integers(0, 200, k).astype(float),
                        overlaps=overlaps)
        got = run_qcut(inp, delta=delta, max_rounds=15, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(qcut, "local_search", ref.local_search)
            m.setattr(qcut, "karger_cluster", ref.karger_cluster)
            m.setattr(qcut, "rebalance", ref.rebalance)
            want = run_qcut(inp, delta=delta, max_rounds=15, seed=seed)
        assert got.history == want.history
        assert got.perturbation_steps == want.perturbation_steps
        assert got.clusters == want.clusters
        assert got.cluster_placement == want.cluster_placement
        assert got.rebalance_capped == want.rebalance_capped


@pytest.mark.parametrize("seed", range(20))
def test_exclusive_cluster_of(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    scope = pd.DataFrame({
        "qid": rng.integers(1, 30, n),
        "vid": rng.integers(0, 60, n),
        "n_active": rng.integers(1, 4, n),  # small counts: many ties
    }).drop_duplicates(["qid", "vid"])
    qs = rng.permutation(np.arange(1, 30)).tolist()
    cut = sorted(rng.choice(np.arange(1, 29), 5, replace=False).tolist())
    clusters = [sorted(c.tolist()) for c in np.split(qs, cut)][:-1]  # last group unclustered
    vid, cl = _exclusive_cluster_of({c: scope[c].to_numpy() for c in scope}, clusters)
    want = ref.exclusive_cluster_of(scope, clusters)
    np.testing.assert_array_equal(vid, want["vid"].to_numpy())
    np.testing.assert_array_equal(cl, want["cluster"].to_numpy())


@pytest.mark.parametrize("k", KS)
def test_residual_sweeps(k):
    net = tiny_grid()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        # coherent blocks with noise, so sweeps run several rounds
        workers = ((np.arange(net.n_vertices) // 9) % k).astype(np.int32)
        noise = rng.random(net.n_vertices) < 0.4
        workers[noise] = rng.integers(0, k, noise.sum())
        free = rng.random(net.n_vertices) < 0.7
        got, want = workers.copy(), workers.copy()
        _residual_sweeps(got, free, net, k)
        ref.residual_sweeps(want, free, net, k)
        np.testing.assert_array_equal(got, want)
