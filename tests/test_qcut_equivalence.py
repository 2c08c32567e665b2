"""The Q-cut plan step against the reference implementations in
``tests/qcut_reference.py``: identical results on seeded integer instances
against the scalar loops, and against the previous vectorised versions the
same results *and* the same random stream afterwards."""
import numpy as np
import pandas as pd
import pytest

import repro.core.qcut as qcut
from repro.controller.simulator import _exclusive_cluster_of, _residual_sweeps
from repro.core.clustering import karger_cluster
from repro.core.qcut import QcutInput, local_search, perturb, rebalance, run_qcut
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
        got = local_search(s.copy())
        _same_state(got, ref.local_search(s.copy()))
        _same_state(got, ref.local_search_dense(s.copy()))


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
        _rebalance_both(s, seed, max_moves=max_moves)
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
        got = karger_cluster(qids, ref.edges(overlaps), rng=r1, **kw)
        assert got == ref.karger_cluster(qids, overlaps, rng=r2, **kw)
        _same_stream(r1, r2)
        _karger_both(qids, overlaps, seed, **kw)


def test_karger_refuses_and_caps():
    """The instances above include refused merges and target stops."""
    refused = stopped = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        qids, overlaps, masses = _overlap_graph(rng, int(rng.integers(2, 40)), rng.random())
        total = sum(masses.values())
        e = ref.edges(overlaps)
        capped = karger_cluster(qids, e, target=1, rng=np.random.default_rng(seed),
                                masses=masses, max_mass=total / 12)
        free = karger_cluster(qids, e, target=1, rng=np.random.default_rng(seed))
        refused += len(capped) > len(free)
        stopped += len(karger_cluster(qids, e, target=5, rng=np.random.default_rng(seed),
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
                        overlaps=ref.edges(overlaps))
        got = run_qcut(inp, delta=delta, max_rounds=15, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(qcut, "local_search", ref.local_search)
            m.setattr(qcut, "karger_cluster",
                      lambda qids, e, **kw: ref.karger_cluster(qids, ref.overlap_dict(e), **kw))
            m.setattr(qcut, "rebalance", ref.rebalance)
            want = run_qcut(inp, delta=delta, max_rounds=15, seed=seed)
        assert got.history == want.history
        assert got.perturbation_steps == want.perturbation_steps
        assert got.clusters == want.clusters
        assert got.cluster_placement == want.cluster_placement
        assert got.rebalance_capped == want.rebalance_capped


# ---- against the previous vectorised versions: results and RNG stream -------

class _Recorder:
    """A seeded generator that records the calls made on it."""

    def __init__(self, seed):
        self.g = np.random.default_rng(seed)
        self.calls = []

    def random(self):
        self.calls.append(("random",))
        return self.g.random()

    def integers(self, n):
        self.calls.append(("integers", int(n)))
        return self.g.integers(n)

    def choice(self, a, p=None):
        self.calls.append(("choice", None if p is None else p.copy()))
        return self.g.choice(a, p=p)


def _karger_both(qids, overlaps, seed, **kw):
    """New and previous clustering on the same seed: equal clusters and the
    same next double. Returns the previous version's recorded draws."""
    r1, r2 = np.random.default_rng(seed), _Recorder(seed)
    got = karger_cluster(qids, ref.edges(overlaps), rng=r1, **kw)
    assert got == ref.karger_cluster_choice(qids, overlaps, rng=r2, **kw)
    assert r1.random() == r2.g.random()
    return got, [p for name, p in r2.calls if name == "choice"]


def test_karger_stream_zero_slots_at_both_ends():
    """The first and the last edge are over the mass cap and heavy, so they
    are drawn, refused and left at weight 0 while other edges still fire;
    zero-weight input edges sit at both ends too."""
    qids = list(range(1, 11))
    masses = {q: 1.0 for q in qids} | {1: 50.0, 2: 50.0, 9: 50.0, 10: 50.0}
    overlaps = {(0, 1): 0.0, (1, 2): 40.0, (9, 10): 40.0, (10, 11): 0.0}
    overlaps |= {(a, a + 1): 1.0 for a in range(2, 9)}
    seen = 0
    for seed in range(20):
        _, draws = _karger_both(qids, overlaps, seed, target=1, masses=masses, max_mass=60.0)
        seen += any(p[0] == 0 and p[-1] == 0 and p.any() for p in draws)
    assert seen


def test_karger_stream_one_live_edge():
    got, draws = _karger_both([3, 5, 7], {(3, 5): 2.0}, 0, target=1)
    assert got == [[3, 5], [7]] and len(draws) == 1
    # a path: each merge leaves one edge fewer, so the last draw is over
    # one live edge among the zeros of the internal ones
    _, draws = _karger_both([1, 2, 3, 4], {(1, 2): 5.0, (2, 3): 5.0, (3, 4): 1.0}, 4, target=1)
    assert [(p > 0).sum() for p in draws] == [3, 2, 1] and len(draws[-1]) == 3


def test_karger_stream_every_draw_refused():
    qids = list(range(1, 9))
    overlaps = {(a, b): float(a + b) for a in qids for b in qids if a < b}
    got, draws = _karger_both(qids, overlaps, 7, target=1,
                              masses=dict.fromkeys(qids, 10.0), max_mass=15.0)
    assert got == [[q] for q in qids]
    assert len(draws) == len(overlaps)


class _Scripted(np.random.Generator):
    """A generator whose doubles are given; ``choice(p=…)`` draws from them
    too, so both clusterings see the same ``u`` at each draw."""

    def __init__(self, us):
        super().__init__(np.random.PCG64(0))
        self.us = list(us)

    def random(self, size=None, dtype=np.float64, out=None):
        return np.float64(self.us.pop(0))


def test_karger_draw_on_cdf_boundaries():
    """``u`` on the cdf's values: 0 with a refused edge in slot 0, then
    exactly the cdf at a live edge, where only a ``"right"`` search gives
    choice's edge."""
    qids = [1, 2, 3, 4, 5]
    overlaps = {(1, 2): 4.0, (2, 3): 1.0, (3, 4): 1.0, (4, 5): 2.0}
    kw = dict(target=1, masses={1: 50.0, 2: 50.0, 3: 1.0, 4: 1.0, 5: 1.0}, max_mass=60.0)
    us = [0.0, 0.0, 1 / 3, 0.0]
    r1, r2 = _Scripted(us), _Scripted(us)
    got = karger_cluster(qids, ref.edges(overlaps), rng=r1, **kw)
    assert got == ref.karger_cluster_choice(qids, overlaps, rng=r2, **kw) == [[1], [2, 3, 4, 5]]
    assert r1.us == r2.us == []


def _rebalance_both(s, seed, max_moves=200):
    """New and previous rebalance on copies of ``s``: equal states, return
    value, draws and next double. Returns the recorded draws."""
    a, b = s.copy(), s.copy()
    r1, r2 = _Recorder(seed), _Recorder(seed)
    assert rebalance(a, r1, max_moves=max_moves) == ref.rebalance_replay(b, r2, max_moves=max_moves)
    _same_state(a, b)
    assert r1.calls == r2.calls
    assert r1.g.random() == r2.g.random()
    return r1.calls


def test_rebalance_stream_single_candidate_ping_pong():
    """One atomic scope: every move draws from one candidate, and
    ``integers(1)`` consumes nothing, so the stream is where it started."""
    s = QcutState(np.array([[100.0, 0.0]]), np.zeros(2), 0.1)
    calls = _rebalance_both(s, 3, max_moves=50)
    assert calls == [("integers", 1)] * 50
    r = np.random.default_rng(3)
    a = s.copy()
    rebalance(a, r, max_moves=50)
    assert r.random() == np.random.default_rng(3).random()


def test_rebalance_stream_candidates_grow_and_shrink():
    """Scopes arrive on and leave the most-loaded worker between moves."""
    s = QcutState(np.array([[9, 0, 0], [7, 1, 0], [5, 0, 2], [0, 6, 0], [3, 3, 3]], dtype=float),
                  np.array([40.0, 0.0, 0.0]), 0.05)
    sizes = [n for _, n in _rebalance_both(s, 11, max_moves=200)]
    steps = np.diff(sizes)
    assert (steps > 0).any() and (steps < 0).any()


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("delta", DELTAS)
def test_perturb_stream(k, delta):
    for seed in range(12):
        s = _instance(seed, k, delta, hi=30)
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        (a, ca), (b, cb) = perturb(s, r1), ref.perturb_replay(s, r2)
        assert ca == cb
        _same_state(a, b)
        _same_stream(r1, r2)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("delta", DELTAS)
def test_run_qcut_previous(monkeypatch, k, delta):
    """Whole runs against the previous implementations: equal results and
    the same next double of a generator seeded like the run's."""
    for seed in range(3):
        rng = np.random.default_rng(100 * k + seed)
        qids, overlaps, _ = _overlap_graph(rng, 24, 0.3)
        ls = (rng.integers(0, 25, (24, k)) * (rng.random((24, k)) < 0.4)).astype(float)
        inp = QcutInput(qids=qids, ls=ls, vcounts=rng.integers(0, 200, k).astype(float),
                        overlaps=ref.edges(overlaps))
        streams = []
        real = np.random.default_rng

        def seeded(s):
            streams.append(real(s))
            return streams[-1]

        with monkeypatch.context() as m:
            m.setattr(qcut.np.random, "default_rng", seeded)
            got = run_qcut(inp, delta=delta, max_rounds=15, seed=seed)
            m.setattr(qcut, "local_search", ref.local_search_dense)
            m.setattr(qcut, "karger_cluster", lambda qids, e, **kw: ref.karger_cluster_choice(
                qids, ref.overlap_dict(e), **kw))
            m.setattr(qcut, "rebalance", ref.rebalance_replay)
            m.setattr(qcut, "perturb", ref.perturb_replay)
            want = run_qcut(inp, delta=delta, max_rounds=15, seed=seed)
        for f in ("history", "perturbation_steps", "clusters", "cluster_placement",
                  "cost_initial", "cost_final", "rebalance_capped", "balanced", "load_spread"):
            assert getattr(got, f) == getattr(want, f), f
        assert streams[0].random() == streams[1].random()


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
