"""The program hooks the benchmark in ``qgbench/`` relies on.

``qgbench/spans.py`` replaces program functions at fixed attributes, and
``qgbench/workloads.py`` calls the program with fixed signatures. Neither
runs in tier-1 otherwise, so a deleted or renamed hook would fail only when
``qgbench/run.py`` runs (with ``--trace 1`` for the spans).
"""
import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.controller.simulator as simulator
import repro.core.qcut as qcut
import repro.engine.pregel as pregel
import repro.experiments as experiments
import repro.queries.workload as workload
import repro.roadnet.datasets as datasets

QGBENCH = Path(__file__).resolve().parents[1] / "qgbench"

# the program functions workloads.py calls, by the attribute or bare name it
# calls
CALLED = {
    "run_queries": pregel.run_queries,
    "trace_for": experiments.trace_for,
    "run_experiment": simulator.run_experiment,
    "ExperimentConfig": simulator.ExperimentConfig,
    "edges_df": datasets.edges_df,
    "hotspot_queries": workload.hotspot_queries,
    "bw_lite": datasets.bw_lite,
}


@pytest.fixture(scope="module")
def spans():
    """``qgbench/spans.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("qgbench_spans", QGBENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def test_span_targets_are_attributes(spans):
    for owner, attr, name, _ in spans.TARGETS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"


@pytest.mark.parametrize("attr", sorted(CALLED))
def test_workload_calls_bind(attr):
    """Every ``<module>.attr(...)`` and bare ``attr(...)`` call in
    workloads.py binds to the program's signature: the same number of
    positional arguments and the same keyword names (a ``**kwargs``
    expansion is skipped)."""
    tree = ast.parse((QGBENCH / "workloads.py").read_text())
    calls = [c for c in ast.walk(tree) if isinstance(c, ast.Call)
             and attr in (getattr(c.func, "attr", None), getattr(c.func, "id", None))]
    assert calls, f"workloads.py no longer calls {attr}"
    sig = inspect.signature(CALLED[attr])
    for c in calls:
        sig.bind(*[None] * len(c.args),
                 **dict.fromkeys(k.arg for k in c.keywords if k.arg is not None))


def test_qcut_calls_wrapped_attributes(monkeypatch):
    """``core.local_search`` and ``core.karger`` spans wrap the functions at
    ``repro.core.qcut``'s attributes, so ``run_qcut`` and ``perturb`` must
    call them through the module globals, not through a bound alias."""
    calls = {"local_search": 0, "karger_cluster": 0}
    for attr in calls:
        fn = getattr(qcut, attr)

        def counted(*a, _fn=fn, _attr=attr, **kw):
            calls[_attr] += 1
            return _fn(*a, **kw)

        monkeypatch.setattr(qcut, attr, counted)
    # δ = 0.1 forbids the descent from fusing the spread query; a round must
    inp = qcut.QcutInput(qids=[1], ls=np.array([[5.0, 5.0]]), vcounts=np.zeros(2))
    res = qcut.run_qcut(inp, delta=0.1, max_rounds=3, seed=0)
    assert calls["karger_cluster"] == 1
    assert calls["local_search"] == len(res.history) >= 2  # entry descent + rounds
