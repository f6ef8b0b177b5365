"""The benchmark's tracer wraps program functions by module and name; a rename
must fail here rather than only under `perfbench/run.py --trace 1`."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import coexpress.graph as graph
import coexpress.rfe as rfe
from coexpress.booster import BoosterConfig
from coexpress.folds import stratified_folds
from coexpress.masks import GeneSet
from coexpress.matrix import ExpressionMatrix

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)  # defines only; nothing is wrapped until `install`
    return module


def test_every_wrapped_name_resolves(tracer):
    for module, attr, span, _ in tracer.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_cv_split_rows_counter_reads_the_plan(tracer):
    (count,) = [c for m, attr, _, c in tracer.WRAPPED if attr == "cv_split"]
    plan = stratified_folds(["A"] * 4 + ["B"] * 2, 2, seed=0, replication={"B": 3})
    assert count((plan, 0), {}, None) == {"rows": 4 + 2 * 4}


def test_rfe_step_calls_each_wrapped_name_once_per_fold(monkeypatch):
    # booster.train.calls and folds.cv_split.calls count these calls by name
    calls = {"train": 0, "cv_split": 0}

    def counting(name):
        inner = getattr(rfe, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(rfe, name, counting(name))
    labels = ("A",) * 10 + ("B",) * 10
    values = np.random.default_rng(0).normal(size=(3, len(labels)))
    m = ExpressionMatrix(("g0", "g1", "g2"), tuple(f"s{i}" for i in range(len(labels))),
                         labels, values)
    plan = stratified_folds(labels, 5, seed=0)
    rfe.cross_validate_step(m, GeneSet("all", m.gene_ids), plan,
                            BoosterConfig(n_estimators=2), repeats=2)
    assert calls == {"train": 10, "cv_split": 10}


def test_sweep_calls_each_wrapped_name_once_per_threshold(monkeypatch):
    # graph.threshold_graph.calls and .edges, graph.detect_communities.calls and
    # graph.sweep.kept_ratio count these calls by name
    calls = {"threshold_graph": [], "detect_communities": 0}
    threshold_graph, detect_communities = graph.threshold_graph, graph.detect_communities

    def counted_threshold_graph(wg, t, **kwargs):
        calls["threshold_graph"].append(t)
        return threshold_graph(wg, t, **kwargs)

    def counted_detect_communities(g, seed=0):
        calls["detect_communities"] += 1
        return detect_communities(g, seed)

    monkeypatch.setattr(graph, "threshold_graph", counted_threshold_graph)
    monkeypatch.setattr(graph, "detect_communities", counted_detect_communities)
    w = np.triu(np.random.default_rng(0).random((20, 20)), k=1)
    wg = graph.WeightedGeneGraph(tuple(f"g{i:02d}" for i in range(20)), w + w.T)
    _, _, table = graph.select_threshold(wg, 0.4, 1.1, 0.02, seed=0)
    with_edges = sum(r.n_edges > 0 for r in table)
    assert 0 < with_edges < len(table)
    assert calls == {"threshold_graph": [r.threshold for r in table],
                     "detect_communities": with_edges}

    calls["threshold_graph"], calls["detect_communities"] = [], 0
    graph.select_threshold(wg, 0.5, 0.5, 1, seed=0)
    assert calls == {"threshold_graph": [0.5], "detect_communities": 1}
