"""Spans around the program's layer boundaries, recorded from outside the program.

A function is wrapped in the module where its caller looks it up at call time
(`coexpress.rfe.train` for `recursive_eliminate`, `coexpress.pipeline.STAGES`
for `run_pipeline`, ...). Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import json
import logging
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import coexpress.atlas as cx_atlas
import coexpress.graph as cx_graph
import coexpress.pipeline as cx_pipeline
import coexpress.rfe as cx_rfe
import coexpress.synthetic as cx_synthetic


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    id: int
    run: str
    thread: int
    counts: dict = field(default_factory=dict)
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _manifest_counts(args, kwargs, result) -> dict:
    outputs = json.loads(Path(result).read_text())["outputs"]
    root = Path(result).parent
    return {"outputs": len(outputs), "bytes": sum(os.path.getsize(root / p) for p in outputs)}


def _train_counts(args, kwargs, result) -> dict:
    X, y = args[0], args[1]
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"work": X.shape[0] * X.shape[1] * config.n_estimators * len(set(y))}


def _atlas_files(args, kwargs, result) -> dict:
    out = Path(args[4] if len(args) > 4 else kwargs["out_dir"])
    files = [p for p in out.rglob("*") if p.is_file()]
    return {"files": len(files), "bytes": sum(p.stat().st_size for p in files)}


# (module, attribute, span name, counts taken from (args, kwargs, result))
WRAPPED = (
    (cx_pipeline, "run_pipeline", "pipeline.run_pipeline", _manifest_counts),
    (cx_pipeline, "load_matrix", "matrix.load_matrix", lambda a, k, r: {"bytes": _size(a[0], a[1])}),
    (cx_pipeline, "write_matrix", "matrix.write_matrix", lambda a, k, r: {"bytes": _size(a[1], a[2])}),
    (cx_pipeline, "cleanse", "matrix.cleanse", None),
    (cx_pipeline, "gene_stats", "matrix.gene_stats", None),
    (cx_pipeline, "normalize_matrix", "normalize.normalize_matrix", None),
    (cx_pipeline, "mask_correlations", "masks.mask_correlations", None),
    (cx_pipeline, "select_three_mask_intersect", "masks.primary", lambda a, k, r: {"genes": len(r)}),
    (cx_pipeline, "select_combined", "masks.refined", lambda a, k, r: {"genes": len(r)}),
    (cx_pipeline, "recursive_eliminate", "rfe.recursive_eliminate", lambda a, k, r: {"steps": len(r.steps)}),
    (cx_pipeline, "train", "booster.train", _train_counts),
    (cx_pipeline, "build_weighted", "graph.build_weighted", None),
    (cx_pipeline, "select_threshold", "graph.select_threshold", None),
    (cx_pipeline, "write_graphml", "graph.write_graphml", lambda a, k, r: {"bytes": _size(a[1])}),
    (cx_pipeline, "build_atlas", "atlas.build_atlas", None),
    (cx_pipeline, "export_atlas", "atlas.export_atlas", _atlas_files),
    (cx_rfe, "train", "booster.train", _train_counts),
    (cx_rfe, "predict", "booster.predict", None),
    (cx_rfe, "cv_split", "folds.cv_split", lambda a, k, r: {"rows": len(a[0].expanded)}),
    (cx_graph, "correlation_block", "correlation.correlation_block",
     lambda a, k, r: {"pairs": a[0].shape[0] * (a[0].shape[0] - 1) // 2}),
    (cx_graph, "threshold_graph", "graph.threshold_graph", lambda a, k, r: {"edges": r.n_edges}),
    (cx_graph, "detect_communities", "graph.detect_communities", None),
    (cx_graph, "build_weighted", "graph.build_weighted", None),
    (cx_graph, "select_threshold", "graph.select_threshold", None),
    (cx_atlas, "write_graphml", "graph.write_graphml", lambda a, k, r: {"bytes": _size(a[1])}),
    (cx_atlas, "build_atlas", "atlas.build_atlas", None),
    (cx_atlas, "export_atlas", "atlas.export_atlas", _atlas_files),
    (cx_synthetic, "generate", "synthetic.generate", None),
)


class Tracer:
    """Records spans while installed; `uninstall` restores every wrapped name."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack: list[int]) -> int | None:
        # A pool thread's first span belongs to the main thread's open span,
        # the call that handed it the work.
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = len(self.spans)
                span = Span(name, 0.0, 0.0, self._parent(stack), span_id, self.run, threading.get_ident())
                self.spans.append(span)
            stack.append(span_id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, counts in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counts))
        stages = cx_pipeline.STAGES
        self._saved.append((cx_pipeline, "STAGES", stages))
        cx_pipeline.STAGES = tuple(
            (stage, self._wrap(fn, f"pipeline.stage.{stage}", None)) for stage, fn in stages
        )

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


class LogCounter(logging.Handler):
    """Counts the program's skip and exclusion warnings (the run-report events)."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts: Counter = Counter()
        self.cohort_reasons: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        msg, args = str(record.msg), record.args or ()
        if record.name == "coexpress.rfe" and msg.startswith("fold ") and msg.endswith("skipped"):
            self.counts["rfe.folds_skipped"] += 1
        elif record.name == "coexpress.pipeline" and msg.startswith("cohort %r network skipped"):
            self.counts["graph.cohorts_skipped"] += 1
            self.cohort_reasons[str(args[1])] += 1
        elif record.name == "coexpress.graph" and "constant within cohort" in msg:
            self.counts["graph.constant_genes"] += int(args[1])
        elif record.name == "coexpress.normalize" and "degenerate gene" in msg:
            self.counts["normalize.constant_genes"] += int(args[1])
        elif record.name == "coexpress.masks" and "zero-variance gene" in msg:
            self.counts["masks.constant_genes"] += int(args[0])


def _covered(interval: tuple[float, float], children: list[Span]) -> float:
    """Length of the union of the children's intervals inside `interval`."""
    lo, hi = interval
    parts = sorted((max(lo, c.start), min(hi, c.end)) for c in children)
    covered, cur_lo, cur_hi = 0.0, None, None
    for a, b in parts:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


STAGE_NAMES = tuple(stage for stage, _ in cx_pipeline.STAGES)
LOG_COUNTERS = ("rfe.folds_skipped", "graph.cohorts_skipped", "graph.constant_genes",
                "normalize.constant_genes", "masks.constant_genes")
# The counters some workload's inputs make fire. No workload skips a fold or
# reaches mask correlations with a constant gene (normalization drops those
# first), so those two are reported on the detail line only.
FIRING_LOG_COUNTERS = ("graph.cohorts_skipped", "graph.constant_genes", "normalize.constant_genes")


def layer_metrics(spans: list[Span], runs: set[str], logs: Counter) -> dict[str, float]:
    """Per-pass per-layer metrics from the spans of the traced passes `runs`.

    Times are busy seconds per pass; pool threads overlap, so busy time can
    exceed wall time. `booster.train.ms.*` pool every fit of every pass.
    """
    passes = len(runs)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        if s.run in runs:
            by_name.setdefault(s.name, []).append(s)
    own = self_times(spans, runs)

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ())) / passes

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ())) / passes

    def self_time(name):
        return sum(own[s.id] for s in by_name.get(name, ())) / passes

    def under(span, ancestor):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == ancestor:
                return True
        return False

    out: dict[str, float] = {}
    for stage in STAGE_NAMES:
        out[f"pipeline.stage.{stage}.s"] = busy(f"pipeline.stage.{stage}")
    out["pipeline.manifest_s"] = busy("pipeline.run_pipeline") - sum(
        busy(f"pipeline.stage.{stage}") for stage in STAGE_NAMES
    )
    out["pipeline.outputs"] = count("pipeline.run_pipeline", "outputs")
    out["pipeline.output_bytes"] = count("pipeline.run_pipeline", "bytes")

    out["matrix.load_matrix.s"] = busy("matrix.load_matrix")
    out["matrix.load_matrix.bytes_read"] = count("matrix.load_matrix", "bytes")
    out["matrix.write_matrix.s"] = busy("matrix.write_matrix")
    out["matrix.write_matrix.bytes"] = count("matrix.write_matrix", "bytes")
    out["matrix.cleanse.s"] = busy("matrix.cleanse")
    out["matrix.gene_stats.s"] = busy("matrix.gene_stats")
    out["normalize.normalize_matrix.s"] = busy("normalize.normalize_matrix")
    out["masks.mask_correlations.s"] = busy("masks.mask_correlations")
    out["masks.primary_genes"] = count("masks.primary", "genes")
    out["masks.refined_genes"] = count("masks.refined", "genes")
    out["correlation.correlation_block.s"] = busy("correlation.correlation_block")
    out["correlation.pairs"] = count("correlation.correlation_block", "pairs")
    out["folds.cv_split.calls"] = calls("folds.cv_split")
    out["folds.cv_split.s"] = busy("folds.cv_split")
    out["folds.expanded_rows"] = count("folds.cv_split", "rows")

    fits = by_name.get("booster.train", [])
    fit_ms = [s.duration * 1e3 for s in fits]
    out["booster.train.calls"] = calls("booster.train")
    out["booster.train.s"] = busy("booster.train")
    out["booster.train.ms.p50"] = _percentile(fit_ms, 50) if fit_ms else 0.0
    out["booster.train.ms.p90"] = _percentile(fit_ms, 90) if fit_ms else 0.0
    out["booster.train.work"] = count("booster.train", "work")
    out["booster.predict.s"] = busy("booster.predict")

    out["rfe.recursive_eliminate.s"] = busy("rfe.recursive_eliminate")
    out["rfe.steps"] = count("rfe.recursive_eliminate", "steps")
    out["rfe.self_s"] = self_time("rfe.recursive_eliminate")
    useful = sum(under(s, "rfe.recursive_eliminate") for s in fits)
    out["rfe.model_useful_ratio"] = useful / len(fits) if fits else 0.0

    out["graph.build_weighted.s"] = busy("graph.build_weighted")
    out["graph.threshold_graph.calls"] = calls("graph.threshold_graph")
    out["graph.threshold_graph.s"] = busy("graph.threshold_graph")
    out["graph.threshold_graph.edges"] = count("graph.threshold_graph", "edges")
    out["graph.detect_communities.calls"] = calls("graph.detect_communities")
    out["graph.detect_communities.s"] = busy("graph.detect_communities")
    out["graph.select_threshold.self_s"] = self_time("graph.select_threshold")
    kept = sum(not s.error for s in by_name.get("graph.select_threshold", ()))
    with_edges = sum(s.counts.get("edges", 0) > 0 for s in by_name.get("graph.threshold_graph", ()))
    out["graph.sweep.kept_ratio"] = kept / with_edges if with_edges else 0.0
    out["graph.write_graphml.s"] = busy("graph.write_graphml")
    out["graph.write_graphml.bytes"] = count("graph.write_graphml", "bytes")

    out["atlas.build_atlas.s"] = busy("atlas.build_atlas")
    out["atlas.export_atlas.s"] = busy("atlas.export_atlas")
    out["atlas.files"] = count("atlas.export_atlas", "files")
    out["atlas.bytes"] = count("atlas.export_atlas", "bytes")

    for name in FIRING_LOG_COUNTERS:
        out[name] = logs.get(name, 0) / passes
    return out


def self_times(spans: list[Span], runs: set[str]) -> dict[int, float]:
    """Span id -> self seconds (duration minus the part its children cover)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.run in runs and s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.id: s.duration - _covered((s.start, s.end), children.get(s.id, []))
        for s in spans
        if s.run in runs
    }


def self_by_layer(spans: list[Span], runs: set[str]) -> dict[str, float]:
    """Self seconds per pass for each layer (the span-name prefix)."""
    out: dict[str, float] = {}
    for span_id, own in self_times(spans, runs).items():
        layer = spans[span_id].name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + own / len(runs)
    return out


def top_level_busy(spans: list[Span], run: str) -> float:
    return sum(s.duration for s in spans if s.run == run and s.parent is None)
