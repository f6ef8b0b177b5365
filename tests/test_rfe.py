import csv
import hashlib
import json

import numpy as np
import pytest

from coexpress.booster import BoosterConfig
from coexpress.errors import ValidationError
from coexpress.folds import stratified_folds
from coexpress.masks import GeneSet
from coexpress.matrix import ExpressionMatrix
from coexpress.pipeline import MIN_RFE_GENES, PipelineConfig, _booster_cfg, _rfe
from coexpress.rfe import (
    cross_validate_step,
    export_trace,
    majority_baseline,
    metrics,
    recursive_eliminate,
)

FAST = BoosterConfig(n_estimators=10, seed=0)


class TestMetrics:
    def test_hand_worked_confusion(self):
        got = metrics(np.array([[2, 1], [0, 3]]), ["c0", "c1"])
        assert got["c0"].precision == pytest.approx(1.0)
        assert got["c0"].recall == pytest.approx(2 / 3)
        assert got["c0"].f1 == pytest.approx(0.8)
        assert got["c1"].precision == pytest.approx(0.75)
        assert got["c1"].recall == pytest.approx(1.0)
        assert got["c1"].f1 == pytest.approx(6 / 7)

    def test_diagonal_confusion_all_ones(self):
        got = metrics(np.diag([4, 2, 9]), ["a", "b", "c"])
        for m in got.values():
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_zero_row_undefined_not_zero(self):
        got = metrics(np.array([[0, 0], [1, 5]]), ["a", "b"])
        assert got["a"].recall is None
        assert got["a"].precision is None or got["a"].precision == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            metrics(np.zeros((2, 3)), ["a", "b"])


def _simple_matrix(rng, n_per_class=10, informative=True):
    labels = ["A"] * n_per_class + ["B"] * n_per_class + ["C"] * n_per_class
    n = len(labels)
    rows = [rng.normal(size=n) for _ in range(6)]
    if informative:
        for k, cl in enumerate(["A", "B", "C"]):
            ind = np.array([1.0 if lab == cl else 0.0 for lab in labels])
            rows.append(rng.normal(size=n) * 0.1 + 5.0 * ind)
    gene_ids = tuple(f"g{i}" for i in range(len(rows)))
    return ExpressionMatrix(
        gene_ids, tuple(f"s{i}" for i in range(n)), tuple(labels), np.array(rows)
    )


class TestCrossValidate:
    def test_separable_data_perfect_accuracy(self):
        rng = np.random.default_rng(0)
        m = _simple_matrix(rng)
        plan = stratified_folds(m.labels, 5, seed=1)
        genes = GeneSet("all", m.gene_ids)
        report = cross_validate_step(m, genes, plan, FAST).report
        assert report.accuracy == 1.0

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(1)
        n = 60
        labels = tuple(rng.permutation(["A"] * 20 + ["B"] * 20 + ["C"] * 20))
        m = ExpressionMatrix(
            tuple(f"g{i}" for i in range(10)),
            tuple(f"s{i}" for i in range(n)),
            labels,
            rng.normal(size=(10, n)),
        )
        plan = stratified_folds(m.labels, 5, seed=2)
        report = cross_validate_step(m, GeneSet("all", m.gene_ids), plan, FAST).report
        assert abs(report.accuracy - 1 / 3) <= 0.1

    def test_confusion_trace_matches_accuracy_with_equal_folds(self):
        rng = np.random.default_rng(2)
        m = _simple_matrix(rng, n_per_class=20)
        plan = stratified_folds(m.labels, 10, seed=3)  # equal 6-sample folds
        report = cross_validate_step(m, GeneSet("all", m.gene_ids), plan, FAST).report
        pooled = np.trace(report.confusion) / report.confusion.sum()
        assert report.accuracy == pytest.approx(pooled, abs=1e-12)

    def test_repeats_average_and_final_confusion(self):
        rng = np.random.default_rng(3)
        m = _simple_matrix(rng)
        plan = stratified_folds(m.labels, 5, seed=4)
        r1 = cross_validate_step(m, GeneSet("all", m.gene_ids), plan, FAST, repeats=2).report
        assert r1.repeat_count == 2
        assert r1.confusion.sum() == m.n_samples

    def test_repeats_rebuild_keeps_replication(self):
        # Repeat 1 reshuffles the folds and must reapply the plan's extra
        # copies: the final repeat's confusion counts every replica, so its
        # rows sum to 12 x 1, 8 x 2 and 5 x 3.
        rng = np.random.default_rng(8)
        labels = ("A",) * 12 + ("B",) * 8 + ("C",) * 5
        values = rng.normal(size=(6, len(labels)))
        values[0] += 2.5 * (np.array(labels) == "A")
        values[1] += 2.5 * (np.array(labels) == "B")
        m = ExpressionMatrix(tuple(f"g{i}" for i in range(6)),
                             tuple(f"s{i}" for i in range(len(labels))), labels, values)
        plan = stratified_folds(labels, 4, seed=9, replication={"A": 0, "B": 1, "C": 2})
        step = cross_validate_step(m, GeneSet("all", m.gene_ids), plan, FAST, repeats=2)
        assert repr(step.report.accuracy) == "0.7701923076923077"
        assert step.report.confusion.tolist() == [[7, 5, 0], [4, 12, 0], [0, 0, 15]]
        # the importance sum runs over repeats, then folds, in order
        assert hashlib.sha256(step.importance.tobytes()).hexdigest() == (
            "1afe8851d9c885ec0275ec296589970077a45db966c09475ddf49a8862416d41")

    def test_plan_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        m = _simple_matrix(rng)
        plan = stratified_folds(("A",) * 15 + ("B",) * 15, 5, seed=0)
        with pytest.raises(ValidationError):
            cross_validate_step(m, GeneSet("all", m.gene_ids), plan, FAST)

    def test_majority_baseline(self):
        assert majority_baseline(["A", "A", "B"]) == pytest.approx(2 / 3)

    def test_single_class_training_fold_skipped_with_warning(self, caplog):
        import logging

        rng = np.random.default_rng(5)
        labels = ("A",) * 6 + ("B",)
        m = ExpressionMatrix(
            ("g0", "g1"),
            tuple(f"s{i}" for i in range(7)),
            labels,
            rng.normal(size=(2, 7)),
        )
        # the single B sample lands in one fold; the other fold's training
        # split is then pure A and must be skipped
        plan = stratified_folds(labels, 2, seed=0)
        with caplog.at_level(logging.WARNING):
            report = cross_validate_step(m, GeneSet("all", m.gene_ids), plan, FAST).report
        assert "fold 0 has a single training class; skipped" in caplog.messages
        assert report.fold_count == 2  # one fold evaluated, one skipped
        assert repr(report.accuracy) == "1.0"
        assert report.confusion.tolist() == [[3, 0], [0, 0]]


class TestRecursiveEliminate:
    def _planted(self, seed=5, noise_genes=20):
        rng = np.random.default_rng(seed)
        labels = ("A",) * 15 + ("B",) * 15
        n = len(labels)
        ind = np.array([1.0 if lab == "A" else 0.0 for lab in labels])
        rows = [rng.normal(size=n) for _ in range(noise_genes)]
        rows.append(rng.normal(size=n) * 0.1 + 4.0 * ind)  # decisive gene, last row
        gene_ids = tuple(f"n{i}" for i in range(noise_genes)) + ("decisive",)
        return ExpressionMatrix(
            gene_ids, tuple(f"s{i}" for i in range(n)), labels, np.array(rows)
        )

    def test_decisive_gene_survives_to_final_step(self):
        m = self._planted()
        plan = stratified_folds(m.labels, 5, seed=6)
        trace = recursive_eliminate(m, GeneSet("start", m.gene_ids), plan, FAST, drop_per_step=2)
        assert "decisive" in trace.steps[-1].genes.gene_ids
        assert len(trace.steps[-1].genes) == 3

    def test_loop_arithmetic_from_five_genes(self, tmp_path):
        m = self._planted(noise_genes=4)
        plan = stratified_folds(m.labels, 5, seed=7)
        trace = recursive_eliminate(m, GeneSet("start", m.gene_ids), plan, FAST, drop_per_step=1)
        sizes = [len(s.genes) for s in trace.steps]
        assert sizes == [5, 4, 3]
        export_trace(trace, tmp_path, trace.best.genes)
        with open(tmp_path / "trace.csv", newline="") as fh:
            assert [row["dropped"] for row in csv.DictReader(fh)] == ["0", "1", "2"]

    def test_nesting_and_step_sizes(self):
        m = self._planted()
        plan = stratified_folds(m.labels, 5, seed=8)
        trace = recursive_eliminate(m, GeneSet("start", m.gene_ids), plan, FAST, drop_per_step=4)
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert set(b.genes.gene_ids) < set(a.genes.gene_ids)
            assert len(a.genes) - len(b.genes) in (4, len(a.genes) - 3)

    def test_determinism(self):
        m = self._planted()
        plan = stratified_folds(m.labels, 5, seed=9)
        t1 = recursive_eliminate(m, GeneSet("s", m.gene_ids), plan, FAST, drop_per_step=3)
        t2 = recursive_eliminate(m, GeneSet("s", m.gene_ids), plan, FAST, drop_per_step=3)
        assert [s.genes.gene_ids for s in t1.steps] == [s.genes.gene_ids for s in t2.steps]
        assert [s.report.accuracy for s in t1.steps] == [s.report.accuracy for s in t2.steps]
        assert t1.best_index == t2.best_index

    def test_best_step_prefers_fewer_genes_on_tie(self):
        m = self._planted()
        plan = stratified_folds(m.labels, 5, seed=10)
        trace = recursive_eliminate(m, GeneSet("s", m.gene_ids), plan, FAST, drop_per_step=5)
        accs = [s.report.accuracy for s in trace.steps]
        best_acc = max(accs)
        tied = [i for i, a in enumerate(accs) if abs(a - best_acc) <= 1e-9]
        assert trace.best_index == tied[-1]

    def test_start_of_min_genes_is_one_step_trace(self):
        m = self._planted(noise_genes=2)
        plan = stratified_folds(m.labels, 5, seed=11)
        start = GeneSet("s", m.gene_ids[:MIN_RFE_GENES])
        trace = recursive_eliminate(m, start, plan, FAST)
        assert (len(trace.steps), trace.best_index) == (1, 0)
        assert trace.best.genes == start
        step = cross_validate_step(m, start, plan, FAST)
        assert trace.best.report.accuracy == step.report.accuracy
        assert np.array_equal(trace.best.importance, step.importance)

    def test_empty_start_rejected(self):
        m = self._planted(noise_genes=2)
        plan = stratified_folds(m.labels, 5, seed=11)
        with pytest.raises(ValidationError, match="empty"):
            recursive_eliminate(m, GeneSet("s", ()), plan, FAST)

    def test_export_trace_files_and_metric_recompute(self, tmp_path):
        m = self._planted(noise_genes=6)
        plan = stratified_folds(m.labels, 5, seed=12)
        trace = recursive_eliminate(m, GeneSet("s", m.gene_ids), plan, FAST, drop_per_step=2)
        export_trace(trace, tmp_path, trace.best.genes)
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(rows) == len(trace.steps) + 1
        payload = json.loads((tmp_path / "gene_sets.json").read_text())
        assert payload["best_step"] == trace.best_index
        assert payload["steps"][0]["genes"] == list(trace.steps[0].genes.gene_ids)
        # metrics recomputed from the exported confusion match bit-exactly
        rep = trace.best.report
        again = metrics(rep.confusion, rep.classes)
        assert again == rep.per_class

    # Key genes are ranked from the importances stored with each step, so
    # they must equal what a fresh CV pass on the same genes computes.
    def test_best_step_importance_equals_fresh_cv(self):
        m = self._planted(noise_genes=6)
        plan = stratified_folds(m.labels, 5, seed=13)
        trace = recursive_eliminate(m, GeneSet("s", m.gene_ids), plan, FAST, drop_per_step=2)
        fresh = cross_validate_step(m, trace.best.genes, plan, FAST).importance
        assert np.array_equal(trace.best.importance, fresh)
        assert not trace.best.importance.flags.writeable

    @pytest.mark.parametrize("n_start", [MIN_RFE_GENES, 7])
    def test_pipeline_rfe_importance_equals_fresh_cv(self, tmp_path, n_start):
        m = self._planted(noise_genes=6)
        plan = stratified_folds(m.labels, 5, seed=14)
        cfg = PipelineConfig(matrix="m.tsv", labels="l.tsv", out=tmp_path, k=5,
                             booster=FAST, drop_per_step=2)
        start = GeneSet("s", m.gene_ids[-n_start:])
        kept, imp = _rfe(m, start, plan, _booster_cfg(cfg), cfg.drop_per_step, cfg.repeats,
                         tmp_path / "rfe_x")
        fresh = cross_validate_step(m, kept, plan, _booster_cfg(cfg), cfg.repeats).importance
        assert np.array_equal(imp, fresh)
        if n_start == MIN_RFE_GENES:
            assert kept.gene_ids == start.gene_ids
        # a start at the minimum takes the same path: a one-step trace is written
        assert (tmp_path / "rfe_x" / "trace.csv").exists()
        assert "best step" in kept.provenance
