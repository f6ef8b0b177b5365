"""Cross-validated recursive elimination of tail-importance genes, plus metrics."""
from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .booster import BoosterConfig, predict, train
from .errors import ValidationError
from .folds import FoldPlan, cv_split, oversample, stratified_folds
from .masks import GeneSet, save_gene_set
from .matrix import ExpressionMatrix

logger = logging.getLogger(__name__)

MIN_RFE_GENES = 3
ACCURACY_TIE_TOL = 1e-9


class ClassMetrics(NamedTuple):
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class CvReport:
    """Cross-validation accuracy plus per-class metrics and the confusion matrix.

    The confusion matrix (rows = true class, cols = predicted) is summed over
    the folds of the final repeat; accuracy is averaged over folds, then over
    repeats.
    """

    accuracy: float
    per_class: dict[str, ClassMetrics]
    confusion: np.ndarray
    classes: tuple[str, ...]
    fold_count: int
    repeat_count: int

    def __post_init__(self):
        conf = np.ascontiguousarray(self.confusion, dtype=np.int64)
        conf.flags.writeable = False
        object.__setattr__(self, "confusion", conf)


def metrics(confusion: np.ndarray, classes: Sequence[str]) -> dict[str, ClassMetrics]:
    """Per-class precision/recall/F1 from a confusion matrix; 0/0 cells are None."""
    conf = np.asarray(confusion, dtype=np.float64)
    if conf.ndim != 2 or conf.shape[0] != conf.shape[1] or conf.shape[0] != len(classes):
        raise ValidationError("confusion matrix must be square over the classes")
    out: dict[str, ClassMetrics] = {}
    for k, cl in enumerate(classes):
        tp = conf[k, k]
        col = conf[:, k].sum()
        row = conf[k, :].sum()
        precision = tp / col if col > 0 else None
        recall = tp / row if row > 0 else None
        if precision is None or recall is None or precision + recall == 0:
            f1 = None
        else:
            f1 = 2 * precision * recall / (precision + recall)
        out[cl] = ClassMetrics(precision, recall, f1)
    return out


def majority_baseline(labels: Sequence[str]) -> float:
    """Accuracy of the constant majority-class predictor (report floor)."""
    labs = list(labels)
    return max(labs.count(c) for c in set(labs)) / len(labs)


@dataclass(frozen=True)
class EliminationStep:
    """One cross-validated gene set. `importance` is the mean normalized gain
    over every model of the step's CV, aligned with `genes.gene_ids`."""

    genes: GeneSet
    report: CvReport
    importance: np.ndarray

    def __post_init__(self):
        imp = np.ascontiguousarray(self.importance, dtype=np.float64)
        imp.flags.writeable = False
        object.__setattr__(self, "importance", imp)


@dataclass(frozen=True)
class EliminationTrace:
    steps: tuple[EliminationStep, ...]
    best_index: int
    seed: int

    @property
    def best(self) -> EliminationStep:
        return self.steps[self.best_index]


def _cv_fold(X: np.ndarray, y: np.ndarray, plan: FoldPlan, v: int, config: BoosterConfig):
    """Fold `v` of `plan`: a skip reason, or (validation labels, predictions,
    model importance). No logging and no accumulator, so folds can run in any
    order or process. `cv_split`, `train` and `predict` are module globals
    here because perfbench/tracer.py wraps them by name."""
    tr, va = cv_split(plan, v)
    if va.size == 0:
        return "is empty"
    if len(set(y[tr])) < 2:
        return "has a single training class"
    ens = train(X[tr], list(y[tr]), config)
    pred, _ = predict(ens, X[va])
    return y[va], pred, ens.importance


def cross_validate_step(
    m: ExpressionMatrix,
    genes: GeneSet,
    plan: FoldPlan,
    config: BoosterConfig | None = None,
    repeats: int = 1,
) -> EliminationStep:
    """k-fold cross-validation of the booster on one gene set: the report and
    the mean normalized gain importance over every model trained.

    Repeat 0 uses the plan verbatim; each further repeat reshuffles folds
    with seed = plan.seed + repeat and reapplies the plan's replication
    factors. Folds whose training split holds a single class are skipped
    with a warning. Each repeat maps `_cv_fold` over its folds, then reduces
    in fold order (warnings, accuracies, importance sum, confusion).
    """
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    if plan.labels != m.labels:
        raise ValidationError("fold plan labels do not match the matrix")
    config = config or BoosterConfig()  # perfbench/tracer.py reads the config passed to train
    X = m.values[m.gene_index(genes.gene_ids)].T
    y = np.asarray(m.labels, dtype=object)
    classes = tuple(sorted(set(m.labels)))
    cidx = {c: k for k, c in enumerate(classes)}

    repeat_accs: list[float] = []
    importance_acc = np.zeros(len(genes))
    models = 0
    for r in range(repeats):
        plan_r = plan if r == 0 else oversample(
            stratified_folds(plan.labels, plan.k, plan.seed + r), plan.replication
        )
        folds = [_cv_fold(X, y, plan_r, v, config) for v in range(plan_r.k)]
        fold_accs: list[float] = []
        confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
        for v, fold in enumerate(folds):
            if isinstance(fold, str):
                logger.warning("fold %d %s; skipped", v, fold)
                continue
            truth, pred, importance = fold
            fold_accs.append(float(np.mean(pred == truth)))
            importance_acc += importance
            models += 1
            for t_lab, p_lab in zip(truth, pred):
                confusion[cidx[t_lab], cidx[p_lab]] += 1
        if not fold_accs:
            raise ValidationError("every fold was skipped; cannot cross-validate")
        repeat_accs.append(float(np.mean(fold_accs)))

    report = CvReport(
        accuracy=float(np.mean(repeat_accs)),
        per_class=metrics(confusion, classes),
        confusion=confusion,
        classes=classes,
        fold_count=plan.k,
        repeat_count=repeats,
    )
    return EliminationStep(genes, report, importance_acc / models)


def recursive_eliminate(
    m: ExpressionMatrix,
    start: GeneSet,
    plan: FoldPlan,
    config: BoosterConfig | None = None,
    drop_per_step: int = 1,
    repeats: int = 1,
) -> EliminationTrace:
    """Repeatedly cross-validate, then drop the lowest-importance genes.

    Importance is the mean of per-model normalized gain scores over every
    model trained in the step's cross-validation; ties rank by gene ID. Each
    step drops min(drop_per_step, surviving - MIN_RFE_GENES) genes until only
    MIN_RFE_GENES remain, so surviving sets are strictly nested; a start of at
    most MIN_RFE_GENES genes gives a one-step trace. Best step is the highest
    mean accuracy; accuracies equal within 1e-9 resolve toward fewer genes.
    """
    if len(start) == 0:
        raise ValidationError("start set is empty")
    if drop_per_step < 1:
        raise ValidationError("drop_per_step must be >= 1")

    steps: list[EliminationStep] = []
    current = start
    while True:
        step = cross_validate_step(m, current, plan, config, repeats)
        steps.append(step)
        if len(current) <= MIN_RFE_GENES:
            break
        imp = step.importance
        d = min(drop_per_step, len(current) - MIN_RFE_GENES)
        ranked = sorted(range(len(current)), key=lambda i: (imp[i], current.gene_ids[i]))
        victims = {current.gene_ids[i] for i in ranked[:d]}
        survivors = tuple(g for g in current.gene_ids if g not in victims)
        dropped = len(start) - len(survivors)
        current = GeneSet(
            f"{start.name}_drop{dropped}",
            survivors,
            provenance=f"rfe from {start.name}, {dropped} dropped",
        )

    best = 0
    for i, s in enumerate(steps):
        if s.report.accuracy >= steps[best].report.accuracy - ACCURACY_TIE_TOL:
            best = i  # higher, or equal within the tolerance with fewer genes
    return EliminationTrace(tuple(steps), best, plan.seed)


def export_trace(trace: EliminationTrace, out_dir: str | Path, best: GeneSet) -> None:
    """Write trace.csv (dropped, surviving, accuracy), gene_sets.json, the best
    step's cv_report.json, and `best` as best.genes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = len(trace.steps[0].genes)
    with open(out / "trace.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["step", "dropped", "surviving", "accuracy", "is_best"])
        for i, s in enumerate(trace.steps):
            w.writerow([i, start - len(s.genes), len(s.genes), repr(s.report.accuracy),
                        int(i == trace.best_index)])
    payload = {
        "seed": trace.seed,
        "best_step": trace.best_index,
        "steps": [
            {"dropped": start - len(s.genes), "genes": list(s.genes.gene_ids),
             "accuracy": s.report.accuracy}
            for s in trace.steps
        ],
    }
    (out / "gene_sets.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")
    report = trace.best.report
    summary = {"accuracy": report.accuracy, "fold_count": report.fold_count,
               "repeat_count": report.repeat_count, "classes": list(report.classes),
               "confusion": report.confusion.tolist(),
               "per_class": {cl: mts._asdict() for cl, mts in report.per_class.items()}}
    (out / "cv_report.json").write_text(json.dumps(summary, indent=2, sort_keys=True),
                                        encoding="utf-8")
    save_gene_set(best, out / "best.genes")
