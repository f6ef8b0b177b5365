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
from .masks import GeneSet
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


def cross_validate(
    m: ExpressionMatrix,
    genes: GeneSet,
    plan: FoldPlan,
    config: BoosterConfig | None = None,
    repeats: int = 1,
) -> CvReport:
    """k-fold cross-validation of the booster on the given gene subset; the
    report of `cross_validate_step`."""
    return cross_validate_step(m, genes, plan, config, repeats).report


def majority_baseline(labels: Sequence[str]) -> float:
    """Accuracy of the constant majority-class predictor (report floor)."""
    labs = list(labels)
    return max(labs.count(c) for c in set(labs)) / len(labs)


@dataclass(frozen=True)
class EliminationStep:
    """One cross-validated gene set. `importance` is the mean normalized gain
    over every model of the step's CV, aligned with `genes.gene_ids`."""

    dropped: int              # total genes dropped so far
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


def cross_validate_step(
    m: ExpressionMatrix,
    genes: GeneSet,
    plan: FoldPlan,
    config: BoosterConfig | None = None,
    repeats: int = 1,
    dropped: int = 0,
) -> EliminationStep:
    """k-fold cross-validation of the booster on one gene set: the report and
    the mean normalized gain importance over every model trained.

    Repeat 0 uses the plan verbatim; each further repeat reshuffles folds
    with seed = plan.seed + repeat and reapplies the plan's replication
    factors. Folds whose training split holds a single class are skipped
    with a warning.
    """
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    if plan.labels != m.labels:
        raise ValidationError("fold plan labels do not match the matrix")
    config = config or BoosterConfig()
    rows = m.gene_index(genes.gene_ids)
    X = m.values[rows].T
    y = np.asarray(m.labels, dtype=object)
    classes = tuple(sorted(set(m.labels)))
    cidx = {c: k for k, c in enumerate(classes)}

    repeat_accs: list[float] = []
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    importance_acc = np.zeros(len(genes))
    models = 0

    for r in range(repeats):
        plan_r = plan if r == 0 else oversample(
            stratified_folds(plan.labels, plan.k, plan.seed + r), plan.replication
        )
        fold_accs: list[float] = []
        last_repeat = r == repeats - 1
        for v in range(plan_r.k):
            tr, va = cv_split(plan_r, v)
            if va.size == 0:
                logger.warning("fold %d is empty; skipped", v)
                continue
            if len(set(y[tr])) < 2:
                logger.warning("fold %d has a single training class; skipped", v)
                continue
            ens = train(X[tr], list(y[tr]), config)
            pred, _ = predict(ens, X[va])
            fold_accs.append(float(np.mean(pred == y[va])))
            importance_acc += ens.importance
            models += 1
            if last_repeat:
                for t_lab, p_lab in zip(y[va], pred):
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
    return EliminationStep(dropped, genes, report, importance_acc / max(models, 1))


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
    MIN_RFE_GENES remain, so surviving sets are strictly nested. Best step is
    the highest mean accuracy; accuracies equal within 1e-9 resolve toward
    fewer genes.
    """
    if len(start) <= MIN_RFE_GENES:
        raise ValidationError(f"start set must hold more than {MIN_RFE_GENES} genes")
    if drop_per_step < 1:
        raise ValidationError("drop_per_step must be >= 1")
    config = config or BoosterConfig()

    steps: list[EliminationStep] = []
    current = start
    dropped_total = 0
    while True:
        step = cross_validate_step(m, current, plan, config, repeats, dropped_total)
        steps.append(step)
        if len(current) <= MIN_RFE_GENES:
            break
        imp = step.importance
        d = min(drop_per_step, len(current) - MIN_RFE_GENES)
        ranked = sorted(range(len(current)), key=lambda i: (imp[i], current.gene_ids[i]))
        victims = {current.gene_ids[i] for i in ranked[:d]}
        survivors = tuple(g for g in current.gene_ids if g not in victims)
        dropped_total += d
        current = GeneSet(
            f"{start.name}_drop{dropped_total}",
            survivors,
            provenance=f"rfe from {start.name}, {dropped_total} dropped",
        )

    best = 0
    for i in range(1, len(steps)):
        if steps[i].report.accuracy > steps[best].report.accuracy + ACCURACY_TIE_TOL:
            best = i
        elif abs(steps[i].report.accuracy - steps[best].report.accuracy) <= ACCURACY_TIE_TOL:
            best = i  # equal accuracy, fewer genes
    return EliminationTrace(tuple(steps), best, plan.seed)


def export_trace(trace: EliminationTrace, out_dir: str | Path) -> None:
    """Write trace.csv (dropped, surviving, accuracy) and gene_sets.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["step", "dropped", "surviving", "accuracy", "is_best"])
        for i, s in enumerate(trace.steps):
            w.writerow([i, s.dropped, len(s.genes), repr(s.report.accuracy), int(i == trace.best_index)])
    payload = {
        "seed": trace.seed,
        "best_step": trace.best_index,
        "steps": [
            {"dropped": s.dropped, "genes": list(s.genes.gene_ids), "accuracy": s.report.accuracy}
            for s in trace.steps
        ],
    }
    (out / "gene_sets.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")


def report_to_dict(report: CvReport) -> dict:
    return {
        "accuracy": report.accuracy,
        "fold_count": report.fold_count,
        "repeat_count": report.repeat_count,
        "classes": list(report.classes),
        "confusion": report.confusion.tolist(),
        "per_class": {
            cl: {"precision": mts.precision, "recall": mts.recall, "f1": mts.f1}
            for cl, mts in report.per_class.items()
        },
    }
