"""Stratified fold construction and within-fold oversampling with replica co-location."""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .textio import array, json_text, mapping, read_json, read_text, row, string, whole, write_text

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FoldPlan:
    """Per-sample fold assignment plus per-site extra copies.

    `assignment[i]` is sample i's fold. `replication` maps site -> extra
    copies per sample of that site (0 = no replication; sites absent from it
    get 0). The replicas are not stored: `expanded` derives them from these
    two fields, each in its original's fold, so no original/replica pair can
    straddle a train/validation split.
    """

    k: int
    labels: tuple[str, ...]
    assignment: tuple[int, ...]
    replication: dict[str, int]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "assignment", tuple(int(f) for f in self.assignment))
        object.__setattr__(self, "replication", {s: int(f) for s, f in self.replication.items()})
        if len(self.assignment) != len(self.labels):
            raise ValidationError("one fold assignment per sample required")
        if any(not 0 <= f < self.k for f in self.assignment):
            raise ValidationError("fold index out of range")
        for site, f in self.replication.items():
            if f < 0:
                raise ValidationError(f"extra-copy factor for {site!r} must be >= 0")
        per_class: dict[str, list[int]] = {}
        for i, lab in enumerate(self.labels):
            per_class.setdefault(lab, [0] * self.k)[self.assignment[i]] += 1
        for lab, counts in per_class.items():
            if max(counts) - min(counts) > 1:
                raise ValidationError(
                    f"class {lab!r} fold counts {counts} violate the +-1 stratification bound"
                )

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample index and fold of each row of `expanded`, as two arrays."""
        copies = [1 + self.replication.get(lab, 0) for lab in self.labels]
        return (
            np.repeat(np.arange(self.n_samples, dtype=np.intp), copies),
            np.repeat(np.asarray(self.assignment, dtype=np.intp), copies),
        )

    @property
    def expanded(self) -> tuple[tuple[int, int], ...]:
        """(original sample index, fold) per row, replicas included: each sample
        appears 1 + its site's factor times, its rows together, in sample order."""
        rows, folds = self._rows()
        return tuple(zip(rows.tolist(), folds.tolist()))


def stratified_folds(
    labels: Sequence[str], k: int, seed: int, replication: Mapping[str, int] | None = None
) -> FoldPlan:
    """Assign samples to k folds, per-class round-robin after a seeded shuffle.

    Each fold's class counts match the global distribution within +-1 sample
    per class. Classes with fewer than k members trigger a warning (some
    folds get none). Deterministic for a fixed seed. `replication[site]`
    extra copies of each sample of the site go in the sample's fold (it then
    appears f+1 times in `expanded`); factors must be >= 0, and sites absent
    from it get 0. The fold assignment does not depend on `replication`.
    """
    labels = tuple(labels)
    n = len(labels)
    if k < 2:
        raise ValidationError("k must be >= 2")
    if k > n:
        raise ValidationError(f"k={k} exceeds sample count {n}")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=np.intp)
    for cl in dict.fromkeys(labels):
        idx = np.array([i for i, lab in enumerate(labels) if lab == cl], dtype=np.intp)
        if idx.size < k:
            logger.warning("class %r has %d members for %d folds", cl, idx.size, k)
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            assignment[i] = pos % k
    return FoldPlan(k, labels, assignment.tolist(), replication or {}, seed)


def cv_split(plan: FoldPlan, validation_fold: int) -> tuple[np.ndarray, np.ndarray]:
    """(train indices, validation indices) over the expanded list.

    Indices are original sample indices, repeated per replica, in `expanded`
    order. The two sides partition `expanded`, and no original/replica pair
    straddles the split.
    """
    if not 0 <= validation_fold < plan.k:
        raise ValidationError(f"validation fold {validation_fold} out of range for k={plan.k}")
    rows, folds = plan._rows()
    held = folds == validation_fold
    return rows[~held], rows[held]


def plan_to_json(plan: FoldPlan) -> str:
    return json_text({**asdict(plan), "expanded": plan.expanded})


# plan file key -> its parse
_PLAN_KEYS = {
    "k": whole,
    "labels": lambda v: array(v, string),
    "assignment": lambda v: array(v, whole),
    "replication": lambda v: mapping(v, whole),
    "seed": whole,
    "expanded": lambda v: array(v, lambda pair: row(pair, whole, whole)),
}


def plan_from_json(text: str, source: str = "plan") -> FoldPlan:
    """Read a plan written by `plan_to_json` (every key required; ParseErrors
    name `source`). The file's `expanded` list must equal the one its
    assignment and replication derive."""
    fields = read_json(text, source, _PLAN_KEYS)
    expanded = fields.pop("expanded")
    plan = FoldPlan(**fields)
    if expanded != plan.expanded:
        raise ValidationError(
            "plan file's expanded list does not match its assignment and replication"
        )
    return plan


def save_plan(plan: FoldPlan, path: str | Path) -> None:
    write_text(path, plan_to_json(plan))


def load_plan(path: str | Path) -> FoldPlan:
    return plan_from_json(read_text(path), str(path))
