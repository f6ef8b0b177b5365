"""Site-indicator masks, gene-vs-mask correlations, and threshold selection rules."""
from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .correlation import _standardize_rows
from .errors import ValidationError
from .matrix import ExpressionMatrix, read_text

logger = logging.getLogger(__name__)

DEFAULT_PAIR = ("LN", "Bone")  # the paper's discriminand sites


@dataclass(frozen=True)
class SiteMask:
    """Binary indicator over samples for one site class."""

    site: str
    indicator: np.ndarray

    def __post_init__(self):
        ind = np.ascontiguousarray(self.indicator, dtype=np.uint8)
        ind.flags.writeable = False
        object.__setattr__(self, "indicator", ind)
        ones = int(ind.sum())
        if ones == 0 or ones == ind.size:
            raise ValidationError(f"mask for {self.site!r} must contain both 0s and 1s")


def build_masks(labels: Sequence[str]) -> list[SiteMask]:
    """One mask per site class, in order of first appearance; masks sum to all-ones."""
    classes = list(dict.fromkeys(labels))
    if len(classes) < 2:
        raise ValidationError("need at least 2 distinct site classes")
    arr = np.asarray(labels, dtype=object)
    return [SiteMask(cl, (arr == cl).astype(np.uint8)) for cl in classes]


@dataclass(frozen=True)
class MaskCorrelations:
    """Per-gene Pearson correlation against each site mask.

    values[i, s] is the correlation of gene i with mask s. `excluded` lists
    genes dropped for zero variance.
    """

    gene_ids: tuple[str, ...]
    sites: tuple[str, ...]
    values: np.ndarray
    excluded: tuple[str, ...] = ()

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "gene_ids", tuple(self.gene_ids))
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "excluded", tuple(self.excluded))
        if vals.shape != (len(self.gene_ids), len(self.sites)):
            raise ValidationError("values must be genes x sites")

    def site_column(self, site: str) -> np.ndarray:
        if site not in self.sites:
            raise ValidationError(f"no mask correlations for site {site!r}")
        return self.values[:, self.sites.index(site)]


def mask_correlations(m: ExpressionMatrix, masks: Sequence[SiteMask]) -> MaskCorrelations:
    """Correlate every gene row with every mask indicator.

    Genes with zero variance are excluded (logged), never silently set to 0.
    """
    for mk in masks:
        if mk.indicator.size != m.n_samples:
            raise ValidationError(f"mask {mk.site!r} length does not match sample count")
    gene_unit, gene_ok = _standardize_rows(m.values)
    mask_block = np.vstack([mk.indicator.astype(np.float64) for mk in masks])
    mask_unit, mask_ok = _standardize_rows(mask_block)
    if not np.all(mask_ok):  # SiteMask construction forbids constant indicators
        raise ValidationError("constant mask indicator")
    corr = np.clip(gene_unit[gene_ok] @ mask_unit.T, -1.0, 1.0)
    excluded = tuple(m.gene_ids[i] for i in np.flatnonzero(~gene_ok))
    if excluded:
        logger.warning("mask correlations skipped %d zero-variance gene(s)", len(excluded))
    kept = tuple(m.gene_ids[i] for i in np.flatnonzero(gene_ok))
    return MaskCorrelations(kept, tuple(mk.site for mk in masks), corr, excluded)


@dataclass(frozen=True)
class GeneSet:
    """Ordered, named gene collection with the rule that produced it."""

    name: str
    gene_ids: tuple[str, ...]
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "gene_ids", tuple(self.gene_ids))
        if len(set(self.gene_ids)) != len(self.gene_ids):
            raise ValidationError(f"gene set {self.name!r} contains duplicates")

    def __len__(self) -> int:
        return len(self.gene_ids)

    def __contains__(self, gene: str) -> bool:
        return gene in set(self.gene_ids)


def save_gene_set(gs: GeneSet, path: str | Path) -> None:
    """One gene ID per line with '#'-prefixed name/provenance header."""
    lines = [f"# name: {gs.name}", f"# provenance: {gs.provenance}"]
    lines.extend(gs.gene_ids)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_gene_set(path: str | Path) -> GeneSet:
    name, provenance = Path(path).stem, ""
    genes: list[str] = []
    for raw in read_text(path).splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("name:"):
                name = body[len("name:"):].strip()
            elif body.startswith("provenance:"):
                provenance = body[len("provenance:"):].strip()
            continue
        genes.append(line)
    return GeneSet(name, tuple(genes), provenance)


def _check_threshold(t: float) -> None:
    if not 0.0 < t < 1.0:
        raise ValidationError(f"threshold must lie in (0, 1), got {t}")


def select_by_any_mask(mc: MaskCorrelations, t: float, name: str = "any_mask") -> GeneSet:
    """Keep genes whose best absolute mask correlation reaches t."""
    _check_threshold(t)
    keep = np.abs(mc.values).max(axis=1) >= t
    return GeneSet(
        name,
        tuple(g for g, k in zip(mc.gene_ids, keep) if k),
        provenance=f"max_s |C_s| >= {t}",
    )


def select_three_mask_intersect(mc: MaskCorrelations, t: float, name: str = "mask_intersect") -> GeneSet:
    """Keep genes whose absolute correlation reaches t for EVERY mask."""
    _check_threshold(t)
    keep = np.all(np.abs(mc.values) >= t, axis=1)
    return GeneSet(
        name,
        tuple(g for g, k in zip(mc.gene_ids, keep) if k),
        provenance=f"all_s |C_s| >= {t}",
    )


def default_pair(labels: Sequence[str]) -> tuple[str, str]:
    """The discriminand pair when none is given: LN/Bone when both sites are
    present, else the two largest classes (equal counts order by name)."""
    counts = Counter(labels)
    if all(s in counts for s in DEFAULT_PAIR):
        return DEFAULT_PAIR
    a, b = sorted(counts, key=lambda s: (-counts[s], s))[:2]
    return (a, b)


def _resolve_pair(mc: MaskCorrelations, pair: tuple[str, str]) -> tuple[str, str]:
    if len(pair) != 2:
        raise ValidationError(
            f"discriminand pair must name exactly two sites, got {len(pair)}: {','.join(pair)!r}"
        )
    a, b = pair
    for s in (a, b):
        if s not in mc.sites:
            raise ValidationError(f"pair site {s!r} has no mask correlations")
    if a == b:
        raise ValidationError("discriminand pair must name two distinct sites")
    return (a, b)


def select_pair_opposite(
    mc: MaskCorrelations, t: float, pair: tuple[str, str] = DEFAULT_PAIR,
    name: str = "pair_opposite",
) -> GeneSet:
    """Keep genes strongly and oppositely correlated with the two pair masks."""
    _check_threshold(t)
    a, b = _resolve_pair(mc, pair)
    ca, cb = mc.site_column(a), mc.site_column(b)
    keep = (np.abs(ca) >= t) & (np.abs(cb) >= t) & (ca * cb < 0.0)
    return GeneSet(
        name,
        tuple(g for g, k in zip(mc.gene_ids, keep) if k),
        provenance=f"|C_{a}| >= {t} and |C_{b}| >= {t} and C_{a}*C_{b} < 0",
    )


def select_combined(
    mc: MaskCorrelations, t: float = 0.2, pair: tuple[str, str] = DEFAULT_PAIR,
    name: str = "combined",
) -> GeneSet:
    """Combined rule: every |C_site| >= t AND the pair correlations have opposite signs.

    The sign clause is strict (a zero product is excluded). With more than
    the canonical three sites the all-mask clause covers every mask and the
    opposite-sign clause applies to the configured discriminand pair.
    """
    _check_threshold(t)
    a, b = _resolve_pair(mc, pair)
    ca, cb = mc.site_column(a), mc.site_column(b)
    keep = np.all(np.abs(mc.values) >= t, axis=1) & (ca * cb < 0.0)
    return GeneSet(
        name,
        tuple(g for g, k in zip(mc.gene_ids, keep) if k),
        provenance=f"all_s |C_s| >= {t} and C_{a}*C_{b} < 0",
    )


@dataclass(frozen=True)
class SweepCount:
    threshold: float
    rule: str
    kept: int


def sweep_report(
    mc: MaskCorrelations,
    thresholds: Sequence[float],
    pair: tuple[str, str] = DEFAULT_PAIR,
) -> list[SweepCount]:
    """Kept-gene counts per rule per threshold (any / intersect / combined)."""
    rows: list[SweepCount] = []
    for t in thresholds:
        rows.append(SweepCount(float(t), "any_mask", len(select_by_any_mask(mc, t))))
        rows.append(SweepCount(float(t), "intersect", len(select_three_mask_intersect(mc, t))))
        rows.append(SweepCount(float(t), "combined", len(select_combined(mc, t, pair))))
    return rows


def write_sweep_report(rows: Sequence[SweepCount], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["threshold", "rule", "kept"])
        for r in rows:
            w.writerow([repr(r.threshold), r.rule, r.kept])


def set_difference(a: GeneSet, b: GeneSet, name: str | None = None) -> GeneSet:
    """Genes of `a` not in `b`, preserving the order of `a`."""
    drop = set(b.gene_ids)
    return GeneSet(
        name if name is not None else f"{a.name}-{b.name}",
        tuple(g for g in a.gene_ids if g not in drop),
        provenance=f"{a.name} minus {b.name}",
    )
