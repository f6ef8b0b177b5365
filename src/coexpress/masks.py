"""Site-indicator masks, gene-vs-mask correlations, and threshold selection rules."""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .correlation import _standardize_rows
from .errors import ValidationError
from .matrix import ExpressionMatrix, check_pair
from .textio import read_text, write_rows, write_text

logger = logging.getLogger(__name__)

DEFAULT_PAIR = ("LN", "Bone")  # the paper's discriminand sites


@dataclass(frozen=True)
class MaskCorrelations:
    """Per-gene Pearson correlation against each site mask.

    values[i, s] is the correlation of gene i with mask s. Genes of zero
    variance have no row.
    """

    gene_ids: tuple[str, ...]
    sites: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "gene_ids", tuple(self.gene_ids))
        object.__setattr__(self, "sites", tuple(self.sites))
        if vals.shape != (len(self.gene_ids), len(self.sites)):
            raise ValidationError("values must be genes x sites")

    def site_column(self, site: str) -> np.ndarray:
        if site not in self.sites:
            raise ValidationError(f"no mask correlations for site {site!r}")
        return self.values[:, self.sites.index(site)]


def mask_correlations(m: ExpressionMatrix) -> MaskCorrelations:
    """Correlate every gene row with each site's 0/1 sample indicator, sites in
    order of first appearance.

    Genes with zero variance are excluded (logged), never silently set to 0.
    Fewer than 2 sites raise; with 2 or more, no indicator is constant.
    """
    sites = tuple(dict.fromkeys(m.labels))
    if len(sites) < 2:
        raise ValidationError("need at least 2 distinct site classes")
    labels = np.asarray(m.labels, dtype=object)
    gene_unit, gene_ok = _standardize_rows(m.values)
    mask_unit, _ = _standardize_rows(np.vstack([(labels == s).astype(np.float64) for s in sites]))
    corr = (gene_unit if gene_ok.all() else gene_unit[gene_ok]) @ mask_unit.T
    np.clip(corr, -1.0, 1.0, out=corr)
    n_constant = int(np.count_nonzero(~gene_ok))
    if n_constant:
        logger.warning("mask correlations skipped %d zero-variance gene(s)", n_constant)
    kept = tuple(m.gene_ids[i] for i in np.flatnonzero(gene_ok))
    return MaskCorrelations(kept, sites, corr)


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


def save_gene_set(gs: GeneSet, path: str | Path) -> None:
    """Two header lines, `# name: ...` and `# provenance: ...`, then one gene ID per line."""
    lines = [f"# name: {gs.name}", f"# provenance: {gs.provenance}"]
    lines.extend(gs.gene_ids)
    write_text(path, "\n".join(lines) + "\n")


def load_gene_set(path: str | Path) -> GeneSet:
    """Read a `save_gene_set` file. A line is a header only if it starts with
    `#` and, after the `#`s and spaces, with `name:` or `provenance:`; every
    other non-blank line is one gene ID, so an ID may begin with `#`. The name
    defaults to the file's stem."""
    header = {"name": Path(path).stem, "provenance": ""}
    genes: list[str] = []
    for raw in read_text(path).splitlines():
        line = raw.strip()
        key, colon, value = line.lstrip("#").strip().partition(":")
        if line.startswith("#") and colon and key in header:
            header[key] = value.strip()
        elif line:
            genes.append(line)
    return GeneSet(header["name"], tuple(genes), header["provenance"])


def check_threshold(t: float) -> None:
    if not 0.0 < t < 1.0:
        raise ValidationError(f"threshold must lie in (0, 1), got {t}")


def select_by_any_mask(mc: MaskCorrelations, t: float, name: str = "any_mask") -> GeneSet:
    """Keep genes whose best absolute mask correlation reaches t."""
    check_threshold(t)
    keep = np.abs(mc.values).max(axis=1) >= t
    return GeneSet(
        name,
        tuple(g for g, k in zip(mc.gene_ids, keep) if k),
        provenance=f"max_s |C_s| >= {t}",
    )


def select_three_mask_intersect(mc: MaskCorrelations, t: float, name: str = "mask_intersect") -> GeneSet:
    """Keep genes whose absolute correlation reaches t for EVERY mask."""
    check_threshold(t)
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
    if len(counts) < 2:
        raise ValidationError("need at least 2 distinct site classes")
    if all(s in counts for s in DEFAULT_PAIR):
        return DEFAULT_PAIR
    a, b = sorted(counts, key=lambda s: (-counts[s], s))[:2]
    return (a, b)


def select_combined(
    mc: MaskCorrelations, t: float, pair: tuple[str, str], name: str = "combined",
) -> GeneSet:
    """Combined rule: every |C_site| >= t AND the pair correlations have opposite signs.

    The sign clause is strict (a zero product is excluded). With more than
    the canonical three sites the all-mask clause covers every mask and the
    opposite-sign clause applies to the configured discriminand pair.
    """
    check_threshold(t)
    a, b = check_pair(mc.sites, pair)
    ca, cb = mc.site_column(a), mc.site_column(b)
    keep = np.all(np.abs(mc.values) >= t, axis=1) & (ca * cb < 0.0)
    return GeneSet(
        name,
        tuple(g for g, k in zip(mc.gene_ids, keep) if k),
        provenance=f"all_s |C_s| >= {t} and C_{a}*C_{b} < 0",
    )


def write_sweep_report(
    mc: MaskCorrelations, thresholds: Sequence[float], pair: tuple[str, str], path: str | Path
) -> None:
    """Write the kept-gene count of each rule (any / intersect / combined) at each
    threshold. A bad pair or threshold raises before the file is opened."""
    check_pair(mc.sites, pair)
    for t in thresholds:
        check_threshold(t)
    rules = (
        ("any_mask", lambda t: select_by_any_mask(mc, t)),
        ("intersect", lambda t: select_three_mask_intersect(mc, t)),
        ("combined", lambda t: select_combined(mc, t, pair)),
    )
    write_rows(path, ["threshold", "rule", "kept"],
               ([repr(float(t)), rule, len(select(t))] for t in thresholds for rule, select in rules))
