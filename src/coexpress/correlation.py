"""Pearson correlation kernel, all-pairs matrices, group summaries, heatmap export."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError, ZeroVarianceError
from .matrix import ExpressionMatrix
from .textio import write_rows, write_text

logger = logging.getLogger(__name__)

SVG_MAX_CELLS = 1000  # larger matrices are exported CSV-only


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson coefficient via mean-centered dot products.

    Raises ZeroVarianceError when either vector is constant (never silently
    returns 0). The result is clamped into [-1, 1] against floating rounding.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or yv.ndim != 1 or xv.size != yv.size:
        raise ValidationError("pearson needs two equal-length vectors")
    if xv.size < 2:
        raise ValidationError("pearson needs length >= 2")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise ValidationError("pearson inputs must be finite")
    dx = xv - xv.mean()
    dy = yv - yv.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise ZeroVarianceError("zero variance input to pearson")
    r = float(dx @ dy) / np.sqrt(sx * sy)
    return float(min(1.0, max(-1.0, r)))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric correlation matrix over the samples or genes in `ids`."""

    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "ids", tuple(self.ids))
        n = len(self.ids)
        if vals.shape != (n, n):
            raise ValidationError("correlation matrix must be square over ids")


def _standardize_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Center and L2-normalize rows; returns (unit rows, nonconstant mask)."""
    unit = block - block.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", unit, unit))
    ok = norms > 0.0
    np.divide(unit, np.where(ok, norms, 1.0)[:, None], out=unit)
    # a row whose tiny centred values square to a zero norm is zeroed too
    unit[~ok] = 0.0
    return unit, ok


def correlation_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs Pearson over the rows of `block`.

    Returns (matrix over non-constant rows, boolean keep mask). The matrix is
    clamped into [-1, 1] with an exact unit diagonal.
    """
    unit, ok = _standardize_rows(block)
    kept = unit if ok.all() else unit[ok]
    corr = kept @ kept.T
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr, ok


def pairwise(
    m: ExpressionMatrix,
    axis: str = "samples",
    subset: Sequence[str] | None = None,
) -> CorrelationMatrix:
    """Full symmetric Pearson matrix over samples (columns) or genes (rows).

    With axis="samples" and a gene subset, correlations use only the subset's
    rows. Zero-variance entities are left out of `ids` and logged.
    """
    if axis not in ("samples", "genes"):
        raise ValidationError("axis must be 'samples' or 'genes'")
    work = m if subset is None else m.select_genes(list(subset))
    if subset is not None and work.n_genes < 2 and axis == "samples":
        raise ValidationError("subset of size < 2: correlation undefined")

    if axis == "samples":
        block, ids = work.values.T, work.sample_ids
    else:
        block, ids = work.values, work.gene_ids

    if block.shape[1] < 2:
        raise ValidationError("need >= 2 observations per entity")
    corr, ok = correlation_block(block)
    excluded = tuple(ids[i] for i in np.flatnonzero(~ok))
    if excluded:
        logger.warning("excluding %d zero-variance %s(s): %s", len(excluded), axis[:-1],
                       ", ".join(excluded[:10]))
    kept_ids = tuple(ids[i] for i in np.flatnonzero(ok))
    if len(kept_ids) < 2:
        raise ValidationError("fewer than 2 usable entities after zero-variance exclusion")
    return CorrelationMatrix(kept_ids, corr)


@dataclass(frozen=True)
class GroupMeanTable:
    """Class x class mean-correlation table; NaN marks undefined cells."""

    classes: tuple[str, ...]
    means: np.ndarray


def _check_groups(c: CorrelationMatrix, groups: Sequence[str]) -> None:
    if len(groups) != len(c.ids):
        raise ValidationError("one class per entity required")


def group_mean(c: CorrelationMatrix, groups: Sequence[str]) -> GroupMeanTable:
    """Mean correlation within and between classes.

    Within-class cells average all unordered pairs i<j of the class (self
    pairs excluded); between-class cells average all cross pairs. A class
    with fewer than 2 members gets NaN on its diagonal cell.
    """
    _check_groups(c, groups)
    classes = list(dict.fromkeys(groups))
    idx = {cl: np.flatnonzero(np.asarray(groups, dtype=object) == cl) for cl in classes}
    n = len(classes)
    means = np.full((n, n), np.nan)
    for a_i, a in enumerate(classes):
        for b_i, b in enumerate(classes):
            ia, ib = idx[a], idx[b]
            if a_i == b_i:
                if ia.size < 2:
                    continue
                sub = c.values[np.ix_(ia, ia)]
                iu = np.triu_indices(ia.size, k=1)
                means[a_i, b_i] = sub[iu].mean()
            else:
                means[a_i, b_i] = c.values[np.ix_(ia, ib)].mean()
    return GroupMeanTable(tuple(classes), means)


def _heatmap_order(c: CorrelationMatrix, groups: Sequence[str]) -> list[int]:
    """Group entities by class; sort within group by descending own-group mean."""
    order: list[int] = []
    garr = np.asarray(groups, dtype=object)
    for cl in dict.fromkeys(groups):
        members = np.flatnonzero(garr == cl)
        if members.size == 1:
            order.extend(members.tolist())
            continue
        sub = c.values[np.ix_(members, members)]
        # Mean coefficient against the other members of the same group.
        own_mean = (sub.sum(axis=1) - 1.0) / (members.size - 1)
        ranked = sorted(range(members.size), key=lambda k: (-own_mean[k], c.ids[members[k]]))
        order.extend(members[k] for k in ranked)
    return order


def _diverging_color(v: float) -> str:
    """-1 -> blue, 0 -> white, +1 -> red."""
    blue = (59, 76, 192)
    red = (180, 4, 38)
    white = (255, 255, 255)
    v = min(1.0, max(-1.0, v))
    if v < 0:
        t = -v
        rgb = tuple(round(white[k] + t * (blue[k] - white[k])) for k in range(3))
    else:
        rgb = tuple(round(white[k] + v * (red[k] - white[k])) for k in range(3))
    return "#{:02X}{:02X}{:02X}".format(*rgb)


def export_heatmap(
    c: CorrelationMatrix,
    groups: Sequence[str],
    csv_path: str | Path | None = None,
    svg_path: str | Path | None = None,
) -> None:
    """Write the class-grouped, within-group-sorted matrix as CSV and/or SVG.

    The SVG is a plain grid of rects on a diverging blue-white-red scale;
    matrices larger than SVG_MAX_CELLS x SVG_MAX_CELLS are exported CSV-only.
    """
    _check_groups(c, groups)
    order = _heatmap_order(c, groups)
    ids = [c.ids[i] for i in order]
    vals = c.values[np.ix_(order, order)]

    if csv_path is not None:
        write_rows(csv_path, ["", *ids],
                   ([rid, *(repr(float(v)) for v in vals[i])] for i, rid in enumerate(ids)))

    if svg_path is not None:
        n = len(ids)
        if n > SVG_MAX_CELLS:
            logger.warning("matrix %dx%d exceeds the %d-cell SVG cap; skipping SVG", n, n, SVG_MAX_CELLS)
            return
        cell = max(1, 1000 // max(n, 1))
        size = cell * n
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">'
        ]
        for i in range(n):
            for j in range(n):
                parts.append(
                    f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" height="{cell}" '
                    f'fill="{_diverging_color(float(vals[i, j]))}"/>'
                )
        parts.append("</svg>")
        write_text(svg_path, "\n".join(parts))
