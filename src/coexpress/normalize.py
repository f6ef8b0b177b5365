"""Per-gene normalization schemes applied row-wise to an expression matrix."""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateRowError, ValidationError
from .matrix import ExpressionMatrix

logger = logging.getLogger(__name__)

VARIANTS = ("origin", "range", "log", "rank", "logit", "logit_log")


@dataclass(frozen=True)
class NormalizationScheme:
    """One of the six row-wise transforms; epsilon clamps logit inputs away from {0, 1}."""

    variant: str
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown scheme {self.variant!r}; expected one of {VARIANTS}")
        if not 0.0 < self.epsilon < 0.5:
            raise ValidationError("epsilon must lie in (0, 0.5)")


def _range_map(v: np.ndarray) -> np.ndarray:
    lo, hi = v.min(), v.max()
    if hi == lo:
        raise DegenerateRowError("constant row: range map undefined")
    with np.errstate(over="ignore"):
        span = hi - lo
    if np.isinf(span):  # the row spans more than the largest double; halves cannot overflow
        return (v / 2.0 - lo / 2.0) / (hi / 2.0 - lo / 2.0)
    return (v - lo) / span


def _log10_values(v: np.ndarray) -> np.ndarray:
    if np.any(v < 0):
        raise ValidationError("log scheme requires nonnegative values")
    v = v.astype(np.float64, copy=True)
    zeros = v == 0.0
    if zeros.any():
        positive = v[~zeros]
        if positive.size == 0:
            raise DegenerateRowError("all-zero row: log map undefined")
        # log10(0) is undefined; zeros are clamped below the row's smallest
        # positive value so ordering is preserved.
        floor = positive.min() / 10.0
        if floor == 0.0:  # a subnormal minimum: the clamp underflowed, so clamp its log instead
            logs = np.log10(np.where(zeros, 1.0, v))
            logs[zeros] = logs[~zeros].min() - 1.0
            return logs
        v[zeros] = floor
    return np.log10(v)


def _dense_ranks(v: np.ndarray) -> np.ndarray:
    # np.unique returns sorted distinct values; inverse indices are dense ranks - 1.
    _, inverse = np.unique(v, return_inverse=True)
    return inverse.astype(np.float64) + 1.0


def _logit(z: np.ndarray, epsilon: float) -> np.ndarray:
    z = np.clip(z, epsilon, 1.0 - epsilon)
    return np.log(z / (1.0 - z))


def normalize_row(values: np.ndarray, scheme: NormalizationScheme) -> np.ndarray:
    """Transform one gene row according to the scheme.

    origin: identity. range: [min,max] -> [0,1]. log: log10 then range.
    rank: dense ranks 1..R (equal values share a rank) mapped onto [0,1].
    logit: -ln(1/x - 1) of the range-normalized values, clamped to
    [epsilon, 1-epsilon]. logit_log: the same logit on the log-normalized
    values. Raises DegenerateRowError for constant rows under every scheme
    except origin.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValidationError("row must be a vector of length >= 2")
    if not np.all(np.isfinite(v)):
        raise ValidationError("row contains non-finite values")

    if scheme.variant == "origin":
        return v.copy()
    if scheme.variant == "range":
        return _range_map(v)
    if scheme.variant == "log":
        return _range_map(_log10_values(v))
    if scheme.variant == "rank":
        ranks = _dense_ranks(v)
        r = ranks.max()
        if r == 1.0:
            raise DegenerateRowError("constant row: single rank")
        return (ranks - 1.0) / (r - 1.0)
    if scheme.variant == "logit":
        return _logit(_range_map(v), scheme.epsilon)
    # logit_log
    return _logit(_range_map(_log10_values(v)), scheme.epsilon)


def normalize_matrix(m: ExpressionMatrix, scheme: NormalizationScheme) -> ExpressionMatrix:
    """Apply the scheme to every gene row independently.

    Degenerate (constant) rows are dropped and logged; IDs, sample order, and
    labels are unchanged. Raises if every row is degenerate.
    """
    out = np.empty_like(m.values)  # kept rows fill it from the top
    kept: list[str] = []
    dropped: list[str] = []
    for i, gid in enumerate(m.gene_ids):
        try:
            out[len(kept)] = normalize_row(m.values[i], scheme)
        except DegenerateRowError:
            dropped.append(gid)
            continue
        kept.append(gid)
    if not kept:
        raise ValidationError("every row is degenerate under this scheme")
    if dropped:
        logger.warning(
            "%s normalization dropped %d degenerate gene(s): %s",
            scheme.variant, len(dropped), ", ".join(dropped[:10]) + ("..." if len(dropped) > 10 else ""),
        )
    return replace(m, gene_ids=tuple(kept), values=out[:len(kept)])
