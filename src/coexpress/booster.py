"""Gradient-boosted regression trees for multiclass classification.

Newton boosting on the softmax cross-entropy objective: each round grows one
regression tree per class on the per-sample gradient g = p - y and Hessian
h = p(1 - p) of the loss with respect to that class's margin. Trees are grown
by exact greedy search over midpoints between consecutive distinct sorted
feature values, maximizing

    gain = 1/2 * [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - (G_L+G_R)^2/(H_L+H_R+lambda)]

and splitting only when gain - gamma > 0; leaf weight is -G/(H+lambda),
scaled by the learning rate. All class trees of a round grow together, one
depth at a time (`_LevelGrower`).

Determinism contract. A model is a floating-point function of the summation
order, so the order is fixed, and a speed-up that changes it changes models:

- ties in a feature are ordered by sample index: each feature is sorted once
  per fit with a stable argsort, and a node's order is the stable partition
  of its parent's, so the order does not depend on the CPU's SIMD level;
- the prefix sums G_L, H_L run sequentially (`cumsum`) along a node's sorted
  order, and G_R, H_R are the node totals minus them;
- a node's totals G, H are numpy's pairwise sums of its g and h in sample order;
- a tie between candidate splits goes to the lowest feature index, then the
  lowest threshold.

`np.exp` and `np.log` in `_softmax` and `_log_loss` still use numpy's SIMD
kernels, whose last bits can differ between CPUs.

`tests/test_environments.py` is the table of environments the contract holds
under: each row must reproduce the golden models and pipeline bit for bit.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .textio import array, number, read_json, read_object, whole

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BoosterConfig:
    learning_rate: float = 0.1
    max_depth: int = 3
    n_estimators: int = 100
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    subsample: float = 1.0
    colsample: float = 1.0
    base_score: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in RULES:
            check_rule(name, getattr(self, name), f"{name} ")


# field -> (rule, the rule in words, flag help), read here and by pipeline.SETTINGS' [booster] keys
RULES: dict[str, tuple[Callable[[float], bool], str, str]] = {
    "learning_rate": (lambda v: 0 < v < math.inf, "must be finite and > 0", "leaf-weight shrinkage"),
    "max_depth": (lambda v: v >= 1, "must be >= 1", "depth limit of each tree"),
    "n_estimators": (lambda v: v >= 1, "must be >= 1", "boosting rounds, one tree per class each"),
    "reg_lambda": (lambda v: 0 <= v < math.inf, "must be finite and >= 0", "L2 penalty on leaf weights"),
    "gamma": (lambda v: 0 <= v < math.inf, "must be finite and >= 0", "least loss reduction a split needs"),
    "min_child_weight": (lambda v: 0 <= v < math.inf, "must be finite and >= 0", "least child Hessian sum"),
    "subsample": (lambda v: 0 < v <= 1, "must lie in (0, 1]", "row fraction per tree"),
    "colsample": (lambda v: 0 < v <= 1, "must lie in (0, 1]", "feature fraction per tree"),
    "base_score": (lambda v: 0 < v < 1, "must lie in (0, 1)", "initial class probability"),
}


def check_rule(name: str, value: float, prefix: str = "") -> None:
    """Raise unless `value` keeps `name`'s rule, in the rule's words: "<prefix>must be >= 1, got 0"."""
    ok, words, _ = RULES[name]
    if not ok(value):
        raise ValidationError(f"{prefix}{words}, got {value}")


def hyperparameters(config: BoosterConfig) -> dict:
    """Every field of `config` that has a rule: all but `seed`, which callers derive from their own seed."""
    return {name: getattr(config, name) for name in RULES}


@dataclass(frozen=True)
class RegressionTree:
    """Array-of-nodes binary tree. feature[i] == -1 marks a leaf.

    Internal nodes carry their split gain (the bracketed formula above,
    without the gamma subtraction); leaves carry the learning-rate-scaled
    weight. Routing: x < threshold goes left, x >= threshold goes right.
    """

    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    weight: tuple[float, ...]
    gain: tuple[float, ...]


def tree_predict(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    out = np.zeros(X.shape[0])
    stack = [(0, np.arange(X.shape[0], dtype=np.intp))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        f = tree.feature[node]
        if f < 0:
            out[idx] = tree.weight[node]
            continue
        mask = X[idx, f] < tree.threshold[node]
        stack.append((tree.left[node], idx[mask]))
        stack.append((tree.right[node], idx[~mask]))
    return out


class _Workspace:
    """Buffers for the level searches and partitions of one fit.

    Sized for the largest depth, so a depth allocates no large arrays: on
    wide data the page faults of fresh temporaries cost as much as the
    search itself.
    """

    def __init__(self, size: int):
        self.index = np.arange(size)
        self.cum = np.empty((size, 2))
        self.pairs = np.empty((size, 2))  # gathered before the transposing copy to `left`
        self.left = np.empty((2, size))  # G_L, H_L at the candidate cuts
        self.right = np.empty((3, size))  # G_R, H_R and the parent term
        self.gains = np.empty(size)
        self.cand = np.empty(size, dtype=np.intp)
        self.flags = np.empty((2, size), dtype=bool)
        self.order = np.empty(size, dtype=np.intp)
        self.ords = (np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp))
        self.xs = (np.empty(size), np.empty(size))


def _level_splits(
    gh: np.ndarray,
    ords: np.ndarray,
    xs: np.ndarray,
    sizes: list[int],
    n_rows: int,
    G: list[float],
    H: list[float],
    lam: float,
    min_child_weight: float,
    row_ok: np.ndarray | None = None,
    ws: _Workspace | None = None,
) -> list[tuple[int, int, float, float, int]]:
    """Exact greedy best split of every node of one depth, in one batch.

    The nodes lie one after another in `ords` and `xs`, node s as `n_rows`
    rows of `sizes[s]` entries. Row 0 lists the node's samples, as rows of
    the (gradient, Hessian) columns `gh`, in sample order and is never cut;
    row r > 0 lists them in ascending order of feature r - 1, with the
    matching values in `xs`. G and H are the node totals. `row_ok` (nodes x
    rows, bool) keeps a row out of a node's search. `ws` lends the work
    buffers.

    A cut is a candidate when the values on its two sides differ and H_L
    and H_R both reach min_child_weight; non-finite gains never win.
    Returns (node, feature, threshold, gain, position in `ords` of the last
    entry left of the cut) for each node that has a candidate of finite
    gain, in node order.
    """
    N = ords.size
    ws = ws or _Workspace(N)
    m = np.array(sizes)
    widths = m * n_rows
    ends = widths.cumsum()
    starts = ends - widths
    cum = gh.take(ords, axis=0, out=ws.cum[:N], mode="clip")
    st, s = starts.tolist(), 0
    while s < len(sizes):  # neighbouring nodes of equal size share one cumsum call
        e = s + 1
        while e < len(sizes) and sizes[e] == sizes[s]:
            e += 1
        block = cum[st[s]:st[e - 1] + n_rows * sizes[s]].reshape(e - s, n_rows, sizes[s], 2)
        block[:, 1:].cumsum(axis=2, out=block[:, 1:])
        s = e
    valid, flag = ws.flags[0, :N - 1], ws.flags[1, :N - 1]
    np.greater(xs[1:], xs[:-1], out=valid)
    row_len = m.repeat(n_rows)
    valid[row_len.cumsum()[:-1] - 1] = False  # no cut spans two rows
    valid &= np.greater_equal(cum[:-1, 1], min_child_weight, out=flag)
    if row_ok is not None:
        valid &= row_ok.ravel().repeat(row_len)[:-1]
    n_cand = np.count_nonzero(valid)
    cand = np.compress(valid, ws.index[:N - 1], out=ws.cand[:n_cand])
    lo = cand.searchsorted(starts).tolist()
    hi = cand.searchsorted(ends).tolist()
    Gl, Hl = ws.left[:, :n_cand]
    np.copyto(ws.left[:, :n_cand], cum.take(cand, axis=0, out=ws.pairs[:n_cand], mode="clip").T)
    Gr, Hr, parent = ws.right[:, :n_cand]
    for a, b, Gt, Ht in zip(lo, hi, G, H):
        Gr[a:b] = Gt
        Hr[a:b] = Ht
        parent[a:b] = Gt * Gt / (Ht + lam) if Ht + lam > 0 else 0.0
    Gr -= Gl
    Hr -= Hl
    short = np.less(Hr, min_child_weight, out=ws.flags[0, :n_cand])
    # gains = 0.5 * (G_L^2 / (H_L + lam) + G_R^2 / (H_R + lam) - parent), in place
    Hl += lam
    Hr += lam
    gains = np.multiply(Gl, Gl, out=ws.gains[:n_cand])
    with np.errstate(divide="ignore", invalid="ignore"):
        gains /= Hl
        Gr *= Gr
        Gr /= Hr
    gains += Gr
    gains -= parent
    gains *= 0.5
    # a cut that leaves H_R below min_child_weight is no candidate either
    short |= np.logical_not(np.isfinite(gains, out=ws.flags[1, :n_cand]), out=ws.flags[1, :n_cand])
    np.copyto(gains, -np.inf, where=short)
    found = []
    # a node's candidates ascend by feature, then position, so its first
    # maximum is the tie-break winner
    for s, (a, b) in enumerate(zip(lo, hi)):
        if a < b:
            i = a + int(gains[a:b].argmax())
            best = float(gains[i])
            if best > -math.inf:
                at = int(cand[i])
                f = (at - st[s]) // sizes[s] - 1
                found.append((s, f, 0.5 * (float(xs[at]) + float(xs[at + 1])), best, at))
    return found


def _leaf_weights(G: list[float], H: list[float], cfg: BoosterConfig) -> list[float]:
    lr, lam = cfg.learning_rate, cfg.reg_lambda
    return [lr * (-Gt / (Ht + lam)) if Ht + lam > 0 else 0.0 for Gt, Ht in zip(G, H)]


class _LevelGrower:
    """Grows the trees of every class of a boosting round together, depth by depth.

    Each feature is sorted once per fit, as in the column blocks of Chen &
    Guestrin 2016 (§4.1). A node is laid out as rows of its samples: row 0
    in sample order, row f + 1 in ascending order of feature f. A child's
    rows are a stable partition of its parent's, so no node sorts anything,
    and one `_level_splits` call searches every open node of every class
    tree at one depth.
    """

    def __init__(self, XT: np.ndarray, n_classes: int, cfg: BoosterConfig):
        self.XT, self.cfg = XT, cfg
        n = XT.shape[1]
        order = np.argsort(XT, axis=1, kind="stable")
        rows = np.concatenate((np.arange(n)[None], order))
        # class c's root rows, as row indices of the round's (classes * samples, 2) gh
        self.root_ords = rows + n * np.arange(n_classes)[:, None, None]
        xs = np.concatenate((np.zeros((1, n)), np.take_along_axis(XT, order, axis=1)))
        self.root_xs = np.ascontiguousarray(np.broadcast_to(xs, self.root_ords.shape))
        self.ws = _Workspace(self.root_ords.size)

    def grow(
        self,
        g: np.ndarray,
        h: np.ndarray,
        insample: np.ndarray | None = None,
        feature_ok: np.ndarray | None = None,
    ) -> tuple[list[RegressionTree], np.ndarray]:
        """One tree per class from the C-contiguous (classes, samples) g and h.

        `insample` (classes x samples) and `feature_ok` (classes x features)
        limit each class tree to its sampled rows and columns. Returns the
        trees and the margin step of every sample, sampled or not:
        (classes, samples), or (classes, 1) when every tree is one leaf.
        """
        cfg, XT, ws = self.cfg, self.XT, self.ws
        n_feat, n = XT.shape
        n_rows, n_classes = n_feat + 1, g.shape[0]
        lam, mcw = cfg.reg_lambda, cfg.min_child_weight
        # below this total Hessian no cut can give both children min_child_weight
        floor = 2.0 * mcw * (1.0 - 1e-9)
        if insample is None:
            G, H, m = g.sum(axis=1).tolist(), h.sum(axis=1).tolist(), [n] * n_classes
        else:
            G = [float(g[c, insample[c]].sum()) for c in range(n_classes)]
            H = [float(h[c, insample[c]].sum()) for c in range(n_classes)]
            m = insample.sum(axis=1).tolist()
        weight = _leaf_weights(G, H, cfg)
        opened = [c for c in range(n_classes) if m[c] >= 2 and H[c] >= floor]
        if not opened:
            return [_leaf(w) for w in weight], np.array(weight)[:, None]
        gh = np.stack((g.ravel(), h.ravel()), axis=1)
        if insample is None and len(opened) == n_classes:
            ords, xs = self.root_ords.ravel(), self.root_xs.ravel()
        elif insample is None:
            ords, xs = self.root_ords[opened].ravel(), self.root_xs[opened].ravel()
        else:
            keep = insample[np.array(opened)[:, None, None], self.root_ords[0]]
            ords, xs = self.root_ords[opened][keep], self.root_xs[opened][keep]
        spare = 0  # the workspace layout buffer not holding `ords` and `xs`
        row_ok = None
        if feature_ok is not None:
            row_ok = np.zeros((n_classes, n_rows), dtype=bool)
            row_ok[:, 1:] = feature_ok
        # every class tree's nodes in creation order
        feature = [-1] * n_classes
        threshold = [0.0] * n_classes
        gain = [0.0] * n_classes
        left = [-1] * n_classes
        right = [-1] * n_classes
        cls = list(range(n_classes))
        # the margin step, set from each leaf's row 0
        step = np.empty(n_classes * n)
        for c in range(n_classes):
            if c not in opened:
                step[self.root_ords[c, 0]] = weight[c]
        lo = 0  # the nodes of this depth are lo, lo + 1, ...
        for depth in range(cfg.max_depth):
            sizes = [m[t] for t in opened]
            starts = [0, *accumulate(n_rows * s for s in sizes)]
            splits = [
                sp for sp in _level_splits(
                    gh, ords, xs, sizes, n_rows, [G[t] for t in opened], [H[t] for t in opened],
                    lam, mcw, None if row_ok is None else row_ok[[cls[t] for t in opened]], ws,
                )
                if sp[3] - cfg.gamma > 0.0
            ]
            done = {sp[0] for sp in splits}
            for s in range(len(opened)):
                if s not in done:
                    step[ords[starts[s]:starts[s] + sizes[s]]] = weight[lo + opened[s]]
            if not splits:
                break
            # children, numbered after this depth: the left ones, then the right ones
            k, kids = len(splits), lo + len(G)
            goes_right = np.zeros(n_classes * n, dtype=bool)
            m_left, m_right, new_cls = [], [], []
            for i, (s, f, thr, gval, at) in enumerate(splits):
                v = lo + opened[s]
                feature[v], threshold[v], gain[v], weight[v] = f, thr, gval, 0.0
                left[v], right[v] = kids + i, kids + k + i
                row = starts[s] + (f + 1) * sizes[s]
                cut = at + 1
                if thr <= xs[at]:  # the midpoint rounded onto the left value, which goes right
                    cut = row + int(xs[row:at + 1].searchsorted(thr))
                goes_right[ords[cut:row + sizes[s]]] = True
                m_left.append(cut - row)
                m_right.append(sizes[s] - (cut - row))
                new_cls.append(cls[opened[s]])
            m, cls, lo = m_left + m_right, new_cls * 2, kids
            last = depth + 1 == cfg.max_depth
            # the split nodes' rows (only row 0 at the last depth), each
            # partitioned stably into its left and right child's rows
            rows = 1 if last else n_rows
            if last or k < len(opened):
                keep = [(starts[s], starts[s] + rows * sizes[s]) for s, *_ in splits]
                size = sum(e - a for a, e in keep)
                ords = np.concatenate([ords[a:e] for a, e in keep], out=ws.ords[spare][:size])
                if not last:
                    xs = np.concatenate([xs[a:e] for a, e in keep], out=ws.xs[spare][:size])
                spare = 1 - spare
            moves = goes_right.take(ords)
            order, stay = ws.order[:ords.size], ords.size - np.count_nonzero(moves)
            np.compress(moves, ws.index[:ords.size], out=order[stay:])
            np.compress(np.logical_not(moves, out=moves), ws.index[:ords.size], out=order[:stay])
            ords = ords.take(order, out=ws.ords[spare][:ords.size], mode="clip")
            if not last:
                xs = xs.take(order, out=ws.xs[spare][:ords.size], mode="clip")
            spare = 1 - spare
            starts = [0, *accumulate(rows * c for c in m)]
            members = [ords[a:a + c] for a, c in zip(starts, m)]
            part = gh.take(np.concatenate(members), axis=0).T.copy()
            bounds = [0, *accumulate(m)]
            totals = np.array([part[:, a:e].sum(axis=1) for a, e in zip(bounds, bounds[1:])])
            G, H = totals[:, 0].tolist(), totals[:, 1].tolist()
            w = _leaf_weights(G, H, cfg)
            feature += [-1] * 2 * k
            threshold += [0.0] * 2 * k
            gain += [0.0] * 2 * k
            weight += w
            left += [-1] * 2 * k
            right += [-1] * 2 * k
            opened = [] if last else [t for t in range(2 * k) if m[t] >= 2 and H[t] >= floor]
            for t in range(2 * k):
                if t not in opened:
                    step[members[t]] = w[t]
            if not opened:
                break
            if len(opened) < 2 * k:
                size = sum(starts[t + 1] - starts[t] for t in opened)
                ords = np.concatenate([ords[starts[t]:starts[t + 1]] for t in opened],
                                      out=ws.ords[spare][:size])
                xs = np.concatenate([xs[starts[t]:starts[t + 1]] for t in opened],
                                    out=ws.xs[spare][:size])
                spare = 1 - spare
        trees = [_tree(c, feature, threshold, gain, weight, left, right) for c in range(n_classes)]
        if insample is not None:  # rows a tree did not see are routed through it
            return trees, np.array([tree_predict(t, XT.T) for t in trees])
        return trees, step.reshape(n_classes, n)


def _leaf(w: float) -> RegressionTree:
    return RegressionTree((-1,), (0.0,), (-1,), (-1,), (w,), (0.0,))


def _tree(
    root: int,
    feature: list[int],
    threshold: list[float],
    gain: list[float],
    weight: list[float],
    left: list[int],
    right: list[int],
) -> RegressionTree:
    """The tree under `root` of a node table, renumbered in depth-first preorder."""
    if feature[root] < 0:
        return _leaf(weight[root])
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        if feature[v] >= 0:
            stack += (right[v], left[v])
    new = {v: i for i, v in enumerate(order)}
    return RegressionTree(
        tuple(feature[v] for v in order),
        tuple(threshold[v] for v in order),
        tuple(new[left[v]] if feature[v] >= 0 else -1 for v in order),
        tuple(new[right[v]] if feature[v] >= 0 else -1 for v in order),
        tuple(weight[v] for v in order),
        tuple(gain[v] for v in order),
    )


def _softmax(margins: np.ndarray) -> np.ndarray:
    """Class probabilities of (classes, samples) margins, in the same layout."""
    e = np.exp(margins - margins.max(axis=0))
    # each sample's sum runs over a row of the (samples, classes) layout
    return e / np.ascontiguousarray(e.T).sum(axis=1)


def _log_loss(P: np.ndarray, at: np.ndarray) -> float:
    """Mean cross-entropy of the (classes, samples) probabilities P at the flat
    positions `at` of the true classes."""
    return float(-np.log(np.maximum(P.ravel().take(at), 1e-300)).mean())


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class BoostedEnsemble:
    """Per-round, per-class regression trees plus normalized feature importances."""

    classes: tuple[str, ...]
    config: BoosterConfig
    trees: tuple[tuple[RegressionTree, ...], ...]
    n_features: int
    importance: np.ndarray        # gain-based, sums to 1 when any split exists
    importance_weight: np.ndarray
    loss_curve: tuple[float, ...]  # training log-loss before round 1 and after each round

    def __post_init__(self):
        for name in ("importance", "importance_weight"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def train(X: np.ndarray, y: Sequence[str], config: BoosterConfig | None = None) -> BoostedEnsemble:
    """Fit the boosted multiclass model on samples x features data."""
    config = config or BoosterConfig()
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or 0 in X.shape:
        raise ValidationError("X must be a non-empty samples x features matrix")
    if not np.all(np.isfinite(X)):
        raise ValidationError("X contains NaN/inf")
    y = list(y)
    if len(y) != X.shape[0]:
        raise ValidationError("one label per sample required")
    classes = tuple(sorted(set(y)))
    if len(classes) < 2:
        raise ValidationError("training requires at least 2 classes")

    n, n_feat = X.shape
    n_classes = len(classes)
    cindex = {c: k for k, c in enumerate(classes)}
    yi = np.array([cindex[lab] for lab in y], dtype=np.intp)
    YT = np.zeros((n_classes, n))
    YT[yi, np.arange(n)] = 1.0

    margins = np.full((n_classes, n), _logit(config.base_score))
    truth = yi * n + np.arange(n)
    sampled = config.subsample < 1.0 or config.colsample < 1.0
    rng = np.random.default_rng(config.seed) if sampled else None
    all_rounds: list[tuple[RegressionTree, ...]] = []
    P = _softmax(margins)
    loss_curve = [_log_loss(P, truth)]
    grower = _LevelGrower(np.ascontiguousarray(X.T), n_classes, config)
    insample = feature_ok = None
    for _ in range(config.n_estimators):
        if config.subsample < 1.0:
            insample = np.zeros((n_classes, n), dtype=bool)
        if config.colsample < 1.0:
            feature_ok = np.zeros((n_classes, n_feat), dtype=bool)
        for c in range(n_classes):  # per class: its rows, then its columns
            if insample is not None:
                size = max(1, int(round(n * config.subsample)))
                insample[c, rng.choice(n, size=size, replace=False)] = True
            if feature_ok is not None:
                size = max(1, int(round(n_feat * config.colsample)))
                feature_ok[c, rng.choice(n_feat, size=size, replace=False)] = True
        round_trees, step = grower.grow(P - YT, P * (1.0 - P), insample, feature_ok)
        # margins move only after every class tree of the round is grown,
        # so all trees of one round share the same probabilities
        margins += step
        all_rounds.append(tuple(round_trees))
        P = _softmax(margins)
        loss_curve.append(_log_loss(P, truth))

    gain_acc = np.zeros(n_feat)
    count_acc = np.zeros(n_feat)
    for round_trees in all_rounds:
        for tree in round_trees:
            for node, f in enumerate(tree.feature):
                if f >= 0:
                    gain_acc[f] += tree.gain[node]
                    count_acc[f] += 1.0
    imp_gain = gain_acc / gain_acc.sum() if gain_acc.sum() > 0 else np.zeros(n_feat)
    imp_weight = count_acc / count_acc.sum() if count_acc.sum() > 0 else np.zeros(n_feat)

    return BoostedEnsemble(
        classes=classes,
        config=config,
        trees=tuple(all_rounds),
        n_features=n_feat,
        importance=imp_gain,
        importance_weight=imp_weight,
        loss_curve=tuple(loss_curve),
    )


def predict_margins(e: BoostedEnsemble, X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != e.n_features:
        raise ValidationError(f"X must have {e.n_features} feature columns")
    margins = np.full((X.shape[0], len(e.classes)), _logit(e.config.base_score))
    for round_trees in e.trees:
        for c, tree in enumerate(round_trees):
            margins[:, c] += tree_predict(tree, X)
    return margins


def predict(e: BoostedEnsemble, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample class label and per-class probabilities.

    Probabilities are the softmax of the summed margins (plus the uniform
    base-score offset); argmax ties resolve to the lowest class index.
    """
    proba = _softmax(np.ascontiguousarray(predict_margins(e, X).T)).T
    labels = np.array([e.classes[k] for k in np.argmax(proba, axis=1)], dtype=object)
    return labels, proba


_TREE_KEYS = ("feature", "threshold", "left", "right", "weight", "gain")


def ensemble_to_json(e: BoostedEnsemble) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "classes": list(e.classes),
        "n_features": e.n_features,
        "config": asdict(e.config),
        "importance": list(map(float, e.importance)),
        "importance_weight": list(map(float, e.importance_weight)),
        "loss_curve": list(e.loss_curve),
        "trees": [[{key: list(getattr(t, key)) for key in _TREE_KEYS} for t in round_trees]
                  for round_trees in e.trees],
    }
    return json.dumps(payload, sort_keys=True)


def _schema_version(v) -> None:
    if v != SCHEMA_VERSION:
        raise ValidationError(f"unsupported model schema version {v!r}")


def _classes(v) -> tuple[str, ...]:
    if not (isinstance(v, list) and len(set(v)) == len(v) >= 2
            and all(isinstance(c, str) for c in v)):
        raise ValueError("not a list of at least 2 distinct strings")
    return tuple(v)


def _json_tree(t) -> RegressionTree:
    return RegressionTree(*(array(t[key]) for key in _TREE_KEYS))


# each BoosterConfig field, read by the type of its default
_CONFIG_KEYS = {name: whole if type(default) is int else number
                for name, default in asdict(BoosterConfig()).items()}

# key -> parser: the version first, so it is checked before any other key,
# then BoostedEnsemble's fields in order
_MODEL_KEYS = {
    "schema_version": _schema_version,
    "classes": _classes,
    "config": lambda v: BoosterConfig(**read_object(v, "model config", _CONFIG_KEYS)),
    "trees": lambda v: array(v, lambda round_trees: array(round_trees, _json_tree)),
    "n_features": whole,
    "importance": lambda v: np.array(array(v, number), dtype=np.float64),
    "importance_weight": lambda v: np.array(array(v, number), dtype=np.float64),
    "loss_curve": lambda v: array(v, number),
}


def ensemble_from_json(text: str) -> BoostedEnsemble:
    """Read a model written by `ensemble_to_json` (every key required, and
    every field of its config; ParseErrors name `model`, or `model config`
    for a config field). Another schema version raises ValidationError
    before any other key is checked. Keys that disagree so that `predict`
    could not run (see `_model_fault`) raise ParseError naming the key, and
    the round, tree and node where one applies."""
    fields = read_json(text, "model", _MODEL_KEYS)
    del fields["schema_version"]
    e = BoostedEnsemble(**fields)
    fault = _model_fault(e)
    if fault:
        raise ParseError("model key {!r} is malformed: {}".format(*fault))
    return e


def _model_fault(e: BoostedEnsemble) -> tuple[str, str] | None:
    """The first key of a loaded model that disagrees with the others or
    cannot be walked by `predict`, with what is wrong, or None.

    Each round holds one tree per class, and a tree's six lists have one
    entry per node, at least one. A leaf (feature -1) has no children (-1);
    any other node splits on a feature in [0, n_features) and has both
    children inside the tree and after itself, as the preorder that
    `ensemble_to_json` writes puts them, so no walk can loop.
    """
    for key in ("importance", "importance_weight"):
        if getattr(e, key).shape != (e.n_features,):
            return key, f"{getattr(e, key).size} entries for {e.n_features} features"
    if len(e.loss_curve) != len(e.trees) + 1:
        return "loss_curve", f"{len(e.loss_curve)} entries for {len(e.trees)} rounds"
    for r, round_trees in enumerate(e.trees):
        if len(round_trees) != len(e.classes):
            return "trees", f"round {r} holds {len(round_trees)} trees for {len(e.classes)} classes"
        for c, tree in enumerate(round_trees):
            n = len(tree.feature)
            if n == 0 or any(len(getattr(tree, k)) != n for k in _TREE_KEYS):
                return "trees", (f"round {r}, tree {c}: list lengths "
                                 f"{[len(getattr(tree, k)) for k in _TREE_KEYS]} differ or are 0")
            for i, (f, lo, hi, t, w) in enumerate(zip(tree.feature, tree.left, tree.right,
                                                      tree.threshold, tree.weight)):
                if not (all(type(x) is int for x in (f, lo, hi))
                        and all(type(x) in (int, float) for x in (t, w))):
                    return "trees", f"round {r}, tree {c}, node {i}: an entry is not a number"
                if f == -1 and lo == hi == -1 or 0 <= f < e.n_features and i < lo < n and i < hi < n:
                    continue
                return "trees", (f"round {r}, tree {c}, node {i}: feature {f} with children "
                                 f"({lo}, {hi}) in a tree of {n} nodes over {e.n_features} features")
    return None
