"""Gradient-boosted regression trees for multiclass classification.

Newton boosting on the softmax cross-entropy objective: each round grows one
regression tree per class on the per-sample gradient g = p - y and Hessian
h = p(1 - p) of the loss with respect to that class's margin. Trees are grown
by exact greedy search over midpoints between consecutive distinct sorted
feature values, maximizing

    gain = 1/2 * [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - (G_L+G_R)^2/(H_L+H_R+lambda)]

and splitting only when gain - gamma > 0; leaf weight is -G/(H+lambda),
scaled by the learning rate. Training is deterministic for a fixed config.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

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
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be > 0")
        if self.max_depth < 1:
            raise ValidationError("max_depth must be >= 1")
        if self.n_estimators < 1:
            raise ValidationError("n_estimators must be >= 1")
        if self.reg_lambda < 0:
            raise ValidationError("reg_lambda must be >= 0")
        if self.gamma < 0:
            raise ValidationError("gamma must be >= 0")
        if self.min_child_weight < 0:
            raise ValidationError("min_child_weight must be >= 0")
        if not 0 < self.subsample <= 1 or not 0 < self.colsample <= 1:
            raise ValidationError("subsample/colsample must lie in (0, 1]")
        if not 0 < self.base_score < 1:
            raise ValidationError("base_score must lie in (0, 1)")


def hyperparameters(config: BoosterConfig) -> dict:
    """Every field of `config` but `seed`, which callers derive from their own seed."""
    params = asdict(config)
    del params["seed"]
    return params


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

    @property
    def n_internal(self) -> int:
        return sum(1 for f in self.feature if f >= 0)


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


def _best_split(
    Xn: np.ndarray,
    gn: np.ndarray,
    hn: np.ndarray,
    lam: float,
    min_child_weight: float,
    sorted_cache: tuple[np.ndarray, np.ndarray] | None = None,
    totals: tuple[float, float] | None = None,
) -> tuple[int, float, float] | None:
    """Exact greedy best split over all features and midpoints.

    Returns (local feature index, threshold, gain) or None. Works in the
    transposed features x samples layout so cumulative sums run along
    contiguous memory. `sorted_cache` may carry the precomputed (sorted
    values, argsort order), both (features, samples); `totals` may carry the
    node's (G, H) as computed by the caller.

    The result is a floating-point function of the exact summation order, so
    that order is part of the contract (a different sort of equal values, or
    a different summation, can flip a near-tie split):

    - each feature row is ordered by `np.argsort` of the node's own subarray
      with numpy's default kind;
    - the prefix sums G_L, H_L are sequential `np.cumsum` along that order,
      and G_R, H_R are the node totals minus them;
    - the node totals G, H are numpy's pairwise `sum` of the node's g and h;
    - a cut is a candidate when the values on both sides differ and
      H_L >= min_child_weight and H_R >= min_child_weight; only candidates
      are scored, and non-finite gains never win;
    - ties go to the lowest feature index, then the lowest threshold.

    No candidate can exist when H < 2 * min_child_weight * (1 - 2**-53), so
    callers may skip the search below that bound.
    """
    n = Xn.shape[0]
    if n < 2:
        return None
    if sorted_cache is None:
        xt = np.ascontiguousarray(Xn.T)
        order = np.argsort(xt, axis=1)
        xs = xt[np.arange(xt.shape[0])[:, None], order]
    else:
        xs, order = sorted_cache
    Gt, Ht = totals if totals is not None else (float(gn.sum()), float(hn.sum()))
    Hcum = np.cumsum(hn[order], axis=1)
    Hl = Hcum[:, :-1]
    Hr = Ht - Hl
    valid = xs[:, 1:] > xs[:, :-1]
    valid &= Hl >= min_child_weight
    valid &= Hr >= min_child_weight
    # candidates ascend by feature, then position: the argmax tie-break
    cand = np.flatnonzero(valid)
    if cand.size == 0:
        return None
    at = cand + cand // (n - 1)  # the same cuts in the (features, n) cumsum layout
    Gl = np.cumsum(gn[order], axis=1).take(at)
    Hl = Hcum.take(at)
    Hr = Hr.take(cand)
    Gr = Gt - Gl
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = Gt * Gt / (Ht + lam) if Ht + lam > 0 else 0.0
        gains = 0.5 * (Gl * Gl / (Hl + lam) + Gr * Gr / (Hr + lam) - parent)
    gains[~np.isfinite(gains)] = -np.inf
    k = int(np.argmax(gains))
    best = float(gains[k])
    if not math.isfinite(best):
        return None
    f, pos = divmod(int(cand[k]), n - 1)
    thr = 0.5 * (float(xs[f, pos]) + float(xs[f, pos + 1]))
    return f, thr, best


def _grow_tree(
    xt: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    cfg: BoosterConfig,
    feature_map: np.ndarray,
    root_cache: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[RegressionTree, list[tuple[np.ndarray, float]]]:
    """Grow one tree on the C-contiguous features x samples matrix `xt`.

    Also returns each leaf's (sample indices, weight).
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    weight: list[float] = []
    gain: list[float] = []
    leaves: list[tuple[np.ndarray, float]] = []
    # below this total Hessian no cut can give both children min_child_weight
    split_floor = 2.0 * cfg.min_child_weight * (1.0 - 1e-9)

    def add_leaf(idx: np.ndarray, G: float, H: float) -> int:
        denom = H + cfg.reg_lambda
        w = cfg.learning_rate * (-G / denom) if denom > 0 else 0.0
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        weight.append(w)
        gain.append(0.0)
        leaves.append((idx, w))
        return node

    def build(idx: np.ndarray, depth: int) -> int:
        gi, hi = g[idx], h[idx]
        G, H = float(gi.sum()), float(hi.sum())
        if depth >= cfg.max_depth or idx.size < 2 or H < split_floor:
            return add_leaf(idx, G, H)
        cache = root_cache if depth == 0 and idx.size == xt.shape[1] else None
        # the transposed view of a contiguous gather reaches _best_split uncopied
        found = _best_split(
            xt[:, idx].T, gi, hi, cfg.reg_lambda, cfg.min_child_weight, cache, (G, H)
        )
        if found is None:
            return add_leaf(idx, G, H)
        f_local, thr, gval = found
        if gval - cfg.gamma <= 0.0:
            return add_leaf(idx, G, H)
        node = len(feature)
        feature.append(int(feature_map[f_local]))
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        weight.append(0.0)
        gain.append(gval)
        mask = xt[f_local, idx] < thr
        li = build(idx[mask], depth + 1)
        ri = build(idx[~mask], depth + 1)
        left[node] = li
        right[node] = ri
        return node

    build(np.arange(xt.shape[1], dtype=np.intp), 0)
    tree = RegressionTree(
        tuple(feature), tuple(threshold), tuple(left), tuple(right), tuple(weight), tuple(gain)
    )
    return tree, leaves


def _softmax(margins: np.ndarray) -> np.ndarray:
    z = margins - margins.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _log_loss(P: np.ndarray, yi: np.ndarray) -> float:
    """Mean cross-entropy of the softmax probabilities P at the true classes yi."""
    p = P[np.arange(len(yi)), yi]
    return float(-np.mean(np.log(np.maximum(p, 1e-300))))


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
    if X.ndim != 2 or X.shape[0] == 0:
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
    Y = np.zeros((n, n_classes))
    Y[np.arange(n), yi] = 1.0

    margins = np.full((n, n_classes), _logit(config.base_score))
    rng = np.random.default_rng(config.seed)
    all_rounds: list[tuple[RegressionTree, ...]] = []
    P = _softmax(margins)
    loss_curve = [_log_loss(P, yi)]
    all_cols = np.arange(n_feat, dtype=np.intp)
    all_rows = np.arange(n, dtype=np.intp)
    full_data = config.subsample >= 1.0 and config.colsample >= 1.0
    XT = np.ascontiguousarray(X.T)
    # without subsampling every tree shares the same root, so its feature
    # ordering can be computed once for the whole run
    root_cache = None
    if full_data:
        root_order = np.argsort(XT, axis=1)
        root_cache = (np.take_along_axis(XT, root_order, axis=1), root_order)

    for _ in range(config.n_estimators):
        round_trees: list[RegressionTree] = []
        round_leaves: list[list[tuple[np.ndarray, float]]] = []
        for c in range(n_classes):
            gc = P[:, c] - Y[:, c]
            hc = P[:, c] * (1.0 - P[:, c])
            if config.subsample < 1.0:
                size = max(1, int(round(n * config.subsample)))
                rows = np.sort(rng.choice(n, size=size, replace=False))
            else:
                rows = all_rows
            if config.colsample < 1.0:
                size = max(1, int(round(n_feat * config.colsample)))
                cols = np.sort(rng.choice(n_feat, size=size, replace=False))
            else:
                cols = all_cols
            if full_data:
                tree, leaves = _grow_tree(XT, gc, hc, config, cols, root_cache)
            else:
                tree, leaves = _grow_tree(XT[np.ix_(cols, rows)], gc[rows], hc[rows], config, cols)
            round_trees.append(tree)
            round_leaves.append(leaves)
        # Margins move only after every class tree of the round is grown,
        # so all trees of one round share the same probabilities. A full-data
        # tree's leaves partition the training rows exactly as tree_predict
        # would route them; a subsampled tree saw only some rows.
        for c, tree in enumerate(round_trees):
            if not full_data:
                margins[:, c] += tree_predict(tree, X)
            elif len(round_leaves[c]) == 1:
                margins[:, c] += round_leaves[c][0][1]
            else:
                for idx, w in round_leaves[c]:
                    margins[idx, c] += w
        all_rounds.append(tuple(round_trees))
        P = _softmax(margins)
        loss_curve.append(_log_loss(P, yi))

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
    proba = _softmax(predict_margins(e, X))
    labels = np.array([e.classes[k] for k in np.argmax(proba, axis=1)], dtype=object)
    return labels, proba


def feature_importance(e: BoostedEnsemble, kind: str = "gain") -> np.ndarray:
    """Normalized per-feature score: 'gain' shares total split gain, 'weight' split counts."""
    if kind == "gain":
        return e.importance.copy()
    if kind == "weight":
        return e.importance_weight.copy()
    raise ValidationError("kind must be 'gain' or 'weight'")


def ensemble_to_json(e: BoostedEnsemble) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "classes": list(e.classes),
        "n_features": e.n_features,
        "config": asdict(e.config),
        "importance": list(map(float, e.importance)),
        "importance_weight": list(map(float, e.importance_weight)),
        "loss_curve": list(e.loss_curve),
        "trees": [
            [
                {
                    "feature": list(t.feature),
                    "threshold": list(t.threshold),
                    "left": list(t.left),
                    "right": list(t.right),
                    "weight": list(t.weight),
                    "gain": list(t.gain),
                }
                for t in round_trees
            ]
            for round_trees in e.trees
        ],
    }
    return json.dumps(payload, sort_keys=True)


def ensemble_from_json(text: str) -> BoostedEnsemble:
    d = json.loads(text)
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported model schema version {d.get('schema_version')!r}")
    cfg = BoosterConfig(**d["config"])
    trees = tuple(
        tuple(
            RegressionTree(
                tuple(t["feature"]),
                tuple(t["threshold"]),
                tuple(t["left"]),
                tuple(t["right"]),
                tuple(t["weight"]),
                tuple(t["gain"]),
            )
            for t in round_trees
        )
        for round_trees in d["trees"]
    )
    return BoostedEnsemble(
        classes=tuple(d["classes"]),
        config=cfg,
        trees=trees,
        n_features=int(d["n_features"]),
        importance=np.array(d["importance"]),
        importance_weight=np.array(d["importance_weight"]),
        loss_curve=tuple(d["loss_curve"]),
    )
