import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coexpress.booster import (
    BoostedEnsemble,
    BoosterConfig,
    RegressionTree,
    _level_splits,
    _logit,
    ensemble_from_json,
    ensemble_to_json,
    predict,
    train,
    tree_predict,
)
from coexpress.errors import ParseError, ValidationError

SRC = Path(__file__).resolve().parents[1] / "src"


def brute_force_best_split(X, g, h, lam, mcw):
    """Independent oracle: scan every feature and every midpoint directly."""
    n, nf = X.shape
    best = None
    for f in range(nf):
        vals = np.sort(np.unique(X[:, f]))
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = (lo + hi) / 2.0
            left = X[:, f] < thr
            Gl, Hl = g[left].sum(), h[left].sum()
            Gr, Hr = g[~left].sum(), h[~left].sum()
            if Hl < mcw or Hr < mcw:
                continue
            gain = 0.5 * (
                Gl**2 / (Hl + lam) + Gr**2 / (Hr + lam) - (Gl + Gr) ** 2 / (Hl + Hr + lam)
            )
            if best is None or gain > best[2] + 1e-15:
                best = (f, thr, gain)
    return best


class TestWorkedExample:
    """Six samples, one feature, first boosting round from uniform probabilities.

    With margins 0 and two classes, p = 0.5 for every sample, so for the
    class-a tree g = -0.5 on a-samples / +0.5 on b-samples and h = 0.25.
    Splitting at 2.5: G_L = -1.5, H_L = 0.75, G_R = 1.5, H_R = 0.75, lambda 1:
    gain = 0.5 * (2.25/1.75 + 2.25/1.75 - 0) = 9/7, leaves -(-1.5)/1.75 = 6/7
    and -6/7.
    """

    CFG = BoosterConfig(
        learning_rate=1.0, max_depth=1, n_estimators=1, reg_lambda=1.0, min_child_weight=0.0
    )

    def _train(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = ["a", "a", "a", "b", "b", "b"]
        return train(X, y, self.CFG)

    def test_split_gain_and_threshold(self):
        ens = self._train()
        tree_a = ens.trees[0][0]
        assert tree_a.feature[0] == 0
        assert tree_a.threshold[0] == 2.5
        assert tree_a.gain[0] == pytest.approx(9 / 7, abs=1e-15)

    def test_leaf_weights(self):
        ens = self._train()
        tree_a, tree_b = ens.trees[0]
        leaves_a = sorted(w for f, w in zip(tree_a.feature, tree_a.weight) if f < 0)
        assert leaves_a == pytest.approx([-6 / 7, 6 / 7])
        leaves_b = sorted(w for f, w in zip(tree_b.feature, tree_b.weight) if f < 0)
        assert leaves_b == pytest.approx([-6 / 7, 6 / 7])

    def test_split_at_exact_child_weight_bound(self):
        # h = 0.25 per sample: the root holds H = 1.0 = 2 * min_child_weight,
        # and the 1.5 cut gives each child exactly min_child_weight, so a
        # node at the bound must still be searched
        cfg = BoosterConfig(learning_rate=1.0, max_depth=1, n_estimators=1, min_child_weight=0.5)
        ens = train(np.array([[0.0], [1.0], [2.0], [3.0]]), ["a", "a", "b", "b"], cfg)
        tree_a = ens.trees[0][0]
        assert (tree_a.feature[0], tree_a.threshold[0]) == (0, 1.5)


def node_layout(X):
    """One node as `_level_splits` reads it: row 0 in sample order, then each
    feature's stable order, with the sorted values alongside."""
    n = X.shape[0]
    order = np.argsort(X.T, axis=1, kind="stable")
    ords = np.concatenate((np.arange(n)[None], order))
    xs = np.concatenate((np.zeros((1, n)), np.take_along_axis(X.T, order, axis=1)))
    return ords, xs


def level_search(nodes, lam, mcw):
    """Search the (X, g, h) nodes in one batch; one (feature, threshold, gain) or None each."""
    n_rows = nodes[0][0].shape[1] + 1
    offset, ords, xs = 0, [], []
    for X, _, _ in nodes:
        o, x = node_layout(X)
        ords.append((o + offset).ravel())
        xs.append(x.ravel())
        offset += X.shape[0]
    gh = np.column_stack((np.concatenate([g for _, g, _ in nodes]),
                          np.concatenate([h for _, _, h in nodes])))
    found = _level_splits(
        gh, np.concatenate(ords), np.concatenate(xs), [X.shape[0] for X, _, _ in nodes], n_rows,
        [float(g.sum()) for _, g, _ in nodes], [float(h.sum()) for _, _, h in nodes], lam, mcw,
    )
    out = [None] * len(nodes)
    for s, f, thr, gain, _ in found:
        out[s] = (f, thr, gain)
    return out


class TestSplitSearch:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            n = int(rng.integers(4, 50))
            nf = int(rng.integers(1, 6))
            X = np.round(rng.normal(size=(n, nf)), 2)  # duplicates likely
            g = rng.normal(size=n)
            h = rng.uniform(0.05, 1.0, size=n)
            lam, mcw = 1.0, 0.1
            oracle = brute_force_best_split(X, g, h, lam, mcw)
            got = level_search([(X, g, h)], lam, mcw)[0]
            if oracle is None:
                assert got is None
                continue
            assert got is not None
            f, thr, gain = got
            assert gain == pytest.approx(oracle[2], abs=1e-9)

    def test_batched_nodes_match_each_node_alone(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            nf = int(rng.integers(1, 5))
            nodes = []
            for _ in range(int(rng.integers(2, 6))):
                n = int(rng.choice([1, 2, 3, 17, 17, 40]))
                nodes.append((np.round(rng.normal(size=(n, nf)), 1), rng.normal(size=n),
                              rng.uniform(0.0, 0.3, size=n)))
            assert level_search(nodes, 1.0, 0.2) == [level_search([nd], 1.0, 0.2)[0] for nd in nodes]

    def test_tie_breaks_to_lowest_feature_and_threshold(self):
        # identical duplicate features: equal gains everywhere
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([x, x])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.ones(4) * 0.5
        f, thr, _ = level_search([(X, g, h)], 1.0, 0.0)[0]
        assert f == 0
        assert thr == 1.5


class TestTraining:
    def test_separable_toy_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(1)
        X = np.concatenate([rng.uniform(-2, -0.1, 10), rng.uniform(0.1, 2, 10)])[:, None]
        y = ["A"] * 10 + ["B"] * 10
        ens = train(X, y, BoosterConfig(n_estimators=5))
        pred, _ = predict(ens, X)
        assert np.mean(pred == np.asarray(y, dtype=object)) == 1.0

    def test_constant_feature_never_split_importance_zero(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([rng.normal(size=30), np.full(30, 7.0)])
        y = ["A" if v < 0 else "B" for v in X[:, 0]]
        ens = train(X, y, BoosterConfig(n_estimators=10))
        assert ens.importance[1] == 0.0
        assert ens.importance_weight[1] == 0.0
        for round_trees in ens.trees:
            for t in round_trees:
                assert all(f != 1 for f in t.feature)

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 5))
        y = ["A" if x[0] + x[1] < 0 else "B" for x in X]
        ens = train(X, y, BoosterConfig(n_estimators=30))
        lc = ens.loss_curve
        assert all(a >= b - 1e-12 for a, b in zip(lc, lc[1:]))

    def test_determinism(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 4))
        y = ["A" if x[0] < 0 else ("B" if x[1] < 0 else "C") for x in X]
        cfg = BoosterConfig(n_estimators=8, subsample=0.8, colsample=0.8, seed=123)
        a = ensemble_to_json(train(X, y, cfg))
        b = ensemble_to_json(train(X, y, cfg))
        assert a == b

    def test_label_name_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        y = ["A" if x[0] < 0 else "B" for x in X]
        swap = {"A": "B", "B": "A"}
        y2 = [swap[lab] for lab in y]
        p1, _ = predict(train(X, y, BoosterConfig(n_estimators=6)), X)
        p2, _ = predict(train(X, y2, BoosterConfig(n_estimators=6)), X)
        assert [swap[lab] for lab in p1] == list(p2)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            train(np.zeros((4, 2)), ["A", "A", "A", "A"])
        with pytest.raises(ValidationError):
            train(np.zeros((0, 2)), [])
        with pytest.raises(ValidationError):
            train(np.array([[np.nan, 1.0]]), ["A"])
        with pytest.raises(ValidationError):
            BoosterConfig(learning_rate=0.0)

    @pytest.mark.parametrize("name", ["learning_rate", "reg_lambda", "gamma", "min_child_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_setting_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            BoosterConfig(**{name: value})


class TestPrediction:
    def test_zero_round_ensemble_is_uniform(self):
        ens = BoostedEnsemble(
            classes=("A", "B", "C"),
            config=BoosterConfig(),
            trees=(),
            n_features=2,
            importance=np.zeros(2),
            importance_weight=np.zeros(2),
            loss_curve=(np.log(3.0),),
        )
        _, proba = predict(ens, np.zeros((4, 2)))
        np.testing.assert_allclose(proba, 1.0 / 3.0)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 4))
        y = ["A" if x[0] < 0 else ("B" if x[1] < 0 else "C") for x in X]
        ens = train(X, y, BoosterConfig(n_estimators=10))
        _, proba = predict(ens, rng.normal(size=(50, 4)))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_importance_kinds_and_normalization(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([rng.normal(size=40), rng.normal(size=40) * 1e-4])
        y = ["A" if v < 0 else "B" for v in X[:, 0]]
        ens = train(X, y, BoosterConfig(n_estimators=10))
        gain, weight = ens.importance, ens.importance_weight
        assert gain.sum() == pytest.approx(1.0, abs=1e-9)
        assert weight.sum() == pytest.approx(1.0, abs=1e-9)
        assert gain[0] > 0.9

    def test_json_roundtrip_preserves_predictions(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 3))
        y = ["A" if x[0] < 0 else "B" for x in X]
        ens = train(X, y, BoosterConfig(n_estimators=6))
        back = ensemble_from_json(ensemble_to_json(ens))
        Xt = rng.normal(size=(20, 3))
        p1, pr1 = predict(ens, Xt)
        p2, pr2 = predict(back, Xt)
        assert list(p1) == list(p2)
        np.testing.assert_array_equal(pr1, pr2)


@pytest.fixture(scope="module")
def model_json():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(12, 2))
    return ensemble_to_json(train(X, ["A", "B"] * 6, BoosterConfig(n_estimators=2)))


class TestMalformedModel:
    """A model file that is not JSON, or lacks or garbles a key, raises
    ParseError naming the fault, as the plan and spec readers do."""

    @pytest.mark.parametrize("key", ["classes", "config", "trees", "n_features", "importance",
                                     "importance_weight", "loss_curve"])
    def test_missing_key_is_named(self, model_json, key):
        d = json.loads(model_json)
        del d[key]
        with pytest.raises(ParseError, match=re.escape(f"model has no key {key!r}")):
            ensemble_from_json(json.dumps(d))

    @pytest.mark.parametrize("text, needle", [
        ('{"schema_version": 1}', "model has no key 'classes'"),
        ("[]", "model is not a JSON object"),
        ('{"schema_version": 1, ', "line 1: model is not JSON: Expecting property name"),
    ], ids=["only_version", "list", "truncated"])
    def test_malformed_text(self, text, needle):
        with pytest.raises(ParseError, match=re.escape(needle)):
            ensemble_from_json(text)

    @pytest.mark.parametrize("key, value, needle", [
        ("config", {"depth": 3}, "unexpected keyword argument 'depth'"),
        ("config", [], "argument after ** must be a mapping"),
        ("trees", [[{"feature": [-1]}]], "KeyError('threshold')"),
        ("n_features", "three", "invalid literal for int()"),
        ("importance", ["x", 0.5], "could not convert string to float"),
    ], ids=["config_key", "config_list", "tree_key", "n_features", "importance"])
    def test_malformed_key_is_named(self, model_json, key, value, needle):
        d = json.loads(model_json)
        d[key] = value
        with pytest.raises(ParseError, match=re.escape(f"model key {key!r} is malformed")) as exc:
            ensemble_from_json(json.dumps(d))
        assert needle in str(exc.value)

    def test_other_schema_version_is_a_validation_error(self, model_json):
        d = json.loads(model_json)
        d["schema_version"] = 2
        with pytest.raises(ValidationError, match="unsupported model schema version 2"):
            ensemble_from_json(json.dumps(d))


def _golden_data():
    """28 samples x 5 features over 3 classes, replicated per class like `oversample`.

    Values are rounded to 3 decimals and the last feature has 4 levels, so
    sorted columns hold ties; replicated rows make many nodes too light to
    split under the default min_child_weight.
    """
    rng = np.random.default_rng(2024)
    labels = ["A"] * 14 + ["B"] * 9 + ["C"] * 5
    shift = {"A": 0.0, "B": 0.6, "C": -0.5}
    base = np.array([[shift[lab]] for lab in labels])
    X = np.round(np.column_stack([
        rng.normal(size=(28, 4)) + base * np.array([1.0, 0.5, 0.0, -1.0]),
        rng.integers(0, 4, size=(28, 1)) / 4.0,
    ]), 3)
    copies = np.array([{"A": 1, "B": 2, "C": 3}[lab] for lab in labels])
    rows = np.repeat(np.arange(28), copies)
    return X[rows], [labels[i] for i in rows]


class TestGoldenModels:
    """Byte-level pins: a speed-up of the split search or the round loop must
    reproduce these models exactly, not just approximately."""

    @pytest.mark.parametrize("cfg, digest", [
        (BoosterConfig(n_estimators=30),
         "18006314bca35931288f8d2e5959859ba36dddc2b52be5c18866ad7d5623a9ec"),
        (BoosterConfig(n_estimators=30, subsample=0.8, colsample=0.8),
         "8b9282c1b82928a92a5bfe148b4d0a3537ae6a88d8133a6d05fa933764a4a697"),
    ])
    def test_model_json_digest(self, cfg, digest):
        X, y = _golden_data()
        text = ensemble_to_json(train(X, y, cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_predicted_margins_reproduce_training_loss(self):
        X, y = _golden_data()
        ens = train(X, y, BoosterConfig(n_estimators=30))
        _, proba = predict(ens, X)
        yi = np.array([ens.classes.index(lab) for lab in y])
        p = proba[np.arange(len(y)), yi]
        assert float(-np.mean(np.log(np.maximum(p, 1e-300)))) == ens.loss_curve[-1]


def reference_split(xt, g, h, G, H, lam, mcw):
    """Per-node exact greedy search on the node's (features, samples) values."""
    order = np.argsort(xt, axis=1, kind="stable")
    xs = np.take_along_axis(xt, order, axis=1)
    Gl = np.cumsum(g[order], axis=1)[:, :-1]
    Hl = np.cumsum(h[order], axis=1)[:, :-1]
    Gr, Hr = G - Gl, H - Hl
    parent = G * G / (H + lam) if H + lam > 0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 0.5 * (Gl * Gl / (Hl + lam) + Gr * Gr / (Hr + lam) - parent)
    valid = (xs[:, 1:] > xs[:, :-1]) & (Hl >= mcw) & (Hr >= mcw) & np.isfinite(gains)
    gains = np.where(valid, gains, -np.inf)
    k = int(np.argmax(gains))  # row-major: lowest feature, then lowest threshold
    if gains.flat[k] == -np.inf:
        return None
    f, p = divmod(k, xs.shape[1] - 1)
    return f, 0.5 * (float(xs[f, p]) + float(xs[f, p + 1])), float(gains.flat[k])


def reference_tree(xt, g, h, cfg, features):
    """One tree grown node by node, depth first, numbered in preorder."""
    feature, threshold, left, right, weight, gain = [], [], [], [], [], []
    floor = 2.0 * cfg.min_child_weight * (1.0 - 1e-9)

    def add(f, thr, w, gval):
        for column, value in zip((feature, threshold, left, right, weight, gain),
                                 (f, thr, -1, -1, w, gval)):
            column.append(value)
        return len(feature) - 1

    def build(idx, depth):
        G, H = float(g[idx].sum()), float(h[idx].sum())
        found = None
        if depth < cfg.max_depth and idx.size >= 2 and H >= floor:
            found = reference_split(xt[:, idx], g[idx], h[idx], G, H,
                                    cfg.reg_lambda, cfg.min_child_weight)
        if found is None or found[2] - cfg.gamma <= 0.0:
            denom = H + cfg.reg_lambda
            return add(-1, 0.0, cfg.learning_rate * (-G / denom) if denom > 0 else 0.0, 0.0)
        f, thr, gval = found
        node = add(int(features[f]), thr, 0.0, gval)
        goes_left = xt[f, idx] < thr
        left[node] = build(idx[goes_left], depth + 1)
        right[node] = build(idx[~goes_left], depth + 1)
        return node

    build(np.arange(xt.shape[1]), 0)
    return RegressionTree(*map(tuple, (feature, threshold, left, right, weight, gain)))


def reference_train(X, y, cfg):
    """The boosting loop around `reference_tree`, one class tree at a time."""
    classes = tuple(sorted(set(y)))
    yi = np.array([classes.index(lab) for lab in y])
    n, n_feat = X.shape
    Y = np.eye(len(classes))[yi]
    margins = np.full((n, len(classes)), _logit(cfg.base_score))
    rng = np.random.default_rng(cfg.seed)

    def softmax_loss(m):
        e = np.exp(m - m.max(axis=1, keepdims=True))
        P = e / e.sum(axis=1, keepdims=True)
        return P, float(-np.mean(np.log(np.maximum(P[np.arange(n), yi], 1e-300))))

    P, loss = softmax_loss(margins)
    rounds, losses = [], [loss]
    for _ in range(cfg.n_estimators):
        trees = []
        for c in range(len(classes)):
            rows, cols = np.arange(n), np.arange(n_feat)
            if cfg.subsample < 1.0:
                rows = np.sort(rng.choice(n, max(1, int(round(n * cfg.subsample))), replace=False))
            if cfg.colsample < 1.0:
                cols = np.sort(rng.choice(n_feat, max(1, int(round(n_feat * cfg.colsample))),
                                          replace=False))
            g, h = P[:, c] - Y[:, c], P[:, c] * (1.0 - P[:, c])
            trees.append(reference_tree(X[np.ix_(rows, cols)].T.copy(), g[rows], h[rows], cfg, cols))
        for c, tree in enumerate(trees):
            margins[:, c] += tree_predict(tree, X)
        rounds.append(tuple(trees))
        P, loss = softmax_loss(margins)
        losses.append(loss)
    gain_acc, count_acc = np.zeros(n_feat), np.zeros(n_feat)
    for trees in rounds:
        for tree in trees:
            for f, gval in zip(tree.feature, tree.gain):
                if f >= 0:
                    gain_acc[f] += gval
                    count_acc[f] += 1.0
    return BoostedEnsemble(
        classes=classes,
        config=cfg,
        trees=tuple(rounds),
        n_features=n_feat,
        importance=gain_acc / gain_acc.sum() if gain_acc.sum() > 0 else np.zeros(n_feat),
        importance_weight=count_acc / count_acc.sum() if count_acc.sum() > 0 else np.zeros(n_feat),
        loss_curve=tuple(losses),
    )


def family_case(seed):
    """Tie-heavy data (rounded, 3-level and 5-level features, replicated rows)
    and a config; the seeds 0-23 cover every listed value of each setting."""
    rng = np.random.default_rng(seed)
    n_classes = (2, 3, 4)[seed % 3]
    base = rng.integers(0, n_classes, 30)
    X = np.column_stack([
        np.round(rng.normal(size=30) + 0.7 * base, 1),
        rng.integers(0, 3, 30),
        np.round(rng.normal(size=30), 2),
        rng.integers(0, 5, 30) / 4.0 + (base == 0),
    ]).astype(float)
    rows = np.repeat(np.arange(30), 1 + base % 2)
    sampling = seed % 6
    cfg = BoosterConfig(
        n_estimators=6,
        max_depth=(1, 2, 3, 4)[seed % 4],
        min_child_weight=(0.0, 0.5, 1.0, 3.0)[(seed // 4) % 4],
        gamma=(0.0, 0.1)[seed % 5 == 1],
        reg_lambda=(1.0, 0.0)[seed % 7 in (2, 5)],
        subsample=0.8 if sampling in (3, 5) else 1.0,
        colsample=0.8 if sampling in (4, 5) else 1.0,
        seed=seed,
    )
    return X[rows], [f"c{k}" for k in base[rows]], cfg


class TestLevelGrowerMatchesPerNodeReference:
    @pytest.mark.parametrize("seed", range(24))
    def test_model_json_equal(self, seed):
        X, y, cfg = family_case(seed)
        assert ensemble_to_json(train(X, y, cfg)) == ensemble_to_json(reference_train(X, y, cfg))

    def test_midpoint_rounded_onto_left_value(self):
        # 0.5 * (1 + next float) rounds to 1.0, so the samples at 1.0 go right
        # of the cut placed between them and the next float
        b = np.nextafter(1.0, 2.0)
        assert 0.5 * (1.0 + b) == 1.0
        X = np.array([[0.0], [1.0], [1.0], [1.0], [b], [b], [b], [2.0]])
        y = ["A", "A", "A", "A", "B", "B", "B", "B"]
        cfg = BoosterConfig(n_estimators=2, max_depth=2, min_child_weight=0.0)
        ens = train(X, y, cfg)
        assert ens.trees[0][0].threshold[0] == 1.0
        assert ensemble_to_json(ens) == ensemble_to_json(reference_train(X, y, cfg))

    def test_golden_data_equal(self):
        X, y = _golden_data()
        for cfg in (BoosterConfig(n_estimators=8),
                    BoosterConfig(n_estimators=8, subsample=0.8, colsample=0.8)):
            assert ensemble_to_json(train(X, y, cfg)) == ensemble_to_json(reference_train(X, y, cfg))


ONE_ROUND = """
import json, numpy as np
from coexpress.booster import BoosterConfig, train, ensemble_to_json
rng = np.random.default_rng(7)
base = rng.integers(0, 3, 60)
X = np.repeat(np.column_stack([rng.integers(0, 3, 60), np.round(rng.normal(size=60), 1),
                               rng.integers(0, 5, 60) / 4.0]).astype(float), 2, axis=0)
y = [("A", "B", "C")[k] for k in np.repeat(base, 2)]
model = train(X, y, BoosterConfig(n_estimators=1, max_depth=4, min_child_weight=0.0))
print(json.dumps(json.loads(ensemble_to_json(model))["trees"]))
"""


class TestCpuIndependentTieOrder:
    """Equal margins make the first round's softmax exactly 1/3, so one round's
    trees depend on the tie order and the summation order, not on exp/log."""

    def _trees(self, disabled):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        done = subprocess.run([sys.executable, "-c", ONE_ROUND], env=env, capture_output=True,
                              text=True, timeout=120)
        if done.returncode != 0 and "CPU feature" in done.stderr:
            pytest.skip(f"this numpy cannot disable {disabled}: {done.stderr.strip()[-200:]}")
        assert done.returncode == 0, done.stderr
        return done.stdout

    @pytest.mark.parametrize("disabled", [
        "AVX512_SPR AVX512_ICL X86_V4",
        "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
    ])
    def test_same_trees_at_lower_dispatch_levels(self, disabled):
        assert self._trees(disabled) == self._trees("")
