import hashlib

import numpy as np
import pytest

from coexpress.booster import (
    BoostedEnsemble,
    BoosterConfig,
    _best_split,
    ensemble_from_json,
    ensemble_to_json,
    feature_importance,
    predict,
    train,
)
from coexpress.errors import ValidationError


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
            got = _best_split(X, g, h, lam, mcw)
            if oracle is None:
                assert got is None
                continue
            assert got is not None
            f, thr, gain = got
            assert gain == pytest.approx(oracle[2], abs=1e-9)

    def test_tie_breaks_to_lowest_feature_and_threshold(self):
        # identical duplicate features: equal gains everywhere
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([x, x])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.ones(4) * 0.5
        f, thr, _ = _best_split(X, g, h, 1.0, 0.0)
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
        gain = feature_importance(ens, "gain")
        weight = feature_importance(ens, "weight")
        assert gain.sum() == pytest.approx(1.0, abs=1e-9)
        assert weight.sum() == pytest.approx(1.0, abs=1e-9)
        assert gain[0] > 0.9
        with pytest.raises(ValidationError):
            feature_importance(ens, "cover")

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
         "bc34c9e7512b940eb803555605504b5561fea4ecea442864568514ad288f84ab"),
        (BoosterConfig(n_estimators=30, subsample=0.8, colsample=0.8),
         "5e8da12ad03a80f6a2b562a1640649be926202c1d9924437be2043b6a2924184"),
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
