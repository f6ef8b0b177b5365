"""Property test of the booster's class handling: labels enter a fit only
through their sorted order, so an order-preserving renaming changes nothing
but the names."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from coexpress.booster import BoosterConfig, predict, train  # noqa: E402

names = st.lists(st.text(min_size=1, max_size=4), min_size=4, max_size=4, unique=True).map(sorted)


@st.composite
def renaming_case(draw):
    """(X, class indices, old names, new names, config); the i-th old name maps to the i-th new."""
    n_classes = draw(st.integers(2, 4))
    y = draw(st.lists(st.integers(0, n_classes - 1), min_size=6, max_size=24)
             .filter(lambda v: len(set(v)) >= 2))
    n_feat = draw(st.integers(1, 5))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(len(y), n_feat))
    # a few repeated values, so ties in the split search are exercised
    X = np.round(X, draw(st.sampled_from([0, 1, 3])))
    config = BoosterConfig(
        n_estimators=4,
        subsample=draw(st.sampled_from([1.0, 0.7])),
        colsample=draw(st.sampled_from([1.0, 0.6])),
        seed=draw(st.integers(0, 1000)),
    )
    return X, y, draw(names)[:n_classes], draw(names)[:n_classes], config


@given(renaming_case())
def test_order_preserving_renaming_of_classes(case):
    X, y, old, new, config = case
    a = train(X, [old[c] for c in y], config)
    b = train(X, [new[c] for c in y], config)
    present = sorted(set(y))
    assert a.classes == tuple(old[c] for c in present)
    assert b.classes == tuple(new[c] for c in present)
    assert a.trees == b.trees
    assert np.array_equal(a.importance, b.importance)
    assert a.loss_curve == b.loss_curve
    pred_a, proba_a = predict(a, X)
    pred_b, proba_b = predict(b, X)
    rename = dict(zip(old, new))
    assert [rename[p] for p in pred_a] == list(pred_b)
    assert np.array_equal(proba_a, proba_b)
