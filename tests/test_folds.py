import json
import logging
import re
from collections import Counter

import numpy as np
import pytest

from coexpress.errors import ParseError, ValidationError
from coexpress.folds import (
    cv_split,
    load_plan,
    plan_from_json,
    plan_to_json,
    save_plan,
    stratified_folds,
)


def fold_class_counts(plan):
    counts = {}
    for i, lab in enumerate(plan.labels):
        counts.setdefault(lab, [0] * plan.k)[plan.assignment[i]] += 1
    return counts


class TestStratifiedFolds:
    def test_exact_split_two_by_two(self):
        plan = stratified_folds(["A", "A", "B", "B"], 2, seed=0)
        counts = fold_class_counts(plan)
        assert counts["A"] == [1, 1]
        assert counts["B"] == [1, 1]

    def test_deterministic_given_seed(self):
        a = stratified_folds(["A"] * 12 + ["B"] * 7 + ["C"] * 4, 5, seed=42)
        b = stratified_folds(["A"] * 12 + ["B"] * 7 + ["C"] * 4, 5, seed=42)
        assert a.assignment == b.assignment

    def test_different_seed_permutes_but_keeps_balance(self):
        labels = ["A"] * 12 + ["B"] * 7 + ["C"] * 4
        a = stratified_folds(labels, 5, seed=1)
        b = stratified_folds(labels, 5, seed=2)
        assert a.assignment != b.assignment
        for plan in (a, b):
            for lab, per_fold in fold_class_counts(plan).items():
                assert max(per_fold) - min(per_fold) <= 1

    def test_balance_over_random_label_vectors(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(6, 40))
            labels = [f"c{rng.integers(0, 3)}" for _ in range(n)]
            if len(set(labels)) < 2:
                continue
            k = int(rng.integers(2, min(8, n) + 1))
            plan = stratified_folds(labels, k, seed=trial)
            total = {lab: labels.count(lab) for lab in set(labels)}
            for lab, per_fold in fold_class_counts(plan).items():
                lo, hi = total[lab] // k, -(-total[lab] // k)
                assert all(lo <= c <= hi for c in per_fold)

    def test_small_class_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            stratified_folds(["A"] * 10 + ["B"], 4, seed=0)
        assert any("B" in r.message for r in caplog.records)

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            stratified_folds(["A", "B"], 5, seed=0)
        with pytest.raises(ValidationError):
            stratified_folds(["A", "B"], 1, seed=0)


class TestOversample:
    def test_paper_arithmetic_12_7_4(self):
        labels = ["LN"] * 12 + ["Bone"] * 7 + ["Liver"] * 4
        fat = stratified_folds(labels, 2, seed=0, replication={"LN": 1, "Bone": 2, "Liver": 5})
        counts = {"LN": 0, "Bone": 0, "Liver": 0}
        for i, _ in fat.expanded:
            counts[labels[i]] += 1
        assert counts == {"LN": 24, "Bone": 21, "Liver": 24}

    def test_zero_factors_identity(self):
        plan = stratified_folds(["A", "A", "B", "B"], 2, seed=3)
        fat = stratified_folds(["A", "A", "B", "B"], 2, seed=3, replication={"A": 0, "B": 0})
        assert fat.expanded == plan.expanded

    def test_colocation_exhaustive(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            labels = [f"c{rng.integers(0, 3)}" for _ in range(20)]
            if len(set(labels)) < 2:
                continue
            factors = {lab: int(rng.integers(0, 4)) for lab in set(labels)}
            fat = stratified_folds(labels, 4, seed=trial, replication=factors)
            for i, f in fat.expanded:
                assert f == fat.assignment[i]
            for i, lab in enumerate(labels):
                copies = sum(1 for j, _ in fat.expanded if j == i)
                assert copies == 1 + factors[lab]

    def test_negative_factor_rejected(self):
        with pytest.raises(ValidationError):
            stratified_folds(["A", "A", "B", "B"], 2, seed=0, replication={"A": -1})


class TestCvSplit:
    def _plan(self):
        labels = ["A"] * 10 + ["B"] * 10
        return stratified_folds(labels, 5, seed=7, replication={"A": 1, "B": 2})

    def test_holdout_fold_contents(self):
        plan = self._plan()
        train, val = cv_split(plan, 0)
        assert all(plan.assignment[i] != 0 for i in train)
        assert all(plan.assignment[i] == 0 for i in val)

    def test_replicas_travel_together(self):
        plan = self._plan()
        for v in range(plan.k):
            train, val = cv_split(plan, v)
            assert set(train.tolist()).isdisjoint(val.tolist())

    def test_partition_sizes(self):
        plan = self._plan()
        total = sum(cv_split(plan, v)[1].size for v in range(plan.k))
        assert total == len(plan.expanded)

    def test_fold_out_of_range(self):
        plan = self._plan()
        with pytest.raises(ValidationError):
            cv_split(plan, 5)


def plan_text(**edit):
    """A valid two-sample plan file's text with the keys of `edit` set."""
    return json.dumps({"k": 2, "labels": ["A", "B"], "assignment": [0, 1], "replication": {},
                       "seed": 0, "expanded": [[0, 0], [1, 1]], **edit})


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        labels = ["A"] * 6 + ["B"] * 4
        plan = stratified_folds(labels, 2, seed=11, replication={"A": 0, "B": 2})
        back = plan_from_json(plan_to_json(plan))
        assert back == plan
        save_plan(plan, tmp_path / "plan.json")
        assert load_plan(tmp_path / "plan.json") == plan

    def test_plan_file_with_a_byte_order_mark_loads(self, tmp_path):
        plan = stratified_folds(["A"] * 4 + ["B"] * 4, 2, seed=3, replication={"B": 1})
        path = tmp_path / "plan.json"
        path.write_bytes(b"\xef\xbb\xbf" + plan_to_json(plan).encode("utf-8"))
        assert load_plan(path) == plan

    @pytest.mark.parametrize("text, needle", [
        ("{}", "has no key 'k'"),
        ("[]", "is not a JSON object"),
        (plan_text(replication=[]),
         "key 'replication' is malformed: TypeError('expected an object, got an array')"),
        (plan_text(expanded=[[0]]),
         "key 'expanded' is malformed: ValueError('expected 2 entries, got 1')"),
        (plan_text(k=2.7), "key 'k' is malformed: TypeError('expected an integer, got 2.7')"),
        (plan_text(seed=True), "key 'seed' is malformed: TypeError('expected an integer, got true')"),
        (plan_text(assignment=["0", 1]),
         "key 'assignment' is malformed: TypeError('expected an integer, got \"0\"')"),
        (plan_text(labels="AB"),
         "key 'labels' is malformed: TypeError('expected an array, got \"AB\"')"),
        (plan_text(labels=[1, 2]),
         "key 'labels' is malformed: TypeError('expected a string, got 1')"),
        (plan_text(folds=2), "has an unknown key 'folds'"),
    ], ids=["empty", "list", "replication_as_list", "short_expanded_pair", "fractional_k",
            "boolean_seed", "string_assignment", "labels_as_string", "numeric_labels",
            "stray_key"])
    def test_malformed_plan_file_names_the_file_and_key(self, tmp_path, text, needle):
        path = tmp_path / "plan.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{path} {needle}")):
            load_plan(path)

    def test_truncated_plan_file_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(plan_to_json(stratified_folds(["A"] * 4 + ["B"] * 4, 2, seed=0))[:40])
        needle = f"line 5: {path} is not JSON: Expecting value (column 7)"
        with pytest.raises(ParseError, match=re.escape(needle)):
            load_plan(path)

    def test_mismatched_expanded_rejected_on_load(self):
        plan = stratified_folds(["A"] * 4 + ["B"] * 4, 2, seed=0, replication={"B": 1})
        moved = json.loads(plan_to_json(plan))
        i, f = moved["expanded"][-1]
        moved["expanded"][-1] = [i, 1 - f]  # a replica outside its original's fold
        dropped = json.loads(plan_to_json(plan))
        del dropped["expanded"][-1]
        for bad in (moved, dropped):
            with pytest.raises(ValidationError, match="expanded"):
                plan_from_json(json.dumps(bad))

    def test_negative_factor_in_file_rejected(self):
        plan = stratified_folds(["A", "A", "B", "B"], 2, seed=0)
        payload = json.loads(plan_to_json(plan))
        payload["replication"] = {"A": -1}
        with pytest.raises(ValidationError, match=">= 0"):
            plan_from_json(json.dumps(payload))


SITES = ("LN", "Bone", "Liver", "Lung")


def check_plan_properties(inputs):
    labels, k, seed, factors = inputs
    plan = stratified_folds(labels, k, seed)
    fat = stratified_folds(labels, k, seed, factors)
    assert fat.assignment == plan.assignment

    totals = Counter(labels)
    for lab, per_fold in fold_class_counts(fat).items():
        assert all(totals[lab] // k <= c <= -(-totals[lab] // k) for c in per_fold)

    # the explicit replica list: each sample's copies together, in sample
    # order, all in the sample's fold
    listed = tuple(
        (i, fat.assignment[i]) for i, lab in enumerate(labels) for _ in range(1 + factors.get(lab, 0))
    )
    assert fat.expanded == listed
    copies = Counter(i for i, _ in fat.expanded)
    assert all(copies[i] == 1 + factors.get(lab, 0) for i, lab in enumerate(labels))

    text = plan_to_json(fat)
    back = plan_from_json(text)
    assert back == fat and plan_to_json(back) == text

    # cv_split against a plain filter of `expanded`
    for v in range(k):
        train, val = cv_split(fat, v)
        want_train = np.array([i for i, f in fat.expanded if f != v], dtype=np.intp)
        want_val = np.array([i for i, f in fat.expanded if f == v], dtype=np.intp)
        assert train.dtype == want_train.dtype and val.dtype == want_val.dtype
        assert np.array_equal(train, want_train) and np.array_equal(val, want_val)


class TestFoldPlanProperties:
    def test_arbitrary_label_vectors(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        inputs = st.lists(st.sampled_from(SITES), min_size=2, max_size=40).flatmap(
            lambda labels: st.tuples(
                st.just(labels),
                st.integers(2, len(labels)),
                st.integers(0, 2**32 - 1),
                st.dictionaries(st.sampled_from(SITES), st.integers(0, 5)),
            )
        )
        hyp.given(inputs)(check_plan_properties)()
