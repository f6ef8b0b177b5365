"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 1 needs the real dataset and is skipped unless COEXPRESS_DATASET_DIR
points at a directory holding matrix.tsv and labels.tsv.
"""
import json
import os
import time

import numpy as np
import pytest

from coexpress.booster import BoosterConfig, train
from coexpress.folds import stratified_folds
from coexpress.graph import (
    GeneGraph,
    WeightedGeneGraph,
    detect_communities,
    modularity,
    select_threshold,
    sweep_thresholds,
    threshold_graph,
)
from coexpress.masks import mask_correlations, select_combined, select_three_mask_intersect
from coexpress.matrix import cleanse, load_matrix
from coexpress.normalize import NormalizationScheme, normalize_matrix, normalize_row
from coexpress.pipeline import load_config, run_pipeline
from coexpress.rfe import cross_validate_step, recursive_eliminate
from coexpress.synthetic import write_dataset

BARBELL = GeneGraph(tuple("abcdef"), ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)))
TRIANGLES = GeneGraph(tuple("abcdef"), ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))


def _report(n, msg):
    print(f"\nACCEPTANCE {n} PASS: {msg}")


# -------------------------------------------------------------------------
# criterion 1 (optional, data-dependent, not CI)

DATASET_DIR = os.environ.get("COEXPRESS_DATASET_DIR")


@pytest.mark.skipif(
    not DATASET_DIR,
    reason="criterion 1 needs the user-supplied dataset (set COEXPRESS_DATASET_DIR); not CI",
)
def test_criterion_1_paper_reproduction():
    t0 = time.monotonic()
    root = DATASET_DIR
    m = load_matrix(os.path.join(root, "matrix.tsv"), os.path.join(root, "labels.tsv"))
    m, _ = cleanse(m, ["LN", "Bone", "Liver"])
    mn = normalize_matrix(m, NormalizationScheme("rank"))
    mc = mask_correlations(mn)
    combined = select_combined(mc, 0.2, pair=("LN", "Bone"), name="combined")
    assert 113 <= len(combined) <= 153, f"|combined| = {len(combined)}, expected 133 +-15%"

    cfg = BoosterConfig()  # the documented booster configuration
    plan = stratified_folds(mn.labels, 10, seed=42)
    raw_report = cross_validate_step(mn, combined, plan, cfg).report
    assert abs(raw_report.accuracy - 0.9221) <= 0.04, raw_report.accuracy

    balanced = stratified_folds(mn.labels, 10, seed=42, replication={"LN": 1, "Bone": 2, "Liver": 5})
    trace = recursive_eliminate(mn, combined, balanced, cfg, drop_per_step=1)
    assert abs(trace.best.report.accuracy - 0.9197) <= 0.04, trace.best.report.accuracy
    _report(1, f"combined={len(combined)} genes, raw CV {raw_report.accuracy:.4f}, "
               f"balanced best {trace.best.report.accuracy:.4f} in {time.monotonic()-t0:.0f}s")


# -------------------------------------------------------------------------
# criterion 2: modularity oracle and near-optimal detection on small graphs


def modularity_double_sum(g, membership):
    n = g.n_nodes
    A = np.zeros((n, n))
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1.0
    k = A.sum(axis=1)
    m = g.n_edges
    q = 0.0
    for i in range(n):
        for j in range(n):
            if membership[i] == membership[j]:
                q += A[i, j] - k[i] * k[j] / (2.0 * m)
    return q / (2.0 * m)


def all_partitions(n):
    a = [0] * n

    def rec(i, mx):
        if i == n:
            yield tuple(a)
            return
        for c in range(mx + 2):
            a[i] = c
            yield from rec(i + 1, max(mx, c))

    yield from rec(1, 0)


def test_criterion_2_modularity_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    corpus = [BARBELL, TRIANGLES]
    while len(corpus) < 202:
        n = int(rng.integers(4, 9))
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45)
        if edges:
            corpus.append(GeneGraph(tuple(f"n{i:02d}" for i in range(n)), edges))

    for gi, g in enumerate(corpus):
        # the implementation must match the double-sum formula exactly
        for _ in range(3):
            raw = [int(rng.integers(0, 3)) for _ in range(g.n_nodes)]
            seen = {}
            membership = [seen.setdefault(c, len(seen)) for c in raw]
            assert modularity(g, membership) == pytest.approx(
                modularity_double_sum(g, membership), abs=1e-12
            )
        # detection reaches >= 95% of the exhaustive optimum
        best = max(modularity(g, p) for p in all_partitions(g.n_nodes))
        got = detect_communities(g, seed=gi).q
        assert got >= 0.95 * best - 1e-12, f"graph {gi}: {got} < 0.95 * {best}"

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, f"{len(corpus)} graphs: exact double-sum match, Q >= 0.95*optimum, {elapsed:.1f}s")


def test_criterion_3_barbell_fixture():
    p = detect_communities(BARBELL, seed=0)
    assert p.q == pytest.approx(5 / 14, abs=1e-12)
    assert p.membership[:3] == (0, 0, 0) and p.membership[3:] == (1, 1, 1)
    _report(3, f"barbell Q = {p.q:.12f} = 5/14, triangle split recovered")


# -------------------------------------------------------------------------
# criterion 4: planted recovery end to end


def test_criterion_4_planted_recovery(planted_rank):
    t0 = time.monotonic()
    mn, planted = planted_rank
    mc = mask_correlations(mn)

    combined = select_combined(mc, 0.2, pair=("A", "B"))
    selected = set(combined.gene_ids)
    pair_planted = set(planted["A"].gene_ids) | set(planted["B"].gene_ids)
    background = {g for g in mn.gene_ids if g.startswith("BG")}
    recall = len(selected & pair_planted) / len(pair_planted)
    fpr = len(selected & background) / len(background)
    assert recall >= 0.9, f"recall {recall}"
    assert fpr <= 0.05, f"fpr {fpr}"

    # elimination from the all-mask intersect set, which holds every class's genes
    start = select_three_mask_intersect(mc, 0.2, name="intersect")
    cfg = BoosterConfig(n_estimators=40, colsample=0.3, seed=3)
    plan = stratified_folds(mn.labels, 5, seed=11)
    trace = recursive_eliminate(mn, start, plan, cfg, drop_per_step=1)
    survivors = set(trace.best.genes.gene_ids)
    for cl in ("A", "B", "C"):
        assert survivors & set(planted[cl].gene_ids), f"no planted {cl} gene at best step"

    plan10 = stratified_folds(mn.labels, 10, seed=11)
    report = cross_validate_step(mn, start, plan10, cfg).report
    assert report.accuracy >= 0.9, f"cv accuracy {report.accuracy}"

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s"
    _report(4, f"recall {recall:.2f}, FPR {fpr:.2f}, best step keeps all classes, "
               f"CV accuracy {report.accuracy:.3f}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 5: booster correctness


def test_criterion_5_booster_correctness(planted_bundle):
    m, _, _ = planted_bundle
    mn = normalize_matrix(m, NormalizationScheme("rank"))
    X = mn.values.T
    y = list(mn.labels)
    ens = train(X, y, BoosterConfig(n_estimators=100, seed=0))
    lc = ens.loss_curve
    assert len(lc) == 101
    assert all(a >= b - 1e-12 for a, b in zip(lc, lc[1:])), "loss not monotone"

    # 6-sample worked example, first round from uniform probabilities:
    # split at 2.5 gives G_L=-1.5, H_L=0.75 (and mirrored right), lambda=1:
    # gain = 9/7, leaf weights +-6/7.
    X6 = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    ens6 = train(
        X6, ["a", "a", "a", "b", "b", "b"],
        BoosterConfig(learning_rate=1.0, max_depth=1, n_estimators=1,
                      reg_lambda=1.0, min_child_weight=0.0),
    )
    tree = ens6.trees[0][0]
    assert tree.threshold[0] == 2.5
    assert tree.gain[0] == pytest.approx(9 / 7, abs=1e-15)
    leaves = sorted(w for f, w in zip(tree.feature, tree.weight) if f < 0)
    assert leaves == pytest.approx([-6 / 7, 6 / 7], abs=1e-15)

    Xc = np.column_stack([X[:, :10], np.full(len(y), 1.0)])
    ensc = train(Xc, y, BoosterConfig(n_estimators=20, seed=1))
    assert ensc.importance[-1] == 0.0
    assert ensc.importance_weight[-1] == 0.0

    _report(5, f"loss monotone over 100 rounds (final {lc[-1]:.4f}), worked example exact, "
               "constant-feature importance exactly 0")


# -------------------------------------------------------------------------
# criterion 6: resampling contract over 1,000 random label vectors


def test_criterion_6_resampling_contract():
    rng = np.random.default_rng(6)
    sites = ["w", "x", "y", "z"]
    checked = 0
    while checked < 1000:
        n = int(rng.integers(6, 40))
        n_classes = int(rng.integers(2, 5))
        labels = [sites[int(rng.integers(0, n_classes))] for _ in range(n)]
        if len(set(labels)) < 2:
            continue
        k = int(rng.integers(2, min(8, n) + 1))
        plan = stratified_folds(labels, k, seed=checked)
        totals = {lab: labels.count(lab) for lab in set(labels)}
        per_fold = {lab: [0] * k for lab in totals}
        for i, lab in enumerate(labels):
            per_fold[lab][plan.assignment[i]] += 1
        for lab, counts in per_fold.items():
            lo, hi = totals[lab] // k, -(-totals[lab] // k)
            assert all(lo <= c <= hi for c in counts), (labels, k, lab, counts)

        factors = {lab: int(rng.integers(0, 6)) for lab in totals}
        fat = stratified_folds(labels, k, seed=checked, replication=factors)
        for i, f in fat.expanded:
            assert f == fat.assignment[i]
        copies = {i: 0 for i in range(n)}
        for i, _ in fat.expanded:
            copies[i] += 1
        for i, lab in enumerate(labels):
            assert copies[i] == 1 + factors[lab]
        checked += 1

    labels = ["LN"] * 12 + ["Bone"] * 7 + ["Liver"] * 4
    fat = stratified_folds(labels, 2, seed=0, replication={"LN": 1, "Bone": 2, "Liver": 5})
    counts = {"LN": 0, "Bone": 0, "Liver": 0}
    for i, _ in fat.expanded:
        counts[labels[i]] += 1
    assert counts == {"LN": 24, "Bone": 21, "Liver": 24}
    _report(6, "1000 random label vectors: +-1 stratification and exhaustive co-location; "
               "12/7/4 with extras {1,2,5} gives 24/21/24")


# -------------------------------------------------------------------------
# criterion 7: normalization properties over 500 random rows


def test_criterion_7_normalization_properties():
    rng = np.random.default_rng(7)
    rank = NormalizationScheme("rank")
    transforms = [np.exp, lambda v: v**3, lambda v: 10.0 * v + 3.0, np.arctan]
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 60))
        row = np.round(rng.normal(0.0, 2.0, size=n), 2)
        if np.unique(row).size < 2:
            continue
        base = normalize_row(row, rank)
        f = transforms[checked % len(transforms)]
        np.testing.assert_allclose(normalize_row(f(row), rank), base, atol=1e-12)

        positive = row - row.min() + 0.5
        for variant in ("range", "log", "rank"):
            out = normalize_row(positive, NormalizationScheme(variant))
            assert out.min() == 0.0 and out.max() == 1.0
            assert np.all((out >= 0.0) & (out <= 1.0))
        checked += 1
    _report(7, "500 rows: rank invariant under strictly increasing transforms, "
               "bounded schemes attain [0,1] endpoints")


# -------------------------------------------------------------------------
# criterion 8: full-pipeline determinism

PIPELINE_INI = """\
[input]
matrix = {matrix}
labels = {labels}

[normalize]
scheme = rank

[select]
t_intersect = 0.15
t_combined = 0.2
pair = A,B

[folds]
k = 5

[booster]
n_estimators = 12
colsample = 0.4

[rfe]
drop_per_step = 2

[run]
seed = 99
out = {out}
"""


def test_criterion_8_pipeline_determinism(tmp_path, planted_bundle):
    m, planted, blocks = planted_bundle
    data = tmp_path / "data"
    write_dataset(m, planted, blocks, data)
    manifests = []
    for run_name in ("run_a", "run_b"):
        cfg_path = tmp_path / f"{run_name}.ini"
        cfg_path.write_text(PIPELINE_INI.format(
            matrix=data / "matrix.tsv", labels=data / "labels.tsv", out=tmp_path / run_name,
        ))
        manifest_path = run_pipeline(load_config(cfg_path))
        manifests.append(manifest_path.read_bytes())
    assert manifests[0] == manifests[1], "manifests differ between identical runs"
    payload = json.loads(manifests[0])
    assert payload["outputs"], "manifest lists no outputs"
    _report(8, f"two runs, identical manifests ({len(payload['outputs'])} hashed outputs)")


# -------------------------------------------------------------------------
# criterion 9: sweep semantics


def two_clique_weighted(n_per=5, intra1=0.75, intra2=0.65, inter=0.42):
    n = 2 * n_per
    w = np.full((n, n), inter)
    for block, val in ((range(n_per), intra1), (range(n_per, n), intra2)):
        for i in block:
            for j in block:
                w[i, j] = val
    np.fill_diagonal(w, 0.0)
    return WeightedGeneGraph(tuple(f"g{i}" for i in range(n)), w)


def test_criterion_9_sweep_semantics():
    assert len(sweep_thresholds(0.4, 0.9, 0.02)) == 26
    wg = two_clique_weighted()
    g, p, table = select_threshold(wg, 0.4, 0.9, 0.02, seed=0)
    assert len(table) == 26
    defined = [r for r in table if r.modularity is not None]
    best_q = max(r.modularity for r in defined)
    assert p.q == pytest.approx(best_q, abs=1e-12)
    assert g.threshold == min(
        r.threshold for r in defined if abs(r.modularity - best_q) <= 1e-12
    )
    # the winning graph is the clean two-clique split
    assert p.n_communities == 2
    assert p.q == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(g.edges, threshold_graph(wg, g.threshold).edges)
    _report(9, f"26-row sweep, argmax t={g.threshold} with Q={p.q:.3f}")
