import json
import math

import numpy as np
import pytest

from coexpress.errors import ValidationError
from coexpress.masks import load_gene_set, mask_correlations, select_combined
from coexpress.matrix import load_matrix
from coexpress.synthetic import (
    BlockSpec,
    SynthSpec,
    generate,
    spec_from_json,
    spec_to_json,
    write_dataset,
)


def point_biserial_bound(effect, p):
    """Population correlation of noise + effect*indicator with the indicator."""
    return effect * math.sqrt(p * (1 - p)) / math.sqrt(1 + effect**2 * p * (1 - p))


class TestGenerate:
    def test_reproducible_by_seed(self):
        spec = SynthSpec({"A": 5, "B": 5}, background_genes=10, planted_per_class=3, seed=9)
        m1, p1, b1 = generate(spec)
        m2, p2, b2 = generate(spec)
        np.testing.assert_array_equal(m1.values, m2.values)
        assert m1.gene_ids == m2.gene_ids
        assert p1.keys() == p2.keys()

    def test_shapes_and_labels(self):
        spec = SynthSpec(
            {"A": 4, "B": 6}, background_genes=7, planted_per_class=2,
            blocks=(BlockSpec(3, 0.8),), seed=0,
        )
        m, planted, blocks = generate(spec)
        assert m.n_samples == 10
        assert m.n_genes == 7 + 2 * 2 + 3
        assert m.labels.count("A") == 4
        assert len(planted["A"]) == 2
        assert len(blocks["block0"]) == 3

    def test_zero_effect_null_case(self):
        spec = SynthSpec(
            {"A": 30, "B": 30, "C": 30}, background_genes=60, planted_per_class=20,
            effect_size=0.0, seed=3,
        )
        m, planted, _ = generate(spec)
        mc = mask_correlations(m)
        sel = set(select_combined(mc, 0.2, pair=("A", "B")).gene_ids)
        pair_planted = set(planted["A"].gene_ids) | set(planted["B"].gene_ids)
        background = {g for g in m.gene_ids if g.startswith("BG")}
        recall = len(sel & pair_planted) / len(pair_planted)
        fpr = len(sel & background) / len(background)
        # with no effect the planted genes behave like background
        assert abs(recall - fpr) <= 0.1

    def test_strong_effect_near_point_biserial_bound(self):
        spec = SynthSpec(
            {"A": 50, "B": 50}, background_genes=0, planted_per_class=30,
            effect_size=5.0, seed=4,
        )
        m, planted, _ = generate(spec)
        mc = mask_correlations(m)
        bound = point_biserial_bound(5.0, 0.5)
        cols = mc.site_column("A")
        planted_a = [i for i, g in enumerate(mc.gene_ids) if g in set(planted["A"].gene_ids)]
        mean_corr = float(np.mean([cols[i] for i in planted_a]))
        assert mean_corr == pytest.approx(bound, abs=0.05)

    def test_block_loading_one_gives_unit_correlation(self):
        spec = SynthSpec(
            {"A": 20, "B": 20}, background_genes=0, planted_per_class=0,
            blocks=(BlockSpec(4, 1.0),), seed=5,
        )
        m, _, _ = generate(spec)
        z = m.values - m.values.mean(axis=1, keepdims=True)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        corr = z @ z.T
        off = corr[np.triu_indices(4, k=1)]
        np.testing.assert_allclose(np.abs(off), 1.0, atol=1e-12)

    def test_block_correlation_tracks_loading_squared(self):
        loading = 0.8
        spec = SynthSpec(
            {"A": 300, "B": 300}, background_genes=0, planted_per_class=0,
            blocks=(BlockSpec(6, loading),), seed=6,
        )
        m, _, _ = generate(spec)
        z = m.values - m.values.mean(axis=1, keepdims=True)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        corr = z @ z.T
        off = corr[np.triu_indices(6, k=1)]
        assert float(np.mean(off)) == pytest.approx(loading**2, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SynthSpec({"A": 5})
        with pytest.raises(ValidationError):
            SynthSpec({"A": 5, "B": 1})
        with pytest.raises(ValidationError):
            SynthSpec({"A": 5, "B": 5}, effect_size=-1.0)
        with pytest.raises(ValidationError):
            BlockSpec(3, 1.5)


class TestSerialization:
    def test_spec_json_roundtrip(self):
        spec = SynthSpec(
            {"A": 4, "B": 5}, background_genes=3, planted_per_class=2,
            effect_size=2.5, blocks=(BlockSpec(2, 0.9),), seed=11,
        )
        back = spec_from_json(spec_to_json(spec))
        assert back == spec

    def test_dataset_roundtrip_through_files(self, tmp_path):
        spec = SynthSpec({"A": 4, "B": 4}, background_genes=5, planted_per_class=2, seed=2)
        m, planted, blocks = generate(spec)
        write_dataset(m, planted, blocks, tmp_path)
        back = load_matrix(tmp_path / "matrix.tsv", tmp_path / "labels.tsv")
        np.testing.assert_allclose(back.values, m.values)
        assert back.labels == m.labels
        ga = load_gene_set(tmp_path / "planted_A.genes")
        assert ga.gene_ids == planted["A"].gene_ids
        data = json.loads((tmp_path / "blocks.json").read_text())
        assert data == {k: list(v) for k, v in blocks.items()}
