import math

import numpy as np
import pytest

import coexpress.correlation as correlation
from coexpress.correlation import (
    CorrelationMatrix,
    export_heatmap,
    group_mean,
    pairwise,
    pearson,
)
from coexpress.errors import ValidationError, ZeroVarianceError
from coexpress.matrix import ExpressionMatrix


def pearson_oracle(x, y):
    """Direct textbook formula, independent of the implementation under test."""
    x, y = list(map(float, x)), list(map(float, y))
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
    return num / den


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_zero_variance_raises(self):
        with pytest.raises(ZeroVarianceError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_derived_example_against_oracle(self):
        got = pearson([1, 2, 3, 4], [1, 2, 4, 3])
        assert got == pytest.approx(pearson_oracle([1, 2, 3, 4], [1, 2, 4, 3]))
        assert got == pytest.approx(0.8)

    def test_symmetry_and_random_agreement(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert pearson(x, y) == pearson(y, x)
            assert pearson(x, y) == pytest.approx(pearson_oracle(x, y), abs=1e-12)

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        r = pearson(x, y)
        assert pearson(3.5 * x + 2.0, y) == pytest.approx(r, abs=1e-9)
        assert pearson(-2.0 * x + 1.0, y) == pytest.approx(-r, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            pearson([1.0], [2.0])
        with pytest.raises(ValidationError):
            pearson([1, 2], [1, 2, 3])


class TestPairwise:
    def test_identical_sample_columns(self):
        m = ExpressionMatrix(
            ("g1", "g2"),
            ("s1", "s2"),
            ("x", "x"),
            np.array([[1.0, 1.0], [2.0, 2.0]]),
        )
        # identical columns but need variance within columns: g values differ
        c = pairwise(m, axis="samples")
        assert c.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_deviations_near_zero(self):
        # two sample columns whose deviation vectors are orthogonal
        m = ExpressionMatrix(
            ("g1", "g2", "g3", "g4"),
            ("s1", "s2"),
            ("x", "y"),
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        )
        c = pairwise(m, axis="samples")
        assert abs(c.values[0, 1]) < 1e-12

    def test_subset_of_one_rejected(self, tiny_matrix):
        with pytest.raises(ValidationError):
            pairwise(tiny_matrix, axis="samples", subset=["g1"])

    def test_subset_restricts_sample_correlations(self, tiny_matrix):
        c = pairwise(tiny_matrix, axis="samples", subset=["g1", "g2"])
        want = pearson_oracle(tiny_matrix.values[:2, 0], tiny_matrix.values[:2, 1])
        assert c.values[0, 1] == pytest.approx(want, abs=1e-12)

    def test_zero_variance_entity_excluded_and_listed(self, caplog):
        m = ExpressionMatrix(
            ("g1", "g2", "g3"),
            ("s1", "s2", "s3"),
            ("x", "x", "y"),
            np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0], [3.0, 1.0, 2.0]]),
        )
        c = pairwise(m, axis="genes")
        assert c.ids == ("g1", "g3")
        assert tuple(g for g in m.gene_ids if g not in c.ids) == ("g2",)
        assert any(r.getMessage().endswith(": g2") for r in caplog.records)

    def test_entity_permutation_invariance(self, tiny_matrix, take_columns):
        c = pairwise(tiny_matrix, axis="samples")
        perm = [2, 0, 3, 1]
        cp = pairwise(take_columns(tiny_matrix, perm), axis="samples")
        np.testing.assert_allclose(cp.values, c.values[np.ix_(perm, perm)], atol=1e-12)

    def test_matrix_invariants(self, planted_rank):
        m, _ = planted_rank
        c = pairwise(m.select_genes(m.gene_ids[:15]), axis="genes")
        np.testing.assert_allclose(c.values, c.values.T)
        np.testing.assert_array_equal(np.diag(c.values), 1.0)
        assert c.values.min() >= -1.0 and c.values.max() <= 1.0


    def test_row_whose_squares_underflow_is_left_out_as_zeros(self):
        # centred values of +-5e-171 square to 0.0, so the row has zero norm
        # though it is not constant; it is reported as constant and zeroed
        block = np.array([[0.0, 1e-170], [1.0, 3.0], [0.0, 0.0]])
        unit, ok = correlation._standardize_rows(block)
        assert ok.tolist() == [False, True, False]
        assert unit[0].tolist() == [0.0, 0.0] and unit[2].tolist() == [0.0, 0.0]
        assert unit[1].tolist() == pytest.approx([-2 ** -0.5, 2 ** -0.5])


def _corr_from(values, ids):
    return CorrelationMatrix(tuple(ids), np.asarray(values, dtype=float))


class TestGroupMean:
    def test_constant_offdiagonal(self):
        v = np.full((4, 4), 0.5)
        np.fill_diagonal(v, 1.0)
        t = group_mean(_corr_from(v, "abcd"), ["p", "p", "q", "q"])
        assert t.classes == ("p", "q")
        assert t.means == pytest.approx(np.full((2, 2), 0.5))

    def test_within_group_mean_of_three_pairs(self):
        # pair correlations within the group: 0.8, 0.6, 0.4 -> mean 0.6
        v = np.eye(3)
        v[0, 1] = v[1, 0] = 0.8
        v[0, 2] = v[2, 0] = 0.6
        v[1, 2] = v[2, 1] = 0.4
        t = group_mean(_corr_from(v, "abc"), ["g", "g", "g"])
        assert t.means[0, 0] == pytest.approx((0.8 + 0.6 + 0.4) / 3)

    def test_single_member_class_undefined(self):
        v = np.eye(2)
        v[0, 1] = v[1, 0] = 0.3
        t = group_mean(_corr_from(v, "ab"), ["p", "q"])
        assert t.classes == ("p", "q")
        assert math.isnan(t.means[0, 0])
        assert t.means[0, 1] == pytest.approx(0.3)

    def test_requires_full_coverage(self):
        with pytest.raises(ValidationError):
            group_mean(_corr_from(np.eye(2), "ab"), ["p"])


class TestExportHeatmap:
    def test_csv_and_svg_written(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(6, 20))
        z = (raw - raw.mean(1, keepdims=True)) / raw.std(1, keepdims=True)
        v = np.clip(z @ z.T / 20, -1, 1)
        np.fill_diagonal(v, 1.0)
        c = _corr_from(v, "abcdef")
        groups = ["p", "p", "p", "q", "q", "q"]
        csv_path, svg_path = tmp_path / "hm.csv", tmp_path / "hm.svg"
        export_heatmap(c, groups, csv_path=csv_path, svg_path=svg_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 7
        header_ids = lines[0].split(",")[1:]
        # grouped by class: first three entries belong to group p
        assert set(header_ids[:3]) == {"a", "b", "c"}
        svg = svg_path.read_text()
        assert svg.count("<rect") == 36

    def test_requires_one_class_per_entity(self, tmp_path):
        with pytest.raises(ValidationError, match="one class per entity required"):
            export_heatmap(_corr_from(np.eye(3), "abc"), ["p", "q"], csv_path=tmp_path / "hm.csv")
        assert not (tmp_path / "hm.csv").exists()

    def test_oversize_matrix_csv_only(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(correlation, "SVG_MAX_CELLS", 10)
        n = 12
        v = np.eye(n)
        c = _corr_from(v, [f"e{i}" for i in range(n)])
        svg_path = tmp_path / "big.svg"
        export_heatmap(c, ["g"] * n, svg_path=svg_path)
        assert not svg_path.exists()
