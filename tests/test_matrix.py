import hashlib

import numpy as np
import pytest

from coexpress.errors import ParseError, ValidationError
from coexpress.matrix import (
    ExpressionMatrix,
    cleanse,
    export_stats,
    filter_sites,
    gene_stats,
    load_matrix,
    truncate_values,
    write_matrix,
)


def _write(tmp_path, matrix_text, labels_text, name="m.tsv"):
    mp = tmp_path / name
    lp = tmp_path / "labels.tsv"
    mp.write_text(matrix_text)
    lp.write_text(labels_text)
    return mp, lp


LABELS_2 = "s1\tLN\ns2\tBone\n"
# sha256 of the matrix then labels bytes written by TestWriteMatrixBytes
GOLDEN_WRITE_MATRIX = "89c0ddb760b18c224cb79fef41f5d3d00d4abe41acd864a6a92a48f4b5b4b7d2"


class TestLoadMatrix:
    def test_well_formed_3x2(self, tmp_path):
        mp, lp = _write(
            tmp_path,
            "gene_id\ts1\ts2\ng1\t1.5\t2\ng2\t0\t3.25\ng3\t4\t5\n",
            LABELS_2,
        )
        m = load_matrix(mp, lp)
        assert m.values.shape == (3, 2)
        assert m.gene_ids == ("g1", "g2", "g3")
        assert m.labels == ("LN", "Bone")

    def test_ragged_row_names_line_and_row(self, tmp_path):
        mp, lp = _write(tmp_path, "gene_id\ts1\ts2\ng1\t1\t2\ng2\t7\n", LABELS_2)
        with pytest.raises(ParseError, match="line 3") as exc:
            load_matrix(mp, lp)
        assert "g2" in str(exc.value)

    def test_non_numeric_cell(self, tmp_path):
        mp, lp = _write(tmp_path, "gene_id\ts1\ts2\ng1\t1\toops\n", LABELS_2)
        with pytest.raises(ParseError, match="oops"):
            load_matrix(mp, lp)

    def test_duplicate_sample_id(self, tmp_path):
        mp, lp = _write(tmp_path, "gene_id\ts1\ts1\ng1\t1\t2\n", "s1\tLN\n")
        with pytest.raises(ValidationError, match="duplicate sample"):
            load_matrix(mp, lp)

    def test_missing_label(self, tmp_path):
        mp, lp = _write(tmp_path, "gene_id\ts1\ts2\ng1\t1\t2\n", "s1\tLN\n")
        with pytest.raises(ValidationError, match="s2"):
            load_matrix(mp, lp)

    def test_unknown_site_rejected_when_declared(self, tmp_path):
        mp, lp = _write(tmp_path, "gene_id\ts1\ts2\ng1\t1\t2\n", "s1\tLN\ns2\tLung\n")
        with pytest.raises(ValidationError, match="Lung"):
            load_matrix(mp, lp, allowed_sites=["LN", "Bone"])

    def test_csv_delimiter_inferred(self, tmp_path):
        mp = tmp_path / "m.csv"
        mp.write_text("gene_id,s1,s2\ng1,1,2\n")
        lp = tmp_path / "labels.tsv"
        lp.write_text(LABELS_2)
        m = load_matrix(mp, lp)
        assert m.values[0, 1] == 2.0

    def test_roundtrip(self, tmp_path, tiny_matrix):
        write_matrix(tiny_matrix, tmp_path / "m.tsv", tmp_path / "l.tsv")
        back = load_matrix(tmp_path / "m.tsv", tmp_path / "l.tsv")
        assert back.gene_ids == tiny_matrix.gene_ids
        assert back.labels == tiny_matrix.labels
        np.testing.assert_array_equal(back.values, tiny_matrix.values)


class TestWriteMatrixBytes:
    def test_golden_bytes(self, tmp_path):
        m = ExpressionMatrix(
            gene_ids=("g1", 'odd\tid "q"', "g3"),
            sample_ids=("s1", "s2", "s3", "s4"),
            labels=("LN", "LN", "Bone", "Liver"),
            values=np.array([
                [0.1 + 0.2, -0.0, 1e-05, 1.7976931348623157e308],
                [5e-324, 1e22, 123456789.123, -2.5e-17],
                [1.0 / 3.0, 0.0, -1e16, 2.0 ** 60],
            ]),
        )
        write_matrix(m, tmp_path / "m.tsv", tmp_path / "l.tsv")
        digest = hashlib.sha256((tmp_path / "m.tsv").read_bytes()
                                + (tmp_path / "l.tsv").read_bytes()).hexdigest()
        # pinned on the per-cell repr(float(v)) writer
        assert digest == GOLDEN_WRITE_MATRIX
        back = load_matrix(tmp_path / "m.tsv", tmp_path / "l.tsv")
        assert back.gene_ids == m.gene_ids
        np.testing.assert_array_equal(back.values, m.values)
        assert np.signbit(back.values[0, 1])


class TestCleanse:
    def test_zero_and_duplicate_removal_with_truncation(self):
        m = ExpressionMatrix(
            ("A", "B", "B"),
            ("s1", "s2"),
            ("LN", "Bone"),
            np.array([[0.0, 0.0], [1.23456, 2.0], [9.0, 9.0]]),
        )
        cleaned, report = cleanse(m, ["LN", "Bone"])
        assert cleaned.gene_ids == ("B",)
        # first B kept, value cut short to 3 decimals
        assert cleaned.values[0, 0] == 1.234
        assert report.removed_all_zero == 1
        assert report.removed_duplicates == 1
        assert report.truncation_applied

    def test_already_clean_identity(self, tiny_matrix):
        cleaned, report = cleanse(tiny_matrix, ["LN", "Bone"])
        assert cleaned.gene_ids == tiny_matrix.gene_ids
        assert cleaned.sample_ids == tiny_matrix.sample_ids
        np.testing.assert_array_equal(cleaned.values, tiny_matrix.values)
        assert report.removed_all_zero == 0
        assert report.removed_duplicates == 0

    def test_stable_reorder(self):
        m = ExpressionMatrix(
            ("g",),
            ("b1", "l1", "l2"),
            ("Bone", "LN", "LN"),
            np.array([[1.0, 2.0, 3.0]]),
        )
        cleaned, report = cleanse(m, ["LN", "Bone"])
        assert cleaned.labels == ("LN", "LN", "Bone")
        # original relative order of the two LN samples preserved
        assert cleaned.sample_ids == ("l1", "l2", "b1")
        assert sorted(report.column_order) == [0, 1, 2]

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        values = np.round(rng.uniform(-5, 5, size=(30, 8)), 5)
        values[3] = 0.0005  # vanishes at 3-decimal resolution
        m = ExpressionMatrix(
            tuple(f"g{i}" for i in range(30)),
            tuple(f"s{j}" for j in range(8)),
            ("LN",) * 4 + ("Bone",) * 4,
            values,
        )
        once, _ = cleanse(m, ["LN", "Bone"])
        twice, report = cleanse(once, ["LN", "Bone"])
        assert twice.gene_ids == once.gene_ids
        np.testing.assert_array_equal(twice.values, once.values)
        assert report.removed_all_zero == 0 and report.removed_duplicates == 0

    def test_truncation_bound(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(-100, 100, size=(20, 5))
        assert np.all(np.abs(vals - truncate_values(vals)) < 1e-3)
        # truncation toward zero
        assert truncate_values(np.array([1.9999]))[0] == 1.999
        assert truncate_values(np.array([-1.9999]))[0] == -1.999

    def test_column_multiset_preserved(self, tiny_matrix):
        cleaned, _ = cleanse(tiny_matrix, ["Bone", "LN"])
        orig = sorted(map(tuple, tiny_matrix.values.T.tolist()))
        new = sorted(map(tuple, cleaned.values.T.tolist()))
        assert orig == new

    def test_uncovered_site_error(self, tiny_matrix):
        with pytest.raises(ValidationError, match="Bone"):
            cleanse(tiny_matrix, ["LN"])

    def test_all_genes_removed_error(self):
        m = ExpressionMatrix(
            ("g1",), ("s1", "s2"), ("LN", "Bone"), np.array([[0.0, 0.0]])
        )
        with pytest.raises(ValidationError, match="every gene"):
            cleanse(m, ["LN", "Bone"])


class TestGeneStats:
    def test_basic_row(self):
        m = ExpressionMatrix(
            ("g",), ("a", "b", "c"), ("x", "x", "y"), np.array([[0.5, 2.0, 1.0]])
        )
        (s,) = gene_stats(m)
        assert (s.max, s.min, s.sensitivity, s.median) == (2.0, 0.5, 1.5, 1.0)

    def test_constant_row_zero_sensitivity(self):
        m = ExpressionMatrix(("g",), ("a", "b", "c"), ("x", "x", "y"), np.array([[3.0, 3.0, 3.0]]))
        assert gene_stats(m)[0].sensitivity == 0.0

    def test_even_length_median_matches_order_statistic_oracle(self):
        row = np.array([1.0, 2.0, 3.0, 4.0])
        srt = np.sort(row)
        oracle = (srt[1] + srt[2]) / 2.0
        m = ExpressionMatrix(("g",), ("a", "b", "c", "d"), ("x", "x", "y", "y"), row[None, :])
        assert gene_stats(m)[0].median == oracle == 2.5

    def test_column_order_invariance(self, tiny_matrix):
        perm = [2, 0, 3, 1]
        permuted = tiny_matrix.select_samples(perm)
        for a, b in zip(gene_stats(tiny_matrix), gene_stats(permuted)):
            assert (a.max, a.min, a.mean, a.median) == (b.max, b.min, b.mean, b.median)


class TestExportAndFilter:
    def test_export_stats_descending_with_ties(self, tmp_path):
        m = ExpressionMatrix(
            ("b", "a", "c"),
            ("s1", "s2"),
            ("x", "y"),
            np.array([[2.0, 2.0], [2.0, 2.0], [9.0, 1.0]]),
        )
        path = tmp_path / "stats.csv"
        export_stats(gene_stats(m), "mean", path)
        rows = path.read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["c", "a", "b"]
        with pytest.raises(ValidationError):
            export_stats(gene_stats(m), "nope", path)

    def test_filter_sites(self):
        m = ExpressionMatrix(
            ("g",),
            ("s1", "s2", "s3"),
            ("LN", "Lung", "Bone"),
            np.array([[1.0, 2.0, 3.0]]),
        )
        kept = filter_sites(m, ["LN", "Bone"])
        assert kept.sample_ids == ("s1", "s3")
        with pytest.raises(ValidationError, match="Liver"):
            filter_sites(m, ["Liver"])
