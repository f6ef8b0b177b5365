import hashlib
import io
import re

import numpy as np
import pytest

from coexpress.errors import ParseError, ValidationError
from coexpress.matrix import (
    ExpressionMatrix,
    _exponent_rows,
    _read_csv,
    _read_plain,
    cleanse,
    export_stats,
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
# the same for a matrix with no cell in repr's exponent form
GOLDEN_WRITE_MATRIX_PLAIN = "a6d6b704707a8296994cffab96432f226c73a7df6e0a6b7f0e00ddf924d17022"


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

    def test_csv_delimiter_inferred(self, tmp_path):
        mp = tmp_path / "m.csv"
        mp.write_text("gene_id,s1,s2\ng1,1,2\n")
        lp = tmp_path / "labels.tsv"
        lp.write_text(LABELS_2)
        m = load_matrix(mp, lp)
        assert m.values[0, 1] == 2.0

    def test_label_file_with_bom(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        mp, lp = _write(tmp_path, "gene_id\ts1\ts2\ng1\t1\t2\n", "")
        lp.write_bytes(b"\xef\xbb\xbf" + LABELS_2.encode())
        assert load_matrix(mp, lp).labels == ("LN", "Bone")
        lp.write_bytes(b"\xef\xbb\xbfsample_id\tsite\n" + LABELS_2.encode())
        assert load_matrix(mp, lp).labels == ("LN", "Bone")

    def test_matrix_file_with_bom(self, tmp_path):
        mp, lp = _write(tmp_path, "", LABELS_2)
        for text in ("\ufeffgene_id\ts1\ts2\ng1\t1\t2\n", '\ufeff"gene_id"\ts1\ts2\r\ng1\t1\t2\r\n'):
            mp.write_bytes(text.encode())
            m = load_matrix(mp, lp)
            assert m.sample_ids == ("s1", "s2") and m.gene_ids == ("g1",)
            np.testing.assert_array_equal(m.values, [[1.0, 2.0]])

    def test_ids_holding_line_ends_round_trip(self, tmp_path):
        m = ExpressionMatrix(("a\rb", "c\nd", "e\r\nf", "g"), ("s1", "s2"), ("LN", "Bone"),
                             np.arange(8.0).reshape(4, 2))
        write_matrix(m, tmp_path / "m.tsv", tmp_path / "l.tsv")
        lines = (tmp_path / "m.tsv").read_bytes().split(b"\n")
        assert lines[1] == b'"a\rb"\t0.0\t1.0' and lines[-2] == b"g\t6.0\t7.0"
        back = load_matrix(tmp_path / "m.tsv", tmp_path / "l.tsv")
        assert back.gene_ids == m.gene_ids
        np.testing.assert_array_equal(back.values, m.values)

    def test_non_utf8_byte_after_a_byte_order_mark_is_named(self, tmp_path):
        mp, lp = _write(tmp_path, "", LABELS_2)
        mp.write_bytes(b"\xef\xbb\xbfgene_id\ts1\ts2\ng1\t1\t2\ng\xff2\t3\t4\n")
        needle = f"line 3: {mp} is not UTF-8 text (byte 0xff)"
        with pytest.raises(ParseError, match=re.escape(needle)):
            load_matrix(mp, lp)

    def test_non_utf8_byte_is_reported_before_an_earlier_fault(self, tmp_path):
        mp, lp = _write(tmp_path, "", LABELS_2)
        for head in (b"gene_id\ts1\ts2\ng1\t1\n", b'gene_id\ts1\ts2\n"g1\t1\n'):
            mp.write_bytes(head + b"g2\t3\t4\ng3\t5\t\xe96\n")
            needle = f"line 4: {mp} is not UTF-8 text (byte 0xe9)"
            with pytest.raises(ParseError, match=re.escape(needle)):
                load_matrix(mp, lp)

    def test_roundtrip(self, tmp_path, tiny_matrix):
        write_matrix(tiny_matrix, tmp_path / "m.tsv", tmp_path / "l.tsv")
        back = load_matrix(tmp_path / "m.tsv", tmp_path / "l.tsv")
        assert back.gene_ids == tiny_matrix.gene_ids
        assert back.labels == tiny_matrix.labels
        np.testing.assert_array_equal(back.values, tiny_matrix.values)

    @pytest.mark.parametrize("site", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
    def test_site_label_must_be_a_file_name(self, site):
        with pytest.raises(ValidationError, match=re.escape(f"site label {site!r} is not a plain")):
            ExpressionMatrix(("g",), ("s0", "s1"), ("LN", site), np.array([[0.0, 1.0]]))


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

    def test_golden_bytes_plain_rows(self, tmp_path):
        # every row is formatted by orjson; 17-digit values, -0.0, integers, both ends of the range
        m = ExpressionMatrix(
            gene_ids=("g1", "#g2", 'q "3"', ""),
            sample_ids=("s1", "s2", "s3", "s4", "s5"),
            labels=("LN", "LN", "Bone", "Bone", "Liver"),
            values=np.array([
                [1.234, -5.678, 0.001, 12.5, -0.0],
                [7.0, -3.0, 42.0, 0.0, 1e15],
                [0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 1.0000000000000002, 123456789.12345679],
                [1e-4, -1e-4, 9999999999999998.0, -9999999999999998.0, 0.00010000000000000002],
            ]),
        )
        assert not _exponent_rows(m.values).any()
        write_matrix(m, tmp_path / "m.tsv", tmp_path / "l.tsv")
        digest = hashlib.sha256((tmp_path / "m.tsv").read_bytes()
                                + (tmp_path / "l.tsv").read_bytes()).hexdigest()
        # pinned on the per-cell repr(float(v)) writer
        assert digest == GOLDEN_WRITE_MATRIX_PLAIN
        back = load_matrix(tmp_path / "m.tsv", tmp_path / "l.tsv")
        assert back.gene_ids == m.gene_ids
        np.testing.assert_array_equal(back.values.view(np.uint64), m.values.view(np.uint64))

    def test_exponent_form_rule(self):
        edges = np.array([1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e16, 0.0), 1e16,
                          5e-324, 0.0, -0.0, 1e-5, 2.0 ** 60])
        expected = ["e" in repr(x) for x in edges.tolist()]
        assert _exponent_rows(edges[:, None]).tolist() == expected
        assert _exponent_rows((-edges)[:, None]).tolist() == expected


def _outcome(read):
    """(sample IDs, gene IDs, value bits) of a reader, or its exception type and message."""
    try:
        sample_ids, gene_ids, values = read()
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    return sample_ids, gene_ids, values.shape, values.tobytes()


def _loaded(mp, lp):
    m = load_matrix(mp, lp)
    return list(m.sample_ids), list(m.gene_ids), m.values


HEAD = "gene_id\ts1\ts2\n"

# (text, taken by the bulk reader); every other input goes to the csv parser
PARITY_CASES = {
    "underscore": (HEAD + "g1\t1_0\t2\n", False),
    "full-width digit": (HEAD + "g1\t\uff11\t2\n", False),
    "nbsp padding": (HEAD + "g1\t\xa01.5\xa0\t 2 \n", True),
    "sign and bare dot": (HEAD + "g1\t+.5\t5.\n", True),
    "exponent": (HEAD + "g1\t1E3\t-2.5e-3\n", True),
    "overflow": (HEAD + "g1\t1e500\t2\n", False),
    "inf": (HEAD + "g1\tinf\t2\n", False),
    "nan": (HEAD + "g1\t1\tNaN\n", False),
    "hex": (HEAD + "g1\t0x10\t2\n", False),
    "empty cell": (HEAD + "g1\t\t2\n", False),
    "ascii separator": (HEAD + "g1\t\x1c3\t2\n", False),
    "nul": (HEAD + "g1\t3\x00\t2\n", False),
    "ragged short": (HEAD + "g1\t1\t2\ng2\t7\n", False),
    "ragged long": (HEAD + "g1\t1\t2\t3\n", False),
    "quoted id": (HEAD + '"g\t1"\t1\t2\n', False),
    "hash id": (HEAD + "#g1\t1\t2\n# g2\t3\t4\n", True),
    "empty id": (HEAD + "\t1\t2\n", True),
    "padded id": (HEAD + " g1 \t1\t2\n", True),
    "crlf": (HEAD.replace("\n", "\r\n") + "g1\t1\t2\r\ng2\t3\t4\r\n", False),
    "cr": (HEAD.replace("\n", "\r") + "g1\t1\t2\rg2\t3\t4\r", False),
    "quoted cr id": (HEAD + '"g\r1"\t1\t2\ng2\t3\t4\n', False),
    "stray cr in a cell": (HEAD + "g1\t1\r\t2\n", False),
    "blank lines": (HEAD + "\ng1\t1\t2\n\n\ng2\t3\t4", True),
    "whitespace lines": (HEAD + "  \ng1\t1\t2\n\xa0\n\x0c\n", True),
    "tab-only line": (HEAD + "g1\t1\t2\n\t\n", False),
    "stray text line": (HEAD + "g1\t1\t2\nnotes\n", False),
    "no data rows": (HEAD + "\n\n", False),
    "empty file": ("", False),
    "blank header": ("\ng1\t1\t2\n", False),
    "no sample ids": ("gene_id\ng1\n", False),
    "duplicate sample": ("gene_id\ts1\t s1\ng1\t1\t2\n", False),
    "padded sample ids": ("gene_id\t s1\ts2 \ng1\t1\t2\n", True),
    "signed zero": (HEAD + "g1\t-0.0\t-0\n", True),
    "subnormal and underflow": (HEAD + "g1\t5e-324\t1e-400\n", True),
}


class TestReaderParity:
    """The bulk reader against the csv parser: same bits, IDs and errors, line numbers included."""

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_same_result_as_csv_parser(self, tmp_path, case):
        text, bulk = PARITY_CASES[case]
        mp, lp = tmp_path / "m.tsv", tmp_path / "labels.tsv"
        mp.write_text(text, encoding="utf-8", newline="")
        lp.write_text(LABELS_2)
        assert (_read_plain(mp, "\t") is not None) is bulk
        reference = _outcome(lambda: _read_csv(io.StringIO(text, newline=""), "\t"))
        assert _outcome(lambda: _loaded(mp, lp)) == reference

    def test_csv_delimiter(self, tmp_path):
        text = "gene_id,s1,s2\n#g1, 1.5 ,\t2\ng2,3,4\n"
        (tmp_path / "m.csv").write_text(text)
        fast = _read_plain(tmp_path / "m.csv", ",")
        assert fast is not None
        assert _outcome(lambda: fast) == _outcome(lambda: _read_csv(io.StringIO(text), ","))
        assert fast[1] == ["#g1", "g2"]


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
        cleaned, _ = cleanse(m, ["LN", "Bone"])
        assert cleaned.labels == ("LN", "LN", "Bone")
        # original relative order of the two LN samples preserved
        assert cleaned.sample_ids == ("l1", "l2", "b1")

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

    def test_column_order_invariance(self, tiny_matrix, take_columns):
        perm = [2, 0, 3, 1]
        permuted = take_columns(tiny_matrix, perm)
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
        export_stats(gene_stats(m), path)
        rows = path.read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["c", "a", "b"]

    def test_filter_sites(self):
        m = ExpressionMatrix(
            ("g",),
            ("s1", "s2", "s3"),
            ("LN", "Lung", "Bone"),
            np.array([[1.0, 2.0, 3.0]]),
        )
        kept, _ = cleanse(m, ["LN", "Bone"])
        assert kept.sample_ids == ("s1", "s3")
        # a listed site without samples adds none
        kept, _ = cleanse(m, ["Bone", "Liver"])
        assert (kept.sample_ids, kept.labels) == (("s3",), ("Bone",))
        # a site listed twice has no one place in the column order
        with pytest.raises(ValidationError, match="keep_sites: 'LN' is given more than once"):
            cleanse(m, ["LN", "Bone", "LN"])
