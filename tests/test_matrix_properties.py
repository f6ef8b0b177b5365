"""Property tests of matrix text I/O against a per-cell repr writer and the csv
parser over the whole text, and of cleanse."""
import codecs
import csv
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coexpress.errors import ParseError, ValidationError  # noqa: E402
from coexpress.matrix import (  # noqa: E402
    ExpressionMatrix, _read_csv, _read_plain, cleanse, load_matrix, write_matrix,
)

SITES = ("LN", "Bone", "Liver")
MIN_NORMAL = 2.2250738585072014e-308
# cells whose repr has no exponent, down to 1e-4 and up to the last double below 1e16
PLAIN_EDGES = (1e-4, np.nextafter(1e-4, 1.0), np.nextafter(1e16, 0.0), 0.0, -0.0, 1.0,
               0.1 + 0.2, 1.0 / 3.0, 1e15, 123456789.12345679)
# cells repr writes with an exponent: just below 1e-4, from 1e16 up, and subnormals
EXPONENT_EDGES = (np.nextafter(1e-4, 0.0), 1e-5, 1e16, np.nextafter(1e16, np.inf), 5e-324,
                  np.nextafter(MIN_NORMAL, 0.0), MIN_NORMAL, 1.7976931348623157e308)


def _signed(values):
    return st.sampled_from(values).flatmap(lambda x: st.sampled_from((float(x), -float(x))))


plain_cells = st.one_of(
    _signed(PLAIN_EDGES),
    st.integers(-10**9, 10**9).map(lambda k: k / 1000),
    st.floats(1e-4, 9999999999999998.0).flatmap(lambda x: st.sampled_from((x, -x))),
)
any_cells = st.one_of(plain_cells, _signed(EXPONENT_EDGES),
                      st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def matrices(draw, row_cells, ids):
    """Up to 6 x 6; each row draws its cells from a strategy that `row_cells` draws."""
    n_genes, n_samples = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [draw(st.lists(draw(row_cells), min_size=n_samples, max_size=n_samples))
            for _ in range(n_genes)]
    return ExpressionMatrix(
        gene_ids=tuple(draw(ids) for _ in range(n_genes)),
        sample_ids=tuple(f"s{j}" for j in range(n_samples)),
        labels=tuple(draw(st.sampled_from(SITES)) for _ in range(n_samples)),
        values=np.array(rows, dtype=np.float64),
    )


def _repr_writer(m, path):
    """The reference format: csv rows of the gene ID and repr() of every cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, delimiter="\t", lineterminator="\n")
        w.writerow(["gene_id", *m.sample_ids])
        for gid, row in zip(m.gene_ids, m.values.tolist()):
            w.writerow([gid, *map(repr, row)])


@given(matrices(st.sampled_from((plain_cells, any_cells)), ids=st.text("gA#1 _-\"\t", max_size=4)))
def test_write_matrix_is_repr_per_cell_and_reads_back_bit_for_bit(tmp_path_factory, m):
    d = tmp_path_factory.mktemp("io")
    write_matrix(m, d / "m.tsv", d / "l.tsv")
    _repr_writer(m, d / "ref.tsv")
    assert (d / "m.tsv").read_bytes() == (d / "ref.tsv").read_bytes()

    back = load_matrix(d / "m.tsv", d / "l.tsv")
    assert back.gene_ids == tuple(g.strip() for g in m.gene_ids)
    assert back.labels == m.labels
    np.testing.assert_array_equal(back.values.view(np.uint64), m.values.view(np.uint64))
    # a file with no quoted gene ID is read in bulk
    quoted = any('"' in g or "\t" in g for g in m.gene_ids)
    assert (_read_plain(d / "m.tsv", "\t") is None) is quoted


def _outcome(read):
    """(sample IDs, gene IDs, value bits) of a reader, or its exception type and message."""
    try:
        sample_ids, gene_ids, values = read()
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return list(sample_ids), list(gene_ids), values.shape, values.tobytes()


def _whole_text_outcome(path):
    """The reference: decode the whole file, then the csv parser over all of its text."""
    raw = path.read_bytes()
    bom = 3 if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        text = raw[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = bom + exc.start
        line = raw.count(b"\n", 0, at) + 1
        return ParseError, f"line {line}: {path} is not UTF-8 text (byte {raw[at]:#04x})"
    return _outcome(lambda: _read_csv(io.StringIO(text, newline=""), "\t"))


def _loaded(path, labels):
    m = load_matrix(path, labels)
    return m.sample_ids, m.gene_ids, m.values


bad_cells = st.sampled_from(("", " 1.5 ", "x", "1_0", "inf", "1e999"))
blank_lines = st.sampled_from(("", " ", "\t", "\xa0", "\x0c"))


@st.composite
def matrix_files(draw):
    """Matrix file bytes: a header over s1..sN, then data rows mixed with blank and
    whitespace-only lines, maybe after a byte-order mark. Half of the files are
    plain ("\\n" ends; IDs of "g", "#", "1" and spaces; repr cells). The other half
    also draw quoted IDs, IDs holding a CR, CR and CRLF ends, bad cells and rows
    of the wrong length. One file in four gets a byte that is not UTF-8."""
    odd = draw(st.booleans())
    ends = st.sampled_from(("\n", "\r\n", "\r")) if odd else st.just("\n")
    cells = st.one_of(plain_cells.map(repr), bad_cells) if odd else plain_cells.map(repr)
    n = draw(st.integers(1, 3))
    lines = ["\t".join(["gene_id", *(f"s{j}" for j in range(1, n + 1))]) + draw(ends)]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 3)):
            gid = draw(st.text('g#1 "\r' if odd else "g#1 ", max_size=4))
            if '"' in gid and draw(st.booleans()):
                gid = '"' + gid.replace('"', '""') + '"'
            width = draw(st.sampled_from((n - 1, n, n + 1))) if odd else n
            lines.append("\t".join([gid, *(draw(cells) for _ in range(width))]) + draw(ends))
        else:
            lines.append(draw(blank_lines) + draw(ends))
    raw = "".join(lines).encode("utf-8")
    if not draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from((b"\xff", b"\xe9", b"\xc3"))) + raw[at:]
    return (codecs.BOM_UTF8 if draw(st.booleans()) else b"") + raw


@settings(max_examples=300)
@given(matrix_files())
def test_streamed_reader_equals_the_csv_parser_over_the_whole_text(tmp_path_factory, raw):
    d = tmp_path_factory.mktemp("rd")
    (d / "m.tsv").write_bytes(raw)
    (d / "l.tsv").write_text("s1\tLN\ns2\tBone\ns3\tLiver\n")
    assert _outcome(lambda: _loaded(d / "m.tsv", d / "l.tsv")) == _whole_text_outcome(d / "m.tsv")


# every finite double, plus cells that truncate to zero and ones where the 6-place snap gives out
finite_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _signed((0.0, 0.0004, 0.0009999, 1.2345, 4503599.6275, 8548952.644839076, 1e300)),
)


@given(matrices(st.just(finite_cells), ids=st.sampled_from("ABC")))
def test_cleanse_is_idempotent(m):
    try:
        once, _ = cleanse(m, SITES)
    except ValidationError as exc:
        assert "every gene" in str(exc)
        return
    twice, report = cleanse(once, SITES)
    assert (twice.gene_ids, twice.sample_ids, twice.labels) == (once.gene_ids, once.sample_ids, once.labels)
    np.testing.assert_array_equal(twice.values.view(np.uint64), once.values.view(np.uint64))
    assert report.removed_all_zero == 0 and report.removed_duplicates == 0
