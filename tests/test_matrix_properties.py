"""Property tests of matrix text I/O against a per-cell repr writer, and of cleanse."""
import csv

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from coexpress.errors import ValidationError  # noqa: E402
from coexpress.matrix import ExpressionMatrix, _read_plain, cleanse, load_matrix, write_matrix  # noqa: E402

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
    assert (_read_plain((d / "m.tsv").read_text(), "\t") is None) is quoted


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
