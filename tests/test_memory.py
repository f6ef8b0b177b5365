"""Memory of the ingest -> normalize -> select path: each step holds about one
copy of its matrix at a time.

The peak is the one tracemalloc traces during the call (numpy reports its
array buffers to tracemalloc), measured against the `values` array of the
matrix the step reads or returns.
"""
import tracemalloc

import numpy as np
import pytest

from coexpress.masks import mask_correlations
from coexpress.matrix import ExpressionMatrix, load_matrix, write_matrix
from coexpress.normalize import NormalizationScheme, normalize_matrix

N_GENES, N_SAMPLES = 600, 240


def _traced_peak(call):
    """(result, peak bytes allocated during `call`)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(5)
    labels = tuple(("LN", "Bone", "Liver")[j % 3] for j in range(N_SAMPLES))
    return ExpressionMatrix(tuple(f"g{i}" for i in range(N_GENES)),
                            tuple(f"s{j}" for j in range(N_SAMPLES)), labels,
                            rng.normal(5.0, 2.0, size=(N_GENES, N_SAMPLES)))


def test_load_matrix_peak_is_within_twice_its_values(tmp_path, matrix):
    # the file is about 2.3 times the values array: read whole, it alone breaks the bound
    write_matrix(matrix, tmp_path / "m.tsv", tmp_path / "l.tsv")
    m, peak = _traced_peak(lambda: load_matrix(tmp_path / "m.tsv", tmp_path / "l.tsv"))
    np.testing.assert_array_equal(m.values, matrix.values)
    assert peak <= 2.0 * m.values.nbytes


def test_normalize_matrix_peak_is_within_1_5_times_its_values(matrix):
    out, peak = _traced_peak(lambda: normalize_matrix(matrix, NormalizationScheme("range")))
    assert out.values.shape == matrix.values.shape
    assert peak <= 1.5 * matrix.values.nbytes


def test_mask_correlations_peak_is_within_1_5_times_its_values(matrix):
    mc, peak = _traced_peak(lambda: mask_correlations(matrix))
    assert len(mc.gene_ids) == N_GENES
    assert peak <= 1.5 * matrix.values.nbytes
