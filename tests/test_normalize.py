import logging

import numpy as np
import pytest

from coexpress.errors import DegenerateRowError, ValidationError
from coexpress.matrix import ExpressionMatrix
from coexpress.normalize import VARIANTS, NormalizationScheme, normalize_matrix, normalize_row

BOUNDED = ("range", "log", "rank")


def scheme(variant, **kw):
    return NormalizationScheme(variant, **kw)


class TestSchemeExamples:
    def test_rank_dense(self):
        # [5, 1, 1, 9] -> dense ranks [2, 1, 1, 3] -> [0.5, 0, 0, 1]
        out = normalize_row(np.array([5.0, 1.0, 1.0, 9.0]), scheme("rank"))
        np.testing.assert_allclose(out, [0.5, 0.0, 0.0, 1.0])

    def test_range_endpoints(self):
        out = normalize_row(np.array([2.0, 4.0, 6.0]), scheme("range"))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_logit_symmetry_point(self):
        # range-normalized middle value 0.5 -> -ln(1/0.5 - 1) = 0
        out = normalize_row(np.array([2.0, 4.0, 6.0]), scheme("logit"))
        assert abs(out[1]) < 1e-12

    def test_log_composition(self):
        # log10([1, 10, 100]) = [0, 1, 2] -> range -> [0, 0.5, 1]
        out = normalize_row(np.array([1.0, 10.0, 100.0]), scheme("log"))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_origin_identity(self):
        v = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(normalize_row(v, scheme("origin")), v)

    def test_log_zero_clamped_below_smallest_positive(self):
        out = normalize_row(np.array([0.0, 1.0, 10.0]), scheme("log"))
        assert out[0] == 0.0 and out[-1] == 1.0
        assert out[0] < out[1] < out[2]

    def test_log_negative_rejected(self):
        with pytest.raises(ValidationError):
            normalize_row(np.array([-1.0, 2.0]), scheme("log"))

    @pytest.mark.parametrize("variant", ["range", "log", "rank", "logit", "logit_log"])
    def test_constant_row_degenerate(self, variant):
        with pytest.raises(DegenerateRowError):
            normalize_row(np.array([3.0, 3.0, 3.0]), scheme(variant))

    def test_scheme_validation(self):
        with pytest.raises(ValidationError):
            NormalizationScheme("quantile")
        with pytest.raises(ValidationError):
            NormalizationScheme("rank", epsilon=0.7)
        with pytest.raises(ValidationError):
            normalize_row(np.array([1.0]), scheme("range"))


class TestProperties:
    def test_bounded_schemes_hit_both_endpoints(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            row = rng.uniform(0.1, 50.0, size=rng.integers(2, 40))
            if row.min() == row.max():
                continue
            for variant in BOUNDED:
                out = normalize_row(row, scheme(variant))
                assert out.min() == 0.0 and out.max() == 1.0
                assert np.all((out >= 0.0) & (out <= 1.0))

    def test_rank_monotone_and_tie_consistent(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            row = rng.integers(0, 6, size=12).astype(float)
            if np.unique(row).size < 2:
                continue
            out = normalize_row(row, scheme("rank"))
            for i in range(len(row)):
                for j in range(len(row)):
                    if row[i] < row[j]:
                        assert out[i] < out[j]
                    elif row[i] == row[j]:
                        assert out[i] == out[j]

    def test_rank_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(2)
        transforms = [np.exp, lambda v: v**3, lambda v: 5 * v + 2, np.arctan]
        for _ in range(50):
            row = rng.normal(size=15)
            base = normalize_row(row, scheme("rank"))
            for f in transforms:
                np.testing.assert_allclose(normalize_row(f(row), scheme("rank")), base)

    def test_logit_strictly_increasing_off_clamp(self):
        row = np.linspace(1.0, 9.0, 20)
        out = normalize_row(row, scheme("logit"))
        assert np.all(np.diff(out[1:-1]) > 0)

    def test_matrix_commutes_with_column_permutation(self, tiny_matrix, take_columns):
        sch = scheme("rank")
        perm = [3, 1, 0, 2]
        a = take_columns(normalize_matrix(tiny_matrix, sch), perm)
        b = normalize_matrix(take_columns(tiny_matrix, perm), sch)
        np.testing.assert_allclose(a.values, b.values)
        assert a.sample_ids == b.sample_ids


class TestNormalizeMatrix:
    def test_origin_identity(self, tiny_matrix):
        out = normalize_matrix(tiny_matrix, scheme("origin"))
        np.testing.assert_array_equal(out.values, tiny_matrix.values)
        assert out.gene_ids == tiny_matrix.gene_ids

    def test_degenerate_row_dropped_and_logged(self, caplog):
        m = ExpressionMatrix(
            ("keep", "const"),
            ("s1", "s2", "s3"),
            ("x", "x", "y"),
            np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]]),
        )
        with caplog.at_level(logging.WARNING):
            out = normalize_matrix(m, scheme("rank"))
        assert out.gene_ids == ("keep",)
        assert sum("const" in r.message for r in caplog.records) == 1

    def test_all_degenerate_error(self):
        m = ExpressionMatrix(
            ("a",), ("s1", "s2"), ("x", "y"), np.array([[2.0, 2.0]])
        )
        with pytest.raises(ValidationError):
            normalize_matrix(m, scheme("range"))

    def test_every_variant_runs(self, tiny_matrix):
        for variant in VARIANTS:
            out = normalize_matrix(tiny_matrix, scheme(variant))
            assert out.n_samples == tiny_matrix.n_samples


def check_ranges(row, variant, epsilon):
    v = np.array(row)
    s = scheme(variant, epsilon=epsilon)
    try:
        out = normalize_row(v, s)
    except DegenerateRowError:
        # constant, or constant once in log10 (neighbouring large doubles share a log)
        logs = np.log10(v) if variant in ("log", "logit_log") and v.min() > 0 else v
        assert logs.min() == logs.max()
        return
    assert out.shape == v.shape and np.all(np.isfinite(out))
    if variant in BOUNDED:
        assert out.min() == 0.0 and out.max() == 1.0
    else:
        # the clamped ends of the logit, hit exactly: +-logit(1 - epsilon) up to rounding
        lo = np.log(epsilon / (1.0 - epsilon))
        hi = np.log((1.0 - epsilon) / (1.0 - (1.0 - epsilon)))
        assert out.min() == lo and out.max() == hi
        assert hi == pytest.approx(-lo, rel=1e-9)


class TestRangeProperties:
    """Every scheme over arbitrary finite rows: the output range and both of its ends."""

    def test_arbitrary_finite_rows(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        # the ends of the double range on their own too: spans that overflow, clamps that underflow
        big, tiny = 1.7976931348623157e308, 5e-324
        nonnegative = st.one_of(st.sampled_from((0.0, tiny, 2 * tiny, 1.0, big)),
                                st.floats(0.0, allow_infinity=False))
        finite = st.one_of(nonnegative, nonnegative.map(lambda x: -x))
        epsilons = st.sampled_from((1e-6, 1e-3, 0.1, 0.49))
        rows = st.sampled_from(("range", "rank", "logit", "log", "logit_log")).flatmap(
            lambda variant: st.tuples(
                st.lists(nonnegative if variant in ("log", "logit_log") else finite,
                         min_size=2, max_size=12).filter(lambda r: min(r) != max(r)),
                st.just(variant),
                epsilons,
            )
        )
        hyp.given(rows)(lambda case: check_ranges(*case))()

    def test_spans_past_the_largest_double(self):
        out = normalize_row(np.array([-1e308, 0.0, 1e308]), scheme("range"))
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])

    def test_zero_below_a_subnormal_minimum(self):
        out = normalize_row(np.array([0.0, 5e-324, 1.0]), scheme("log"))
        assert out[0] == 0.0 < out[1] < out[2] == 1.0
