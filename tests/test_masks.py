import csv

import numpy as np
import pytest

from coexpress.errors import ValidationError
from coexpress.masks import (
    GeneSet,
    MaskCorrelations,
    load_gene_set,
    mask_correlations,
    save_gene_set,
    select_by_any_mask,
    select_combined,
    select_three_mask_intersect,
    write_sweep_report,
)
from coexpress.matrix import ExpressionMatrix

LABELS6 = ("LN", "LN", "LN", "Bone", "Bone", "Liver")


class TestBuildMasks:
    def test_ln_and_bone_indicators(self):
        # mask_correlations builds each site's 0/1 indicator from the labels; a
        # gene equal to the expected indicator correlates 1.0 with that site only
        rows = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0]]
        m = ExpressionMatrix(
            ("ln", "bone"), tuple(f"s{i}" for i in range(6)), LABELS6, np.array(rows, dtype=float)
        )
        mc = mask_correlations(m)
        np.testing.assert_allclose(mc.site_column("LN")[0], 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mc.site_column("Bone")[1], 1.0, rtol=0, atol=1e-12)
        assert mc.site_column("LN")[1] < 1.0
        assert mc.site_column("Bone")[0] < 1.0


class TestMaskCorrelations:
    def _matrix(self, rows, gene_ids):
        return ExpressionMatrix(
            tuple(gene_ids),
            tuple(f"s{i}" for i in range(6)),
            LABELS6,
            np.array(rows, dtype=float),
        )

    def test_gene_equal_to_indicator(self):
        rows = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 1]]
        mc = mask_correlations(self._matrix(rows, ["ln", "bone", "liver"]))
        assert mc.sites == ("LN", "Bone", "Liver")  # first appearance in the labels
        # the dot product of a unit vector with itself can miss 1.0 by a few ulp
        np.testing.assert_allclose(np.diag(mc.values), 1.0, rtol=0, atol=1e-12)

    def test_single_site_rejected(self):
        m = ExpressionMatrix(("g",), ("s0", "s1"), ("LN", "LN"), np.array([[0.0, 1.0]]))
        with pytest.raises(ValidationError, match="at least 2 distinct site classes"):
            mask_correlations(m)

    def test_gene_equal_to_complement(self):
        m = self._matrix([[0, 0, 0, 1, 1, 1]], ["g"])
        mc = mask_correlations(m)
        assert mc.site_column("LN")[0] == pytest.approx(-1.0)

    def test_planted_shift_positive_correlation(self):
        rng = np.random.default_rng(5)
        labels = ("LN",) * 30 + ("Bone",) * 30 + ("Liver",) * 40
        ind = np.array([1.0] * 30 + [0.0] * 70)
        row = rng.normal(size=100) + 2.0 * ind
        m = ExpressionMatrix(("g",), tuple(f"s{i}" for i in range(100)), labels, row[None, :])
        mc = mask_correlations(m)
        assert mc.site_column("LN")[0] > 0.3

    def test_zero_variance_gene_excluded(self):
        m = self._matrix([[1, 1, 1, 1, 1, 1], [1, 0, 1, 0, 1, 0]], ["const", "ok"])
        mc = mask_correlations(m)
        assert mc.gene_ids == ("ok",)
        assert tuple(g for g in m.gene_ids if g not in mc.gene_ids) == ("const",)


def _mc(rows, sites=("LN", "Bone", "Liver")):
    rows = np.asarray(rows, dtype=float)
    return MaskCorrelations(
        tuple(f"g{i}" for i in range(rows.shape[0])), tuple(sites), rows
    )


class TestSelectionRules:
    def test_any_mask_kept_and_dropped(self):
        mc = _mc([[0.3, -0.1, 0.05], [0.1, -0.1, 0.1]])
        kept = select_by_any_mask(mc, 0.15)
        assert kept.gene_ids == ("g0",)

    def test_intersect_kept_and_dropped(self):
        mc = _mc([[0.2, -0.21, 0.3], [0.2, -0.1, 0.3]])
        kept = select_three_mask_intersect(mc, 0.15)
        assert kept.gene_ids == ("g0",)

    def test_combined_formula_cases(self):
        mc = _mc([
            [0.3, -0.25, 0.22],   # kept
            [0.3, 0.25, 0.22],    # dropped: same sign LN/Bone
            [0.3, -0.25, 0.1],    # dropped: Liver below t
        ])
        kept = select_combined(mc, 0.2, ("LN", "Bone"))
        assert kept.gene_ids == ("g0",)

    def test_combined_sign_clause_strict_on_zero(self):
        mc = _mc([[0.3, 0.0, 0.25]])
        # |C_Bone| = 0 < t anyway; make the magnitude pass but product zero
        mc2 = MaskCorrelations(("g0",), ("LN", "Bone", "Liver"), np.array([[0.3, 0.0, 0.25]]))
        assert len(select_combined(mc2, 0.2, ("LN", "Bone"))) == 0

    def test_pair_opposite_requires_resolvable_pair(self):
        mc = MaskCorrelations(("g0",), ("A", "B", "C"), np.array([[0.5, -0.5, 0.1]]))
        with pytest.raises(ValidationError):
            select_combined(mc, 0.1, ("LN", "Bone"))
        kept = select_combined(mc, 0.1, pair=("A", "B"))
        assert kept.gene_ids == ("g0",)

    def test_threshold_domain(self):
        mc = _mc([[0.3, -0.25, 0.22]])
        with pytest.raises(ValidationError):
            select_by_any_mask(mc, 0.0)
        with pytest.raises(ValidationError):
            select_combined(mc, 1.0, ("LN", "Bone"))


class TestSelectionProperties:
    def _fixture_mc(self, planted_rank):
        m, _ = planted_rank
        return mask_correlations(m)

    def test_rule_nesting(self, planted_rank):
        mc = self._fixture_mc(planted_rank)
        for t in (0.1, 0.2, 0.3):
            combined = set(select_combined(mc, t, pair=("A", "B")).gene_ids)
            intersect = set(select_three_mask_intersect(mc, t).gene_ids)
            any_mask = set(select_by_any_mask(mc, t).gene_ids)
            assert combined <= intersect <= any_mask

    def test_monotone_in_threshold(self, planted_rank):
        mc = self._fixture_mc(planted_rank)
        thresholds = [round(0.05 * i, 2) for i in range(1, 13)]
        prev = {"any_mask": None, "intersect": None, "combined": None}
        sets = {
            "any_mask": lambda t: set(select_by_any_mask(mc, t).gene_ids),
            "intersect": lambda t: set(select_three_mask_intersect(mc, t).gene_ids),
            "combined": lambda t: set(select_combined(mc, t, pair=("A", "B")).gene_ids),
        }
        for t in thresholds:
            for rule, fn in sets.items():
                cur = fn(t)
                if prev[rule] is not None:
                    assert cur <= prev[rule]
                prev[rule] = cur

    def test_joint_sample_permutation_invariance(self, planted_rank, take_columns):
        m, _ = planted_rank
        rng = np.random.default_rng(9)
        perm = rng.permutation(m.n_samples)
        mc = mask_correlations(m)
        mp = take_columns(m, perm.tolist())
        mcp = mask_correlations(mp)
        a = select_combined(mc, 0.2, pair=("A", "B")).gene_ids
        b = select_combined(mcp, 0.2, pair=("A", "B")).gene_ids
        assert set(a) == set(b)

    def test_planted_recovery(self, planted_rank):
        m, planted = planted_rank
        mc = mask_correlations(m)
        selected = set(select_combined(mc, 0.2, pair=("A", "B")).gene_ids)
        pair_planted = set(planted["A"].gene_ids) | set(planted["B"].gene_ids)
        background = {g for g in m.gene_ids if g.startswith("BG")}
        recall = len(selected & pair_planted) / len(pair_planted)
        fpr = len(selected & background) / len(background)
        assert recall >= 0.9
        assert fpr <= 0.05

    def test_sweep_report_shape(self, planted_rank, tmp_path):
        mc = self._fixture_mc(planted_rank)
        path = tmp_path / "sweep.csv"
        write_sweep_report(mc, [0.1, 0.2, 0.3], ("A", "B"), path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["threshold", "rule", "kept"]
        assert len(rows) == 9
        by_rule = {}
        for threshold, rule, kept in rows:
            by_rule.setdefault(rule, []).append(int(kept))
        assert list(by_rule) == ["any_mask", "intersect", "combined"]
        for counts in by_rule.values():
            assert counts == sorted(counts, reverse=True)


class TestGeneSets:
    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            GeneSet("bad", ("g1", "g1"))

    def test_file_roundtrip(self, tmp_path):
        gs = GeneSet("set_x", ("g2", "g1", "g9"), provenance="all_s |C_s| >= 0.15")
        path = tmp_path / "x.genes"
        save_gene_set(gs, path)
        back = load_gene_set(path)
        assert back.name == gs.name
        assert back.gene_ids == gs.gene_ids
        assert back.provenance == gs.provenance

    def test_hash_gene_ids_roundtrip(self, tmp_path):
        # load_matrix reads gene IDs that begin with "#", so a gene-set file must too
        gs = GeneSet("s", ("#g1", "g2", "# g3", "#name", "##"), provenance="p: q")
        path = tmp_path / "s.genes"
        save_gene_set(gs, path)
        assert path.read_text() == "# name: s\n# provenance: p: q\n#g1\ng2\n# g3\n#name\n##\n"
        assert load_gene_set(path) == gs

    def test_header_lines_and_defaults(self, tmp_path):
        path = tmp_path / "stem.genes"
        path.write_text("## provenance:  by hand \n\ng1\n  g2  \n#name:inner\n")
        assert load_gene_set(path) == GeneSet("inner", ("g1", "g2"), "by hand")
        path.write_text("g1\n")
        assert load_gene_set(path) == GeneSet("stem", ("g1",), "")
