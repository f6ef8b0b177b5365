import csv
import hashlib
import json

import numpy as np
import pytest

from coexpress.atlas import (
    CANONICAL_TIER_LABELS,
    GRAY,
    NEUTRAL,
    PALETTE,
    CommunityNetwork,
    build_atlas,
    cross_color,
    export_atlas,
    rank_color,
    tier_genes,
)
from coexpress.errors import ValidationError
from coexpress.graph import (
    GeneGraph,
    Partition,
    build_weighted,
    detect_communities,
    select_threshold,
    threshold_graph,
)
from coexpress.masks import GeneSet
from coexpress.matrix import ExpressionMatrix


def gs(name, *genes):
    return GeneSet(name, tuple(genes))


class TestTierGenes:
    def test_nested_example(self):
        tiers = tier_genes([gs("s1", "a"), gs("s2", "a", "b"), gs("s3", "a", "b", "c")])
        assert tiers == {"a": 0, "b": 1, "c": 2}

    def test_tier_populations_match_set_differences(self):
        sets = [
            gs("k", "a", "b"),
            gs("m", "a", "b", "c", "d", "e"),
            gs("l", "a", "b", "c", "d", "e", "f", "g", "h"),
        ]
        tiers = tier_genes(sets)
        pops = [sum(1 for t in tiers.values() if t == k) for k in range(3)]
        assert pops == [2, 3, 3]

    def test_non_nested_dropped_and_equal_merged(self, caplog):
        caplog.set_level("INFO")
        tiers = tier_genes([gs("a", "x"), gs("b", "y", "z"), gs("c", "x"), gs("d", "x", "y")])
        assert tiers == {"x": 0, "y": 1}
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", "set b does not nest over a; dropped from tiers"),
            ("INFO", "tier set c equals a; merged"),
        ]
        with pytest.raises(ValidationError, match="need at least 1 gene set"):
            tier_genes([])


def _network(nodes, edges, membership, q=None):
    g = GeneGraph(tuple(nodes), tuple(edges))
    if q is None:
        from coexpress.graph import modularity

        q = modularity(g, membership) if g.n_edges else 0.0
    return CommunityNetwork(g, Partition(tuple(membership), max(membership) + 1, q))


class TestBuildAtlas:
    def test_single_community_tier_counts(self):
        net = _network(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)], [0, 0, 0])
        tiers = {"a": 0, "b": 0, "c": 1}
        entries = build_atlas({"x": net}, tiers, {"a": 0}, n_tiers=2)
        (entry,) = entries
        (row,) = entry.communities
        assert row.size == 3
        assert row.tier_counts == (2, 1)
        assert row.key_indices == (0,)

    def test_totals_are_column_sums(self):
        # two triangles joined by a bridge: one giant component, two communities
        net = _network(
            ["a", "b", "c", "d", "e", "f"],
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)],
            [0, 0, 0, 1, 1, 1],
        )
        tiers = {g: (0 if g in "ab" else 1) for g in "abcdef"}
        (entry,) = build_atlas({"x": net}, tiers, {}, n_tiers=2)
        assert entry.totals == (2, 4)
        assert entry.giant_size == 6
        for row in entry.communities:
            assert sum(row.tier_counts) == row.size

    def test_communities_ranked_by_size_then_member(self):
        net = _network(
            ["a", "b", "c", "d", "e"],
            [(0, 1), (2, 3), (3, 4), (2, 4), (1, 2)],
            [0, 0, 1, 1, 1],
        )
        tiers = {g: 0 for g in "abcde"}
        (entry,) = build_atlas({"x": net}, tiers, {}, n_tiers=1)
        assert [r.size for r in entry.communities] == [3, 2]
        assert entry.communities[0].rank == 1

    def test_small_components_excluded_from_table(self):
        net = _network(
            ["a", "b", "c", "d", "e"],
            [(0, 1), (0, 2), (1, 2), (3, 4)],
            [0, 0, 0, 1, 1],
        )
        tiers = {g: 0 for g in "abcde"}
        (entry,) = build_atlas({"x": net}, tiers, {}, n_tiers=1)
        assert entry.giant_size == 3
        assert len(entry.communities) == 1

    def test_missing_tier_rejected(self):
        net = _network(["a", "b"], [(0, 1)], [0, 0])
        with pytest.raises(ValidationError):
            build_atlas({"x": net}, {"a": 0}, {}, n_tiers=1)


class TestCrossColor:
    def test_reference_equal_to_target_is_own_coloring(self):
        net = _network(
            ["a", "b", "c", "d", "e", "f"],
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
            [0, 0, 0, 1, 1, 1],
        )
        colors = cross_color(net, net)
        # both communities size 3; rank ties break to smallest member: {a,b,c} first
        assert colors["a"] == colors["b"] == colors["c"] == PALETTE[0]
        assert colors["d"] == PALETTE[1]

    def test_single_reference_community_uniform(self):
        target = _network(["a", "b", "c"], [(0, 1), (1, 2)], [0, 0, 1])
        ref = _network(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)], [0, 0, 0])
        colors = cross_color(target, ref)
        assert len(set(colors.values())) == 1

    def test_absent_node_gets_neutral(self):
        target = _network(["a", "z"], [(0, 1)], [0, 0])
        ref = _network(["a", "b"], [(0, 1)], [0, 0])
        colors = cross_color(target, ref)
        assert colors["z"] == NEUTRAL
        assert colors["a"] == PALETTE[0]

    def test_palette_overflow_uses_gray(self):
        assert rank_color(len(PALETTE)) == GRAY
        assert rank_color(0) == PALETTE[0]


def _two_cohort_matrix():
    """Gene g0 co-expresses with {g1,g2} in cohort X but with {g3,g4,g5} in Y."""
    rng = np.random.default_rng(0)
    nx = ny = 10
    fx1, fx2 = rng.normal(size=nx), rng.normal(size=nx)
    fy1, fy2 = rng.normal(size=ny), rng.normal(size=ny)
    hub_x = (fx1 + fx2) / np.sqrt(2)
    hub_y = (fy1 + fy2) / np.sqrt(2)
    eps = lambda: rng.normal(size=nx + ny) * 0.05

    def gene(x_part, y_part):
        return np.concatenate([x_part, y_part]) + eps()

    rows = [
        gene(fx1, fy2),   # g0: block 1 in X, block 2 in Y
        gene(fx1, fy1),   # g1
        gene(fx1, fy1),   # g2
        gene(fx2, fy2),   # g3
        gene(fx2, fy2),   # g4
        gene(fx2, fy2),   # g5
        gene(hub_x, hub_y),  # g6 bridges the blocks so the graph stays connected
    ]
    return ExpressionMatrix(
        tuple(f"g{i}" for i in range(7)),
        tuple(f"s{i}" for i in range(nx + ny)),
        ("X",) * nx + ("Y",) * ny,
        np.array(rows),
    )


class TestCrossCohortTracking:
    def test_key_gene_switches_community_between_cohorts(self):
        m = _two_cohort_matrix()
        networks = {}
        for site in ("X", "Y"):
            wg = build_weighted(m, list(m.gene_ids), cohort=site)
            g = threshold_graph(wg, 0.8)
            p = detect_communities(g, seed=0)
            networks[site] = CommunityNetwork(g, p)
        tiers = {g: (0 if g == "g0" else 1) for g in m.gene_ids}
        entries = build_atlas(networks, tiers, {"g0": 0}, n_tiers=2)
        by_cohort = {e.cohort: e for e in entries}

        def community_size_holding_key(entry):
            for row in entry.communities:
                if 0 in row.key_indices:
                    return row.size
            raise AssertionError("key gene not found in any community")

        size_x = community_size_holding_key(by_cohort["X"])
        size_y = community_size_holding_key(by_cohort["Y"])
        assert size_x != size_y  # g0 sits with {g1,g2} in X but {g3,g4,g5} in Y


class TestExportAtlas:
    def _setup(self, tmp_path, n_tiers=2):
        net = _network(
            ["a", "b", "c", "d", "e", "f"],
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)],
            [0, 0, 0, 1, 1, 1],
        )
        if n_tiers == 2:
            tiers = {g: (0 if g in "ab" else 1) for g in "abcdef"}
        else:
            tiers = {g: min(i, n_tiers - 1) for i, g in enumerate("abcdef")}
        networks = {"x": net, "y": net}
        entries = build_atlas(networks, tiers, {"a": 0}, n_tiers=n_tiers)
        export_atlas(entries, networks, tiers, {"a": 0}, tmp_path)
        return entries

    def test_files_written(self, tmp_path):
        self._setup(tmp_path)
        assert (tmp_path / "x_communities.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        for pair in ("x_colored_by_x", "x_colored_by_y", "y_colored_by_x", "y_colored_by_y"):
            assert (tmp_path / f"{pair}.graphml").exists()

    def test_community_csv_totals_row(self, tmp_path):
        self._setup(tmp_path)
        with open(tmp_path / "x_communities.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["community_rank", "size", "tier0", "tier1", "key_indices"]
        assert rows[-1][0] == "total"
        sizes = [int(r[1]) for r in rows[1:-1]]
        assert int(rows[-1][1]) == sum(sizes)

    def test_barbell_summary_row(self, tmp_path):
        g = GeneGraph(tuple("abcdef"), ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)))
        p = detect_communities(g, seed=0)
        networks = {"x": CommunityNetwork(g, p)}
        tiers = {gene: 0 for gene in g.nodes}
        export_atlas(build_atlas(networks, tiers, {}, n_tiers=1), networks, tiers, {}, tmp_path)
        with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
            header, row = list(csv.reader(fh))
        assert header[:5] == ["cohort", "nodes", "edges", "average_degree", "modularity"]
        assert row[:5] == ["x", "6", "7", repr(7 / 3), repr(p.q)]

    def test_canonical_labels_for_four_tiers(self, tmp_path):
        self._setup(tmp_path, n_tiers=4)
        with open(tmp_path / "x_communities.csv") as fh:
            header = next(csv.reader(fh))
        assert tuple(header[2:6]) == CANONICAL_TIER_LABELS


# sha256 of the sweep tables, partitions and atlas files below, pinned on the
# commit before the graph layer was vectorized. Any change to a threshold,
# edge, community, Q or exported byte fails this test.
GOLDEN_ATLAS_DIGEST = "0602c04b7812418e78aec490521b1ae7b71ba053ee1a83414bc52b37864b66f7"


class TestGoldenAtlas:
    def test_atlas_bytes_unchanged(self, tmp_path, golden_atlas_input):
        m, nested = golden_atlas_input
        tiers = tier_genes(nested)
        key_index = {g: i for i, g in enumerate(nested[0].gene_ids)}
        networks, payload = {}, {}
        for cohort in ("all", "LN", "Bone", "Liver"):
            wg = build_weighted(m, nested[-1], None if cohort == "all" else cohort)
            g, p, table = select_threshold(wg, 0.4, 0.9, 0.02, seed=3)
            networks[cohort] = CommunityNetwork(g, p)
            payload[cohort] = {
                "threshold": repr(g.threshold),
                "edges": g.edges.tolist(),
                "q": repr(p.q),
                "membership": list(p.membership),
                "sweep": [[repr(r.threshold), repr(r.modularity), r.n_edges, r.n_communities]
                          for r in table],
            }
        entries = build_atlas(networks, tiers, key_index, n_tiers=len(nested))
        export_atlas(entries, networks, tiers, key_index, tmp_path / "atlas")
        payload["files"] = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted((tmp_path / "atlas").iterdir())
        }
        assert len(payload["files"]) == 4 + 1 + 16
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert digest == GOLDEN_ATLAS_DIGEST
