import csv
import gc
import hashlib
import heapq
import logging
import os
import resource
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest

import coexpress.graph as graph_module
from coexpress.errors import GraphError, ValidationError
from coexpress.graph import (
    EXACT_NODE_LIMIT,
    GAIN_TOL,
    MAX_THRESHOLDS,
    GeneGraph,
    WeightedGeneGraph,
    build_weighted,
    connected_components,
    detect_communities,
    giant_component,
    modularity,
    select_threshold,
    subgraph,
    sweep_thresholds,
    threshold_graph,
    write_edge_list,
    write_graphml,
    write_sweep,
)
from coexpress.matrix import ExpressionMatrix

TRIANGLES = GeneGraph(tuple("abcdef"), ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
BARBELL = GeneGraph(tuple("abcdef"), ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)))
K5 = GeneGraph(tuple("abcde"), tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
# sha256 of write_graphml output, pinned on the ElementTree writer it replaced
GOLDEN_GRAPHML = "ef2e57f5bda5d00f67bc29be18e1b3b78c08a7dcc72c9b72951800b3f0b57fb0"
GOLDEN_GRAPHML_NO_EDGES = "a34dc4869473d75fa2633732da014301c65d2e5f7b98dca303809d1f206c23ea"
GOLDEN_GRAPHML_EMPTY = "1e209496366c0e4a76e0b679bc4f02ecdacd99244a3f53c4a52a921b95b1ca48"
# sha256 over (membership, q, n_communities) of detect_communities on golden_community_graphs
GOLDEN_COMMUNITIES = "4c4eb401157aaa562bcec441de6842fd5f4c5ff2a0b4de2c0bbcf7c91b8e2575"


def modularity_double_sum(g: GeneGraph, membership) -> float:
    """Independent oracle: (1/2m) sum_ij (A_ij - k_i k_j / 2m) delta(c_i, c_j)."""
    n = g.n_nodes
    A = np.zeros((n, n))
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1.0
    k = A.sum(axis=1)
    m = g.n_edges
    q = 0.0
    for i in range(n):
        for j in range(n):
            if membership[i] == membership[j]:
                q += A[i, j] - k[i] * k[j] / (2.0 * m)
    return q / (2.0 * m)


def all_partitions(n):
    """Every set partition of range(n) as a membership tuple (restricted growth strings)."""
    a = [0] * n

    def rec(i, m):
        if i == n:
            yield tuple(a)
            return
        for c in range(m + 2):
            a[i] = c
            yield from rec(i + 1, max(m, c))

    if n == 0:
        return
    yield from rec(1, 0)


def exhaustive_max_modularity(g: GeneGraph) -> float:
    return max(modularity(g, p) for p in all_partitions(g.n_nodes))


def random_graph(rng, n, p):
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )
    return GeneGraph(tuple(f"n{i}" for i in range(n)), edges)


def graphml_via_elementtree(g: GeneGraph, path, node_attrs=None) -> None:
    """Independent oracle: the GraphML document built and written by ElementTree."""
    node_attrs = node_attrs or {}
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    keys = {}
    for name, mapping in node_attrs.items():
        keys[name] = f"d{len(keys)}"
        values = list(mapping.values())
        if all(isinstance(v, bool) for v in values):
            kind = "boolean"
        elif all(isinstance(v, int) and not isinstance(v, bool) for v in values):
            kind = "int"
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            kind = "double"
        else:
            kind = "string"
        ET.SubElement(root, "key", id=keys[name],
                      **{"for": "node", "attr.name": name, "attr.type": kind})
    graph = ET.SubElement(root, "graph", edgedefault="undirected")
    for gene in g.nodes:
        node = ET.SubElement(graph, "node", id=gene)
        for name, mapping in node_attrs.items():
            if gene in mapping:
                value = mapping[gene]
                ET.SubElement(node, "data", key=keys[name]).text = (
                    str(value).lower() if isinstance(value, bool) else str(value)
                )
    for u, v in g.edges:
        ET.SubElement(graph, "edge", source=g.nodes[u], target=g.nodes[v])
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)


class TestBuildWeighted:
    def _matrix(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=8)
        values = np.vstack([
            base,
            base * 2.0 + 1.0,        # identical up to affine -> |r| = 1
            -base + 0.5,             # negation -> |r| = 1
            rng.normal(size=8),
        ])
        return ExpressionMatrix(
            ("g1", "g2", "g3", "g4"),
            tuple(f"s{i}" for i in range(8)),
            ("X",) * 4 + ("Y",) * 4,
            values,
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        w = np.array([[0.0, 0.5, 0.7], [0.5, 0.0, 0.9], [0.7, 0.9, 0.0]])
        w[0, 2] = w[2, 0] = bad
        with pytest.raises(ValidationError, match="finite"):
            WeightedGeneGraph(("a", "b", "c"), w)

    def test_identical_and_negated_genes_weight_one(self):
        wg = build_weighted(self._matrix(), ["g1", "g2", "g3", "g4"])
        i, j, k = 0, 1, 2
        assert wg.weights[i, j] == pytest.approx(1.0)
        assert wg.weights[i, k] == pytest.approx(1.0)

    def test_hand_matrix_matches_pearson_oracle(self):
        m = self._matrix()
        wg = build_weighted(m, list(m.gene_ids))
        from coexpress.correlation import pearson

        for i in range(4):
            for j in range(i + 1, 4):
                want = abs(pearson(m.values[i], m.values[j]))
                assert wg.weights[i, j] == pytest.approx(want, abs=1e-12)

    def test_cohort_restriction(self):
        m = self._matrix()
        wg = build_weighted(m, list(m.gene_ids), cohort="X")
        from coexpress.correlation import pearson

        want = abs(pearson(m.values[0][:4], m.values[3][:4]))
        assert wg.weights[0, 3] == pytest.approx(want, abs=1e-12)

    def test_small_cohort_rejected(self, take_columns):
        m = self._matrix()
        m2 = take_columns(m, [0, 1, 4, 5, 6, 7])
        with pytest.raises(ValidationError):
            build_weighted(m2, list(m.gene_ids), cohort="X")

    def test_fewer_than_two_usable_genes_rejected(self):
        values = np.array([
            [1.0, 1.0, 1.0, 1.0],
            [2.0, 2.0, 2.0, 2.0],
            [0.3, 1.2, 2.0, 0.7],
        ])
        m = ExpressionMatrix(
            ("flat1", "flat2", "ok"),
            ("s0", "s1", "s2", "s3"),
            ("X",) * 4,
            values,
        )
        with pytest.raises(ValidationError):
            build_weighted(m, ["flat1", "flat2", "ok"])

    def test_constant_gene_in_cohort_excluded(self):
        values = np.array([
            [1.0, 1.0, 1.0, 1.0, 5.0, 2.0, 8.0, 1.0],
            [0.3, 1.2, 2.0, 0.7, 0.1, 0.4, 0.9, 0.2],
            [2.0, 0.5, 1.4, 2.2, 0.8, 0.3, 0.1, 0.9],
        ])
        m = ExpressionMatrix(
            ("flat_in_X", "g2", "g3"),
            tuple(f"s{i}" for i in range(8)),
            ("X",) * 4 + ("Y",) * 4,
            values,
        )
        wg = build_weighted(m, list(m.gene_ids), cohort="X")
        assert wg.genes == ("g2", "g3")


class TestThresholdGraph:
    def _wg(self):
        w = np.array([
            [0.0, 0.5, 0.9],
            [0.5, 0.0, 0.2],
            [0.9, 0.2, 0.0],
        ])
        return WeightedGeneGraph(("a", "b", "c"), w)

    def test_zero_threshold_complete(self):
        g = threshold_graph(self._wg(), 0.0)
        assert g.n_edges == 3

    def test_above_one_empty(self):
        g = threshold_graph(self._wg(), 1.01)
        assert g.n_edges == 0
        assert g.isolated_nodes() == ("a", "b", "c")

    def test_boundary_edge_kept(self):
        g = threshold_graph(self._wg(), 0.5)
        assert [0, 1] in g.edges.tolist()  # weight exactly at the threshold stays

    def test_isolated_nodes_logged_only_at_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="coexpress.graph"):
            threshold_graph(self._wg(), 0.6)
        assert "isolated" not in caplog.text
        with caplog.at_level(logging.DEBUG, logger="coexpress.graph"):
            threshold_graph(self._wg(), 0.6)
        assert "threshold 0.6 leaves 1 isolated node(s)" in caplog.text

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, t):
        with pytest.raises(ValidationError, match=f"threshold must be finite, got {t!r}"):
            threshold_graph(self._wg(), t)

    def test_monotone_edge_sets(self):
        rng = np.random.default_rng(1)
        n = 12
        w = rng.uniform(size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        wg = WeightedGeneGraph(tuple(f"g{i}" for i in range(n)), w)
        prev = None
        for t in (0.2, 0.4, 0.6, 0.8):
            edges = set(map(tuple, threshold_graph(wg, t).edges.tolist()))
            if prev is not None:
                assert edges <= prev
            prev = edges


class TestThresholdOracle:
    """threshold_graph against a brute-force double loop over gene pairs."""

    @staticmethod
    def brute_force(w, t):
        n = w.shape[0]
        return [[i, j] for i in range(n) for j in range(i + 1, n) if w[i, j] >= t]

    def test_matches_double_loop_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(2, 25))
            if trial % 2:
                # a coarse grid, so many weights equal a threshold exactly
                w = rng.integers(0, 5, size=(n, n)) / 4.0
                thresholds = (0.0, 0.25, 0.5, 0.75, 1.0)
            else:
                w = rng.uniform(size=(n, n))
                thresholds = (0.0, float(w[0, 1]), 0.5, float(w.max()), 1.01)
            w = np.triu(w, 1)
            w = w + w.T
            wg = WeightedGeneGraph(tuple(f"g{i}" for i in range(n)), w)
            for t in thresholds:
                g = threshold_graph(wg, t)
                assert g.edges.tolist() == self.brute_force(w, t)
                assert g.threshold == t
                assert g.edges.dtype == np.int64


class TestGeneGraphNormalisation:
    @pytest.mark.parametrize("as_array", [False, True])
    def test_reversed_duplicates_collapse_and_sort(self, as_array):
        edges = ((2, 0), (0, 2), (1, 3), (3, 1), (0, 1))
        g = GeneGraph(tuple("abcd"), np.array(edges) if as_array else edges)
        assert np.array_equal(g.edges, [[0, 1], [0, 2], [1, 3]])
        assert g.edges.dtype == np.int64 and not g.edges.flags.writeable

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("edges", [((1, 1),), ((0, 3),), ((-1, 0),), ((0, 1), (2, 2))])
    def test_self_loops_and_out_of_range_rejected(self, edges, as_array):
        with pytest.raises(ValidationError):
            GeneGraph(("a", "b", "c"), np.array(edges) if as_array else edges)

    def test_numpy_int_endpoints_become_int64(self):
        for edges in (((np.int32(1), np.int64(0)),), np.array([[1, 0]], dtype=np.uint16)):
            g = GeneGraph(("a", "b"), edges)
            assert g.edges.tolist() == [[0, 1]]
            assert g.edges.dtype == np.int64

    @pytest.mark.parametrize("edges", [(), [], np.empty((0, 2), dtype=np.int64)])
    def test_empty_edges(self, edges):
        g = GeneGraph(("a", "b"), edges)
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64 and g.n_edges == 0
        assert g.degrees().tolist() == [0, 0]
        assert g.isolated_nodes() == ("a", "b")

    def test_degrees_count_each_endpoint(self):
        assert BARBELL.degrees().tolist() == [2, 2, 3, 3, 2, 2]
        assert BARBELL.degrees().dtype == np.int64


class TestComponents:
    def test_giant_of_five_and_two(self):
        g = GeneGraph(
            tuple("abcdefg"),
            ((0, 1), (1, 2), (2, 3), (3, 4), (5, 6)),
        )
        giant = giant_component(g)
        assert giant.nodes == ("a", "b", "c", "d", "e")
        assert giant.n_edges == 4

    def test_connected_graph_is_its_own_giant(self):
        giant = giant_component(BARBELL)
        assert giant.nodes == BARBELL.nodes
        assert np.array_equal(giant.edges, BARBELL.edges)

    def test_empty_edges_smallest_id_singleton(self):
        g = GeneGraph(("z", "m", "a"), ())
        giant = giant_component(g)
        assert giant.nodes == ("a",)

    def test_component_partition(self):
        comps = connected_components(TRIANGLES)
        assert sorted(map(tuple, comps)) == [(0, 1, 2), (3, 4, 5)]


class TestModularity:
    def test_single_community_zero(self):
        assert modularity(BARBELL, [0] * 6) == pytest.approx(0.0, abs=1e-15)

    def test_two_triangles_half(self):
        assert modularity(TRIANGLES, [0, 0, 0, 1, 1, 1]) == pytest.approx(0.5, abs=1e-15)

    def test_barbell_five_fourteenths(self):
        q = modularity(BARBELL, [0, 0, 0, 1, 1, 1])
        assert q == pytest.approx(5 / 14, abs=1e-12)

    def test_negative_label_rejected(self):
        with pytest.raises(ValidationError):
            modularity(TRIANGLES, [0, 0, 0, -1, -1, -1])

    def test_zero_edge_graph_undefined(self):
        with pytest.raises(GraphError):
            modularity(GeneGraph(("a", "b"), ()), [0, 1])

    def test_matches_double_sum_oracle_up_to_20_nodes(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            n = int(rng.integers(3, 21))
            g = random_graph(rng, n, 0.3)
            if g.n_edges == 0:
                continue
            membership = [int(rng.integers(0, 3)) for _ in range(n)]
            # make labels contiguous for the implementation's contract
            seen = {}
            membership = [seen.setdefault(c, len(seen)) for c in membership]
            got = modularity(g, membership)
            want = modularity_double_sum(g, membership)
            assert got == pytest.approx(want, abs=1e-12)


    def test_matches_networkx_on_random_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(12)
        checked = 0
        for trial in range(40):
            n = int(rng.integers(2, 40))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)))
            if g.n_edges == 0:
                continue
            k = int(rng.integers(1, n + 1))
            seen = {}
            membership = [seen.setdefault(int(rng.integers(0, k)), len(seen)) for _ in range(n)]
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from(g.edges)
            comms = [{i for i in range(n) if membership[i] == c} for c in range(len(seen))]
            assert modularity(g, membership) == pytest.approx(
                nx.community.modularity(G, comms), abs=1e-12
            )
            checked += 1
        assert checked >= 30


class TestDetectCommunities:
    def test_two_triangles_recovered(self):
        p = detect_communities(TRIANGLES, seed=0)
        assert p.n_communities == 2
        assert p.q == pytest.approx(0.5, abs=1e-12)
        assert p.membership[0] == p.membership[1] == p.membership[2]
        assert p.membership[3] == p.membership[4] == p.membership[5]

    def test_barbell_triangle_split(self):
        p = detect_communities(BARBELL, seed=0)
        assert p.q == pytest.approx(5 / 14, abs=1e-12)
        assert p.membership[:3] == (0, 0, 0)
        assert p.membership[3:] == (1, 1, 1)

    def test_complete_graph_single_community(self):
        p = detect_communities(K5, seed=0)
        assert p.n_communities == 1
        assert p.q == pytest.approx(0.0, abs=1e-15)

    def test_beats_trivial_partitions(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            g = random_graph(rng, int(rng.integers(4, 12)), 0.4)
            if g.n_edges == 0:
                continue
            p = detect_communities(g, seed=trial)
            assert p.q >= modularity(g, list(range(g.n_nodes))) - 1e-12
            assert p.q >= modularity(g, [0] * g.n_nodes) - 1e-12

    def test_near_exhaustive_optimum_small_graphs(self):
        rng = np.random.default_rng(4)
        checked = 0
        for trial in range(40):
            g = random_graph(rng, int(rng.integers(3, 7)), 0.5)
            if g.n_edges == 0:
                continue
            checked += 1
            best = exhaustive_max_modularity(g)
            got = detect_communities(g, seed=trial).q
            assert got >= 0.95 * best - 1e-12
        assert checked >= 25

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 30, 0.15)
        p1 = detect_communities(g, seed=42)
        p2 = detect_communities(g, seed=42)
        assert p1 == p2

    def test_q_invariant_under_node_relabeling(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            g = random_graph(rng, 12, 0.3)
            if g.n_edges == 0:
                continue
            perm = list(rng.permutation(g.n_nodes))
            inv = {old: new for new, old in enumerate(perm)}
            g2 = GeneGraph(
                tuple(g.nodes[i] for i in perm),
                tuple((inv[u], inv[v]) for u, v in g.edges),
            )
            p1 = detect_communities(g, seed=1)
            p2 = detect_communities(g2, seed=1)
            assert p2.q == pytest.approx(p1.q, abs=1e-12)
            # same communities as gene-ID sets, not just the same score
            comms1 = {frozenset(g.nodes[i] for i in c) for c in p1.communities()}
            comms2 = {frozenset(g2.nodes[i] for i in c) for c in p2.communities()}
            assert comms1 == comms2

    def test_isolated_nodes_stay_singletons(self):
        g = GeneGraph(("a", "b", "c", "d"), ((0, 1),))
        p = detect_communities(g, seed=0)
        assert p.membership[0] == p.membership[1]
        assert len({p.membership[2], p.membership[3], p.membership[0]}) == 3

    def test_zero_edge_rejected(self):
        with pytest.raises(GraphError):
            detect_communities(GeneGraph(("a", "b"), ()), seed=0)


def shuffled_names(rng, n):
    """Gene IDs whose sorted order is a random permutation of the index order."""
    return tuple(f"g{i:03d}" for i in rng.permutation(n))


def golden_community_graphs():
    """The pinned detection family: (name, graph) pairs, every graph built from a fixed seed."""
    rng = np.random.default_rng(2024)
    for p in (0.05, 0.15, 0.4):
        for rep in range(4):
            n = int(rng.integers(30, 121))
            upper = np.triu(rng.random((n, n)) < p, k=1)
            yield f"gnp-{p}-{rep}", GeneGraph(shuffled_names(rng, n), np.argwhere(upper))
    for n_cliques, size in ((6, 4), (10, 5), (5, 12)):
        n = n_cliques * size
        edges = [(c * size + i, c * size + j) for c in range(n_cliques)
                 for i in range(size) for j in range(i + 1, size)]
        edges += [(c * size, ((c + 1) % n_cliques) * size + 1) for c in range(n_cliques)]
        yield f"ring-{n_cliques}x{size}", GeneGraph(shuffled_names(rng, n), edges)
    for leaves in (12, 60):
        yield f"star-{leaves}", GeneGraph(shuffled_names(rng, leaves + 1),
                                          [(0, i) for i in range(1, leaves + 1)])
    # every node has the same degree, so many candidate gains tie exactly
    for n, offsets in ((24, (1,)), (40, (1, 2)), (60, (1, 3, 7)), (36, (1, 2, 3, 4))):
        edges = [(i, (i + o) % n) for i in range(n) for o in offsets]
        yield f"circulant-{n}-{offsets}", GeneGraph(shuffled_names(rng, n), edges)
    for n, n_isolated in ((40, 10), (90, 30)):
        upper = np.triu(rng.random((n, n)) < 0.1, k=1)
        upper[:, :n_isolated] = upper[:n_isolated, :] = False
        yield f"isolated-{n}-{n_isolated}", GeneGraph(shuffled_names(rng, n), np.argwhere(upper))
    # heavy-tailed degrees (Chung-Lu); seeds picked from a search because
    # they reach the fresh-singleton move and break near-ties within GAIN_TOL
    for seed in (29, 218, 1472):
        hub = np.random.default_rng(seed)
        n = int(hub.integers(30, 121))
        weight = hub.pareto(1.5, n) + 1
        prob = np.minimum(1, np.outer(weight, weight) / weight.sum() * 2)
        upper = np.triu(hub.random((n, n)) < prob, k=1)
        yield f"chung-lu-{seed}", GeneGraph(shuffled_names(hub, n), np.argwhere(upper))


def community_digest(graphs, seeds=(0, 1, 7)) -> str:
    h = hashlib.sha256()
    for name, g in graphs:
        for seed in seeds:
            p = detect_communities(g, seed=seed)
            h.update(repr((name, seed, p.membership, p.q.hex(), p.n_communities)).encode())
    return h.hexdigest()


def louvain_reference(g: GeneGraph, seed: int) -> tuple[int, ...]:
    """Independent oracle for the greedy path: dict-of-dicts Louvain levels
    that rebuild a visited node's community weights from all its neighbors
    and never skip a visit."""
    n = g.n_nodes
    canon = sorted(range(n), key=lambda i: (g.nodes[i], i))
    rank = {v: i for i, v in enumerate(canon)}
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for u, v in g.edges:
        adj[rank[u]][rank[v]] = adj[rank[v]][rank[u]] = 1.0
    loops = [0.0] * n
    m = float(g.n_edges)
    rng = np.random.default_rng(seed)
    membership = list(range(n))
    while True:
        k = [sum(a.values()) + 2.0 * loop for a, loop in zip(adj, loops)]
        order = np.arange(len(adj))
        rng.shuffle(order)
        comm, tot, size, free = list(range(len(adj))), k.copy(), [1] * len(adj), []
        improved, moved_any = True, False
        while improved:
            improved = False
            for v in order.tolist():
                cv = comm[v]
                neigh_w: dict[int, float] = {}
                for u, w in adj[v].items():
                    neigh_w[comm[u]] = neigh_w.get(comm[u], 0.0) + w
                tot[cv] -= k[v]
                size[cv] -= 1
                best_c, best_gain = cv, neigh_w.get(cv, 0.0) - k[v] * tot[cv] / (2.0 * m)
                if 0.0 > best_gain + GAIN_TOL:
                    best_c, best_gain = -1, 0.0
                for c in sorted(neigh_w):
                    gain = neigh_w[c] - k[v] * tot[c] / (2.0 * m)
                    if c != cv and gain > best_gain + GAIN_TOL:
                        best_c, best_gain = c, gain
                if size[cv] == 0 and best_c != cv:
                    heapq.heappush(free, cv)
                if best_c == -1:
                    best_c = heapq.heappop(free)
                comm[v] = best_c
                tot[best_c] += k[v]
                size[best_c] += 1
                if best_c != cv:
                    improved = moved_any = True
        if not moved_any:
            break
        relabel = {c: i for i, c in enumerate(sorted(set(comm)))}
        new_adj: list[dict[int, float]] = [{} for _ in relabel]
        new_loops = [0.0] * len(relabel)
        for v in range(len(adj)):
            cv = relabel[comm[v]]
            new_loops[cv] += loops[v]
            for u, w in adj[v].items():
                cu = relabel[comm[u]]
                if u < v:
                    continue
                if cu == cv:
                    new_loops[cv] += w
                else:
                    new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
                    new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
        adj, loops = new_adj, new_loops
        membership = [relabel[comm[c]] for c in membership]
        if len(adj) <= 1:
            break
    per_node = [membership[rank[i]] for i in range(n)]
    first: dict[int, int] = {}
    for c in per_node:
        first.setdefault(c, len(first))
    return tuple(first[c] for c in per_node)


class TestGoldenCommunities:
    def test_partitions_and_q_unchanged(self):
        # pinned on the dict-of-dicts Louvain levels the incremental ones replaced
        assert community_digest(golden_community_graphs()) == GOLDEN_COMMUNITIES

    def test_matches_rebuilding_reference(self):
        rng = np.random.default_rng(11)
        graphs = [g for _, g in golden_community_graphs()]
        for _ in range(30):
            n = int(rng.integers(10, 90))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.02, 0.5), k=1)
            graphs.append(GeneGraph(shuffled_names(rng, n), np.argwhere(upper)))
        checked = 0
        for i, g in enumerate(graphs):
            if g.n_edges == 0 or np.count_nonzero(g.degrees()) <= EXACT_NODE_LIMIT:
                continue
            checked += 1
            assert detect_communities(g, seed=i).membership == louvain_reference(g, i)
        assert checked >= 40


def disconnected_communities(g: GeneGraph, p) -> list[list[int]]:
    """The communities of p whose members do not induce a connected subgraph of g."""
    return [c for c in p.communities() if len(connected_components(subgraph(g, c))) != 1]


class TestCommunitiesConnected:
    """Louvain's local moves alone can leave a community disconnected (Traag,
    Waltman & van Eck 2019, arXiv:1810.08473); none of these graphs does."""

    def test_golden_family(self):
        for name, g in golden_community_graphs():
            for seed in (0, 1, 7):
                assert disconnected_communities(g, detect_communities(g, seed=seed)) == [], name

    def test_atlas_sweep_graphs(self, golden_atlas_input):
        m, nested = golden_atlas_input
        checked = 0
        for cohort in ("all", "LN", "Bone", "Liver"):
            wg = build_weighted(m, nested[-1], None if cohort == "all" else cohort)
            for t in sweep_thresholds(0.4, 0.9, 0.02):
                g = threshold_graph(wg, t)
                if g.n_edges:
                    p = detect_communities(g, seed=3)
                    assert disconnected_communities(g, p) == [], (cohort, t)
                    checked += 1
        assert checked == 104


def two_clique_weighted(n_per=5, intra1=0.75, intra2=0.65, inter=0.42):
    """Two cliques that both survive mid thresholds; only clique 1 survives 0.7."""
    n = 2 * n_per
    w = np.full((n, n), inter)
    for block, val in ((range(n_per), intra1), (range(n_per, n), intra2)):
        for i in block:
            for j in block:
                w[i, j] = val
    np.fill_diagonal(w, 0.0)
    return WeightedGeneGraph(tuple(f"g{i}" for i in range(n)), w)


SWEEP_IN_CHILD = """
import sys
from coexpress.errors import ValidationError
from coexpress.graph import sweep_thresholds
try:
    sweep_thresholds(*map(float, sys.argv[1:]))
except ValidationError as exc:
    print(exc)
"""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestSweepThresholds:
    # A sweep that never ends grows its list until memory runs out, so each
    # case runs in a child process with 1 GiB of address space and a timeout.
    def _rejection(self, *bounds):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", SWEEP_IN_CHILD, *bounds], env=env,
                              capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory)
        assert done.returncode == 0, done.stderr[-500:]
        return done.stdout.strip()

    @pytest.mark.parametrize("bounds", [("nan", "0.9", "0.02"), ("0.4", "inf", "0.02"),
                                        ("0.4", "0.9", "nan")])
    def test_non_finite_bounds_rejected(self, bounds):
        assert self._rejection(*bounds) == "sweep bounds and step must be finite"

    def test_too_many_thresholds_rejected(self):
        assert self._rejection("0.4", "0.9", "1e-9") == (
            f"a sweep of 500000001 thresholds exceeds the limit of {MAX_THRESHOLDS}")
        assert len(sweep_thresholds(0.0, 0.9999, 0.0001)) == MAX_THRESHOLDS
        assert len(sweep_thresholds(0.05, 0.6, 0.05)) == 12  # the default select sweep

    def test_thresholds_stay_inside_the_bounds_and_increase(self):
        # the 1e-9 slack these once had kept 10 thresholds above t_max
        assert sweep_thresholds(0.4, 0.4000000001, 1e-10) == [0.4, 0.4000000001]
        assert sweep_thresholds(0.40000000006, 0.40000000006, 1) == [0.40000000006]
        # a step below the rounding once repeated thresholds (116 of them)
        with pytest.raises(ValidationError, match="too small for thresholds rounded to 10 decimals"):
            sweep_thresholds(0.4, 0.4000000001, 1e-11)


class TestSelectThreshold:
    def test_sweep_table_has_26_rows(self):
        assert len(sweep_thresholds(0.4, 0.9, 0.02)) == 26
        wg = two_clique_weighted()
        _, _, table = select_threshold(wg, 0.4, 0.9, 0.02, seed=0)
        assert len(table) == 26

    def test_argmax_is_two_clique_threshold(self):
        wg = two_clique_weighted()
        g, p, table = select_threshold(wg, 0.4, 0.9, 0.02, seed=0)
        # defined-modularity rows only; best Q is the clean two-clique split
        best = max(r.modularity for r in table if r.modularity is not None)
        assert p.q == best
        assert p.q == pytest.approx(0.5, abs=1e-12)
        # ties go to the smallest threshold whose Q equals the maximum exactly
        first_argmax = next(r.threshold for r in table if r.modularity == best)
        assert g.threshold == first_argmax
        assert np.array_equal(g.edges, threshold_graph(wg, first_argmax).edges)
        assert g.threshold == pytest.approx(0.44)
        assert p.n_communities == 2

    def test_shattered_high_threshold_scores_lower(self):
        wg = two_clique_weighted()
        g70 = threshold_graph(wg, 0.7)
        p70 = detect_communities(g70, seed=0)
        assert p70.q < 0.5

    def test_override_bypasses_sweep(self):
        # a fixed threshold is the sweep of that one threshold
        wg = two_clique_weighted()
        g, p, table = select_threshold(wg, 0.56, 0.56, 1, seed=0)
        assert np.array_equal(g.edges, threshold_graph(wg, 0.56).edges)
        assert len(table) == 1 and table[0].threshold == 0.56

    def test_all_empty_rejected(self):
        wg = two_clique_weighted()
        with pytest.raises(GraphError):
            select_threshold(wg, 0.95, 0.99, 0.01, seed=0)

    def test_threads_match_serial(self):
        wg = two_clique_weighted()
        g1, p1, t1 = select_threshold(wg, 0.4, 0.9, 0.02, seed=0, threads=1)
        g4, p4, t4 = select_threshold(wg, 0.4, 0.9, 0.02, seed=0, threads=4)
        assert np.array_equal(g1.edges, g4.edges) and p1 == p4 and t1 == t4

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_override_rejected(self, t):
        with pytest.raises(ValidationError) as info:
            select_threshold(two_clique_weighted(), t, t, 1, seed=0)
        assert str(info.value) == "sweep bounds and step must be finite"


SWEEP_WIDE = (0.4, 1.1, 0.02)  # its top thresholds leave no edge


def random_weighted(rng, n, grid=None):
    """Symmetric |r|-like weights over shuffled gene IDs. With `grid`, every
    weight is a multiple of 1/grid, so many weights equal a sweep threshold."""
    w = rng.random((n, n))
    if grid:
        w = np.round(w * grid) / grid
    w = np.triu(w, k=1)
    return WeightedGeneGraph(shuffled_names(rng, n), w + w.T)


def reference_graph(wg, t):
    """Each threshold's graph from its own scan of the whole matrix."""
    return GeneGraph(wg.genes, np.argwhere(np.triu(wg.weights >= t, k=1)), threshold=float(t))


def partition_bits(p):
    return p.membership, p.n_communities, p.q.hex()


def row_bits(r):
    return r.threshold, None if r.modularity is None else r.modularity.hex(), r.n_edges, r.n_communities


def reference_sweep(wg, thresholds, seed):
    """select_threshold rebuilt from reference graphs: (best graph, its partition,
    table, every graph with edges and its partition)."""
    table, each, best = [], [], None
    for t in thresholds:
        g = reference_graph(wg, t)
        if g.n_edges == 0:
            table.append((t, None, 0, 0))
            continue
        p = detect_communities(g, seed)
        table.append((t, p.q.hex(), g.n_edges, p.n_communities))
        each.append((g, p))
        if best is None or p.q > best[1].q:
            best = (g, p)
    return best[0], best[1], table, each


def record_sweep_calls(monkeypatch):
    """Every graph the sweep's module-level threshold_graph builds, and every
    (graph, partition) of its detect_communities calls."""
    built, detected = [], []
    threshold_graph_fn = graph_module.threshold_graph
    detect_fn = graph_module.detect_communities

    def threshold_recorded(wg, t, **kwargs):
        built.append(threshold_graph_fn(wg, t, **kwargs))
        return built[-1]

    def detect_recorded(g, seed=0):
        detected.append((g, detect_fn(g, seed)))
        return detected[-1][1]

    monkeypatch.setattr(graph_module, "threshold_graph", threshold_recorded)
    monkeypatch.setattr(graph_module, "detect_communities", detect_recorded)
    return built, detected


def sweep_cases():
    """Random and coarse-grid weights; the 12-gene cases reach exact enumeration."""
    rng = np.random.default_rng(16)
    return [random_weighted(rng, n, grid) for n in (60, 12) for grid in (None, 50)]


class TestSweepMatchesRebuildingReference:
    """One scan per sweep gives each threshold the graph and partition that a
    scan of the whole matrix at that threshold gives."""

    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_table_graphs_partitions_and_q(self, monkeypatch, case, seed):
        wg = sweep_cases()[case]
        thresholds = sweep_thresholds(*SWEEP_WIDE)
        built, detected = record_sweep_calls(monkeypatch)
        g, p, table = select_threshold(wg, *SWEEP_WIDE, seed=seed)
        ref_g, ref_p, ref_table, ref_each = reference_sweep(wg, thresholds, seed)

        assert [row_bits(r) for r in table] == ref_table
        assert [r[1] is None for r in ref_table].count(True) >= 5  # zero-edge thresholds
        assert [b.threshold for b in built] == thresholds
        for b, t in zip(built, thresholds):
            ref = reference_graph(wg, t)
            assert b.nodes == ref.nodes and b.edges.dtype == ref.edges.dtype
            assert np.array_equal(b.edges, ref.edges), t
        assert len(detected) == len(ref_each)
        for (dg, dp), (rg, rp) in zip(detected, ref_each):
            assert np.array_equal(dg.edges, rg.edges)
            assert partition_bits(dp) == partition_bits(rp), dg.threshold
        assert g.threshold == ref_g.threshold and np.array_equal(g.edges, ref_g.edges)
        assert partition_bits(p) == partition_bits(ref_p)

    def test_weights_equal_to_thresholds_are_kept(self):
        wg = sweep_cases()[1]  # 60 genes, coarse grid
        thresholds = sweep_thresholds(*SWEEP_WIDE)
        on_threshold = np.isin(np.triu(wg.weights, k=1), thresholds)
        assert on_threshold.sum() > 100
        g, _, _ = select_threshold(wg, *SWEEP_WIDE, seed=0)
        assert on_threshold[tuple(g.edges.T)].any()

    @pytest.mark.parametrize("case", range(4))
    def test_override(self, case):
        # a fixed threshold t is the sweep (t, t, 1)
        wg = sweep_cases()[case]
        for t in (0.4, 0.56, 0.98, 1.0, 1.04):
            ref = reference_graph(wg, t)
            if ref.n_edges == 0:
                with pytest.raises(GraphError, match="every candidate threshold"):
                    select_threshold(wg, t, t, 1, seed=1)
                continue
            g, p, table = select_threshold(wg, t, t, 1, seed=1)
            ref_p = detect_communities(ref, 1)
            assert np.array_equal(g.edges, ref.edges) and g.threshold == t
            assert partition_bits(p) == partition_bits(ref_p)
            assert [row_bits(r) for r in table] == [(t, ref_p.q.hex(), ref.n_edges,
                                                     ref_p.n_communities)]

    def test_threshold_request_order_does_not_matter(self):
        rng = np.random.default_rng(5)
        thresholds = sweep_thresholds(*SWEEP_WIDE)
        for wg in sweep_cases():
            for order in (thresholds, thresholds[::-1], rng.permutation(thresholds).tolist()):
                for t in order:
                    g = threshold_graph(wg, t)
                    assert g.threshold == t
                    assert np.array_equal(g.edges, reference_graph(wg, t).edges), t

    def test_swept_graph_detects_like_a_fresh_copy(self, monkeypatch):
        for wg in sweep_cases():
            _, detected = record_sweep_calls(monkeypatch)
            select_threshold(wg, *SWEEP_WIDE, seed=7)
            assert detected
            for g, p in detected:
                fresh = GeneGraph(g.nodes, g.edges.copy())
                assert partition_bits(p) == partition_bits(detect_communities(fresh, 7))

    def test_scan_is_freed_on_return_and_once_an_error_is_handled(self, monkeypatch):
        scans = []

        class RecordedSweep(graph_module._Sweep):
            def __init__(self, wg, floor):
                super().__init__(wg, floor)
                scans.append(weakref.ref(self))

        monkeypatch.setattr(graph_module, "_Sweep", RecordedSweep)
        wg = sweep_cases()[0]
        select_threshold(wg, *SWEEP_WIDE, seed=0)
        assert len(scans) == 1
        gc.collect()
        assert scans[0]() is None
        with pytest.raises(GraphError):
            select_threshold(wg, 1.02, 1.1, 0.02, seed=0)
        assert len(scans) == 2
        gc.collect()
        assert scans[1]() is None

    def test_scan_of_another_graph_or_above_t_is_not_used(self):
        wg, other = sweep_cases()[:2]
        for t in (0.4, 0.56, 0.9):
            fresh = threshold_graph(wg, t).edges
            for scan in (graph_module._Sweep(other, 0.4), graph_module._Sweep(wg, t + 0.02)):
                g = threshold_graph(wg, t, scan=scan)
                assert g.nodes == wg.genes and g.edges.dtype == fresh.dtype
                assert np.array_equal(g.edges, fresh), t

    def test_concurrent_sweeps_match_serial(self):
        cases = sweep_cases() * 2
        serial = [select_threshold(wg, *SWEEP_WIDE, seed=2) for wg in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(select_threshold, wg, *SWEEP_WIDE, seed=2) for wg in cases]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (g1, p1, t1), (g2, p2, t2) in zip(serial, threaded):
            assert np.array_equal(g1.edges, g2.edges)
            assert partition_bits(p1) == partition_bits(p2) and t1 == t2


class TestLevel0:
    """Level 0 sorts its sources on the narrowest integer dtype that holds the
    node count, and each graph reuses the canonical order of its node tuple."""

    @pytest.mark.parametrize("n", [2, 255, 256, 65_535, 65_536])
    def test_lists_match_an_int64_stable_sort(self, n):
        rng = np.random.default_rng(n)
        # names sort in reverse index order; dense blocks at both ends of the
        # index range repeat the smallest and largest sources many times
        nodes = tuple(f"g{n - 1 - i:06d}" for i in range(n))
        ends = [np.arange(min(n, 40)), np.arange(max(0, n - 40), n)]
        blocks = [np.argwhere(np.triu(np.ones((len(e), len(e)), bool), 1)) + e[0] for e in ends]
        spread = rng.integers(0, n, size=(min(3 * n, 20_000), 2))
        pairs = np.concatenate(blocks + [spread[spread[:, 0] != spread[:, 1]]])
        g = GeneGraph(nodes, pairs)
        _, rank = graph_module._canonical_order(g.nodes)
        src, dst = np.concatenate((rank[g.edges], rank[g.edges][:, ::-1])).astype(np.int64).T
        by_src = np.argsort(src, kind="stable")
        degree, got_dst = graph_module._level0(g.edges, rank)
        got_src = np.repeat(np.arange(n), degree)  # the sources, sorted
        assert got_src.max() == n - 1
        assert np.array_equal(got_src, src[by_src])
        assert np.array_equal(got_dst, dst[by_src])

    def test_canonical_order_memo_matches_a_fresh_sort(self):
        rng = np.random.default_rng(3)
        a, b, ties = shuffled_names(rng, 50), shuffled_names(rng, 60), ("b", "a", "b", "a", "c")
        a_copy, b_copy = tuple(list(a)), tuple(list(b))
        assert a_copy == a and a_copy is not a and b_copy is not b
        for nodes in (a, b, a, a_copy, b, b_copy, ties, a, ties):
            canon, rank = graph_module._canonical_order(nodes)
            fresh = sorted(range(len(nodes)), key=nodes.__getitem__)
            assert canon == tuple(fresh)
            assert np.array_equal(rank, np.argsort(fresh))
            assert not rank.flags.writeable
            with pytest.raises(ValueError):
                rank[0] = 1
        assert graph_module._canonical_order(ties) is graph_module._canonical_order(ties)


class TestSummaryAndExports:
    def test_edge_list(self, tmp_path):
        path = tmp_path / "edges.tsv"
        write_edge_list(TRIANGLES, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "src\tdst"
        assert "a\tb" in lines and "d\te" in lines

    def test_edge_list_quotes_ids_like_the_matrix_file(self, tmp_path):
        g = GeneGraph(("a\tb", 'd"q', "plain"), ((0, 1), (1, 2)))
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh, delimiter="\t"))
        assert rows == [["src", "dst"], ["a\tb", 'd"q'], ['d"q', "plain"]]

    def test_edge_list_quotes_ids_holding_a_carriage_return(self, tmp_path):
        g = GeneGraph(("a\rb", "c\r\nd", "plain"), ((0, 1), (1, 2)))
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)
        assert path.read_bytes().startswith(b'src\tdst\n"a\rb"\t"c\r\nd"\n')
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh, delimiter="\t"))
        assert rows == [["src", "dst"], ["a\rb", "c\r\nd"], ["c\r\nd", "plain"]]

    def test_graphml_parses_with_attributes(self, tmp_path):
        path = tmp_path / "g.graphml"
        p = detect_communities(TRIANGLES, seed=0)
        write_graphml(
            TRIANGLES,
            path,
            {"community": {g: int(p.membership[i]) for i, g in enumerate(TRIANGLES.nodes)},
             "color": {g: "#FF0000" for g in TRIANGLES.nodes}},
        )
        tree = ET.parse(path)
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        nodes = tree.findall(".//g:node", ns)
        edges = tree.findall(".//g:edge", ns)
        assert len(nodes) == 6 and len(edges) == 6
        keys = {k.get("attr.name"): k.get("attr.type") for k in tree.findall(".//g:key", ns)}
        assert keys["community"] == "int" and keys["color"] == "string"

    def test_graphml_golden_bytes(self, tmp_path):
        # sha256 of the output pinned on the ElementTree writer (ET.indent +
        # ET.write, Python 3.11): single-quoted declaration, 2-space indent,
        # " />" self-closing tags, attribute and text escaping.
        nodes = ("a&b", "<gene>", 'q"t', "tab\there", "lonely", "plain")
        g = GeneGraph(nodes, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 5)))
        attrs = {
            "flag": {"a&b": True, "<gene>": False, 'q"t': True, "tab\there": False,
                     "lonely": True, "plain": False},
            "count": {"a&b": 3, "<gene>": -1, 'q"t': 0, "tab\there": 7, "plain": 12},
            "score": {n: v for n, v in zip(nodes, (0.5, 1, -2.25, 1e-17, 3.0, 2))},
            "label&<name>": {"a&b": "x<y>&z", "<gene>": "", 'q"t': 'say "hi"',
                             "tab\there": "a\tb\nc", "lonely": " ", "plain": "#FF0000"},
        }
        path = tmp_path / "g.graphml"
        write_graphml(g, path, attrs)
        assert "lonely" not in attrs["count"]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_GRAPHML
        write_graphml(GeneGraph(("z", "y"), ()), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_GRAPHML_NO_EDGES
        write_graphml(GeneGraph((), ()), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_GRAPHML_EMPTY

    def test_graphml_matches_elementtree_on_random_ids(self, tmp_path):
        rng = np.random.default_rng(13)
        alphabet = list("ab &<>\"'\t\n\r;#=/") + ["\u00e9", "\u2028", "\U0001f600"]
        for trial in range(15):
            n = int(rng.integers(0, 9))
            nodes = tuple(
                f"{i}" + "".join(rng.choice(alphabet, size=int(rng.integers(0, 5))))
                for i in range(n)
            )
            g = random_graph(rng, n, 0.4)
            g = GeneGraph(nodes, g.edges)
            pools = (
                [True, False], [0, -3, 17], [0.5, 2, -1e-3],
                ["", " ", "x&y", "<a\tb>", "\"q\"\r\n"],
            )
            attrs = {}
            for a in range(int(rng.integers(0, 4))):
                pool = pools[int(rng.integers(0, len(pools)))]
                attrs[f"attr{a}" + "".join(rng.choice(alphabet, size=2))] = {
                    gene: pool[int(rng.integers(0, len(pool)))]
                    for gene in nodes if rng.random() < 0.7
                }
            write_graphml(g, tmp_path / "got.graphml", attrs)
            graphml_via_elementtree(g, tmp_path / "want.graphml", attrs)
            got = (tmp_path / "got.graphml").read_bytes()
            assert got == (tmp_path / "want.graphml").read_bytes()

    def test_write_sweep(self, tmp_path):
        wg = two_clique_weighted()
        _, _, table = select_threshold(wg, 0.4, 0.9, 0.02, seed=0)
        write_sweep(table, tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 27

    def test_subgraph_preserves_threshold(self):
        g = threshold_graph(two_clique_weighted(), 0.5)
        sub = subgraph(g, [0, 1, 2])
        assert sub.threshold == g.threshold
        assert sub.n_nodes == 3
