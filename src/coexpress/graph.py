"""Gene co-expression graphs: weighted construction, thresholding, components,
modularity, and multi-level greedy community detection."""
from __future__ import annotations

import csv
import heapq
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .correlation import correlation_block
from .errors import GraphError, ValidationError
from .masks import GeneSet
from .matrix import ExpressionMatrix

logger = logging.getLogger(__name__)

GAIN_TOL = 1e-12


@dataclass(frozen=True)
class WeightedGeneGraph:
    """Complete weighted graph over genes; w[i, j] = |Pearson| over the cohort's samples."""

    genes: tuple[str, ...]
    weights: np.ndarray
    cohort: str | None = None

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "genes", tuple(self.genes))
        n = len(self.genes)
        if w.shape != (n, n):
            raise ValidationError("weight matrix must be square over genes")
        if n and (w.min() < -1e-12 or w.max() > 1.0 + 1e-12):
            raise ValidationError("weights must lie in [0, 1]")


@dataclass(frozen=True)
class GeneGraph:
    """Simple undirected graph over gene nodes; edges are index pairs (u < v).

    `edges` may be given as pairs or as an (E, 2) integer array, in any order
    and orientation; it is stored as a sorted tuple of unique int pairs.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    threshold: float | None = None
    # the stored edges as a read-only (E, 2) int64 array, for vectorized counts
    _pairs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        n = len(self.nodes)
        pairs = np.asarray(self.edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError("edges must be index pairs")
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        if np.any(lo == hi):
            raise ValidationError("self-loops are not allowed")
        if lo.size and (lo.min() < 0 or hi.max() >= n):
            raise ValidationError("edge endpoint out of range")
        key = lo * n + hi
        if np.any(key[1:] <= key[:-1]):
            key = np.unique(key)  # sorted, duplicates collapsed
        pairs = np.column_stack(np.divmod(key, max(n, 1)))
        pairs.flags.writeable = False
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "edges", tuple(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.nodes]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> np.ndarray:
        return np.bincount(self._pairs.ravel(), minlength=self.n_nodes)

    def isolated_nodes(self) -> tuple[str, ...]:
        deg = self.degrees()
        return tuple(self.nodes[i] for i in np.flatnonzero(deg == 0))


@dataclass(frozen=True)
class Partition:
    """Community membership aligned to a graph's node order; indices contiguous 0..C-1."""

    membership: tuple[int, ...]
    n_communities: int
    q: float

    def __post_init__(self):
        object.__setattr__(self, "membership", tuple(int(c) for c in self.membership))
        got = set(self.membership)
        if got != set(range(self.n_communities)):
            raise ValidationError("community indices must be contiguous 0..C-1")

    def communities(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_communities)]
        for i, c in enumerate(self.membership):
            out[c].append(i)
        return out


def build_weighted(
    m: ExpressionMatrix, genes: GeneSet | Sequence[str], cohort: str | None = None
) -> WeightedGeneGraph:
    """All-pairs |Pearson| over the cohort's sample columns.

    cohort=None uses every sample. Genes constant within the cohort are
    excluded with a logged list; fewer than 2 usable genes is an error.
    """
    gene_ids = list(genes.gene_ids if isinstance(genes, GeneSet) else genes)
    if cohort is None:
        cols = np.arange(m.n_samples, dtype=np.intp)
    else:
        cols = m.site_columns(cohort)
    if cols.size < 3:
        raise ValidationError(f"cohort {cohort!r} has {cols.size} samples; need >= 3")
    rows = m.gene_index(gene_ids)
    block = m.values[np.ix_(rows, cols)]
    corr, ok = correlation_block(block)
    dropped = [gene_ids[i] for i in np.flatnonzero(~ok)]
    if dropped:
        logger.warning(
            "cohort %s: excluded %d gene(s) constant within cohort: %s",
            cohort or "all", len(dropped), ", ".join(dropped[:10]),
        )
    kept = [gene_ids[i] for i in np.flatnonzero(ok)]
    if len(kept) < 2:
        raise ValidationError("fewer than 2 usable genes for the weighted graph")
    w = np.abs(corr)
    np.fill_diagonal(w, 0.0)
    return WeightedGeneGraph(tuple(kept), np.clip(w, 0.0, 1.0), cohort)


def threshold_graph(wg: WeightedGeneGraph, t: float) -> GeneGraph:
    """Unweighted graph keeping edges with weight >= t; isolated nodes retained."""
    # row-major nonzero of the strict upper triangle lists (u, v) in sorted order
    pairs = np.argwhere(np.triu(wg.weights >= t, k=1))
    g = GeneGraph(wg.genes, pairs, threshold=float(t))
    if logger.isEnabledFor(logging.DEBUG):
        iso = g.isolated_nodes()
        if iso:
            logger.debug("threshold %.3g leaves %d isolated node(s)", t, len(iso))
    return g


def connected_components(g: GeneGraph) -> list[list[int]]:
    """Connected components as sorted node-index lists."""
    adj = g.adjacency()
    seen = [False] * g.n_nodes
    comps: list[list[int]] = []
    for start in range(g.n_nodes):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def subgraph(g: GeneGraph, node_indices: Sequence[int]) -> GeneGraph:
    idx = sorted(set(int(i) for i in node_indices))
    pos = {old: new for new, old in enumerate(idx)}
    edges = tuple(
        (pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos
    )
    return GeneGraph(tuple(g.nodes[i] for i in idx), edges, threshold=g.threshold)


def giant_component(g: GeneGraph) -> GeneGraph:
    """Largest connected component; ties break to the component with the smallest node ID."""
    comps = connected_components(g)
    if not comps:
        raise ValidationError("graph has no nodes")
    best_size = max(len(c) for c in comps)
    candidates = [c for c in comps if len(c) == best_size]
    best = min(candidates, key=lambda c: min(g.nodes[i] for i in c))
    return subgraph(g, best)


def modularity(g: GeneGraph, p: Partition | Sequence[int]) -> float:
    """Newman modularity Q = sum_c [L_c/m - (d_c/(2m))^2].

    L_c counts intra-community edges, d_c the total degree of community c,
    m the edge count. Undefined (raises) for zero-edge graphs.
    """
    membership = np.asarray(p.membership if isinstance(p, Partition) else p, dtype=np.int64)
    if membership.shape != (g.n_nodes,):
        raise ValidationError("partition must cover every node")
    m = g.n_edges
    if m == 0:
        raise GraphError("modularity undefined for a zero-edge graph")
    if membership.min() < 0:
        raise ValidationError("community labels must be >= 0")
    n_comm = int(membership.max()) + 1
    ends = membership[g._pairs]
    intra = np.bincount(ends[ends[:, 0] == ends[:, 1], 0], minlength=n_comm).astype(np.float64)
    degree = np.bincount(ends.ravel(), minlength=n_comm).astype(np.float64)
    return float(np.sum(intra / m - (degree / (2.0 * m)) ** 2))


def _one_level(
    adj: list[dict[int, float]], k: list[float], m: float, order: np.ndarray
) -> tuple[list[int], bool]:
    """Local-move phase: greedily reassign nodes while any move raises Q.

    Candidates for each node are its neighbor communities plus a fresh
    singleton community (gain 0 relative to the removed state); without the
    fresh option a badly attached node could be forced back at negative gain.
    """
    n = len(adj)
    comm = list(range(n))
    tot = k.copy()
    size = [1] * n
    free: list[int] = []
    moved_any = False
    improved = True
    while improved:
        improved = False
        for v in order:
            v = int(v)
            cv = comm[v]
            neigh_w: dict[int, float] = {}
            for u, w in adj[v].items():
                cu = comm[u]
                neigh_w[cu] = neigh_w.get(cu, 0.0) + w
            tot[cv] -= k[v]
            size[cv] -= 1
            # gain (scaled by m) of joining community c after removal from cv
            best_c = cv
            best_gain = neigh_w.get(cv, 0.0) - k[v] * tot[cv] / (2.0 * m)
            if 0.0 > best_gain + GAIN_TOL:
                best_c = -1  # fresh singleton community
                best_gain = 0.0
            for c in sorted(neigh_w):
                if c == cv:
                    continue
                gain = neigh_w[c] - k[v] * tot[c] / (2.0 * m)
                if gain > best_gain + GAIN_TOL:
                    best_gain = gain
                    best_c = c
            if size[cv] == 0 and best_c != cv:
                heapq.heappush(free, cv)
            if best_c == -1:
                best_c = heapq.heappop(free)  # a label is always free here
            comm[v] = best_c
            tot[best_c] += k[v]
            size[best_c] += 1
            if best_c != cv:
                improved = True
                moved_any = True
    return comm, moved_any


def _aggregate(
    adj: list[dict[int, float]], loops: list[float], comm: list[int]
) -> tuple[list[dict[int, float]], list[float], dict[int, int]]:
    labels = sorted(set(comm))
    relabel = {c: i for i, c in enumerate(labels)}
    nn = len(labels)
    new_adj: list[dict[int, float]] = [dict() for _ in range(nn)]
    new_loops = [0.0] * nn
    for v in range(len(adj)):
        cv = relabel[comm[v]]
        new_loops[cv] += loops[v]
        for u, w in adj[v].items():
            if u <= v:
                continue
            cu = relabel[comm[u]]
            if cu == cv:
                new_loops[cv] += w
            else:
                new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
                new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
    return new_adj, new_loops, relabel


# Graphs whose non-isolated core is at most this large are solved by exact
# enumeration over all set partitions (Bell(8) = 4140); greedy local moves
# provably miss the optimum on some of these tiny instances.
EXACT_NODE_LIMIT = 8


def _exact_partition(g: GeneGraph, core: list[int]) -> list[int]:
    """Exhaustive modularity maximization over the core; isolated nodes stay singletons.

    Enumerates restricted growth strings over the core in canonical order, so
    the argmax (first encountered on ties) is independent of input node order.
    """
    m = float(g.n_edges)
    core_pos = {v: i for i, v in enumerate(core)}
    edges = [(core_pos[u], core_pos[v]) for u, v in g.edges]
    deg = [0] * len(core)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1

    def q_of(mem: tuple[int, ...]) -> float:
        n_comm = max(mem) + 1
        intra = [0.0] * n_comm
        dc = [0.0] * n_comm
        for u, v in edges:
            if mem[u] == mem[v]:
                intra[mem[u]] += 1.0
        for i, d in enumerate(deg):
            dc[mem[i]] += d
        return sum(intra[c] / m - (dc[c] / (2.0 * m)) ** 2 for c in range(n_comm))

    nc = len(core)
    a = [0] * nc
    best_mem = tuple(a)
    best_q = q_of(best_mem)

    def rec(i: int, mx: int):
        nonlocal best_mem, best_q
        if i == nc:
            q = q_of(tuple(a))
            if q > best_q + GAIN_TOL:
                best_q = q
                best_mem = tuple(a)
            return
        for c in range(mx + 2):
            a[i] = c
            rec(i + 1, max(mx, c))

    if nc > 1:
        rec(1, 0)

    membership = [-1] * g.n_nodes
    for i, v in enumerate(core):
        membership[v] = best_mem[i]
    next_label = max(best_mem) + 1
    for v in range(g.n_nodes):
        if membership[v] < 0:
            membership[v] = next_label
            next_label += 1
    return membership


def detect_communities(g: GeneGraph, seed: int = 0) -> Partition:
    """Modularity-maximizing community detection.

    Multi-level greedy optimization (local moves, then aggregation, repeated
    until no gain), with the node visit order shuffled once per aggregation
    level from the seeded generator. Tiny graphs (non-isolated core of at
    most EXACT_NODE_LIMIT nodes) are instead solved exactly by partition
    enumeration, where greedy moves can provably stall below the optimum.
    The algorithm runs in a canonical node space ordered by gene ID, so the
    result depends only on the graph's structure and the seed, not on the
    input node ordering. Isolated nodes remain singleton communities
    (contributing 0 to Q). Raises for zero-edge graphs.
    """
    if g.n_edges == 0:
        raise GraphError("community detection undefined for a zero-edge graph")
    n = g.n_nodes
    canon = sorted(range(n), key=lambda i: (g.nodes[i], i))
    rank = np.empty(n, dtype=np.int64)
    rank[canon] = np.arange(n)

    deg = g.degrees()
    core = [v for v in canon if deg[v]]
    if len(core) <= EXACT_NODE_LIMIT:
        per_node = _exact_partition(g, core)
        relabel: dict[int, int] = {}
        for c in per_node:
            if c not in relabel:
                relabel[c] = len(relabel)
        final = [relabel[c] for c in per_node]
        return Partition(tuple(final), len(relabel), modularity(g, final))
    # canonical adjacency; each node lists its neighbors in edge order
    ends = rank[g._pairs]
    src, dst = ends.ravel(), ends[:, ::-1].ravel()
    by_src = np.argsort(src, kind="stable")
    nbrs = dst[by_src].tolist()
    bounds = np.concatenate(([0], np.cumsum(deg[canon]))).tolist()
    adj: list[dict[int, float]] = [
        dict.fromkeys(nbrs[bounds[i]:bounds[i + 1]], 1.0) for i in range(n)
    ]
    loops = [0.0] * n
    m = float(g.n_edges)
    rng = np.random.default_rng(seed)
    membership = list(range(n))  # in canonical space

    while True:
        k = [sum(adj[i].values()) + 2.0 * loops[i] for i in range(len(adj))]
        order = np.arange(len(adj))
        rng.shuffle(order)
        comm, moved = _one_level(adj, k, m, order)
        if not moved:
            break
        adj, loops, relabel = _aggregate(adj, loops, comm)
        membership = [relabel[comm[c]] for c in membership]
        if len(adj) <= 1:
            break

    # contiguous labels in order of first appearance over the original node order
    per_node = [membership[r] for r in rank.tolist()]
    relabel2: dict[int, int] = {}
    for c in per_node:
        if c not in relabel2:
            relabel2[c] = len(relabel2)
    final = [relabel2[c] for c in per_node]
    q = modularity(g, final)
    return Partition(tuple(final), len(relabel2), q)


def singleton_partition(g: GeneGraph) -> Partition:
    q = modularity(g, list(range(g.n_nodes))) if g.n_edges else 0.0
    return Partition(tuple(range(g.n_nodes)), g.n_nodes, q)


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    modularity: float | None   # None when the thresholded graph has no edges
    n_edges: int
    n_communities: int


def sweep_thresholds(t_min: float, t_max: float, step: float) -> list[float]:
    if step <= 0 or t_max < t_min:
        raise ValidationError("need step > 0 and t_max >= t_min")
    out = []
    i = 0
    while True:
        t = round(t_min + i * step, 10)
        if t > t_max + 1e-9:
            break
        out.append(t)
        i += 1
    return out


def select_threshold(
    wg: WeightedGeneGraph,
    t_min: float = 0.4,
    t_max: float = 0.9,
    step: float = 0.02,
    override: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> tuple[GeneGraph, Partition, list[SweepRow]]:
    """Sweep thresholds, detect communities on each full thresholded graph,
    and return the graph/partition of maximum modularity (tie: smallest t).

    Candidates whose graph has no edges are recorded with modularity None and
    skipped by the argmax. With `override` set, the sweep is bypassed and the
    returned table holds the single override row. The sweep runs serially and
    keeps only the best graph so far; `threads` is accepted for configuration
    compatibility and has no effect (community detection is pure Python under
    the GIL, where a thread pool measured slower than one thread).
    """
    if override is not None:
        g = threshold_graph(wg, override)
        p = detect_communities(g, seed)
        row = SweepRow(float(override), p.q, g.n_edges, p.n_communities)
        return g, p, [row]

    table: list[SweepRow] = []
    best: tuple[GeneGraph, Partition] | None = None
    for t in sweep_thresholds(t_min, t_max, step):
        g = threshold_graph(wg, t)
        if g.n_edges == 0:
            table.append(SweepRow(t, None, 0, 0))
        else:
            p = detect_communities(g, seed)
            table.append(SweepRow(t, p.q, g.n_edges, p.n_communities))
            if best is None or p.q > best[1].q:
                best = (g, p)
        del g  # hold at most the best graph and the one being built
    if best is None:
        raise GraphError("every candidate threshold produced a zero-edge graph")
    return best[0], best[1], table


def write_sweep(table: Sequence[SweepRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["threshold", "modularity", "edges", "communities"])
        for r in table:
            w.writerow([repr(r.threshold), "" if r.modularity is None else repr(r.modularity),
                        r.n_edges, r.n_communities])


@dataclass(frozen=True)
class NetworkSummary:
    n_nodes: int
    n_edges: int
    average_degree: float
    modularity: float
    component_sizes: tuple[int, ...]
    community_sizes: tuple[int, ...]


def network_summary(g: GeneGraph, p: Partition | None = None) -> NetworkSummary:
    """Node/edge counts, average degree, modularity, component and community sizes."""
    comps = connected_components(g) if g.n_nodes else []
    comp_sizes = tuple(sorted((len(c) for c in comps), reverse=True))
    if p is not None and g.n_edges > 0:
        q = p.q
        comm_sizes = tuple(sorted((len(c) for c in p.communities()), reverse=True))
    else:
        q = 0.0
        comm_sizes = tuple(sorted((len(c) for c in p.communities()), reverse=True)) if p else ()
    avg_deg = 2.0 * g.n_edges / g.n_nodes if g.n_nodes else 0.0
    return NetworkSummary(g.n_nodes, g.n_edges, avg_deg, q, comp_sizes, comm_sizes)


def write_edge_list(g: GeneGraph, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("src\tdst\n")
        for u, v in g.edges:
            fh.write(f"{g.nodes[u]}\t{g.nodes[v]}\n")


def _graphml_type(values: list) -> str:
    if all(isinstance(v, bool) for v in values):
        return "boolean"
    if all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        return "int"
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return "double"
    return "string"


def _xml_attr(text: str) -> str:
    """Escape an XML attribute value the way ElementTree writes it."""
    for raw, ref in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
                     ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;")):
        text = text.replace(raw, ref)
    return text


def _xml_text(text: str) -> str:
    """Escape XML character data the way ElementTree writes it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_graphml(
    g: GeneGraph, path: str | Path, node_attrs: Mapping[str, Mapping[str, object]] | None = None
) -> None:
    """GraphML export with optional per-node attributes keyed by gene ID.

    The bytes are those of ElementTree's `indent` plus `write(encoding="utf-8",
    xml_declaration=True)`: single-quoted declaration, 2-space indent,
    `" />"` for empty elements and no newline after the root's end tag.
    """
    node_attrs = node_attrs or {}
    keys = {name: f"d{i}" for i, name in enumerate(node_attrs)}
    ids = [_xml_attr(gene) for gene in g.nodes]
    out = ["<?xml version='1.0' encoding='utf-8'?>\n",
           '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n']
    for name, mapping in node_attrs.items():
        out.append(f'  <key id="{keys[name]}" for="node" attr.name="{_xml_attr(name)}" '
                   f'attr.type="{_graphml_type(list(mapping.values()))}" />\n')
    if not g.nodes:
        out.append('  <graph edgedefault="undirected" />\n')
    else:
        out.append('  <graph edgedefault="undirected">\n')
        for gene, gid in zip(g.nodes, ids):
            data = []
            for name, mapping in node_attrs.items():
                if gene in mapping:
                    value = mapping[gene]
                    text = str(value).lower() if isinstance(value, bool) else str(value)
                    data.append(f'      <data key="{keys[name]}">{_xml_text(text)}</data>\n' if text
                                else f'      <data key="{keys[name]}" />\n')
            if data:
                out.append(f'    <node id="{gid}">\n{"".join(data)}    </node>\n')
            else:
                out.append(f'    <node id="{gid}" />\n')
        out.extend(f'    <edge source="{ids[u]}" target="{ids[v]}" />\n' for u, v in g.edges)
        out.append("  </graph>\n")
    out.append("</graphml>")
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write("".join(out))
