"""Gene co-expression graphs: weighted construction, thresholding, components,
modularity, and multi-level greedy community detection."""
from __future__ import annotations

import functools
import heapq
import itertools
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .correlation import correlation_block
from .errors import GraphError, ValidationError
from .masks import GeneSet
from .matrix import ExpressionMatrix
from .textio import write_rows

logger = logging.getLogger(__name__)

GAIN_TOL = 1e-12
MAX_THRESHOLDS = 10_000  # per sweep; a tiny step would otherwise fill memory


@dataclass(frozen=True)
class WeightedGeneGraph:
    """Complete weighted graph over genes; w[i, j] = |Pearson| over the cohort's samples."""

    genes: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "genes", tuple(self.genes))
        n = len(self.genes)
        if w.shape != (n, n):
            raise ValidationError("weight matrix must be square over genes")
        # min and max propagate NaN, and every comparison with NaN is false
        if n and not (w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12):
            raise ValidationError("weights must be finite and lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class GeneGraph:
    """Simple undirected graph over gene nodes; edges are index pairs (u < v).

    `edges` may be given as pairs or as an (E, 2) integer array, in any order
    and orientation; it is stored as a read-only (E, 2) int64 array of unique
    pairs, each with u < v, sorted by (u, v). Graphs compare by identity.
    """

    nodes: tuple[str, ...]
    edges: np.ndarray
    threshold: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        n = len(self.nodes)
        pairs = np.asarray(self.edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError("edges must be index pairs")
        # column-wise: a min or max along axis 1 of an (E, 2) array is many times slower
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(lo == hi):
            raise ValidationError("self-loops are not allowed")
        if lo.size and (lo.min() < 0 or hi.max() >= n):
            raise ValidationError("edge endpoint out of range")
        key = lo * n + hi
        if np.any(key[1:] <= key[:-1]):
            lo, hi = np.divmod(np.unique(key), max(n, 1))  # sorted, duplicates collapsed
        pairs = np.column_stack((lo, hi))
        pairs.flags.writeable = False
        object.__setattr__(self, "edges", pairs)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.nodes]
        for u, v in self.edges.tolist():
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_nodes)

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
    w = np.abs(corr, out=corr)  # |r| of r clipped to [-1, 1] already lies in [0, 1]
    np.fill_diagonal(w, 0.0)
    return WeightedGeneGraph(tuple(kept), w)


class _Sweep:
    """One threshold sweep's scan of a weight matrix.

    The matrix is scanned once, at the sweep's lowest threshold `floor`, into
    the (u, v)-sorted pairs with weight >= floor (int32 indices) and their
    weights. Each threshold's graph keeps the pairs with weight >= t, the
    test `threshold_graph` has always applied to the whole matrix, so its
    edges are the same array.
    """

    def __init__(self, wg: WeightedGeneGraph, floor: float):
        # row-major nonzero of the strict upper triangle lists (u, v) in sorted order
        pairs = np.argwhere(np.triu(wg.weights >= floor, k=1)).astype(np.int32)
        self.wg = wg
        self.floor = floor
        self.pairs = pairs
        self.weight = wg.weights[pairs[:, 0], pairs[:, 1]]

    def graph(self, t: float) -> GeneGraph:
        return GeneGraph(self.wg.genes, self.pairs.compress(self.weight >= t, axis=0),
                         threshold=float(t))


def threshold_graph(wg: WeightedGeneGraph, t: float, *, scan: _Sweep | None = None) -> GeneGraph:
    """Unweighted graph keeping edges with weight >= t; isolated nodes retained.

    `select_threshold` passes its sweep's one scan as `scan`. The graph is cut
    from it only when it is a scan of `wg` at or below `t`; otherwise `wg` is
    scanned at `t`. Both give the same edges. A non-finite `t` raises.
    """
    if not math.isfinite(t):
        raise ValidationError(f"threshold must be finite, got {t!r}")
    if scan is None or scan.wg is not wg or t < scan.floor:
        scan = _Sweep(wg, t)
    g = scan.graph(t)
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
    pos = np.full(g.n_nodes, -1, dtype=np.int64)
    pos[idx] = np.arange(len(idx))
    ends = pos[g.edges]
    # pos is increasing over the kept nodes, so the kept rows stay sorted
    edges = ends[(ends >= 0).all(axis=1)]
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
    ends = membership[g.edges]
    intra = np.bincount(ends[ends[:, 0] == ends[:, 1], 0], minlength=n_comm).astype(np.float64)
    degree = np.bincount(ends.ravel(), minlength=n_comm).astype(np.float64)
    return float(np.sum(intra / m - (degree / (2.0 * m)) ** 2))


# Every level-0 edge weighs 1. One endless iterator serves as every node's
# weight list: `_one_level` zips it after the neighbor list, so zip stops at
# the neighbor list's end and never exhausts it.
_UNIT_WEIGHT = itertools.repeat(1)


def _one_level(
    nbrs: list[list[int]], wts: list, k: list[int], m: float, order: list[int]
) -> tuple[list[int], list[dict[int, int] | None], bool]:
    """Local-move phase: greedily reassign nodes while any move raises Q.

    Candidates for each node are its neighbor communities plus a fresh
    singleton community (gain 0 relative to the removed state); without the
    fresh option a badly attached node could be forced back at negative gain.
    Returns the community labels, each node's final community-weight map
    (None for a node without neighbors) and whether any node moved. The
    visit, scan, reuse and skip rules are those of `detect_communities`.
    """
    n = len(nbrs)
    comm = list(range(n))
    tot = k.copy()
    size = [1] * n
    free: list[int] = []
    # community -> weight of the node's edges into it; built at the node's
    # first visit, then updated by every move of a neighbor
    neigh_w: list[dict[int, int] | None] = [None] * n
    # move counts: when tot[c] last changed, and at each node's last visit
    # that left it in place
    moves = 0
    tot_moved = [0] * n
    stayed_at = [0] * n
    twice_m = 2.0 * m
    order = [v for v in order if nbrs[v]]  # a node without neighbors never moves
    improved = True
    while improved:
        improved = False
        for v in order:
            cv = comm[v]
            nw = neigh_w[v]
            if nw is None:
                nw = neigh_w[v] = {}
                for u, w in zip(nbrs[v], wts[v]):
                    cu = comm[u]
                    nw[cu] = nw.get(cu, 0) + w
            elif (stayed_at[v] >= tot_moved[cv]
                    and stayed_at[v] >= max(map(tot_moved.__getitem__, nw))):
                continue
            kv = k[v]
            tot_cv = tot[cv] - kv
            # gain (scaled by m) of joining community c after removal from cv;
            # a candidate must beat the best gain so far by more than GAIN_TOL
            best_c = cv
            bar = nw.get(cv, 0) - kv * tot_cv / twice_m + GAIN_TOL
            if 0.0 > bar:
                best_c = -1  # fresh singleton community, gain 0
                bar = GAIN_TOL
            for c in sorted(nw):
                if c == cv:
                    continue
                gain = nw[c] - kv * tot[c] / twice_m
                if gain > bar:
                    best_c = c
                    bar = gain + GAIN_TOL
            if best_c == cv:
                stayed_at[v] = moves
                continue
            size[cv] -= 1
            if size[cv] == 0:
                heapq.heappush(free, cv)
            if best_c == -1:
                best_c = heapq.heappop(free)  # a label is always free here
            comm[v] = best_c
            tot[cv] = tot_cv
            tot[best_c] += kv
            size[best_c] += 1
            moves += 1
            tot_moved[cv] = tot_moved[best_c] = moves
            for u, w in zip(nbrs[v], wts[v]):
                nu = neigh_w[u]
                if nu is None:
                    continue  # built from comm at u's first visit
                rest = nu[cv] - w
                if rest:
                    nu[cv] = rest
                else:
                    del nu[cv]
                nu[best_c] = nu.get(best_c, 0) + w
            improved = True
    return comm, neigh_w, moves > 0


def _split(values: list, counts: np.ndarray) -> list[list]:
    """`values` cut into consecutive runs of counts[0], counts[1], ... items."""
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    return [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


@functools.lru_cache(maxsize=1)
def _canonical_order(nodes: tuple[str, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """Node indices sorted by gene ID (equal IDs keep index order), and each
    node's position in that order (read-only). Every graph of a sweep shares
    one node tuple, so a sweep sorts it once."""
    canon = tuple(sorted(range(len(nodes)), key=nodes.__getitem__))
    rank = np.empty(len(nodes), dtype=np.intp)
    rank[list(canon)] = np.arange(len(nodes))
    rank.flags.writeable = False
    return canon, rank


def _level0(edges: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level 0 in canonical space, where node v sits at rank[v]: each node's
    degree, and the destinations of both directions of each (u, v)-sorted
    edge, stably sorted by source. Each source thus lists its forward
    entries, then its reverse ones, each in edge order."""
    u, v = rank[edges[:, 0]], rank[edges[:, 1]]
    src, dst = np.concatenate((u, v)), np.concatenate((v, u))
    # on integers of 16 bits or fewer numpy's stable sort is a radix sort, and
    # a stable sort keeps equal keys in order, so the narrow key gives the
    # permutation of the int64 sort
    by_src = np.argsort(src.astype(np.min_scalar_type(len(rank))), kind="stable")
    return np.bincount(src, minlength=len(rank)), dst[by_src]


def _community_lists(
    comm: list[int], neigh_w: list[dict[int, int] | None], label_to_next: np.ndarray, n: int
) -> tuple[list[list[int]], list[list[int]]]:
    """The next level's neighbor and weight lists, its nodes being the communities.

    Each node's final map holds the weight of its edges into each community,
    so the maps list every edge between communities once from each side.
    Parallel edges are summed (exactly: the weights are integers) and edges
    inside a community dropped, since those only count in k.
    """
    src: list[int] = []
    dst: list[int] = []
    w: list[int] = []
    for cv, nw in zip(comm, neigh_w):
        if nw:
            src += [cv] * len(nw)
            dst += nw
            w += nw.values()
    src_n, dst_n = label_to_next[src], label_to_next[dst]
    between = src_n != dst_n
    key = src_n[between] * n + dst_n[between]
    # a stable argsort, not np.unique: the graph layer already runs it, and
    # np.unique would page in about 0.7 MiB more of numpy's code per process
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    summed = np.bincount(np.cumsum(first) - 1, weights=np.array(w)[between][by_key])
    src, dst = np.divmod(key[first], n)
    counts = np.bincount(src, minlength=n)
    return _split(dst.tolist(), counts), _split(summed.astype(np.int64).tolist(), counts)


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
    edges = [(core_pos[u], core_pos[v]) for u, v in g.edges.tolist()]
    deg = [0] * len(core)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1

    # Plain-Python Q: `modularity` costs one numpy call per enumerated partition.
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

    Multi-level greedy optimization (Louvain: local moves, then aggregation
    of communities into nodes, repeated until no node moves). Tiny graphs
    (non-isolated core of at most EXACT_NODE_LIMIT nodes) are instead solved
    exactly by partition enumeration, where greedy moves can provably stall
    below the optimum. The algorithm runs in a canonical node space ordered
    by gene ID, so the result depends only on the graph's structure and the
    seed, not on the input node ordering. Isolated nodes remain singleton
    communities (contributing 0 to Q). Raises for zero-edge graphs.

    Determinism contract: the partition and its Q are fixed by the graph and
    the seed, bit for bit. Three orders reach the output:

    - Visit order: at each level, one `shuffle` of `np.arange(n_level)` by
      `np.random.default_rng(seed)`; every pass of the level visits the
      nodes in that order. A node without neighbors is not visited, since
      it can never move.
    - Candidate scan: the node's own community first, scored after the node
      is removed from it, or a fresh singleton (gain 0) if that score is
      below -GAIN_TOL; then the neighboring communities in ascending label
      order. A candidate wins only by more than GAIN_TOL over the best so
      far, so a near-tie goes to the community scored first.
    - Label reuse: a fresh singleton takes the smallest freed label (a
      heap). The next level numbers the communities in ascending label order.

    Summation order does not matter: every edge weighs 1 at level 0, so the
    edge weights, degrees k and community totals tot at every level are sums
    of integers, held exactly as Python ints, and adjacency order is free.
    The one rounded expression is the gain `w_c - k_v * tot_c / (2m)`, always
    evaluated in that order from those integers. Level 0 still has one fixed
    adjacency order: node v's neighbors are its pairs (v, u) of `g.edges`,
    then its pairs (u, v), each in edge order, all in canonical space.

    Each node keeps a map from neighboring community to the weight of its
    edges into it, built at its first visit of the level and updated by
    each later move of a neighbor. A visit is skipped when the node stayed
    put at its last visit and no move since has changed tot of its own
    community or of any community now in its map. That covers every move
    of a neighbor too, since tot changes for the community the neighbor
    joins, which is then in the map. The node's gains are then the same
    numbers as at its last visit, so it would stay again, and a stay changes
    no state (`tot` is integer). Each move stamps the two communities whose
    tot it changes with the running move count.
    """
    if g.n_edges == 0:
        raise GraphError("community detection undefined for a zero-edge graph")
    n = g.n_nodes
    canon, rank = _canonical_order(g.nodes)
    deg = g.degrees().tolist()
    core = [v for v in canon if deg[v]]
    if len(core) <= EXACT_NODE_LIMIT:
        return _first_appearance_partition(g, _exact_partition(g, core))
    k, dst = _level0(g.edges, rank)
    nbrs = _split(dst.tolist(), k)
    wts = [_UNIT_WEIGHT] * n
    del dst
    m = float(g.n_edges)
    rng = np.random.default_rng(seed)
    membership = np.arange(n)  # canonical node -> node of the current level
    n_level = n
    while True:
        order = np.arange(n_level)
        rng.shuffle(order)
        comm, neigh_w, moved = _one_level(nbrs, wts, k.tolist(), m, order.tolist())
        del nbrs, wts  # free this level before building the next
        if not moved:
            break
        # communities become the next level's nodes, numbered in ascending label order
        used = np.zeros(n_level, dtype=bool)
        used[comm] = True
        label_to_next = np.cumsum(used) - 1
        to_next = label_to_next[comm]
        membership = to_next[membership]
        k = np.bincount(to_next, weights=k).astype(np.int64)
        n_level = int(used.sum())
        if n_level <= 1:
            break
        nbrs, wts = _community_lists(comm, neigh_w, label_to_next, n_level)
        del neigh_w

    return _first_appearance_partition(g, membership[rank].tolist())


def _first_appearance_partition(g: GeneGraph, per_node: list[int]) -> Partition:
    """The partition of `g` with community labels per node (original node
    order) renumbered 0..C-1 in order of first appearance."""
    relabel = {c: i for i, c in enumerate(dict.fromkeys(per_node))}
    final = [relabel[c] for c in per_node]
    return Partition(tuple(final), len(relabel), modularity(g, final))


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    modularity: float | None   # None when the thresholded graph has no edges
    n_edges: int
    n_communities: int


def sweep_thresholds(t_min: float, t_max: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (t_min, t_max, step))):
        raise ValidationError("sweep bounds and step must be finite")
    if step <= 0 or t_max < t_min:
        raise ValidationError("need step > 0 and t_max >= t_min")
    count = (t_max - t_min) / step + 1
    if count > MAX_THRESHOLDS:
        raise ValidationError(f"a sweep of {count:.0f} thresholds exceeds the limit of {MAX_THRESHOLDS}")
    # t_min + i * step to 10 decimals, held inside bounds finer than that rounding
    out: list[float] = []
    last = round(t_max, 10)
    i = 0
    while (t := round(t_min + i * step, 10)) <= last:
        t = min(max(t, t_min), t_max)
        if out and t <= out[-1]:
            raise ValidationError(f"step {step!r} is too small for thresholds rounded to 10 decimals")
        out.append(t)
        i += 1
    return out


def select_threshold(
    wg: WeightedGeneGraph, t_min: float, t_max: float, step: float, seed: int = 0,
    threads: int = 1,  # no flag or config key sets it; perfbench/workloads.py passes it
) -> tuple[GeneGraph, Partition, list[SweepRow]]:
    """Sweep thresholds, detect communities on each full thresholded graph,
    and return the graph/partition of maximum modularity (tie: smallest t).

    Candidates whose graph has no edges are recorded with modularity None and
    skipped by the argmax. A fixed threshold T is the sweep (T, T, 1). The
    sweep runs serially and keeps only the best graph so far; `threads` has
    no effect (community detection is pure Python under the GIL, where a
    thread pool measured slower than one thread).

    The weight matrix is scanned once, at the sweep's lowest threshold, into
    the (u, v)-sorted pairs above it and their weights. That scan is passed
    to each threshold's `threshold_graph` as `scan` and dropped when the call
    returns. Each graph keeps the pairs with weight >= t: the comparisons a
    full-matrix scan makes, so every graph has the same edges, and so the
    same partition.
    """
    thresholds = sweep_thresholds(t_min, t_max, step)
    table: list[SweepRow] = []
    best: tuple[GeneGraph, Partition] | None = None
    scan = _Sweep(wg, min(thresholds))
    for t in thresholds:
        g = threshold_graph(wg, t, scan=scan)
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
    write_rows(path, ["threshold", "modularity", "edges", "communities"],
               ([repr(r.threshold), "" if r.modularity is None else repr(r.modularity),
                 r.n_edges, r.n_communities] for r in table))


def write_edge_list(g: GeneGraph, path: str | Path) -> None:
    write_rows(path, ["src", "dst"], ((g.nodes[u], g.nodes[v]) for u, v in g.edges.tolist()),
               delimiter="\t")


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
        out.extend(f'    <edge source="{ids[u]}" target="{ids[v]}" />\n' for u, v in g.edges.tolist())
        out.append("  </graph>\n")
    out.append("</graphml>")
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write("".join(out))
