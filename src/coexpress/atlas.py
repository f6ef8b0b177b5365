"""Cross-network community comparison: tiers, key-gene tracking, colored exports."""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import ValidationError
from .graph import GeneGraph, Partition, giant_component, write_graphml
from .masks import GeneSet
from .textio import write_rows

logger = logging.getLogger(__name__)

# Community colors, indexed by size rank (rank 1 first); communities beyond
# the palette share the gray bucket. Neutral marks nodes absent from a
# reference partition.
PALETTE = (
    "#6434FC", "#32CB00", "#34CDF9", "#F8A102", "#F8FF00", "#FE0000",
    "#3531FF", "#FFCCC9", "#7B2D8B", "#00A884", "#B5651D", "#5C7A29",
    "#C71585", "#008B8B", "#8B4513", "#708090",
)
GRAY = "#9B9B9B"
NEUTRAL = "#DDDDDD"

CANONICAL_TIER_LABELS = ("set13", "set34_minus_13", "set133_minus_34", "set559_minus_133")


def tier_genes(sets: Sequence[GeneSet]) -> dict[str, int]:
    """Disjoint tier per gene from the strictly nested chain of `sets` (smallest first).

    The chain starts at the first set; a set equal to the last one kept is
    merged into it, and a set that does not strictly contain it is dropped
    with a warning. tier(g) is the index of the smallest kept set containing
    g; genes only in the largest get the outermost tier, and a single set is
    one tier.
    """
    if not sets:
        raise ValidationError("need at least 1 gene set")
    kept = [sets[0]]
    for gs in sets[1:]:
        prev, cur = set(kept[-1].gene_ids), set(gs.gene_ids)
        if prev < cur:
            kept.append(gs)
        elif prev == cur:
            logger.info("tier set %s equals %s; merged", gs.name, kept[-1].name)
        else:
            logger.warning("set %s does not nest over %s; dropped from tiers", gs.name, kept[-1].name)
    out: dict[str, int] = {}
    for tier, gs in enumerate(kept):
        for g in gs.gene_ids:
            out.setdefault(g, tier)
    return out


class CommunityNetwork(NamedTuple):
    graph: GeneGraph
    partition: Partition


@dataclass(frozen=True)
class CommunityRow:
    rank: int                  # 1-based, by size descending
    size: int
    tier_counts: tuple[int, ...]
    key_indices: tuple[int, ...]


@dataclass(frozen=True)
class AtlasEntry:
    cohort: str
    communities: tuple[CommunityRow, ...]

    @property
    def totals(self) -> tuple[int, ...]:
        if not self.communities:
            return ()
        n = len(self.communities[0].tier_counts)
        return tuple(sum(c.tier_counts[k] for c in self.communities) for k in range(n))

    @property
    def giant_size(self) -> int:
        return sum(c.size for c in self.communities)


def _ranked_communities(net: CommunityNetwork, keep: set[str] | None = None) -> list[list[str]]:
    """Each community's sorted member genes (those in `keep`, when given; a
    community with none is dropped), largest first, ties by smallest member."""
    nodes = net.graph.nodes
    groups = [sorted(nodes[i] for i in c if keep is None or nodes[i] in keep)
              for c in net.partition.communities()]
    return sorted((g for g in groups if g), key=lambda g: (-len(g), g[0]))


def build_atlas(
    networks: Mapping[str, CommunityNetwork],
    tiers: Mapping[str, int],
    key_index: Mapping[str, int],
    n_tiers: int,
) -> list[AtlasEntry]:
    """Per-cohort community table over the giant component.

    Communities are ranked by size descending (ties by smallest member gene
    ID); every giant-component gene must carry a tier so per-community tier
    counts sum to the community size.
    """
    entries: list[AtlasEntry] = []
    for cohort, net in networks.items():
        rows: list[CommunityRow] = []
        giant = set(giant_component(net.graph).nodes)
        for rank, members in enumerate(_ranked_communities(net, giant), start=1):
            counts = [0] * n_tiers
            for g in members:
                if g not in tiers:
                    raise ValidationError(f"gene {g!r} in cohort {cohort!r} has no tier")
                counts[tiers[g]] += 1
            keys = tuple(sorted(key_index[g] for g in members if g in key_index))
            rows.append(CommunityRow(rank, len(members), tuple(counts), keys))
        entries.append(AtlasEntry(cohort, tuple(rows)))
    return entries


def rank_color(rank: int) -> str:
    return PALETTE[rank] if rank < len(PALETTE) else GRAY


def cross_color(target: CommunityNetwork, reference: CommunityNetwork) -> dict[str, str]:
    """Color each target node by its community in the REFERENCE partition.

    Nodes absent from the reference get the neutral color. Colors index the
    palette by reference community size rank, so using the target itself as
    reference reproduces its own coloring.
    """
    ref_color = {gene: rank_color(rank)
                 for rank, members in enumerate(_ranked_communities(reference)) for gene in members}
    return {gene: ref_color.get(gene, NEUTRAL) for gene in target.graph.nodes}


def export_atlas(
    entries: Sequence[AtlasEntry],
    networks: Mapping[str, CommunityNetwork],
    tiers: Mapping[str, int],
    key_index: Mapping[str, int],
    out_dir: str | Path,
) -> None:
    """Write per-cohort community CSVs, a summary CSV, and colored GraphML
    files for every (target, reference) cohort pair.

    The tier columns are named by CANONICAL_TIER_LABELS for four tiers, else
    tier0, tier1, ...; node size tiers in the GraphML run largest for tier 0
    (most important).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_tiers = max(tiers.values()) + 1 if tiers else 0
    tier_labels = (
        CANONICAL_TIER_LABELS if n_tiers == 4 else tuple(f"tier{k}" for k in range(n_tiers))
    )

    for entry in entries:
        rows = ([row.rank, row.size, *row.tier_counts, " ".join(str(k) for k in row.key_indices)]
                for row in entry.communities)
        write_rows(out / f"{entry.cohort}_communities.csv",
                   ["community_rank", "size", *tier_labels, "key_indices"],
                   chain(rows, [["total", entry.giant_size, *entry.totals, ""]]))

    # an atlas network has nodes and edges
    write_rows(out / "summary.csv",
               ["cohort", "nodes", "edges", "average_degree", "modularity", "giant_size",
                "communities"],
               ([entry.cohort, g.n_nodes, g.n_edges, repr(2.0 * g.n_edges / g.n_nodes),
                 repr(p.q), entry.giant_size, len(entry.communities)]
                for entry in entries for g, p in [networks[entry.cohort]]))

    size_tier = {g: n_tiers - t for g, t in tiers.items()}  # tier 0 -> largest size
    for target_name, target in networks.items():
        nodes = target.graph.nodes
        node_attrs = {
            "size_tier": {g: size_tier.get(g, 0) for g in nodes},
            "key_gene_index": {g: key_index[g] for g in nodes if g in key_index},
            "community": {g: int(target.partition.membership[i]) for i, g in enumerate(nodes)},
        }
        for ref_name, ref in networks.items():
            attrs = {"color": cross_color(target, ref), **node_attrs}
            write_graphml(target.graph, out / f"{target_name}_colored_by_{ref_name}.graphml", attrs)
