"""Cross-network community comparison: tiers, key-gene tracking, colored exports."""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import ValidationError
from .graph import GeneGraph, NetworkSummary, Partition, giant_component, network_summary, write_graphml
from .masks import GeneSet

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
    """Disjoint tier per gene from strictly nested sets (smallest first).

    tier(g) is the index of the smallest set containing g; genes only in the
    largest set get the outermost tier, and a single set is one tier. Raises
    unless each set is a strict subset of the next.
    """
    if not sets:
        raise ValidationError("need at least 1 gene set")
    as_sets = [set(s.gene_ids) for s in sets]
    for a, b in zip(as_sets, as_sets[1:]):
        if not a < b:
            raise ValidationError("sets must be strictly nested, smallest first")
    out: dict[str, int] = {}
    for tier, s in enumerate(as_sets):
        for g in s:
            if g not in out:
                out[g] = tier
    return out


class CommunityNetwork(NamedTuple):
    graph: GeneGraph
    partition: Partition


@dataclass(frozen=True)
class CommunityRow:
    rank: int                  # 1-based, by size descending
    size: int
    members: tuple[str, ...]
    tier_counts: tuple[int, ...]
    key_indices: tuple[int, ...]


@dataclass(frozen=True)
class AtlasEntry:
    cohort: str
    summary: NetworkSummary
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


def _giant_communities(net: CommunityNetwork) -> list[list[str]]:
    giant = giant_component(net.graph)
    giant_set = set(giant.nodes)
    by_comm: dict[int, list[str]] = {}
    for i, gene in enumerate(net.graph.nodes):
        if gene in giant_set:
            by_comm.setdefault(net.partition.membership[i], []).append(gene)
    groups = [sorted(g) for g in by_comm.values()]
    groups.sort(key=lambda g: (-len(g), g[0]))
    return groups


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
        for rank, members in enumerate(_giant_communities(net), start=1):
            counts = [0] * n_tiers
            for g in members:
                if g not in tiers:
                    raise ValidationError(f"gene {g!r} in cohort {cohort!r} has no tier")
                counts[tiers[g]] += 1
            keys = tuple(sorted(key_index[g] for g in members if g in key_index))
            rows.append(CommunityRow(rank, len(members), tuple(members), tuple(counts), keys))
        entries.append(AtlasEntry(cohort, network_summary(net.graph, net.partition), tuple(rows)))
    return entries


def _community_ranks(net: CommunityNetwork) -> dict[int, int]:
    """community index -> size rank (0-based), ties by smallest member gene ID."""
    groups: dict[int, list[str]] = {}
    for i, gene in enumerate(net.graph.nodes):
        groups.setdefault(net.partition.membership[i], []).append(gene)
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), min(kv[1])))
    return {comm: rank for rank, (comm, _) in enumerate(ordered)}


def rank_color(rank: int) -> str:
    return PALETTE[rank] if rank < len(PALETTE) else GRAY


def cross_color(target: CommunityNetwork, reference: CommunityNetwork) -> dict[str, str]:
    """Color each target node by its community in the REFERENCE partition.

    Nodes absent from the reference get the neutral color. Colors index the
    palette by reference community size rank, so using the target itself as
    reference reproduces its own coloring.
    """
    ranks = _community_ranks(reference)
    ref_comm = {gene: reference.partition.membership[i] for i, gene in enumerate(reference.graph.nodes)}
    out: dict[str, str] = {}
    for gene in target.graph.nodes:
        if gene in ref_comm:
            out[gene] = rank_color(ranks[ref_comm[gene]])
        else:
            out[gene] = NEUTRAL
    return out


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
        with open(out / f"{entry.cohort}_communities.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["community_rank", "size", *tier_labels, "key_indices"])
            for row in entry.communities:
                w.writerow([
                    row.rank, row.size, *row.tier_counts,
                    " ".join(str(k) for k in row.key_indices),
                ])
            w.writerow(["total", entry.giant_size, *entry.totals, ""])

    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([
            "cohort", "nodes", "edges", "average_degree", "modularity",
            "giant_size", "communities",
        ])
        for entry in entries:
            s = entry.summary
            w.writerow([
                entry.cohort, s.n_nodes, s.n_edges, repr(s.average_degree),
                repr(s.modularity), entry.giant_size, len(entry.communities),
            ])

    size_tier = {g: n_tiers - t for g, t in tiers.items()}  # tier 0 -> largest size
    for target_name, target in networks.items():
        for ref_name, ref in networks.items():
            colors = cross_color(target, ref)
            attrs = {
                "color": colors,
                "size_tier": {g: size_tier.get(g, 0) for g in target.graph.nodes},
                "key_gene_index": {g: key_index[g] for g in target.graph.nodes if g in key_index},
                "community": {
                    g: int(target.partition.membership[i])
                    for i, g in enumerate(target.graph.nodes)
                },
            }
            write_graphml(target.graph, out / f"{target_name}_colored_by_{ref_name}.graphml", attrs)
