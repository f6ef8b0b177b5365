"""End-to-end orchestration: config file, staged execution, per-stage seeds,
and a content-hashed run manifest."""
from __future__ import annotations

import configparser
import hashlib
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import __version__
from .atlas import CANONICAL_TIER_LABELS, CommunityNetwork, build_atlas, export_atlas, tier_genes
from .booster import BoosterConfig, ensemble_to_json, train
from .errors import GraphError, StageError, ValidationError
from .folds import FoldPlan, oversample, save_plan, stratified_folds
from .graph import build_weighted, giant_component, select_threshold, write_edge_list, write_graphml, write_sweep
from .masks import (
    GeneSet,
    build_masks,
    mask_correlations,
    save_gene_set,
    select_combined,
    select_three_mask_intersect,
    sweep_report,
    write_sweep_report,
)
from .matrix import cleanse, export_stats, filter_sites, gene_stats, load_matrix, write_matrix
from .normalize import NormalizationScheme, normalize_matrix
from .rfe import cross_validate_step, export_trace, recursive_eliminate, report_to_dict

logger = logging.getLogger(__name__)

MIN_RFE_GENES = 3


@dataclass
class PipelineConfig:
    matrix: Path
    labels: Path
    out: Path
    keep_sites: tuple[str, ...] | None = None
    scheme: str = "rank"
    epsilon: float = 1e-6
    select_sweep: tuple[float, float, float] = (0.05, 0.6, 0.05)
    t_intersect: float = 0.15
    t_combined: float = 0.2
    pair: tuple[str, str] | None = None
    k: int = 10
    factors: dict[str, int] | None = None   # None derives near-balancing extra copies
    booster: BoosterConfig = field(default_factory=BoosterConfig)
    drop_per_step: int = 1
    repeats: int = 1
    gcn_sweep: tuple[float, float, float] = (0.4, 0.9, 0.02)
    cohorts: tuple[str, ...] | None = None   # None = every site class
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        self.matrix = Path(self.matrix)
        self.labels = Path(self.labels)
        self.out = Path(self.out)
        if self.t_combined < self.t_intersect:
            raise ValidationError(
                "t_combined must be >= t_intersect so the selected sets nest"
            )


def _parse_triplet(text: str) -> tuple[float, float, float]:
    parts = [float(x) for x in text.split(":")]
    if len(parts) != 3:
        raise ValidationError(f"expected lo:hi:step, got {text!r}")
    return (parts[0], parts[1], parts[2])


def _parse_factors(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        site, _, count = item.partition(":")
        out[site.strip()] = int(count)
    return out


def load_config(path: str | Path, overrides: Mapping[str, str] | None = None) -> PipelineConfig:
    """Read the INI-style config; `overrides` (flag values) win over file keys."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValidationError(f"config file not found: {path}")
    overrides = dict(overrides or {})

    def get(section: str, key: str, default: str | None = None) -> str | None:
        if key in overrides and overrides[key] is not None:
            return overrides[key]
        return cp.get(section, key, fallback=default)

    matrix = get("input", "matrix")
    labels = get("input", "labels")
    out = get("run", "out")
    if not matrix or not labels or not out:
        raise ValidationError("config must provide input.matrix, input.labels, run.out")

    keep = get("input", "keep_sites")
    pair = get("select", "pair")
    factors = get("folds", "factors")
    cohorts = get("gcn", "cohorts")

    booster = BoosterConfig(
        learning_rate=float(get("booster", "learning_rate", "0.1")),
        max_depth=int(get("booster", "max_depth", "3")),
        n_estimators=int(get("booster", "n_estimators", "100")),
        reg_lambda=float(get("booster", "reg_lambda", "1")),
        gamma=float(get("booster", "gamma", "0")),
        min_child_weight=float(get("booster", "min_child_weight", "1")),
        subsample=float(get("booster", "subsample", "1")),
        colsample=float(get("booster", "colsample", "1")),
        base_score=float(get("booster", "base_score", "0.5")),
    )
    return PipelineConfig(
        matrix=Path(matrix),
        labels=Path(labels),
        out=Path(out),
        keep_sites=tuple(s.strip() for s in keep.split(",")) if keep else None,
        scheme=get("normalize", "scheme", "rank"),
        epsilon=float(get("normalize", "epsilon", "1e-6")),
        select_sweep=_parse_triplet(get("select", "sweep", "0.05:0.6:0.05")),
        t_intersect=float(get("select", "t_intersect", "0.15")),
        t_combined=float(get("select", "t_combined", "0.2")),
        pair=tuple(s.strip() for s in pair.split(",")) if pair else None,  # type: ignore[arg-type]
        k=int(get("folds", "k", "10")),
        factors=_parse_factors(factors) if factors else None,
        booster=booster,
        drop_per_step=int(get("rfe", "drop_per_step", "1")),
        repeats=int(get("rfe", "repeats", "1")),
        gcn_sweep=_parse_triplet(get("gcn", "sweep", "0.4:0.9:0.02")),
        cohorts=tuple(s.strip() for s in cohorts.split(",")) if cohorts else None,
        seed=int(get("run", "seed", "0")),
        threads=int(get("run", "threads", "1")),
    )


def stage_seed(root_seed: int, stage: str) -> int:
    """Stage-name-keyed derivation so all randomness flows from one root seed."""
    digest = hashlib.sha256(f"{root_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def derive_factors(labels: tuple[str, ...]) -> dict[str, int]:
    """Extra copies per site aiming each site at ~2x the largest class size."""
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    target = 2 * max(counts.values())
    return {site: max(0, round(target / n) - 1) for site, n in counts.items()}


def _default_pair(labels: tuple[str, ...]) -> tuple[str, str]:
    if "LN" in labels and "Bone" in labels:
        return ("LN", "Bone")
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    ordered = sorted(counts, key=lambda s: (-counts[s], s))
    return (ordered[0], ordered[1])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _sweep_values(lo: float, hi: float, step: float) -> list[float]:
    out = []
    i = 0
    while True:
        t = round(lo + i * step, 10)
        if t > hi + 1e-9:
            break
        out.append(t)
        i += 1
    return out


def _nested_sets(candidates: list[GeneSet]) -> list[GeneSet]:
    """Keep a strictly nested chain, smallest first; drops non-nesting candidates."""
    kept: list[GeneSet] = []
    for gs in candidates:
        if not kept:
            kept.append(gs)
            continue
        prev = set(kept[-1].gene_ids)
        cur = set(gs.gene_ids)
        if prev < cur:
            kept.append(gs)
        elif prev == cur:
            logger.info("tier set %s equals %s; merged", gs.name, kept[-1].name)
        else:
            logger.warning("set %s does not nest over %s; dropped from tiers", gs.name, kept[-1].name)
    return kept


# ---------------------------------------------------------------------------
# stages


def _stage_ingest(cfg: PipelineConfig, st: dict, out: Path) -> None:
    m = load_matrix(cfg.matrix, cfg.labels)
    if cfg.keep_sites:
        m = filter_sites(m, cfg.keep_sites)
    site_order = list(cfg.keep_sites) if cfg.keep_sites else list(dict.fromkeys(m.labels))
    m, report = cleanse(m, site_order)
    d = out / "ingest"
    d.mkdir(parents=True, exist_ok=True)
    write_matrix(m, d / "matrix.tsv", d / "labels.tsv")
    (d / "cleansing.json").write_text(
        json.dumps(
            {
                "removed_all_zero": report.removed_all_zero,
                "removed_duplicates": report.removed_duplicates,
                "truncation_applied": report.truncation_applied,
                "n_genes": m.n_genes,
                "n_samples": m.n_samples,
            },
            indent=2,
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    export_stats(gene_stats(m), "mean", d / "gene_stats.csv")
    st["clean"] = m


def _stage_normalize(cfg: PipelineConfig, st: dict, out: Path) -> None:
    scheme = NormalizationScheme(cfg.scheme, cfg.epsilon)
    m = normalize_matrix(st["clean"], scheme)
    d = out / "normalize"
    d.mkdir(parents=True, exist_ok=True)
    write_matrix(m, d / "matrix.tsv", d / "labels.tsv")
    st["norm"] = m


def _stage_select(cfg: PipelineConfig, st: dict, out: Path) -> None:
    m = st["norm"]
    mc = mask_correlations(m, build_masks(m.labels))
    pair = cfg.pair or _default_pair(m.labels)
    d = out / "select"
    d.mkdir(parents=True, exist_ok=True)
    write_sweep_report(sweep_report(mc, _sweep_values(*cfg.select_sweep), pair), d / "sweep.csv")
    primary = select_three_mask_intersect(mc, cfg.t_intersect, name="set_primary")
    refined = select_combined(mc, cfg.t_combined, pair, name="set_refined")
    if len(refined) == 0:
        raise ValidationError("combined selection kept no genes")
    save_gene_set(primary, d / "set_primary.genes")
    save_gene_set(refined, d / "set_refined.genes")
    st["primary"], st["refined"], st["pair"] = primary, refined, pair


def _stage_folds(cfg: PipelineConfig, st: dict, out: Path) -> None:
    m = st["norm"]
    seed = stage_seed(cfg.seed, "folds")
    raw = stratified_folds(m.labels, cfg.k, seed)
    factors = cfg.factors if cfg.factors is not None else derive_factors(m.labels)
    balanced = oversample(raw, factors)
    d = out / "folds"
    d.mkdir(parents=True, exist_ok=True)
    save_plan(raw, d / "plan_raw.json")
    save_plan(balanced, d / "plan_balanced.json")
    st["plan_raw"], st["plan_balanced"] = raw, balanced


def _booster_cfg(cfg: PipelineConfig) -> BoosterConfig:
    return replace(cfg.booster, seed=stage_seed(cfg.seed, "booster"))


def _run_rfe(
    cfg: PipelineConfig, st: dict, out: Path, stage: str, plan: FoldPlan, start: GeneSet
) -> tuple[GeneSet, np.ndarray]:
    """The stage's kept gene set and its genes' mean CV importance, in set order."""
    d = out / stage
    d.mkdir(parents=True, exist_ok=True)
    bcfg = _booster_cfg(cfg)
    if len(start) <= MIN_RFE_GENES:
        logger.warning("%s: start set has %d genes; skipping elimination", stage, len(start))
        step = cross_validate_step(st["norm"], start, plan, bcfg, cfg.repeats)
        (d / "cv_report.json").write_text(json.dumps(report_to_dict(step.report), indent=2, sort_keys=True))
        best = GeneSet(f"set_{stage}", start.gene_ids, provenance=f"{stage}: start set kept unchanged")
        save_gene_set(best, d / "best.genes")
        return best, step.importance
    trace = recursive_eliminate(
        st["norm"], start, plan, bcfg, drop_per_step=cfg.drop_per_step, repeats=cfg.repeats
    )
    export_trace(trace, d)
    (d / "cv_report.json").write_text(
        json.dumps(report_to_dict(trace.best.report), indent=2, sort_keys=True), encoding="utf-8"
    )
    best = GeneSet(
        f"set_{stage}",
        trace.best.genes.gene_ids,
        provenance=f"{stage} best step ({len(trace.best.genes)} genes, "
        f"accuracy {trace.best.report.accuracy:.4f})",
    )
    save_gene_set(best, d / "best.genes")
    return best, trace.best.importance


def _stage_rfe_raw(cfg: PipelineConfig, st: dict, out: Path) -> None:
    st["rfe_raw_best"], _ = _run_rfe(cfg, st, out, "rfe_raw", st["plan_raw"], st["refined"])


def _stage_rfe_balanced(cfg: PipelineConfig, st: dict, out: Path) -> None:
    # Chain from the raw run's best set when it is large enough: the key set
    # is then nested inside it by construction, which the atlas tiers need.
    start = st["rfe_raw_best"] if len(st["rfe_raw_best"]) > MIN_RFE_GENES + 1 else st["refined"]
    key, imp = _run_rfe(cfg, st, out, "rfe_balanced", st["plan_balanced"], start)
    ranked = sorted(range(len(key)), key=lambda i: (-imp[i], key.gene_ids[i]))
    st["key_set"] = key
    st["key_index"] = {key.gene_ids[i]: rank for rank, i in enumerate(ranked)}
    (out / "rfe_balanced" / "key_gene_indices.json").write_text(
        json.dumps(st["key_index"], indent=2, sort_keys=True), encoding="utf-8"
    )


def _stage_model(cfg: PipelineConfig, st: dict, out: Path) -> None:
    m = st["norm"]
    key = st["key_set"]
    X = m.values[m.gene_index(key.gene_ids)].T
    ens = train(X, list(m.labels), _booster_cfg(cfg))
    d = out / "model"
    d.mkdir(parents=True, exist_ok=True)
    (d / "model.json").write_text(ensemble_to_json(ens), encoding="utf-8")
    (d / "features.json").write_text(json.dumps(list(key.gene_ids), indent=2), encoding="utf-8")


def _export_network(d: Path, name: str, g, p, table) -> None:
    cd = d / name
    cd.mkdir(parents=True, exist_ok=True)
    write_sweep(table, cd / "sweep.csv")
    write_edge_list(g, cd / "edges.tsv")
    write_graphml(g, cd / "graph.graphml", {"community": {
        gene: int(p.membership[i]) for i, gene in enumerate(g.nodes)
    }})
    (cd / "partition.json").write_text(
        json.dumps(
            {"threshold": g.threshold, "modularity": p.q, "communities": p.n_communities,
             "membership": {gene: int(p.membership[i]) for i, gene in enumerate(g.nodes)}},
            indent=2, sort_keys=True,
        ),
        encoding="utf-8",
    )


def _stage_gcn(cfg: PipelineConfig, st: dict, out: Path) -> None:
    m = st["norm"]
    seed = stage_seed(cfg.seed, "gcn")
    d = out / "gcn"
    d.mkdir(parents=True, exist_ok=True)

    wg_all = build_weighted(m, st["primary"], None)
    g_all, p_all, table_all = select_threshold(
        wg_all, *cfg.gcn_sweep, seed=seed, threads=cfg.threads
    )
    _export_network(d, "all", g_all, p_all, table_all)
    networks: dict[str, CommunityNetwork] = {"all": CommunityNetwork(g_all, p_all)}

    # Downstream cohorts study only the all-cohort giant component's genes.
    giant_genes = tuple(giant_component(g_all).nodes)
    cohorts = cfg.cohorts if cfg.cohorts is not None else tuple(dict.fromkeys(m.labels))
    for site in cohorts:
        try:
            wg = build_weighted(m, giant_genes, site)
            g, p, table = select_threshold(wg, *cfg.gcn_sweep, seed=seed, threads=cfg.threads)
        except (GraphError, ValidationError) as exc:
            logger.warning("cohort %r network skipped: %s", site, exc)
            continue
        _export_network(d, site, g, p, table)
        networks[site] = CommunityNetwork(g, p)
    st["networks"] = networks


def _stage_atlas(cfg: PipelineConfig, st: dict, out: Path) -> None:
    nested = _nested_sets([st["key_set"], st["rfe_raw_best"], st["refined"], st["primary"]])
    tiers = tier_genes(nested) if len(nested) >= 2 else {g: 0 for g in nested[0].gene_ids}
    n_tiers = max(tiers.values()) + 1
    labels = CANONICAL_TIER_LABELS if n_tiers == 4 else None
    entries = build_atlas(st["networks"], tiers, st["key_index"], n_tiers)
    export_atlas(entries, st["networks"], tiers, st["key_index"], out / "atlas", labels)


STAGES: tuple[tuple[str, Callable[[PipelineConfig, dict, Path], None]], ...] = (
    ("ingest", _stage_ingest),
    ("normalize", _stage_normalize),
    ("select", _stage_select),
    ("folds", _stage_folds),
    ("rfe_raw", _stage_rfe_raw),
    ("rfe_balanced", _stage_rfe_balanced),
    ("model", _stage_model),
    ("gcn", _stage_gcn),
    ("atlas", _stage_atlas),
)


def _config_echo(cfg: PipelineConfig) -> dict:
    """Path-free config echo for the manifest (paths would break rerun identity)."""
    return {
        "keep_sites": list(cfg.keep_sites) if cfg.keep_sites else None,
        "scheme": cfg.scheme,
        "epsilon": cfg.epsilon,
        "select_sweep": list(cfg.select_sweep),
        "t_intersect": cfg.t_intersect,
        "t_combined": cfg.t_combined,
        "pair": list(cfg.pair) if cfg.pair else None,
        "k": cfg.k,
        "factors": dict(sorted(cfg.factors.items())) if cfg.factors else None,
        "booster": {
            "learning_rate": cfg.booster.learning_rate,
            "max_depth": cfg.booster.max_depth,
            "n_estimators": cfg.booster.n_estimators,
            "reg_lambda": cfg.booster.reg_lambda,
            "gamma": cfg.booster.gamma,
            "min_child_weight": cfg.booster.min_child_weight,
            "subsample": cfg.booster.subsample,
            "colsample": cfg.booster.colsample,
            "base_score": cfg.booster.base_score,
        },
        "drop_per_step": cfg.drop_per_step,
        "repeats": cfg.repeats,
        "gcn_sweep": list(cfg.gcn_sweep),
        "cohorts": list(cfg.cohorts) if cfg.cohorts else None,
    }


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Execute every stage and write MANIFEST.json; returns the manifest path.

    Any stage error aborts the run with the stage name; outputs produced so
    far are retained and a `.partial` marker naming the failed stage is left
    at the output root.
    """
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    marker = out / ".partial"
    state: dict = {}
    for name, fn in STAGES:
        logger.info("pipeline stage: %s", name)
        try:
            fn(cfg, state, out)
        except Exception as exc:
            marker.write_text(f"failed at stage: {name}\n{exc}\n", encoding="utf-8")
            raise StageError(name, exc) from exc
    if marker.exists():
        marker.unlink()

    outputs = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name not in ("MANIFEST.json", ".partial"):
            outputs[p.relative_to(out).as_posix()] = _sha256(p)
    manifest = {
        "tool": "coexpress",
        "version": __version__,
        "root_seed": cfg.seed,
        "threads": cfg.threads,
        "stage_seeds": {name: stage_seed(cfg.seed, name) for name in ("folds", "booster", "gcn")},
        "config": _config_echo(cfg),
        "inputs": {"matrix": _sha256(cfg.matrix), "labels": _sha256(cfg.labels)},
        "outputs": outputs,
    }
    path = out / "MANIFEST.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return path
