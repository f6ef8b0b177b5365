"""End-to-end orchestration: config file, staged execution, per-stage seeds,
and a content-hashed run manifest."""
from __future__ import annotations

import configparser
import hashlib
import io
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .atlas import CommunityNetwork, build_atlas, export_atlas, tier_genes
from .booster import BoostedEnsemble, BoosterConfig, ensemble_to_json, hyperparameters, train
from .errors import GraphError, StageError, ValidationError
from .folds import FoldPlan, save_plan, stratified_folds
from .graph import (
    build_weighted,
    giant_component,
    select_threshold,
    sweep_thresholds,
    write_edge_list,
    write_graphml,
    write_sweep,
)
from .masks import (
    GeneSet,
    default_pair,
    mask_correlations,
    save_gene_set,
    select_combined,
    select_three_mask_intersect,
    write_sweep_report,
)
from .matrix import ExpressionMatrix, cleanse, export_stats, filter_sites, gene_stats, load_matrix, write_matrix
from .normalize import NormalizationScheme, normalize_matrix
from .rfe import MIN_RFE_GENES, export_trace, recursive_eliminate
from .textio import read_text, write_json, write_text

logger = logging.getLogger(__name__)

ALL_SAMPLES = "all"  # the all-sample network's cohort name; no site may take it


@dataclass
class PipelineConfig:
    matrix: Path
    labels: Path
    out: Path
    keep_sites: tuple[str, ...] | None = None
    scheme: str = "rank"
    epsilon: float = NormalizationScheme.epsilon
    select_sweep: tuple[float, float, float] = (0.05, 0.6, 0.05)
    t_intersect: float = 0.15
    t_combined: float = 0.2
    pair: tuple[str, str] | None = None     # None = masks.default_pair of the labels
    k: int = 10
    factors: dict[str, int] | None = None   # None derives near-balancing extra copies
    booster: BoosterConfig = field(default_factory=BoosterConfig)
    drop_per_step: int = 1
    repeats: int = 1
    gcn_sweep: tuple[float, float, float] = (0.4, 0.9, 0.02)
    cohorts: tuple[str, ...] | None = None   # None = every site class
    seed: int = 0
    threads: int = 1   # no config key or flag; kept because perfbench/workloads.py passes it

    def __post_init__(self):
        self.matrix = Path(self.matrix)
        self.labels = Path(self.labels)
        self.out = Path(self.out)
        if self.t_combined < self.t_intersect:
            raise ValidationError(
                "t_combined must be >= t_intersect so the selected sets nest"
            )
        for key, sweep in (("[select] sweep", self.select_sweep), ("[gcn] sweep", self.gcn_sweep)):
            try:
                sweep_thresholds(*sweep)
            except ValidationError as exc:
                raise ValidationError(f"config {key}: {exc}") from None
        if ALL_SAMPLES in (self.cohorts or ()):
            raise ValidationError(f"config [gcn] cohorts: {ALL_SAMPLES!r} is not a site; "
                                  f"the all-sample network is always built")


def _csv_list(text: str) -> tuple[str, ...]:
    """Comma-separated items, stripped, empty items dropped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_triplet(text: str) -> tuple[float, float, float]:
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValidationError(f"expected lo:hi:step, got {text!r}") from None
    return (lo, hi, step)


def _parse_factors(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in _csv_list(text):
        site, _, count = item.partition(":")
        site = site.strip()
        if not site or not count.strip().isdecimal():
            raise ValidationError(f"expected SITE:N,..., got {text!r}")
        if site in out:
            raise ValidationError(f"site {site!r} is given more than once in {text!r}")
        out[site] = int(count)
    return out


# (section, key) -> (PipelineConfig field, parser); [booster] keys are the BoosterConfig fields
_CONFIG_KEYS: dict[tuple[str, str], tuple[str, Callable[[str], object]]] = {
    ("input", "matrix"): ("matrix", Path),
    ("input", "labels"): ("labels", Path),
    ("input", "keep_sites"): ("keep_sites", _csv_list),
    ("normalize", "scheme"): ("scheme", str),
    ("normalize", "epsilon"): ("epsilon", float),
    ("select", "sweep"): ("select_sweep", _parse_triplet),
    ("select", "t_intersect"): ("t_intersect", float),
    ("select", "t_combined"): ("t_combined", float),
    ("select", "pair"): ("pair", _csv_list),
    ("folds", "k"): ("k", int),
    ("folds", "factors"): ("factors", _parse_factors),
    ("rfe", "drop_per_step"): ("drop_per_step", int),
    ("rfe", "repeats"): ("repeats", int),
    ("gcn", "sweep"): ("gcn_sweep", _parse_triplet),
    ("gcn", "cohorts"): ("cohorts", _csv_list),
    ("run", "out"): ("out", Path),
    ("run", "seed"): ("seed", int),
}


def _read_key(section: str, key: str, parse: Callable[[str], object], text: str) -> object:
    try:
        return parse(text)
    except ValueError:
        kind = {int: "a whole number", float: "a number"}.get(parse, parse.__name__)
        raise ValidationError(f"config [{section}] {key} = {text!r} is not {kind}") from None


def load_config(path: str | Path, overrides: Mapping[str, str] | None = None) -> PipelineConfig:
    """Read the INI-style config; `overrides` (flag values, by key) win over file keys.

    Keys left unset (or empty) take their PipelineConfig / BoosterConfig defaults;
    a section or key that is not in the table is an error.
    """
    if not Path(path).is_file():
        raise ValidationError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        # universal newlines, as open() reads text: "\r\n" and a lone "\r" end a line
        cp.read_file(io.StringIO(read_text(path), newline=None), source=str(path))
    except configparser.Error as exc:
        raise ValidationError(f"config {path} does not parse: {str(exc).splitlines()[0]}") from None
    keys = {**_CONFIG_KEYS, **{("booster", name): (name, type(default))
                               for name, default in hyperparameters(BoosterConfig()).items()}}
    sections = {section for section, _ in keys}
    unknown = ["[DEFAULT]"] if cp.defaults() else []
    for section in cp.sections():
        if section not in sections:
            unknown.append(f"[{section}]")
        else:
            unknown += [f"[{section}] {key}" for key in cp.options(section)
                        if (section, key) not in keys and key not in cp.defaults()]
    if unknown:
        raise ValidationError(f"config {path} has unknown sections or keys: {', '.join(unknown)}")

    overrides = overrides or {}
    kwargs, booster = {}, {}
    for (section, key), (name, parse) in keys.items():
        text = overrides.get(key, cp.get(section, key, fallback=None))
        if text:
            (booster if section == "booster" else kwargs)[name] = _read_key(section, key, parse, text)
    if not {"matrix", "labels", "out"} <= kwargs.keys():
        raise ValidationError("config must provide input.matrix, input.labels, run.out")
    return PipelineConfig(booster=BoosterConfig(**booster), **kwargs)


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


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


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
# steps shared by the stages and the CLI subcommands


def _write_bundle(m: ExpressionMatrix, d: Path) -> None:
    d.mkdir(parents=True, exist_ok=True)
    write_matrix(m, d / "matrix.tsv", d / "labels.tsv")


def _ingest(
    matrix: str | Path, labels: str | Path, keep_sites: Sequence[str] | None, d: Path
) -> ExpressionMatrix:
    """Load, keep `keep_sites` (all when empty), cleanse; write the bundle,
    cleansing.json and gene_stats.csv into `d`."""
    m = load_matrix(matrix, labels)
    if keep_sites:
        m = filter_sites(m, keep_sites)
    if ALL_SAMPLES in m.labels:
        raise ValidationError(f"site label {ALL_SAMPLES!r} is reserved for the all-sample network")
    site_order = list(keep_sites) if keep_sites else list(dict.fromkeys(m.labels))
    m, report = cleanse(m, site_order)
    _write_bundle(m, d)
    write_json(d / "cleansing.json", {
        "removed_all_zero": report.removed_all_zero,
        "removed_duplicates": report.removed_duplicates,
        "truncation_applied": True,  # cleanse always truncates
        "n_genes": m.n_genes,
        "n_samples": m.n_samples,
    })
    export_stats(gene_stats(m), d / "gene_stats.csv")
    return m


def _normalize(m: ExpressionMatrix, scheme: NormalizationScheme, d: Path) -> ExpressionMatrix:
    out = normalize_matrix(m, scheme)
    _write_bundle(out, d)
    return out


def _fit(m: ExpressionMatrix, genes: GeneSet, config: BoosterConfig) -> BoostedEnsemble:
    """The booster trained on every sample of `m`, over the rows of `genes`."""
    return train(m.values[m.gene_index(genes.gene_ids)].T, list(m.labels), config)


def _cohort_network(
    m: ExpressionMatrix,
    genes: GeneSet | Sequence[str],
    cohort: str | None,
    sweep: tuple[float, float, float],
    seed: int,
    override: float | None = None,
):
    """The |Pearson| network of `genes` over `cohort`'s samples (None = all) at
    the modularity-best threshold of `sweep`: (graph, partition, sweep table)."""
    wg = build_weighted(m, genes, cohort)
    return select_threshold(wg, *sweep, override=override, seed=seed)


def _check_cohorts(labels: Sequence[str], cohorts: Sequence[str]) -> None:
    """Raise unless each cohort is a site label of `labels` or ALL_SAMPLES, named once."""
    sites = dict.fromkeys(labels)
    unknown = [c for c in cohorts if c != ALL_SAMPLES and c not in sites]
    if unknown:
        raise ValidationError(
            f"cohort {unknown[0]!r} is neither a site label ({', '.join(sites)}) nor {ALL_SAMPLES!r}"
        )
    repeated = [c for i, c in enumerate(cohorts) if c in cohorts[:i]]
    if repeated:
        raise ValidationError(f"cohort {repeated[0]!r} is listed more than once")


def _check_factors(labels: Sequence[str], factors: Mapping[str, int]) -> None:
    """Raise unless each site of `factors` is a site label of `labels`."""
    sites = dict.fromkeys(labels)
    absent = [site for site in factors if site not in sites]
    if absent:
        raise ValidationError(
            f"factor site {absent[0]!r} has no samples (sites: {', '.join(sites)})"
        )


def _cohort_networks(m: ExpressionMatrix, genes: Sequence[str], cohorts: Sequence[str],
                     sweep: tuple[float, float, float], seed: int):
    """Yield (cohort, graph, partition, sweep table) per cohort whose network
    builds, in order; ALL_SAMPLES is every sample. An unknown name, a gene not
    in `m` or a bad sweep raises before any network is built; a network that
    fails on the data is skipped with a warning."""
    _check_cohorts(m.labels, cohorts)
    m.gene_index(genes)
    sweep_thresholds(*sweep)
    for cohort in cohorts:
        try:
            g, p, table = _cohort_network(m, genes, None if cohort == ALL_SAMPLES else cohort,
                                          sweep, seed)
        except (GraphError, ValidationError) as exc:
            logger.warning("cohort %r network skipped: %s", cohort, exc)
            continue
        yield cohort, g, p, table


def _export_network(d: Path, g, p, table) -> None:
    d.mkdir(parents=True, exist_ok=True)
    membership = {gene: int(p.membership[i]) for i, gene in enumerate(g.nodes)}
    write_sweep(table, d / "sweep.csv")
    write_edge_list(g, d / "edges.tsv")
    write_graphml(g, d / "graph.graphml", {"community": membership})
    write_json(d / "partition.json", {"threshold": g.threshold, "modularity": p.q,
                                      "communities": p.n_communities, "membership": membership})


def _atlas(tiers: Mapping[str, int], networks: Mapping[str, CommunityNetwork],
           key_index: Mapping[str, int], d: Path) -> None:
    """Build the atlas of `networks` over the gene tiers (`tier_genes`) and write it into `d`."""
    entries = build_atlas(networks, tiers, key_index, max(tiers.values()) + 1)
    export_atlas(entries, networks, tiers, key_index, d)


# ---------------------------------------------------------------------------
# stages


def _stage_ingest(cfg: PipelineConfig, st: dict, out: Path) -> None:
    st["clean"] = _ingest(cfg.matrix, cfg.labels, cfg.keep_sites, out / "ingest")
    # fail before the RFE stages run
    _check_cohorts(st["clean"].labels, cfg.cohorts or ())
    _check_factors(st["clean"].labels, cfg.factors or {})


def _stage_normalize(cfg: PipelineConfig, st: dict, out: Path) -> None:
    scheme = NormalizationScheme(cfg.scheme, cfg.epsilon)
    st["norm"] = _normalize(st.pop("clean"), scheme, out / "normalize")  # no later stage reads it


def _stage_select(cfg: PipelineConfig, st: dict, out: Path) -> None:
    m = st["norm"]
    mc = mask_correlations(m)
    pair = cfg.pair or default_pair(m.labels)
    d = out / "select"
    d.mkdir(parents=True, exist_ok=True)
    write_sweep_report(mc, sweep_thresholds(*cfg.select_sweep), pair, d / "sweep.csv")
    primary = select_three_mask_intersect(mc, cfg.t_intersect, name="set_primary")
    refined = select_combined(mc, cfg.t_combined, pair, name="set_refined")
    if len(refined) == 0:
        raise ValidationError("combined selection kept no genes")
    save_gene_set(primary, d / "set_primary.genes")
    save_gene_set(refined, d / "set_refined.genes")
    st["primary"], st["refined"] = primary, refined


def _stage_folds(cfg: PipelineConfig, st: dict, out: Path) -> None:
    m = st["norm"]
    seed = stage_seed(cfg.seed, "folds")
    factors = cfg.factors if cfg.factors is not None else derive_factors(m.labels)
    raw = stratified_folds(m.labels, cfg.k, seed)
    balanced = stratified_folds(m.labels, cfg.k, seed, factors)
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
    trace = recursive_eliminate(
        st["norm"], start, plan, _booster_cfg(cfg), drop_per_step=cfg.drop_per_step,
        repeats=cfg.repeats,
    )
    best = GeneSet(
        f"set_{stage}",
        trace.best.genes.gene_ids,
        provenance=f"{stage} best step ({len(trace.best.genes)} genes, "
        f"accuracy {trace.best.report.accuracy:.4f})",
    )
    export_trace(trace, out / stage, best)
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
    write_json(out / "rfe_balanced" / "key_gene_indices.json", st["key_index"])


def _stage_model(cfg: PipelineConfig, st: dict, out: Path) -> None:
    key = st["key_set"]
    ens = _fit(st["norm"], key, _booster_cfg(cfg))
    d = out / "model"
    d.mkdir(parents=True, exist_ok=True)
    write_text(d / "model.json", ensemble_to_json(ens))
    write_json(d / "features.json", list(key.gene_ids))


def _stage_gcn(cfg: PipelineConfig, st: dict, out: Path) -> None:
    m = st["norm"]
    seed = stage_seed(cfg.seed, "gcn")
    d = out / "gcn"

    g_all, p_all, table_all = _cohort_network(m, st["primary"], None, cfg.gcn_sweep, seed)
    _export_network(d / ALL_SAMPLES, g_all, p_all, table_all)
    networks: dict[str, CommunityNetwork] = {ALL_SAMPLES: CommunityNetwork(g_all, p_all)}

    # Downstream cohorts study only the all-cohort giant component's genes.
    giant_genes = tuple(giant_component(g_all).nodes)
    cohorts = cfg.cohorts if cfg.cohorts is not None else tuple(dict.fromkeys(m.labels))
    for site, g, p, table in _cohort_networks(m, giant_genes, cohorts, cfg.gcn_sweep, seed):
        _export_network(d / site, g, p, table)
        networks[site] = CommunityNetwork(g, p)
    st["networks"] = networks


def _stage_atlas(cfg: PipelineConfig, st: dict, out: Path) -> None:
    nested = _nested_sets([st["key_set"], st["rfe_raw_best"], st["refined"], st["primary"]])
    _atlas(tier_genes(nested), st["networks"], st["key_index"], out / "atlas")


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
    """Every config-file setting but the paths (they would break rerun identity)
    and the seed (the manifest's `root_seed`), with tuples as lists."""
    echo = {"booster": hyperparameters(cfg.booster)}
    for name, parse in _CONFIG_KEYS.values():
        if parse is not Path and name != "seed":
            value = getattr(cfg, name)
            echo[name] = list(value) if isinstance(value, tuple) else value
    return echo


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
            write_text(marker, f"failed at stage: {name}\n{exc}\n")
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
    write_json(path, manifest)
    return path
