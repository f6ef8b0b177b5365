"""End-to-end orchestration: config file, staged execution, per-stage seeds,
and a content-hashed run manifest."""
from __future__ import annotations

import configparser
import hashlib
import io
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

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
    check_threshold,
    default_pair,
    mask_correlations,
    save_gene_set,
    select_combined,
    select_three_mask_intersect,
    write_sweep_report,
)
from .matrix import (
    ExpressionMatrix,
    check_pair,
    check_sites,
    cleanse,
    export_stats,
    gene_stats,
    load_matrix,
    write_matrix,
)
from .normalize import VARIANTS, NormalizationScheme, normalize_matrix
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
        check_settings(vars(self))


def _csv_list(text: str) -> tuple[str, ...]:
    """Comma-separated items, stripped, empty items dropped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_triplet(text: str) -> tuple[float, float, float]:
    lo, hi, step = (float(x) for x in text.split(":"))
    return (lo, hi, step)


def _parse_factors(text: str) -> dict[str, int]:
    items: list[tuple[str, int]] = []
    for item in _csv_list(text):
        site, _, count = item.partition(":")
        site = site.strip()
        if not site or not count.strip().isdecimal():
            raise ValueError(text)
        items.append((site, int(count)))
    sites = [site for site, _ in items]
    check_sites(sites, sites, "factors")  # each name is a label of its own list: repeats only
    return dict(items)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValidationError(message)


class Setting(NamedTuple):
    """A config key's field ([booster]: the BoosterConfig field), parser, check (or None) and flag help."""

    field: str
    parse: Callable[[str], object]
    check: Callable[[object], object] | None = None
    help: str | None = None


_BOOSTER_HELP = {"subsample": "row fraction per tree", "colsample": "feature fraction per tree",
                 "base_score": "initial class probability, in (0, 1)"}

# (section, key) -> Setting: the one definition of each setting, read by load_config,
# PipelineConfig and the subcommand flags that mirror a key (cli.build_parser)
SETTINGS: dict[tuple[str, str], Setting] = {
    ("input", "matrix"): Setting("matrix", Path),
    ("input", "labels"): Setting("labels", Path),
    ("input", "keep_sites"): Setting("keep_sites", _csv_list),
    ("normalize", "scheme"): Setting("scheme", str, NormalizationScheme, f"one of {', '.join(VARIANTS)}"),
    ("normalize", "epsilon"): Setting("epsilon", float, lambda eps: NormalizationScheme("logit", eps)),
    ("select", "sweep"): Setting("select_sweep", _parse_triplet,
                                 lambda sweep: [check_threshold(t) for t in sweep_thresholds(*sweep)],
                                 "t_min:t_max:step of the rule counts in sweep.csv"),
    ("select", "t_intersect"): Setting("t_intersect", float, check_threshold,
                                       "set_primary.genes: every |C_site| >= T"),
    ("select", "t_combined"): Setting("t_combined", float, check_threshold, "set_refined.genes: "
                                      "every |C_site| >= T, opposite signs on the pair"),
    ("select", "pair"): Setting("pair", _csv_list, help="discriminand pair, e.g. LN,Bone; "
                                "default LN,Bone, else the two largest classes"),
    ("folds", "k"): Setting("k", int, lambda k: _require(k >= 2, f"must be >= 2, got {k}")),
    ("folds", "factors"): Setting("factors", _parse_factors, help="balanced plan's extra copies per "
                                  "site, SITE:N,..., e.g. LN:1,Bone:2,Liver:5; empty derives them"),
    ("rfe", "drop_per_step"): Setting("drop_per_step", int,
                                      lambda n: _require(n >= 1, f"must be >= 1, got {n}")),
    ("rfe", "repeats"): Setting("repeats", int, lambda n: _require(n >= 1, f"must be >= 1, got {n}")),
    ("gcn", "sweep"): Setting("gcn_sweep", _parse_triplet, lambda sweep: sweep_thresholds(*sweep),
                              "t_min:t_max:step; T:T:1 fixes the threshold at T"),
    ("gcn", "cohorts"): Setting("cohorts", _csv_list, lambda cs: _require(
        ALL_SAMPLES not in cs, f"{ALL_SAMPLES!r} is not a site; the all-sample network is always built"),
        "site classes, each over the all-sample network's giant component; default every site"),
    ("run", "out"): Setting("out", Path),
    ("run", "seed"): Setting("seed", int, help="random seed"),
    **{("booster", name): Setting(name, type(default), help=_BOOSTER_HELP.get(name))
       for name, default in hyperparameters(BoosterConfig()).items()},
}


def parse_setting(section: str, key: str, text: str) -> object:
    parse = SETTINGS[section, key].parse
    try:
        return parse(text)
    except ValueError:
        kind = {int: "a whole number", float: "a number", _parse_triplet: "lo:hi:step",
                _parse_factors: "SITE:N,... with whole numbers N"}.get(parse, parse.__name__)
        raise ValidationError(f"[{section}] {key} = {text!r} is not {kind}") from None


def check_settings(values: Mapping[str, object]) -> None:
    """Check each setting whose field `values` holds (and is not None), naming
    its key, then the one rule across keys: the selected gene sets nest."""
    for (section, key), setting in SETTINGS.items():
        if setting.check and values.get(setting.field) is not None:
            try:
                setting.check(values[setting.field])
            except ValidationError as exc:
                raise ValidationError(f"[{section}] {key}: {exc}") from None
    if "t_combined" in values and values["t_combined"] < values["t_intersect"]:
        raise ValidationError("[select] t_combined must be >= t_intersect so the selected sets nest")


def load_config(path: str | Path) -> PipelineConfig:
    """Read the INI-style config.

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
    sections = {section for section, _ in SETTINGS}
    unknown = ["[DEFAULT]"] if cp.defaults() else []
    for section in cp.sections():
        if section not in sections:
            unknown.append(f"[{section}]")
        else:
            unknown += [f"[{section}] {key}" for key in cp.options(section)
                        if (section, key) not in SETTINGS and key not in cp.defaults()]
    if unknown:
        raise ValidationError(f"config {path} has unknown sections or keys: {', '.join(unknown)}")

    kwargs, booster = {}, {}
    for (section, key), s in SETTINGS.items():
        text = cp.get(section, key, fallback=None)
        if text:
            (booster if section == "booster" else kwargs)[s.field] = parse_setting(section, key, text)
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


# ---------------------------------------------------------------------------
# steps shared by the stages and the CLI subcommands


def _check_not_reserved(sites: Sequence[str]) -> None:
    if ALL_SAMPLES in sites:
        raise ValidationError(f"site label {ALL_SAMPLES!r} is reserved for the all-sample network")


def _write_bundle(m: ExpressionMatrix, d: Path) -> None:
    d.mkdir(parents=True, exist_ok=True)
    write_matrix(m, d / "matrix.tsv", d / "labels.tsv")


def _ingest(
    matrix: str | Path, labels: str | Path, keep_sites: Sequence[str] | None, d: Path
) -> ExpressionMatrix:
    """Load, keep `keep_sites` (all when empty), cleanse; write the bundle,
    cleansing.json and gene_stats.csv into `d`."""
    m = load_matrix(matrix, labels)
    check_sites(m.labels, keep_sites or (), "keep_sites")
    _check_not_reserved(keep_sites or m.labels)
    m, report = cleanse(m, keep_sites or None)
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


def _select(m: ExpressionMatrix, sweep: tuple[float, float, float], t_intersect: float,
            t_combined: float, pair: Sequence[str] | None, d: Path) -> tuple[GeneSet, GeneSet]:
    """The intersect rule's genes at `t_intersect` (set_primary) and the
    combined rule's at `t_combined` over `pair` (None = `default_pair` of the
    labels; set_refined), written into `d` with sweep.csv, each rule's
    kept-gene count at each threshold of `sweep` (settings checked by
    `check_settings`). A bad pair raises before `d` is made; a combined rule
    that keeps no gene raises after sweep.csv is written."""
    pair = check_pair(m.labels, pair) if pair else default_pair(m.labels)
    thresholds = sweep_thresholds(*sweep)
    mc = mask_correlations(m)
    d.mkdir(parents=True, exist_ok=True)
    write_sweep_report(mc, thresholds, pair, d / "sweep.csv")
    primary = select_three_mask_intersect(mc, t_intersect, name="set_primary")
    refined = select_combined(mc, t_combined, pair, name="set_refined")
    if len(refined) == 0:
        raise ValidationError("combined selection kept no genes")
    save_gene_set(primary, d / "set_primary.genes")
    save_gene_set(refined, d / "set_refined.genes")
    return primary, refined


def _folds(labels: Sequence[str], k: int, seed: int, factors: Mapping[str, int] | None,
           d: Path) -> tuple[FoldPlan, FoldPlan]:
    """The raw plan and the balanced plan (`factors` extra copies per site;
    None derives them), written into `d` as plan_raw.json and plan_balanced.json."""
    factors = derive_factors(labels) if factors is None else factors
    raw = stratified_folds(labels, k, seed)
    balanced = stratified_folds(labels, k, seed, factors)
    d.mkdir(parents=True, exist_ok=True)
    save_plan(raw, d / "plan_raw.json")
    save_plan(balanced, d / "plan_balanced.json")
    return raw, balanced


def _rfe(m: ExpressionMatrix, start: GeneSet, plan: FoldPlan, config: BoosterConfig,
         drop: int, repeats: int, d: Path) -> tuple[GeneSet, np.ndarray]:
    """Recursive elimination from `start`, its trace written into `d`. Returns
    the best step's genes as the set `set_<d.name>` and their mean CV
    importance, in set order."""
    trace = recursive_eliminate(m, start, plan, config, drop_per_step=drop, repeats=repeats)
    step = trace.best
    best = GeneSet(f"set_{d.name}", step.genes.gene_ids, provenance=f"{d.name} best step "
                   f"({len(step.genes)} genes, accuracy {step.report.accuracy:.4f})")
    export_trace(trace, d, best)
    return best, step.importance


def _model(m: ExpressionMatrix, genes: GeneSet, config: BoosterConfig, d: Path) -> BoostedEnsemble:
    """The booster trained on every sample of `m` over the rows of `genes`,
    written into `d` as model.json, with the genes in feature order as features.json."""
    ens = train(m.values[m.gene_index(genes.gene_ids)].T, list(m.labels), config)
    d.mkdir(parents=True, exist_ok=True)
    write_text(d / "model.json", ensemble_to_json(ens))
    write_json(d / "features.json", list(genes.gene_ids))
    return ens


def _cohort_network(m: ExpressionMatrix, genes: GeneSet | Sequence[str], cohort: str | None,
                    sweep: tuple[float, float, float], seed: int):
    """The |Pearson| network of `genes` over `cohort`'s samples (None = all) at
    the modularity-best threshold of `sweep`: (graph, partition, sweep table)."""
    wg = build_weighted(m, genes, cohort)
    return select_threshold(wg, *sweep, seed=seed)


def _networks(m: ExpressionMatrix, genes: GeneSet | Sequence[str], cohorts: Sequence[str] | None,
              sweep: tuple[float, float, float], seed: int):
    """Yield (name, graph, partition, sweep table): the all-sample network of
    `genes` as ALL_SAMPLES, then each site of `cohorts` (None = every site
    label, in order of first appearance) over the genes of the all-sample
    network's giant component. A repeated or unknown site or a site labelled
    ALL_SAMPLES raises before any network is built, and so does a failing
    all-sample network; a site network that fails on the data is skipped
    with a warning."""
    check_sites(m.labels, cohorts or (), "cohorts")
    _check_not_reserved(m.labels)
    g, p, table = _cohort_network(m, genes, None, sweep, seed)
    yield ALL_SAMPLES, g, p, table
    giant_genes = tuple(giant_component(g).nodes)
    for site in cohorts if cohorts is not None else dict.fromkeys(m.labels):
        try:
            g, p, table = _cohort_network(m, giant_genes, site, sweep, seed)
        except (GraphError, ValidationError) as exc:
            logger.warning("cohort %r network skipped: %s", site, exc)
            continue
        yield site, g, p, table


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
    m = st["clean"] = _ingest(cfg.matrix, cfg.labels, cfg.keep_sites, out / "ingest")
    # the other site lists, checked here so that they fail before the RFE stages run
    check_sites(m.labels, cfg.cohorts or (), "cohorts")
    check_sites(m.labels, cfg.factors or (), "factors")
    check_pair(m.labels, cfg.pair or default_pair(m.labels))  # a default pair needs two sites


def _stage_normalize(cfg: PipelineConfig, st: dict, out: Path) -> None:
    scheme = NormalizationScheme(cfg.scheme, cfg.epsilon)
    st["norm"] = _normalize(st.pop("clean"), scheme, out / "normalize")  # no later stage reads it


def _stage_select(cfg: PipelineConfig, st: dict, out: Path) -> None:
    st["primary"], st["refined"] = _select(st["norm"], cfg.select_sweep, cfg.t_intersect,
                                           cfg.t_combined, cfg.pair, out / "select")


def _stage_folds(cfg: PipelineConfig, st: dict, out: Path) -> None:
    st["plan_raw"], st["plan_balanced"] = _folds(
        st["norm"].labels, cfg.k, stage_seed(cfg.seed, "folds"), cfg.factors, out / "folds")


def _booster_cfg(cfg: PipelineConfig) -> BoosterConfig:
    return replace(cfg.booster, seed=stage_seed(cfg.seed, "booster"))


def _stage_rfe_raw(cfg: PipelineConfig, st: dict, out: Path) -> None:
    st["rfe_raw_best"], _ = _rfe(st["norm"], st["refined"], st["plan_raw"], _booster_cfg(cfg),
                                 cfg.drop_per_step, cfg.repeats, out / "rfe_raw")


def _stage_rfe_balanced(cfg: PipelineConfig, st: dict, out: Path) -> None:
    # Chain from the raw run's best set when it is large enough: the key set
    # is then nested inside it by construction, which the atlas tiers need.
    start = st["rfe_raw_best"] if len(st["rfe_raw_best"]) > MIN_RFE_GENES + 1 else st["refined"]
    d = out / "rfe_balanced"
    key, imp = _rfe(st["norm"], start, st["plan_balanced"], _booster_cfg(cfg),
                    cfg.drop_per_step, cfg.repeats, d)
    ranked = sorted(range(len(key)), key=lambda i: (-imp[i], key.gene_ids[i]))
    st["key_set"] = key
    st["key_index"] = {key.gene_ids[i]: rank for rank, i in enumerate(ranked)}
    write_json(d / "key_gene_indices.json", st["key_index"])


def _stage_model(cfg: PipelineConfig, st: dict, out: Path) -> None:
    _model(st["norm"], st["key_set"], _booster_cfg(cfg), out / "model")


def _stage_gcn(cfg: PipelineConfig, st: dict, out: Path) -> None:
    st["networks"] = {}
    for name, g, p, table in _networks(st["norm"], st["primary"], cfg.cohorts, cfg.gcn_sweep,
                                       stage_seed(cfg.seed, "gcn")):
        _export_network(out / "gcn" / name, g, p, table)
        st["networks"][name] = CommunityNetwork(g, p)


def _stage_atlas(cfg: PipelineConfig, st: dict, out: Path) -> None:
    tiers = tier_genes([st["key_set"], st["rfe_raw_best"], st["refined"], st["primary"]])
    _atlas(tiers, st["networks"], st["key_index"], out / "atlas")


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
    for (section, _), setting in SETTINGS.items():
        if section != "booster" and setting.parse is not Path and setting.field != "seed":
            value = getattr(cfg, setting.field)
            echo[setting.field] = list(value) if isinstance(value, tuple) else value
    return echo


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Execute every stage and write MANIFEST.json; returns the manifest path.

    The output directory must be empty or absent, so that the manifest lists
    only this run's files. Any stage error aborts the run with the stage
    name; outputs produced so far are retained and a `.partial` marker naming
    the failed stage is left at the output root.
    """
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    if next(out.iterdir(), None) is not None:
        raise ValidationError(f"output directory {out} is not empty")
    state: dict = {}
    for name, fn in STAGES:
        logger.info("pipeline stage: %s", name)
        try:
            fn(cfg, state, out)
        except Exception as exc:
            write_text(out / ".partial", f"failed at stage: {name}\n{exc}\n")
            raise StageError(name, exc) from exc

    outputs = {p.relative_to(out).as_posix(): _sha256(p)
               for p in sorted(out.rglob("*")) if p.is_file()}
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
