"""End-to-end orchestration: config file, staged execution, per-stage seeds,
and a content-hashed run manifest."""
from __future__ import annotations

import configparser
import hashlib
import io
import logging
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .atlas import CommunityNetwork, build_atlas, export_atlas, tier_genes
from .booster import RULES, BoosterConfig, check_rule, ensemble_to_json, hyperparameters, train
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


# (section, key) -> Setting: the one definition of each setting, read by load_config,
# PipelineConfig and the subcommand flags that mirror a key (cli.build_parser)
SETTINGS: dict[tuple[str, str], Setting] = {
    ("input", "matrix"): Setting("matrix", Path, help="expression matrix file, genes by samples"),
    ("input", "labels"): Setting("labels", Path, help="label file, one sample_id<TAB>site per line"),
    ("input", "keep_sites"): Setting("keep_sites", _csv_list, help="sites to keep, in order; default all"),
    ("normalize", "scheme"): Setting("scheme", str, NormalizationScheme, f"one of {', '.join(VARIANTS)}"),
    ("normalize", "epsilon"): Setting("epsilon", float, lambda eps: NormalizationScheme("logit", eps),
                                      "logit schemes clamp values into [eps, 1 - eps]; in (0, 0.5)"),
    ("select", "sweep"): Setting("select_sweep", _parse_triplet,
                                 lambda sweep: [check_threshold(t) for t in sweep_thresholds(*sweep)],
                                 "t_min:t_max:step of the rule counts in sweep.csv"),
    ("select", "t_intersect"): Setting("t_intersect", float, check_threshold,
                                       "set_primary.genes: every |C_site| >= T"),
    ("select", "t_combined"): Setting("t_combined", float, check_threshold, "set_refined.genes: "
                                      "every |C_site| >= T, opposite signs on the pair"),
    ("select", "pair"): Setting("pair", _csv_list, help="discriminand pair, e.g. LN,Bone; "
                                "default LN,Bone, else the two largest classes"),
    ("folds", "k"): Setting("k", int, lambda k: _require(k >= 2, f"must be >= 2, got {k}"), "fold count"),
    ("folds", "factors"): Setting("factors", _parse_factors, help="balanced plan's extra copies per "
                                  "site, SITE:N,..., e.g. LN:1,Bone:2,Liver:5; empty derives them"),
    ("rfe", "drop_per_step"): Setting("drop_per_step", int,
                                      lambda n: _require(n >= 1, f"must be >= 1, got {n}"),
                                      "least important genes dropped per step"),
    ("rfe", "repeats"): Setting("repeats", int, lambda n: _require(n >= 1, f"must be >= 1, got {n}"),
                                "cross-validation rounds per step, each on reshuffled folds"),
    ("gcn", "sweep"): Setting("gcn_sweep", _parse_triplet, lambda sweep: sweep_thresholds(*sweep),
                              "t_min:t_max:step; T:T:1 fixes the threshold at T"),
    ("gcn", "cohorts"): Setting("cohorts", _csv_list, lambda cs: _require(
        ALL_SAMPLES not in cs, f"{ALL_SAMPLES!r} is not a site; the all-sample network is always built"),
        "site classes, each over the all-sample network's giant component; default every site"),
    ("run", "out"): Setting("out", Path, help="output directory of the run"),
    ("run", "seed"): Setting("seed", int, help="random seed"),
    **{("booster", name): Setting(name, type(getattr(BoosterConfig, name)), partial(check_rule, name), help)
       for name, (_, _, help) in RULES.items()},
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
    check_settings(booster)  # named as the flags' values are; PipelineConfig checks the rest
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


def _ingest(*, matrix: str | Path, labels: str | Path, keep_sites: Sequence[str] | None,
            d: Path) -> ExpressionMatrix:
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
    logger.info("ingested %d genes x %d samples", m.n_genes, m.n_samples)
    return m


def _normalize(m: ExpressionMatrix, *, scheme: str, epsilon: float, d: Path) -> ExpressionMatrix:
    out = normalize_matrix(m, NormalizationScheme(scheme, epsilon))
    _write_bundle(out, d)
    logger.info("normalized %d genes (%d dropped)", out.n_genes, m.n_genes - out.n_genes)
    return out


def _select(m: ExpressionMatrix, *, select_sweep: tuple[float, float, float], t_intersect: float,
            t_combined: float, pair: Sequence[str] | None, d: Path) -> tuple[GeneSet, GeneSet]:
    """The intersect rule's genes at `t_intersect` (set_primary) and the
    combined rule's at `t_combined` over `pair` (None = `default_pair` of the
    labels; set_refined), written into `d` with sweep.csv, each rule's
    kept-gene count at each threshold of `select_sweep` (settings checked by
    `check_settings`). A bad pair raises before `d` is made; a combined rule
    that keeps no gene raises after sweep.csv is written."""
    pair = check_pair(m.labels, pair) if pair else default_pair(m.labels)
    thresholds = sweep_thresholds(*select_sweep)
    mc = mask_correlations(m)
    d.mkdir(parents=True, exist_ok=True)
    write_sweep_report(mc, thresholds, pair, d / "sweep.csv")
    primary = select_three_mask_intersect(mc, t_intersect, name="set_primary")
    refined = select_combined(mc, t_combined, pair, name="set_refined")
    if len(refined) == 0:
        raise ValidationError("combined selection kept no genes")
    save_gene_set(primary, d / "set_primary.genes")
    save_gene_set(refined, d / "set_refined.genes")
    logger.info("kept %d primary and %d refined genes", len(primary), len(refined))
    return primary, refined


def _folds(m: ExpressionMatrix, *, k: int, factors: Mapping[str, int] | None, seed: int,
           d: Path) -> tuple[FoldPlan, FoldPlan]:
    """The raw plan and the balanced plan (`factors` extra copies per site;
    None derives them), written into `d` as plan_raw.json and plan_balanced.json."""
    check_sites(m.labels, factors or (), "factors")
    factors = derive_factors(m.labels) if factors is None else factors
    raw = stratified_folds(m.labels, k, seed)
    balanced = stratified_folds(m.labels, k, seed, factors)
    d.mkdir(parents=True, exist_ok=True)
    save_plan(raw, d / "plan_raw.json")
    save_plan(balanced, d / "plan_balanced.json")
    return raw, balanced


def _rfe(m: ExpressionMatrix, start: GeneSet, plan: FoldPlan, *, drop_per_step: int, repeats: int,
         config: BoosterConfig, d: Path) -> tuple[GeneSet, np.ndarray]:
    """Recursive elimination from `start`, its trace written into `d`. Returns
    the best step's genes as the set `set_<d.name>` and their mean CV
    importance, in set order."""
    trace = recursive_eliminate(m, start, plan, config, drop_per_step=drop_per_step, repeats=repeats)
    step = trace.best
    best = GeneSet(f"set_{d.name}", step.genes.gene_ids, provenance=f"{d.name} best step "
                   f"({len(step.genes)} genes, accuracy {step.report.accuracy:.4f})")
    export_trace(trace, d, best)
    logger.info("%s", best.provenance)
    return best, step.importance


def _rfe_balanced(m: ExpressionMatrix, raw_best: GeneSet, refined: GeneSet, plan: FoldPlan, *,
                  d: Path, **settings) -> tuple[GeneSet, dict[str, int]]:
    """`_rfe` on the balanced plan, and the key genes ranked by importance
    (ties by ID), written into `d` as key_gene_indices.json."""
    # Chain from the raw run's best set when it is large enough: the key set
    # is then nested inside it by construction, which the atlas tiers need.
    start = raw_best if len(raw_best) > MIN_RFE_GENES + 1 else refined
    key, imp = _rfe(m, start, plan, d=d, **settings)
    ranked = sorted(range(len(key)), key=lambda i: (-imp[i], key.gene_ids[i]))
    key_index = {key.gene_ids[i]: rank for rank, i in enumerate(ranked)}
    write_json(d / "key_gene_indices.json", key_index)
    return key, key_index


def _model(m: ExpressionMatrix, genes: GeneSet, *, config: BoosterConfig, d: Path) -> None:
    """The booster trained on every sample of `m` over the rows of `genes`,
    written into `d` as model.json, with the genes in feature order as features.json."""
    ens = train(m.values[m.gene_index(genes.gene_ids)].T, list(m.labels), config)
    d.mkdir(parents=True, exist_ok=True)
    write_text(d / "model.json", ensemble_to_json(ens))
    write_json(d / "features.json", list(genes.gene_ids))
    logger.info("trained on %d genes; final training loss %.5f", len(genes), ens.loss_curve[-1])


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


def _export_network(name: str, g, p, table, d: Path) -> None:
    logger.info("network %s: threshold %.3g, %d edges, %d communities, Q=%.4f",
                name, g.threshold, g.n_edges, p.n_communities, p.q)
    d.mkdir(parents=True, exist_ok=True)
    membership = {gene: int(p.membership[i]) for i, gene in enumerate(g.nodes)}
    write_sweep(table, d / "sweep.csv")
    write_edge_list(g, d / "edges.tsv")
    write_graphml(g, d / "graph.graphml", {"community": membership})
    write_json(d / "partition.json", {"threshold": g.threshold, "modularity": p.q,
                                      "communities": p.n_communities, "membership": membership})


def _gcn(m: ExpressionMatrix, genes: GeneSet, *, cohorts: Sequence[str] | None,
         gcn_sweep: tuple[float, float, float], seed: int, d: Path) -> dict[str, CommunityNetwork]:
    """Each network of `_networks`, written into `d / <name>`."""
    networks = {}
    for name, g, p, table in _networks(m, genes, cohorts, gcn_sweep, seed):
        _export_network(name, g, p, table, d / name)
        networks[name] = CommunityNetwork(g, p)
    return networks


def _atlas(networks, key_index: Mapping[str, int], *sets: GeneSet, d: Path) -> None:
    """The atlas of `networks` over the tiers of the nested gene `sets`, smallest first. `networks`,
    a mapping or (name, network) pairs, is read only once every gene of the last set has a tier."""
    tiers = tier_genes(sets)
    _require(tiers.keys() >= set(sets[-1].gene_ids),
             f"gene set {sets[-1].name} does not nest: some of its genes are in no tier")
    networks = dict(networks)
    entries = build_atlas(networks, tiers, key_index, max(tiers.values()) + 1)
    export_atlas(entries, networks, tiers, key_index, d)


# ---------------------------------------------------------------------------
# stages


class Step(NamedTuple):
    """A stage's step. `fn` takes each input positionally, each setting by its
    field name ([booster] keys as one BoosterConfig `config`, which carries the
    stage seed; a seeded step without one takes `seed`) and the stage's
    directory as `d`, and returns its results."""

    fn: Callable[..., object]
    # run result -> the flag that loads it from a file in the subcommand built
    # from the step (cli.STEP_COMMANDS; None for a stage without one)
    inputs: Mapping[str, str | None]
    settings: tuple[tuple[str, str], ...]  # SETTINGS keys
    seed: str | None  # stage-seed name
    results: tuple[str, ...]


def _keys(section: str, *keys: str) -> tuple[tuple[str, str], ...]:
    return tuple((section, key) for key in keys)


_BOOSTER = tuple(key for key in SETTINGS if key[0] == "booster")
_RFE = (*_keys("rfe", "drop_per_step", "repeats"), *_BOOSTER)

# stage name (and its output directory) -> its step, in run order
STEPS: dict[str, Step] = {
    "ingest": Step(_ingest, {}, _keys("input", "matrix", "labels", "keep_sites"), None, ("clean",)),
    "normalize": Step(_normalize, {"clean": "in"}, _keys("normalize", "scheme", "epsilon"), None,
                      ("norm",)),
    "select": Step(_select, {"norm": "in"}, _keys("select", "sweep", "t_intersect", "t_combined", "pair"),
                   None, ("primary", "refined")),
    "folds": Step(_folds, {"norm": "in"}, _keys("folds", "k", "factors"), "folds",
                  ("plan_raw", "plan_balanced")),
    "rfe_raw": Step(_rfe, {"norm": "in", "refined": "genes", "plan_raw": "plan"}, _RFE, "booster",
                    ("rfe_raw_best", "rfe_raw_importance")),
    "rfe_balanced": Step(_rfe_balanced, dict.fromkeys(("norm", "rfe_raw_best", "refined", "plan_balanced")),
                         _RFE, "booster", ("key_set", "key_index")),
    "model": Step(_model, {"norm": "in", "key_set": "genes"}, _BOOSTER, "booster", ()),
    "gcn": Step(_gcn, dict.fromkeys(("norm", "primary")), _keys("gcn", "cohorts", "sweep"), "gcn",
                ("networks",)),
    "atlas": Step(_atlas, dict.fromkeys(("networks", "key_index", "key_set", "rfe_raw_best", "refined",
                                         "primary")), (), None, ()),
}


def call_step(step: Step, inputs: Sequence[object], values: Mapping[str, object], seed: int | None,
              d: Path):
    """`step.fn` on `inputs`, its settings taken from `values` (field -> value,
    the booster fields included) and `seed`, writing into `d`."""
    kwargs, booster = {}, {}
    for section, key in step.settings:
        name = SETTINGS[section, key].field
        (booster if section == "booster" else kwargs)[name] = values[name]
    if booster:
        kwargs["config"] = BoosterConfig(seed=seed, **booster)
    elif step.seed:
        kwargs["seed"] = seed
    return step.fn(*inputs, **kwargs, d=d)


def _run(name: str, cfg: PipelineConfig, st: dict, out: Path) -> None:
    """Stage `name`: its step on the run's results `st`, with the settings of `cfg` and its stage seed."""
    step = STEPS[name]
    seed = stage_seed(cfg.seed, step.seed) if step.seed else None
    got = call_step(step, [st[r] for r in step.inputs], {**vars(cfg), **hyperparameters(cfg.booster)},
                    seed, out / name)
    st.update(zip(step.results, got if len(step.results) > 1 else (got,)))


def _stage_ingest(cfg: PipelineConfig, st: dict, out: Path) -> None:
    _run("ingest", cfg, st, out)
    m = st["clean"]
    # the other site lists, checked here so that they fail before the RFE stages run
    check_sites(m.labels, cfg.cohorts or (), "cohorts")
    check_sites(m.labels, cfg.factors or (), "factors")
    check_pair(m.labels, cfg.pair or default_pair(m.labels))  # a default pair needs two sites


STAGES: tuple[tuple[str, Callable[[PipelineConfig, dict, Path], None]], ...] = tuple(
    (name, _stage_ingest if name == "ingest" else partial(_run, name)) for name in STEPS)


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
    for i, (name, fn) in enumerate(STAGES):
        logger.info("pipeline stage: %s", name)
        start = time.perf_counter()
        try:
            fn(cfg, state, out)
        except Exception as exc:
            write_text(out / ".partial", f"failed at stage: {name}\n{exc}\n")
            raise StageError(name, exc) from exc
        logger.info("pipeline stage %s took %.3f s", name, time.perf_counter() - start)
        # hand on only what a later stage reads (the cleansed matrix goes after normalize)
        needed = {r for later, _ in STAGES[i + 1:] for r in STEPS[later].inputs}
        state = {r: v for r, v in state.items() if r in needed}

    outputs = {p.relative_to(out).as_posix(): _sha256(p)
               for p in sorted(out.rglob("*")) if p.is_file()}
    manifest = {
        "tool": "coexpress",
        "version": __version__,
        "root_seed": cfg.seed,
        "threads": cfg.threads,
        "stage_seeds": {name: stage_seed(cfg.seed, name)
                        for name in dict.fromkeys(step.seed for step in STEPS.values() if step.seed)},
        "config": _config_echo(cfg),
        "inputs": {"matrix": _sha256(cfg.matrix), "labels": _sha256(cfg.labels)},
        "outputs": outputs,
    }
    path = out / "MANIFEST.json"
    write_json(path, manifest)
    return path
