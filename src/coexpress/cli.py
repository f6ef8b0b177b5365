"""Command-line interface: one subcommand per pipeline operation plus `pipeline`."""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .booster import BoosterConfig, ensemble_to_json, train as train_booster
from .correlation import export_heatmap, group_mean, pairwise
from .errors import CoexpressError
from .folds import oversample, save_plan, stratified_folds
from .graph import build_weighted, select_threshold, write_edge_list, write_graphml, write_sweep
from .masks import (
    build_masks,
    load_gene_set,
    mask_correlations,
    save_gene_set,
    select_by_any_mask,
    select_combined,
    select_pair_opposite,
    select_three_mask_intersect,
)
from .matrix import ExpressionMatrix, cleanse, export_stats, filter_sites, gene_stats, load_matrix, write_matrix
from .normalize import VARIANTS, NormalizationScheme, normalize_matrix
from .pipeline import load_config, run_pipeline
from .rfe import export_trace, recursive_eliminate, report_to_dict
from .synthetic import generate, spec_from_json, write_dataset
from .atlas import CommunityNetwork, build_atlas, export_atlas, tier_genes

logger = logging.getLogger("coexpress")


def _load_bundle(path: str | Path) -> ExpressionMatrix:
    d = Path(path)
    return load_matrix(d / "matrix.tsv", d / "labels.tsv")


def _write_bundle(m: ExpressionMatrix, path: str | Path) -> None:
    d = Path(path)
    d.mkdir(parents=True, exist_ok=True)
    write_matrix(m, d / "matrix.tsv", d / "labels.tsv")


def _csv_list(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _triplet(text: str) -> tuple[float, float, float]:
    lo, hi, step = (float(x) for x in text.split(":"))
    return lo, hi, step


def _add_booster_flags(p: argparse.ArgumentParser) -> None:
    d = BoosterConfig()
    p.add_argument("--learning-rate", type=float, default=d.learning_rate)
    p.add_argument("--max-depth", type=int, default=d.max_depth)
    p.add_argument("--n-estimators", type=int, default=d.n_estimators)
    p.add_argument("--reg-lambda", type=float, default=d.reg_lambda)
    p.add_argument("--gamma", type=float, default=d.gamma)
    p.add_argument("--min-child-weight", type=float, default=d.min_child_weight)
    p.add_argument("--subsample", type=float, default=d.subsample, help="row fraction per tree")
    p.add_argument("--colsample", type=float, default=d.colsample, help="feature fraction per tree")
    p.add_argument("--base-score", type=float, default=d.base_score,
                   help="initial class probability, in (0, 1)")


def _booster_from_args(args: argparse.Namespace) -> BoosterConfig:
    return BoosterConfig(
        learning_rate=args.learning_rate,
        max_depth=args.max_depth,
        n_estimators=args.n_estimators,
        reg_lambda=args.reg_lambda,
        gamma=args.gamma,
        min_child_weight=args.min_child_weight,
        subsample=args.subsample,
        colsample=args.colsample,
        base_score=args.base_score,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coexpress", description=__doc__)
    parser.add_argument("--version", action="version", version=f"coexpress {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument(
        "--threads", type=int, default=1,
        help="recorded in the config echo; no stage currently runs in parallel",
    )
    common.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="load, filter, and cleanse a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--keep-sites", type=_csv_list, default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("normalize", parents=[common], help="apply a normalization scheme")
    p.add_argument("--scheme", choices=VARIANTS, required=True)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--in", dest="indir", required=True, help="ingest output directory")
    p.add_argument("--out", required=True)

    p = sub.add_parser("corr", parents=[common], help="pairwise correlations and heatmap")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--axis", choices=("samples", "genes"), default="samples")
    p.add_argument("--genes", help="gene-set file restricting the correlation")
    p.add_argument("--heatmap", help="SVG output path")
    p.add_argument("--csv", help="CSV output path")
    p.add_argument("--group-means", help="CSV of class-by-class mean correlations")

    p = sub.add_parser("select", parents=[common], help="mask-based gene selection")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--rule", choices=("any", "intersect", "combined", "pair", "two-stage"),
                   default="combined")
    p.add_argument("--threshold", type=float, default=0.2)
    p.add_argument("--t-intersect", type=float, default=0.15, help="two-stage intersect threshold")
    p.add_argument("--t-pair", type=float, default=0.2, help="two-stage pair threshold")
    p.add_argument("--pair", type=_csv_list, default=None, help="discriminand pair, e.g. LN,Bone")
    p.add_argument("--out", required=True, help="gene-set output file")

    p = sub.add_parser("folds", parents=[common], help="build a stratified fold plan")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--factors", default=None,
                   help="extra copies per site, e.g. LN:1,Bone:2,Liver:5")
    p.add_argument("--out", required=True, help="plan JSON path")

    p = sub.add_parser("train", parents=[common], help="train the boosted model on a gene set")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--genes", required=True)
    _add_booster_flags(p)
    p.add_argument("--out", required=True, help="model JSON path")

    p = sub.add_parser("rfe", parents=[common], help="recursive feature elimination")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--genes", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--drop", type=int, default=1)
    p.add_argument("--factors", default=None)
    _add_booster_flags(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gcn", parents=[common], help="build a co-expression network")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--genes", required=True)
    p.add_argument("--cohort", default=None, help="site class; omit for all samples")
    p.add_argument("--sweep", type=_triplet, default=(0.4, 0.9, 0.02), help="t_min:t_max:step")
    p.add_argument("--override", type=float, default=None, help="fixed threshold, bypass sweep")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("atlas", parents=[common], help="cross-cohort community comparison")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--nested", required=True,
                   help="comma-separated nested gene-set files, smallest first")
    p.add_argument("--cohorts", type=_csv_list, default=None,
                   help="site classes; 'all' adds the all-sample network")
    p.add_argument("--sweep", type=_triplet, default=(0.4, 0.9, 0.02))
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a planted synthetic dataset")
    p.add_argument("--spec", required=True, help="SynthSpec JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("pipeline", parents=[common], help="run the full pipeline from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override run.out")

    return parser


def _cmd_ingest(args) -> int:
    m = load_matrix(args.matrix, args.labels)
    if args.keep_sites:
        m = filter_sites(m, args.keep_sites)
    site_order = args.keep_sites or list(dict.fromkeys(m.labels))
    m, report = cleanse(m, site_order)
    _write_bundle(m, args.out)
    out = Path(args.out)
    (out / "cleansing.json").write_text(json.dumps({
        "removed_all_zero": report.removed_all_zero,
        "removed_duplicates": report.removed_duplicates,
        "truncation_applied": report.truncation_applied,
    }, indent=2, sort_keys=True), encoding="utf-8")
    export_stats(gene_stats(m), "mean", out / "gene_stats.csv")
    logger.info("ingested %d genes x %d samples", m.n_genes, m.n_samples)
    return 0


def _cmd_normalize(args) -> int:
    m = _load_bundle(args.indir)
    out = normalize_matrix(m, NormalizationScheme(args.scheme, args.epsilon))
    _write_bundle(out, args.out)
    logger.info("normalized %d genes (%d dropped)", out.n_genes, m.n_genes - out.n_genes)
    return 0


def _cmd_corr(args) -> int:
    m = _load_bundle(args.indir)
    subset = load_gene_set(args.genes).gene_ids if args.genes else None
    c = pairwise(m, axis=args.axis, subset=subset)
    groups = list(m.labels) if args.axis == "samples" else ["gene"] * len(c.ids)
    if args.csv or args.heatmap:
        export_heatmap(c, groups, csv_path=args.csv, svg_path=args.heatmap)
    if args.group_means:
        table = group_mean(c, groups)
        with open(args.group_means, "w", encoding="utf-8") as fh:
            fh.write("," + ",".join(table.classes) + "\n")
            for i, cl in enumerate(table.classes):
                fh.write(cl + "," + ",".join(repr(float(v)) for v in table.means[i]) + "\n")
    return 0


def _cmd_select(args) -> int:
    m = _load_bundle(args.indir)
    mc = mask_correlations(m, build_masks(m.labels))
    pair = tuple(args.pair) if args.pair else None
    name = Path(args.out).stem
    if args.rule == "any":
        gs = select_by_any_mask(mc, args.threshold, name=name)
    elif args.rule == "intersect":
        gs = select_three_mask_intersect(mc, args.threshold, name=name)
    elif args.rule == "pair":
        gs = select_pair_opposite(mc, args.threshold, pair, name=name)
    elif args.rule == "two-stage":
        inter = select_three_mask_intersect(mc, args.t_intersect)
        strong = select_pair_opposite(mc, args.t_pair, pair)
        strong_set = set(strong.gene_ids)
        gs = type(inter)(
            name,
            tuple(g for g in inter.gene_ids if g in strong_set),
            provenance=f"intersect@{args.t_intersect} AND pair-opposite@{args.t_pair}",
        )
    else:
        gs = select_combined(mc, args.threshold, pair, name=name)
    save_gene_set(gs, args.out)
    logger.info("rule %s kept %d genes", args.rule, len(gs))
    return 0


def _cmd_folds(args) -> int:
    m = _load_bundle(args.indir)
    plan = stratified_folds(m.labels, args.k, args.seed)
    if args.factors:
        factors = {}
        for item in _csv_list(args.factors):
            site, _, n = item.partition(":")
            factors[site] = int(n)
        plan = oversample(plan, factors)
    save_plan(plan, args.out)
    return 0


def _cmd_train(args) -> int:
    m = _load_bundle(args.indir)
    genes = load_gene_set(args.genes)
    X = m.values[m.gene_index(genes.gene_ids)].T
    ens = train_booster(X, list(m.labels), _booster_from_args(args))
    Path(args.out).write_text(ensemble_to_json(ens), encoding="utf-8")
    logger.info("trained on %d genes; final training loss %.5f", len(genes), ens.loss_curve[-1])
    return 0


def _cmd_rfe(args) -> int:
    m = _load_bundle(args.indir)
    genes = load_gene_set(args.genes)
    plan = stratified_folds(m.labels, args.k, args.seed)
    if args.factors:
        factors = {}
        for item in _csv_list(args.factors):
            site, _, n = item.partition(":")
            factors[site] = int(n)
        plan = oversample(plan, factors)
    trace = recursive_eliminate(
        m, genes, plan, _booster_from_args(args), drop_per_step=args.drop, repeats=args.repeats
    )
    out = Path(args.out)
    export_trace(trace, out)
    (out / "cv_report.json").write_text(
        json.dumps(report_to_dict(trace.best.report), indent=2, sort_keys=True), encoding="utf-8"
    )
    save_gene_set(trace.best.genes, out / "best.genes")
    logger.info("best step keeps %d genes at accuracy %.4f",
                len(trace.best.genes), trace.best.report.accuracy)
    return 0


def _cmd_gcn(args) -> int:
    m = _load_bundle(args.indir)
    genes = load_gene_set(args.genes)
    wg = build_weighted(m, genes, args.cohort)
    g, p, table = select_threshold(
        wg, *args.sweep, override=args.override, seed=args.seed, threads=args.threads
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep(table, out / "sweep.csv")
    write_edge_list(g, out / "edges.tsv")
    write_graphml(g, out / "graph.graphml", {
        "community": {gene: int(p.membership[i]) for i, gene in enumerate(g.nodes)}
    })
    logger.info("threshold %.3g: %d edges, %d communities, Q=%.4f",
                g.threshold, g.n_edges, p.n_communities, p.q)
    return 0


def _cmd_atlas(args) -> int:
    m = _load_bundle(args.indir)
    nested = [load_gene_set(f) for f in _csv_list(args.nested)]
    tiers = tier_genes(nested)
    # the smallest nested set is the key set; file order defines indices 0..K-1
    key_index = {g: i for i, g in enumerate(nested[0].gene_ids)}
    cohorts = args.cohorts or ["all", *dict.fromkeys(m.labels)]
    networks = {}
    for cohort in cohorts:
        site = None if cohort == "all" else cohort
        wg = build_weighted(m, nested[-1], site)
        g, p, _ = select_threshold(wg, *args.sweep, seed=args.seed, threads=args.threads)
        networks[cohort] = CommunityNetwork(g, p)
    entries = build_atlas(networks, tiers, key_index, n_tiers=len(nested))
    export_atlas(entries, networks, tiers, key_index, args.out)
    return 0


def _cmd_synth(args) -> int:
    spec = spec_from_json(Path(args.spec).read_text(encoding="utf-8"))
    m, planted, blocks = generate(spec)
    write_dataset(m, planted, blocks, args.out)
    logger.info("synthesized %d genes x %d samples", m.n_genes, m.n_samples)
    return 0


def _cmd_pipeline(args) -> int:
    overrides = {"seed": str(args.seed)} if args.seed else {}
    if args.out:
        overrides["out"] = args.out
    if args.threads and args.threads != 1:
        overrides["threads"] = str(args.threads)
    cfg = load_config(args.config, overrides)
    manifest = run_pipeline(cfg)
    logger.info("pipeline complete; manifest at %s", manifest)
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "normalize": _cmd_normalize,
    "corr": _cmd_corr,
    "select": _cmd_select,
    "folds": _cmd_folds,
    "train": _cmd_train,
    "rfe": _cmd_rfe,
    "gcn": _cmd_gcn,
    "atlas": _cmd_atlas,
    "synth": _cmd_synth,
    "pipeline": _cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return _COMMANDS[args.command](args)
    except CoexpressError as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
