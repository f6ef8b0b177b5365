"""Command-line interface: one subcommand per pipeline operation plus `pipeline`."""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .booster import BoosterConfig, ensemble_to_json, hyperparameters
from .correlation import export_heatmap, group_mean, pairwise
from .errors import CoexpressError, GraphError, ValidationError
from .folds import FoldPlan, save_plan, stratified_folds
from .masks import (
    default_pair,
    load_gene_set,
    mask_correlations,
    save_gene_set,
    select_by_any_mask,
    select_combined,
    select_pair_opposite,
    select_three_mask_intersect,
)
from .matrix import ExpressionMatrix, load_matrix
from .normalize import VARIANTS, NormalizationScheme
from .pipeline import (
    ALL_SAMPLES,
    PipelineConfig,
    _atlas,
    _check_factors,
    _cohort_network,
    _cohort_networks,
    _csv_list,
    _export_network,
    _fit,
    _ingest,
    _normalize,
    _parse_factors,
    _parse_triplet,
    load_config,
    run_pipeline,
)
from .rfe import export_trace, recursive_eliminate
from .synthetic import generate, spec_from_json, write_dataset
from .textio import read_text, write_rows, write_text
from .atlas import CommunityNetwork, tier_genes

logger = logging.getLogger("coexpress")

_BOOSTER_HELP = {
    "subsample": "row fraction per tree",
    "colsample": "feature fraction per tree",
    "base_score": "initial class probability, in (0, 1)",
}


def _load_bundle(path: str | Path) -> ExpressionMatrix:
    d = Path(path)
    return load_matrix(d / "matrix.tsv", d / "labels.tsv")


def _sweep_arg(text: str) -> tuple[float, float, float]:
    # argparse reports ArgumentTypeError as a usage error (exit 2)
    try:
        return _parse_triplet(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_booster_flags(p: argparse.ArgumentParser) -> None:
    for name, default in hyperparameters(BoosterConfig()).items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default,
                       help=_BOOSTER_HELP.get(name))


def _booster_from_args(args: argparse.Namespace) -> BoosterConfig:
    params = {name: getattr(args, name) for name in hyperparameters(BoosterConfig())}
    return BoosterConfig(seed=args.seed, **params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coexpress", description=__doc__)
    parser.add_argument("--version", action="version", version=f"coexpress {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="load, filter, and cleanse a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--keep-sites", type=_csv_list, default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("normalize", parents=[common], help="apply a normalization scheme")
    p.add_argument("--scheme", choices=VARIANTS, required=True)
    p.add_argument("--epsilon", type=float, default=NormalizationScheme.epsilon)
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
    p.add_argument("--t-intersect", type=float, default=PipelineConfig.t_intersect,
                   help="two-stage intersect threshold")
    p.add_argument("--t-pair", type=float, default=0.2, help="two-stage pair threshold")
    p.add_argument("--pair", type=_csv_list, default=None,
                   help="discriminand pair, e.g. LN,Bone; default LN,Bone, else the two largest classes")
    p.add_argument("--out", required=True, help="gene-set output file")

    p = sub.add_parser("folds", parents=[seeded], help="build a stratified fold plan")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--k", type=int, default=PipelineConfig.k)
    p.add_argument("--factors", default="",
                   help="extra copies per site, SITE:N,..., e.g. LN:1,Bone:2,Liver:5")
    p.add_argument("--out", required=True, help="plan JSON path")

    p = sub.add_parser("train", parents=[seeded], help="train the boosted model on a gene set")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--genes", required=True)
    _add_booster_flags(p)
    p.add_argument("--out", required=True, help="model JSON path")

    p = sub.add_parser("rfe", parents=[seeded], help="recursive feature elimination")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--genes", required=True)
    p.add_argument("--k", type=int, default=PipelineConfig.k)
    p.add_argument("--repeats", type=int, default=PipelineConfig.repeats)
    p.add_argument("--drop", type=int, default=PipelineConfig.drop_per_step)
    p.add_argument("--factors", default="")
    _add_booster_flags(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gcn", parents=[seeded], help="build a co-expression network")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--genes", required=True)
    p.add_argument("--cohort", default=None, help="site class; omit for all samples")
    p.add_argument("--sweep", type=_sweep_arg, default=PipelineConfig.gcn_sweep, help="t_min:t_max:step")
    p.add_argument("--override", type=float, default=None, help="fixed threshold, bypass sweep")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("atlas", parents=[seeded], help="cross-cohort community comparison")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--nested", required=True,
                   help="comma-separated nested gene-set files, smallest first")
    p.add_argument("--cohorts", type=_csv_list, default=None,
                   help="site classes; 'all' adds the all-sample network")
    p.add_argument("--sweep", type=_sweep_arg, default=PipelineConfig.gcn_sweep, help="t_min:t_max:step")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a planted synthetic dataset")
    p.add_argument("--spec", required=True, help="SynthSpec JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("pipeline", parents=[common], help="run the full pipeline from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override run.seed")
    p.add_argument("--out", default=None, help="override run.out")

    return parser


def _cmd_ingest(args) -> int:
    m = _ingest(args.matrix, args.labels, args.keep_sites, Path(args.out))
    logger.info("ingested %d genes x %d samples", m.n_genes, m.n_samples)
    return 0


def _cmd_normalize(args) -> int:
    m = _load_bundle(args.indir)
    out = _normalize(m, NormalizationScheme(args.scheme, args.epsilon), Path(args.out))
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
        write_rows(args.group_means, ["", *table.classes],
                   ([cl, *(repr(float(v)) for v in row)] for cl, row in zip(table.classes, table.means)))
    return 0


def _cmd_select(args) -> int:
    m = _load_bundle(args.indir)
    mc = mask_correlations(m)
    pair = args.pair or default_pair(m.labels)
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


def _plan_from_args(m: ExpressionMatrix, args) -> FoldPlan:
    """The fold plan of `--k`, `--seed` and `--factors` over `m`'s samples."""
    factors = _parse_factors(args.factors)
    _check_factors(m.labels, factors)
    return stratified_folds(m.labels, args.k, args.seed, factors)


def _cmd_folds(args) -> int:
    save_plan(_plan_from_args(_load_bundle(args.indir), args), args.out)
    return 0


def _cmd_train(args) -> int:
    m = _load_bundle(args.indir)
    genes = load_gene_set(args.genes)
    ens = _fit(m, genes, _booster_from_args(args))
    write_text(args.out, ensemble_to_json(ens))
    logger.info("trained on %d genes; final training loss %.5f", len(genes), ens.loss_curve[-1])
    return 0


def _cmd_rfe(args) -> int:
    m = _load_bundle(args.indir)
    plan = _plan_from_args(m, args)
    trace = recursive_eliminate(
        m, load_gene_set(args.genes), plan, _booster_from_args(args),
        drop_per_step=args.drop, repeats=args.repeats,
    )
    export_trace(trace, args.out, trace.best.genes)
    logger.info("best step keeps %d genes at accuracy %.4f",
                len(trace.best.genes), trace.best.report.accuracy)
    return 0


def _cmd_gcn(args) -> int:
    m = _load_bundle(args.indir)
    g, p, table = _cohort_network(
        m, load_gene_set(args.genes), args.cohort, args.sweep, args.seed, args.override
    )
    _export_network(Path(args.out), g, p, table)
    logger.info("threshold %.3g: %d edges, %d communities, Q=%.4f",
                g.threshold, g.n_edges, p.n_communities, p.q)
    return 0


def _cmd_atlas(args) -> int:
    m = _load_bundle(args.indir)
    nested = [load_gene_set(f) for f in _csv_list(args.nested)]
    tiers = tier_genes(nested)
    # the smallest nested set is the key set; file order defines indices 0..K-1
    key_index = {g: i for i, g in enumerate(nested[0].gene_ids)}
    cohorts = args.cohorts or [ALL_SAMPLES, *dict.fromkeys(m.labels)]
    networks = {cohort: CommunityNetwork(g, p) for cohort, g, p, _ in
                _cohort_networks(m, nested[-1].gene_ids, cohorts, args.sweep, args.seed)}
    if not networks:
        raise GraphError("no cohort network remains for the atlas")
    _atlas(tiers, networks, key_index, Path(args.out))
    return 0


def _cmd_synth(args) -> int:
    spec = spec_from_json(read_text(args.spec))
    m, planted, blocks = generate(spec)
    write_dataset(m, planted, blocks, args.out)
    logger.info("synthesized %d genes x %d samples", m.n_genes, m.n_samples)
    return 0


def _cmd_pipeline(args) -> int:
    flags = {"seed": args.seed, "out": args.out}
    cfg = load_config(args.config, {k: str(v) for k, v in flags.items() if v is not None})
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
    except (CoexpressError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
