"""Command-line interface: one subcommand per pipeline operation plus `pipeline`."""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .booster import BoosterConfig, hyperparameters
from .correlation import export_heatmap, group_mean, pairwise
from .errors import CoexpressError, ValidationError
from .folds import load_plan
from .masks import load_gene_set
from .matrix import ExpressionMatrix, check_sites, load_matrix
from .normalize import NormalizationScheme
from .pipeline import (
    SETTINGS,
    PipelineConfig,
    _atlas,
    _cohort_network,
    _csv_list,
    _export_network,
    _folds,
    _ingest,
    _model,
    _networks,
    _normalize,
    _rfe,
    _select,
    check_settings,
    load_config,
    parse_setting,
    run_pipeline,
)
from .synthetic import generate, spec_from_json, write_dataset
from .textio import read_text, write_rows
from .atlas import CommunityNetwork, tier_genes

logger = logging.getLogger("coexpress")


def _load_bundle(path: str | Path) -> ExpressionMatrix:
    d = Path(path)
    return load_matrix(d / "matrix.tsv", d / "labels.tsv")


def _add_settings(p: argparse.ArgumentParser, section: str, *keys: str, **kw) -> None:
    """Add `--<key>` for each config key [section] <key>, with the key's parser (text that does
    not parse is a usage error; empty text is the default), default and help; `kw` overrides."""
    for key in keys:
        s = SETTINGS[section, key]
        owner = BoosterConfig if section == "booster" else PipelineConfig
        default = kw.get("default", getattr(owner, s.field, None))

        def parse(text, key=key, default=default):
            try:
                return parse_setting(section, key, text) if text else default
            except ValidationError as exc:  # argparse reports ArgumentTypeError as a usage error
                raise argparse.ArgumentTypeError(str(exc)) from None

        p.add_argument("--" + key.replace("_", "-"), **{"type": parse, "default": default, "dest": s.field,
                                                         "metavar": key.upper(), "help": s.help, **kw})


def _booster_from_args(args: argparse.Namespace) -> BoosterConfig:
    params = {name: getattr(args, name) for name in hyperparameters(BoosterConfig())}
    return BoosterConfig(seed=args.seed, **params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coexpress", description=__doc__)
    parser.add_argument("--version", action="version", version=f"coexpress {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    _add_settings(seeded, "run", "seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="load, filter, and cleanse a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--labels", required=True)
    _add_settings(p, "input", "keep_sites")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("normalize", parents=[common], help="apply a normalization scheme")
    _add_settings(p, "normalize", "scheme", "epsilon")
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
    _add_settings(p, "select", "sweep", "t_intersect", "t_combined", "pair")
    p.add_argument("--out", required=True,
                   help="directory for sweep.csv, set_primary.genes and set_refined.genes")

    p = sub.add_parser("folds", parents=[seeded], help="build the raw and the balanced fold plan")
    p.add_argument("--in", dest="indir", required=True)
    _add_settings(p, "folds", "k", "factors")
    p.add_argument("--out", required=True, help="directory for plan_raw.json and plan_balanced.json")

    p = sub.add_parser("train", parents=[seeded], help="train the boosted model on a gene set")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--genes", required=True)
    _add_settings(p, "booster", *hyperparameters(BoosterConfig()))
    p.add_argument("--out", required=True, help="directory for model.json and features.json")

    p = sub.add_parser("rfe", parents=[seeded], help="recursive feature elimination")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--genes", required=True, help="start gene-set file")
    p.add_argument("--plan", required=True, help="fold plan file written by `folds`")
    _add_settings(p, "rfe", "repeats", "drop_per_step")
    _add_settings(p, "booster", *hyperparameters(BoosterConfig()))
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gcn", parents=[seeded], help="build a co-expression network")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--genes", required=True)
    p.add_argument("--cohort", default=None, help="site class; omit for all samples")
    _add_settings(p, "gcn", "sweep")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("atlas", parents=[seeded], help="cross-cohort community comparison")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--nested", required=True,
                   help="comma-separated nested gene-set files, smallest first; "
                   "the networks are built over the last")
    _add_settings(p, "gcn", "cohorts", "sweep")
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a planted synthetic dataset")
    p.add_argument("--spec", required=True, help="SynthSpec JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("pipeline", parents=[common], help="run the full pipeline from a config")
    p.add_argument("--config", required=True)
    _add_settings(p, "run", "seed", "out", default=None, help="replaces the config's [run] key")
    for p in sub.choices.values():
        p.allow_abbrev = False  # a removed flag must not match the start of a longer one
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
    primary, refined = _select(_load_bundle(args.indir), args.select_sweep, args.t_intersect,
                               args.t_combined, args.pair, Path(args.out))
    logger.info("kept %d primary and %d refined genes", len(primary), len(refined))
    return 0


def _cmd_folds(args) -> int:
    m = _load_bundle(args.indir)
    check_sites(m.labels, args.factors or (), "factors")
    _folds(m.labels, args.k, args.seed, args.factors, Path(args.out))
    return 0


def _cmd_train(args) -> int:
    genes = load_gene_set(args.genes)
    ens = _model(_load_bundle(args.indir), genes, _booster_from_args(args), Path(args.out))
    logger.info("trained on %d genes; final training loss %.5f", len(genes), ens.loss_curve[-1])
    return 0


def _cmd_rfe(args) -> int:
    best, _ = _rfe(_load_bundle(args.indir), load_gene_set(args.genes), load_plan(args.plan),
                   _booster_from_args(args), args.drop_per_step, args.repeats, Path(args.out))
    logger.info("%s", best.provenance)
    return 0


def _cmd_gcn(args) -> int:
    m = _load_bundle(args.indir)
    g, p, table = _cohort_network(m, load_gene_set(args.genes), args.cohort, args.gcn_sweep, args.seed)
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
    networks = {name: CommunityNetwork(g, p) for name, g, p, _ in
                _networks(m, nested[-1], args.cohorts, args.gcn_sweep, args.seed)}
    _atlas(tiers, networks, key_index, Path(args.out))
    return 0


def _cmd_synth(args) -> int:
    spec = spec_from_json(read_text(args.spec))
    m, planted, blocks = generate(spec)
    write_dataset(m, planted, blocks, args.out)
    logger.info("synthesized %d genes x %d samples", m.n_genes, m.n_samples)
    return 0


def _cmd_pipeline(args) -> int:
    flags = {k: v for k, v in (("seed", args.seed), ("out", args.out)) if v is not None}
    manifest = run_pipeline(replace(load_config(args.config), **flags))
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
        check_settings(vars(args))
        return _COMMANDS[args.command](args)
    except (CoexpressError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
