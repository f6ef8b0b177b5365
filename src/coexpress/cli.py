"""Command-line interface: one subcommand per pipeline operation plus `pipeline`."""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .booster import BoosterConfig
from .correlation import export_heatmap, group_mean, pairwise
from .errors import CoexpressError, ValidationError
from .folds import load_plan
from .masks import load_gene_set
from .matrix import ExpressionMatrix, load_matrix
from .pipeline import (
    SETTINGS,
    STEPS,
    ALL_SAMPLES,
    PipelineConfig,
    _atlas,
    _cohort_network,
    _csv_list,
    _export_network,
    _networks,
    call_step,
    check_settings,
    load_config,
    parse_setting,
    run_pipeline,
)
from .synthetic import generate, spec_from_json, write_dataset
from .textio import read_text, write_rows
from .atlas import CommunityNetwork

logger = logging.getLogger("coexpress")


def _load_bundle(path: str | Path) -> ExpressionMatrix:
    d = Path(path)
    return load_matrix(d / "matrix.tsv", d / "labels.tsv")


# the subcommands built from a stage's step: name -> (stage, help)
STEP_COMMANDS = {
    "ingest": ("ingest", "load, filter, and cleanse a matrix"),
    "normalize": ("normalize", "apply a normalization scheme"),
    "select": ("select", "mask-based gene selection"),
    "folds": ("folds", "build the raw and the balanced fold plan"),
    "rfe": ("rfe_raw", "recursive feature elimination"),
    "train": ("model", "train the boosted model on a gene set"),
}

# step input flag -> (loader, help)
LOADERS = {
    "in": (_load_bundle, "directory holding matrix.tsv and labels.tsv"),
    "genes": (load_gene_set, "gene-set file"),
    "plan": (load_plan, "fold plan file written by `folds`"),
}


def _add_settings(p: argparse.ArgumentParser, *keys: tuple[str, str], **kw) -> None:
    """Add `--<key>` for each config key (section, key), with the key's parser (text that does not
    parse is a usage error; empty text is the default), default and help; `kw` overrides. A key
    without a default is a required flag."""
    for section, key in keys:
        s = SETTINGS[section, key]
        owner = BoosterConfig if section == "booster" else PipelineConfig
        default = kw.get("default", getattr(owner, s.field, None))
        required = kw.get("required", not hasattr(owner, s.field))

        def parse(text, section=section, key=key, default=default, required=required):
            try:
                return parse_setting(section, key, text) if text or required else default
            except ValidationError as exc:  # argparse reports ArgumentTypeError as a usage error
                raise argparse.ArgumentTypeError(str(exc)) from None

        p.add_argument("--" + key.replace("_", "-"), **{
            "type": parse, "default": default, "dest": s.field, "metavar": key.upper(), "help": s.help,
            "required": required, **kw})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coexpress", description=__doc__)
    parser.add_argument("--version", action="version", version=f"coexpress {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    _add_settings(seeded, ("run", "seed"))
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (stage, help) in STEP_COMMANDS.items():
        step = STEPS[stage]
        p = sub.add_parser(command, parents=[seeded if step.seed else common], help=help)
        for flag in step.inputs.values():
            p.add_argument("--" + flag, required=True, help=LOADERS[flag][1])
        _add_settings(p, *step.settings)
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("corr", parents=[common], help="pairwise correlations and heatmap")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--axis", choices=("samples", "genes"), default="samples")
    p.add_argument("--genes", help="gene-set file restricting the correlation")
    p.add_argument("--heatmap", help="SVG output path")
    p.add_argument("--csv", help="CSV output path")
    p.add_argument("--group-means", help="CSV of class-by-class mean correlations")

    p = sub.add_parser("gcn", parents=[seeded], help="build a co-expression network")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--genes", required=True)
    p.add_argument("--cohort", default=None, help="site class; omit for all samples")
    _add_settings(p, ("gcn", "sweep"))
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("atlas", parents=[seeded], help="cross-cohort community comparison")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--nested", required=True,
                   help="comma-separated nested gene-set files, smallest first; "
                   "the networks are built over the last")
    _add_settings(p, ("gcn", "cohorts"), ("gcn", "sweep"))
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a planted synthetic dataset")
    p.add_argument("--spec", required=True, help="SynthSpec JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("pipeline", parents=[common], help="run the full pipeline from a config")
    p.add_argument("--config", required=True)
    _add_settings(p, ("run", "seed"), ("run", "out"), default=None, required=False,
                  help="replaces the config's [run] key")
    for p in sub.choices.values():
        p.allow_abbrev = False  # a removed flag must not match the start of a longer one
    return parser


def _cmd_step(args) -> int:
    """Run the step of the stage that `args.command` mirrors on the inputs its flags name."""
    step = STEPS[STEP_COMMANDS[args.command][0]]
    inputs = [LOADERS[flag][0](getattr(args, flag)) for flag in step.inputs.values()]
    call_step(step, inputs, vars(args), args.seed if step.seed else None, Path(args.out))
    return 0


def _cmd_corr(args) -> int:
    m = _load_bundle(args.indir)
    subset = load_gene_set(args.genes).gene_ids if args.genes else None
    c = pairwise(m, axis=args.axis, subset=subset)
    label = dict(zip(m.sample_ids, m.labels))  # of each sample that pairwise kept
    groups = [label[s] for s in c.ids] if args.axis == "samples" else ["gene"] * len(c.ids)
    if args.csv or args.heatmap:
        export_heatmap(c, groups, csv_path=args.csv, svg_path=args.heatmap)
    if args.group_means:
        table = group_mean(c, groups)
        write_rows(args.group_means, ["", *table.classes],
                   ([cl, *(repr(float(v)) for v in row)] for cl, row in zip(table.classes, table.means)))
    return 0


def _cmd_gcn(args) -> int:
    m = _load_bundle(args.indir)
    g, p, table = _cohort_network(m, load_gene_set(args.genes), args.cohort, args.gcn_sweep, args.seed)
    _export_network(args.cohort or ALL_SAMPLES, g, p, table, Path(args.out))
    return 0


def _cmd_atlas(args) -> int:
    nested = [load_gene_set(f) for f in _csv_list(args.nested)]
    # key indices follow the smallest set's file order; the networks are built once _atlas accepts the sets
    key_index = {g: i for key in nested[:1] for i, g in enumerate(key.gene_ids)}
    networks = ((name, CommunityNetwork(g, p)) for largest in nested[-1:] for name, g, p, _ in
                _networks(_load_bundle(args.indir), largest, args.cohorts, args.gcn_sweep, args.seed))
    _atlas(networks, key_index, *nested, d=Path(args.out))
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
    **dict.fromkeys(STEP_COMMANDS, _cmd_step),
    "corr": _cmd_corr,
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
