import argparse
import csv
import hashlib
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import coexpress.pipeline as pipeline
from coexpress.booster import BoosterConfig, hyperparameters
from coexpress.cli import STEP_COMMANDS, build_parser, main
from coexpress.errors import CoexpressError, StageError, ValidationError
from coexpress.masks import GeneSet, default_pair, load_gene_set, save_gene_set
from coexpress.matrix import ExpressionMatrix, load_matrix, write_matrix
from coexpress.pipeline import SETTINGS, STEPS, PipelineConfig, load_config, run_pipeline, stage_seed
from coexpress.rfe import MIN_RFE_GENES
from coexpress.synthetic import BlockSpec, SynthSpec, generate, spec_to_json, write_dataset

SMALL_SPEC = SynthSpec(
    samples_per_class={"A": 10, "B": 10, "C": 10},
    background_genes=20,
    planted_per_class=6,
    effect_size=4.0,
    blocks=(BlockSpec(4, 0.9),),
    seed=1,
)


@pytest.fixture
def dataset(tmp_path):
    data = tmp_path / "data"
    m, planted, blocks = generate(SMALL_SPEC)
    write_dataset(m, planted, blocks, data)
    return data


def run(*argv):
    return main([str(a) for a in argv])


# sha256 over (file name, NUL, bytes) of each file `gcn --cohort A` writes for
# every SMALL_SPEC gene at the fixed threshold T, pinned on the `--override T`
# flag that `--sweep T:T:1` replaced
GOLDEN_FIXED_THRESHOLD = {
    "0.5": "9579b7ae1ed56ce8279b63c66c3ba9f6345c1bb23142142e64f0aef0bfbc4f07",
    "0.56": "1c6ac45bd0dcc992e421a1de7bc277339cb6aa5978ee49b9918d6c76f576ee8b",
}


class TestSubcommands:
    def test_synth(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_to_json(SMALL_SPEC))
        out = tmp_path / "made"
        assert run("synth", "--spec", spec_path, "--out", out) == 0
        assert (out / "matrix.tsv").exists()
        assert (out / "planted_A.genes").exists()

    def test_ingest_normalize_select_chain(self, dataset, tmp_path):
        ing = tmp_path / "ing"
        assert run(
            "ingest", "--matrix", dataset / "matrix.tsv", "--labels", dataset / "labels.tsv",
            "--keep-sites", "A,B,C", "--out", ing,
        ) == 0
        assert (ing / "cleansing.json").exists()
        assert (ing / "gene_stats.csv").exists()

        norm = tmp_path / "norm"
        assert run("normalize", "--scheme", "rank", "--in", ing, "--out", norm) == 0
        m = load_matrix(norm / "matrix.tsv", norm / "labels.tsv")
        assert m.values.min() >= 0.0 and m.values.max() <= 1.0

        sel = tmp_path / "select"
        assert run(
            "select", "--in", norm, "--t-combined", "0.2", "--pair", "A,B", "--out", sel,
        ) == 0
        gs = load_gene_set(sel / "set_refined.genes")
        assert len(gs) > 0

    def test_corr_outputs(self, dataset, tmp_path):
        heat = tmp_path / "hm.svg"
        csvp = tmp_path / "hm.csv"
        gm = tmp_path / "gm.csv"
        assert run(
            "corr", "--in", dataset, "--axis", "samples",
            "--heatmap", heat, "--csv", csvp, "--group-means", gm,
        ) == 0
        assert heat.exists() and csvp.exists()
        assert gm.read_text().startswith(",A,B,C")

    def test_folds_with_factors(self, dataset, tmp_path):
        assert run(
            "folds", "--in", dataset, "--k", "5", "--seed", "42",
            "--factors", "A:1,B:2,C:0", "--out", tmp_path / "folds",
        ) == 0
        plan_path = tmp_path / "folds" / "plan_balanced.json"
        payload = json.loads(plan_path.read_text())
        assert payload["k"] == 5
        assert payload["replication"] == {"A": 1, "B": 2, "C": 0}
        assert len(payload["expanded"]) == 10 * 2 + 10 * 3 + 10
        # the plan stores no replica list; the written rows keep their order and folds
        assert hashlib.sha256(plan_path.read_bytes()).hexdigest() == (
            "07215a65f20a72b913069144d9de75b017c56fe5a8c6f6cfefd91b7698d1e5d2")

    def test_folds_raw_plan_bytes_pinned(self, dataset, tmp_path):
        assert run("folds", "--in", dataset, "--k", "5", "--seed", "42", "--out", tmp_path / "folds") == 0
        plan_path = tmp_path / "folds" / "plan_raw.json"
        assert hashlib.sha256(plan_path.read_bytes()).hexdigest() == (
            "0ea110ff8511e9d9e877963e35c82659b35b898ec4b628d57e3afb32010d398c")

    def test_train_and_rfe(self, dataset, tmp_path):
        assert run("select", "--in", dataset, "--t-intersect", "0.2", "--out", tmp_path / "sel") == 0
        genes_out = tmp_path / "sel" / "set_primary.genes"
        model = tmp_path / "model"
        assert run(
            "train", "--in", dataset, "--genes", genes_out,
            "--n-estimators", "8", "--out", model,
        ) == 0
        payload = json.loads((model / "model.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["classes"] == ["A", "B", "C"]
        assert json.loads((model / "features.json").read_text()) == list(
            load_gene_set(genes_out).gene_ids)

        assert run("folds", "--in", dataset, "--k", "3", "--seed", "5", "--out", tmp_path / "folds") == 0
        rfe_out = tmp_path / "rfe"
        assert run(
            "rfe", "--in", dataset, "--genes", genes_out, "--plan", tmp_path / "folds" / "plan_raw.json",
            "--drop-per-step", "3", "--n-estimators", "8", "--seed", "5", "--out", rfe_out,
        ) == 0
        assert (rfe_out / "trace.csv").exists()
        assert (rfe_out / "best.genes").exists()

    def test_train_sampling_flags_reach_model_config(self, dataset, tmp_path):
        assert run("select", "--in", dataset, "--t-intersect", "0.2", "--out", tmp_path / "sel") == 0
        genes_out = tmp_path / "sel" / "set_primary.genes"
        model = tmp_path / "model"
        assert run(
            "train", "--in", dataset, "--genes", genes_out, "--n-estimators", "4",
            "--subsample", "0.5", "--colsample", "0.75", "--base-score", "0.25", "--out", model,
        ) == 0
        config = json.loads((model / "model.json").read_text())["config"]
        assert (config["subsample"], config["colsample"], config["base_score"]) == (0.5, 0.75, 0.25)

    def test_gcn_with_override(self, dataset, tmp_path):
        # a fixed threshold T is the sweep T:T:1
        genes_out = tmp_path / "all.genes"
        m = load_matrix(dataset / "matrix.tsv", dataset / "labels.tsv")
        genes_out.write_text("\n".join(m.gene_ids) + "\n")
        for t, digest in GOLDEN_FIXED_THRESHOLD.items():
            out = tmp_path / f"gcn{t}"
            assert run(
                "gcn", "--in", dataset, "--genes", genes_out, "--cohort", "A",
                "--sweep", f"{t}:{t}:1", "--out", out,
            ) == 0
            assert len((out / "sweep.csv").read_text().splitlines()) == 2
            h = hashlib.sha256()
            for p in sorted(out.iterdir()):
                h.update(p.name.encode() + b"\0" + p.read_bytes())
            assert h.hexdigest() == digest, t

    def test_gcn_non_finite_override_exits_1(self, dataset, tmp_path, caplog):
        genes_out = tmp_path / "blocks.genes"
        blocks = json.loads((dataset / "blocks.json").read_text())
        genes_out.write_text("\n".join(blocks["block0"]) + "\n")
        assert run(
            "gcn", "--in", dataset, "--genes", genes_out, "--cohort", "A",
            "--sweep", "nan:nan:1", "--out", tmp_path / "gcn",
        ) == 1
        assert any(r.message == "[gcn] sweep: sweep bounds and step must be finite" for r in caplog.records)

    def test_atlas_command(self, dataset, tmp_path):
        blocks = json.loads((dataset / "blocks.json").read_text())
        small = tmp_path / "key.genes"
        small.write_text("\n".join(blocks["block0"][:2]) + "\n")
        big = tmp_path / "all.genes"
        big.write_text("\n".join(blocks["block0"]) + "\n")
        out = tmp_path / "atlas"
        assert run(
            "atlas", "--in", dataset, "--nested", f"{small},{big}",
            "--cohorts", "A", "--sweep", "0.4:0.9:0.05", "--out", out,
        ) == 0
        assert (out / "summary.csv").exists()
        assert (out / "all_colored_by_A.graphml").exists()

    def test_atlas_single_nested_set_is_one_tier(self, dataset, tmp_path):
        blocks = json.loads((dataset / "blocks.json").read_text())
        genes = tmp_path / "all.genes"
        genes.write_text("\n".join(blocks["block0"]) + "\n")
        out = tmp_path / "atlas"
        assert run("atlas", "--in", dataset, "--nested", genes,
                   "--sweep", "0.4:0.9:0.05", "--out", out) == 0
        header = (out / "all_communities.csv").read_text().splitlines()[0]
        assert header == "community_rank,size,tier0,key_indices"


def one_empty_cohort(d):
    """A 13-gene bundle over LN 30, Bone 20, Liver 12 samples in which only the
    LN network is empty: the LN rows are centred and mutually orthogonal (every
    |r| is about 0), while Bone and Liver share two strong modules."""
    rng = np.random.default_rng(0)
    sizes = {"LN": 30, "Bone": 20, "Liver": 12}
    n_genes = 13
    n_ln = sizes["LN"]
    q, _ = np.linalg.qr(np.column_stack([np.ones(n_ln), rng.normal(size=(n_ln, n_genes))]))
    cols = [5.0 * q[:, 1:].T]
    module = np.arange(n_genes) % 2
    for site in ("Bone", "Liver"):
        f = rng.normal(size=(2, sizes[site]))
        cols.append(3.0 * f[module] + 0.3 * rng.normal(size=(n_genes, sizes[site])))
    labels = tuple(site for site, n in sizes.items() for _ in range(n))
    genes = tuple(f"g{i:02d}" for i in range(n_genes))
    m = ExpressionMatrix(genes, tuple(f"s{i}" for i in range(len(labels))), labels,
                         np.hstack(cols) + 10.0)
    d.mkdir()
    write_matrix(m, d / "matrix.tsv", d / "labels.tsv")
    save_gene_set(GeneSet("n5", genes[:5]), d / "n5.genes")
    save_gene_set(GeneSet("n13", genes), d / "n13.genes")
    return d


class TestAtlasSkipsFailedCohort:
    def test_empty_cohort_skipped_with_warning(self, tmp_path, caplog):
        d = one_empty_cohort(tmp_path / "data")
        out = tmp_path / "atlas"
        assert run("atlas", "--in", d, "--nested", f"{d / 'n5.genes'},{d / 'n13.genes'}",
                   "--sweep", "0.4:0.9:0.05", "--out", out) == 0
        assert any("cohort 'LN' network skipped" in r.message for r in caplog.records)
        assert (out / "Bone_colored_by_Liver.graphml").exists()
        assert not (out / "LN_communities.csv").exists()

    def test_no_network_left_exits_1(self, tmp_path, caplog):
        # the site networks are built over the all-sample network's giant
        # component, so an all-sample network without an edge leaves none
        d = one_empty_cohort(tmp_path / "data")
        out = tmp_path / "atlas"
        assert run("atlas", "--in", d, "--nested", f"{d / 'n5.genes'},{d / 'n13.genes'}",
                   "--sweep", "0.99:0.99:1", "--out", out) == 1
        assert [r.getMessage() for r in caplog.records if r.levelname != "INFO"] == [
            "every candidate threshold produced a zero-edge graph"]
        assert not out.exists()


class TestErrors:
    def test_missing_label_file_names_path(self, dataset, tmp_path, caplog):
        code = run(
            "ingest", "--matrix", dataset / "matrix.tsv",
            "--labels", tmp_path / "nope.tsv", "--out", tmp_path / "x",
        )
        assert code == 1
        assert any("nope.tsv" in r.message for r in caplog.records)

    def test_ragged_matrix_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("gene_id\ts1\ts2\ng1\t1\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("s1\tA\ns2\tB\n")
        assert run("ingest", "--matrix", bad, "--labels", labels, "--out", tmp_path / "o") == 1

    def test_degenerate_selection_threshold(self, dataset, tmp_path):
        assert run(
            "select", "--in", dataset, "--t-combined", "2.0", "--pair", "A,B",
            "--out", tmp_path / "x",
        ) == 1
        assert not (tmp_path / "x").exists()

    def test_select_keeping_no_gene_exits_1(self, dataset, tmp_path, caplog):
        # like the pipeline's select stage: sweep.csv is written, no gene set
        out = tmp_path / "select"
        assert run("select", "--in", dataset, "--t-intersect", "0.95", "--t-combined", "0.95",
                   "--out", out) == 1
        assert any(r.getMessage() == "combined selection kept no genes" for r in caplog.records)
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]

    def test_train_on_no_gene_exits_1(self, dataset, tmp_path, caplog):
        genes = tmp_path / "empty.genes"
        save_gene_set(GeneSet("empty", ()), genes)
        out = tmp_path / "model"
        assert run("train", "--in", dataset, "--genes", genes, "--n-estimators", "4",
                   "--out", out) == 1
        assert any("non-empty samples x features matrix" in r.getMessage() for r in caplog.records)
        assert not out.exists()


PIPELINE_INI = """\
[input]
matrix = {matrix}
labels = {labels}

[normalize]
scheme = rank

[select]
t_intersect = 0.15
t_combined = 0.2
pair = A,B

[folds]
k = 5

[booster]
n_estimators = 12
colsample = 0.4

[rfe]
drop_per_step = 2

[gcn]
sweep = 0.4:0.9:0.02

[run]
seed = 7
out = {out}
"""


@pytest.fixture
def pipeline_config(tmp_path):
    data = tmp_path / "data"
    m, planted, blocks = generate(SMALL_SPEC)
    write_dataset(m, planted, blocks, data)

    def write_cfg(out_name):
        cfg = tmp_path / f"{out_name}.ini"
        cfg.write_text(PIPELINE_INI.format(
            matrix=data / "matrix.tsv", labels=data / "labels.tsv", out=tmp_path / out_name,
        ))
        return cfg

    return tmp_path, write_cfg


class TestPipeline:
    def test_full_run_artifact_tree(self, pipeline_config):
        tmp_path, write_cfg = pipeline_config
        assert run("pipeline", "--config", write_cfg("run1")) == 0
        out = tmp_path / "run1"
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["root_seed"] == 7
        expected = [
            "ingest/matrix.tsv", "normalize/matrix.tsv", "select/set_primary.genes",
            "select/set_refined.genes", "select/sweep.csv", "folds/plan_raw.json",
            "folds/plan_balanced.json", "rfe_raw/best.genes", "rfe_balanced/best.genes",
            "model/model.json", "gcn/all/sweep.csv", "atlas/summary.csv",
        ]
        for rel in expected:
            assert rel in manifest["outputs"], rel
            assert (out / rel).exists()
        assert not (out / ".partial").exists()
        assert (out / "rfe_raw" / "trace.csv").exists()
        # a rerun into the used directory stops before the first stage
        manifest_bytes = (out / "MANIFEST.json").read_bytes()
        assert run("pipeline", "--config", write_cfg("run1")) == 1
        assert (out / "MANIFEST.json").read_bytes() == manifest_bytes
        assert not (out / ".partial").exists()

    def test_missing_input_fails_with_stage(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(PIPELINE_INI.format(
            matrix=tmp_path / "missing.tsv", labels=tmp_path / "missing2.tsv",
            out=tmp_path / "outx",
        ))
        assert run("pipeline", "--config", cfg) == 1
        marker = tmp_path / "outx" / ".partial"
        assert marker.exists()
        assert "ingest" in marker.read_text()


UNEQUAL_SPEC = SynthSpec(
    samples_per_class={"A": 12, "B": 8, "C": 10},
    background_genes=20,
    planted_per_class=6,
    effect_size=4.0,
    blocks=(BlockSpec(6, 0.9),),
    seed=3,
)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """A pipeline run with no configured pair on A/B/C labels of unequal sizes.
    Its booster draws columns, so a booster seeded with the folds' seed (or
    the reverse) would not give its RFE files."""
    tmp = tmp_path_factory.mktemp("agree")
    m, planted, blocks = generate(UNEQUAL_SPEC)
    write_dataset(m, planted, blocks, tmp / "data")
    cfg = PipelineConfig(
        matrix=tmp / "data" / "matrix.tsv", labels=tmp / "data" / "labels.tsv", out=tmp / "run",
        keep_sites=("C", "A", "B"), k=3, booster=BoosterConfig(n_estimators=4, colsample=0.5),
        drop_per_step=3, seed=11,
    )
    run_pipeline(cfg)
    return cfg


def assert_same_files(a, b, names=None):
    """`a` holds the files `names` (default: the files of `b`), each with `b`'s bytes."""
    names = names or sorted(p.name for p in b.iterdir())
    assert sorted(p.name for p in a.iterdir()) == names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def giant_genes(d):
    """The genes of the largest connected component (ties: the one holding the
    smallest gene ID) of the network in `d`, in graph.graphml node order."""
    nodes = re.findall(r'<node id="([^"]*)"', (d / "graph.graphml").read_text())
    root = {g: g for g in nodes}

    def find(g):
        while root[g] != g:
            g = root[g]
        return g

    for line in (d / "edges.tsv").read_text().splitlines()[1:]:
        u, v = line.split("\t")
        root[find(u)] = find(v)
    comps = {}
    for g in nodes:
        comps.setdefault(find(g), []).append(g)
    return min(comps.values(), key=lambda c: (-len(c), min(c)))


def stage_seeds(cfg):
    return json.loads((cfg.out / "MANIFEST.json").read_text())["stage_seeds"]


def booster_flags(config):
    return [x for name, value in hyperparameters(config).items()
            for x in ("--" + name.replace("_", "-"), value)]


class TestKeepSites:
    """`ingest --keep-sites` cleanses only the samples of the kept sites."""

    def _ingest(self, tmp_path, rows, keep_sites="LN,Bone"):
        matrix, labels = tmp_path / "m.tsv", tmp_path / "l.tsv"
        matrix.write_text("gene_id\tl1\tb1\tu1\n" + "".join(f"{row}\n" for row in rows))
        labels.write_text("l1\tLN\nb1\tBone\nu1\tLung\n")
        return run("ingest", "--matrix", matrix, "--labels", labels, "--keep-sites", keep_sites,
                   "--out", tmp_path / "o")

    def test_gene_nonzero_only_in_a_dropped_site_is_all_zero(self, tmp_path):
        assert self._ingest(tmp_path, ["g1\t0\t0\t2.5", "g2\t1\t2\t3"]) == 0
        assert json.loads((tmp_path / "o" / "cleansing.json").read_text())["removed_all_zero"] == 1
        m = load_matrix(tmp_path / "o" / "matrix.tsv", tmp_path / "o" / "labels.tsv")
        assert (m.gene_ids, m.sample_ids) == (("g2",), ("l1", "b1"))

    def test_duplicates_differing_only_in_a_dropped_site_do_not_conflict(self, tmp_path, caplog):
        assert self._ingest(tmp_path, ["g1\t1\t2\t3", "g1\t1\t2\t4"]) == 0
        assert json.loads((tmp_path / "o" / "cleansing.json").read_text())["removed_duplicates"] == 1
        assert not any("conflicting values" in r.getMessage() for r in caplog.records)

    def test_site_without_samples_exits_1(self, tmp_path, caplog):
        assert self._ingest(tmp_path, ["g1\t1\t2\t3"], keep_sites="LN,Liver") == 1
        assert any("keep_sites: 'Liver' is not a site label (LN, Bone, Lung)" in r.getMessage()
                   for r in caplog.records)
        assert not (tmp_path / "o").exists()


class TestCliMatchesPipeline:
    def test_ingest_and_normalize(self, pipeline_run, tmp_path):
        cfg = pipeline_run
        assert run("ingest", "--matrix", cfg.matrix, "--labels", cfg.labels,
                   "--keep-sites", "C,A,B", "--out", tmp_path / "ingest") == 0
        assert_same_files(tmp_path / "ingest", cfg.out / "ingest")
        assert set(json.loads((tmp_path / "ingest" / "cleansing.json").read_text())) >= {
            "n_genes", "n_samples"}
        assert run("normalize", "--scheme", cfg.scheme, "--in", tmp_path / "ingest",
                   "--out", tmp_path / "normalize") == 0
        assert_same_files(tmp_path / "normalize", cfg.out / "normalize")

    def test_gcn(self, pipeline_run, tmp_path):
        cfg = pipeline_run
        assert run("gcn", "--in", cfg.out / "normalize",
                   "--genes", cfg.out / "select" / "set_primary.genes",
                   "--seed", stage_seed(cfg.seed, "gcn"), "--out", tmp_path / "all") == 0
        assert (tmp_path / "all" / "partition.json").exists()
        assert_same_files(tmp_path / "all", cfg.out / "gcn" / "all")

    @pytest.mark.parametrize("site", ["A", "B", "C"])
    def test_gcn_site(self, pipeline_run, tmp_path, site):
        # a site network is built over the genes of the all-sample network's
        # giant component, listed in that network's node order
        cfg = pipeline_run
        genes = tmp_path / "giant.genes"
        genes.write_text("".join(f"{g}\n" for g in giant_genes(cfg.out / "gcn" / "all")))
        assert run("gcn", "--in", cfg.out / "normalize", "--genes", genes, "--cohort", site,
                   "--seed", stage_seed(cfg.seed, "gcn"), "--out", tmp_path / site) == 0
        assert_same_files(tmp_path / site, cfg.out / "gcn" / site)

    def test_folds(self, pipeline_run, tmp_path):
        cfg = pipeline_run
        assert run("folds", "--in", cfg.out / "normalize", "--k", cfg.k,
                   "--seed", stage_seeds(cfg)["folds"], "--out", tmp_path / "folds") == 0
        assert_same_files(tmp_path / "folds", cfg.out / "folds")

    @pytest.mark.parametrize("stage,plan", [("rfe_raw", "plan_raw"), ("rfe_balanced", "plan_balanced")])
    def test_rfe(self, pipeline_run, tmp_path, stage, plan):
        cfg = pipeline_run
        assert cfg.booster.colsample < 1
        start = cfg.out / "select" / "set_refined.genes"
        raw_best = cfg.out / "rfe_raw" / "best.genes"
        if stage == "rfe_balanced" and len(load_gene_set(raw_best)) > MIN_RFE_GENES + 1:
            start = raw_best
        out = tmp_path / stage
        assert run("rfe", "--in", cfg.out / "normalize", "--genes", start,
                   "--plan", cfg.out / "folds" / f"{plan}.json", "--drop-per-step", cfg.drop_per_step,
                   "--repeats", cfg.repeats, *booster_flags(cfg.booster),
                   "--seed", stage_seeds(cfg)["booster"], "--out", out) == 0
        # key_gene_indices.json is the balanced stage's own file
        assert_same_files(out, cfg.out / stage,
                          ["best.genes", "cv_report.json", "gene_sets.json", "trace.csv"])

    def test_train(self, pipeline_run, tmp_path):
        cfg = pipeline_run
        assert run("train", "--in", cfg.out / "normalize",
                   "--genes", cfg.out / "rfe_balanced" / "best.genes", *booster_flags(cfg.booster),
                   "--seed", stage_seeds(cfg)["booster"], "--out", tmp_path / "model") == 0
        assert_same_files(tmp_path / "model", cfg.out / "model")

    def test_atlas(self, pipeline_run, tmp_path):
        cfg = pipeline_run
        # the key genes listed by their index in key_gene_indices.json give the stage's indices
        key_index = json.loads((cfg.out / "rfe_balanced" / "key_gene_indices.json").read_text())
        key = tmp_path / "key.genes"
        key.write_text("".join(f"{g}\n" for g in sorted(key_index, key=key_index.get)))
        nested = [key, cfg.out / "rfe_raw" / "best.genes", cfg.out / "select" / "set_refined.genes",
                  cfg.out / "select" / "set_primary.genes"]
        assert run("atlas", "--in", cfg.out / "normalize", "--nested", ",".join(map(str, nested)),
                   "--seed", stage_seeds(cfg)["gcn"], "--out", tmp_path / "atlas") == 0
        assert_same_files(tmp_path / "atlas", cfg.out / "atlas")

    def test_select(self, pipeline_run, tmp_path):
        # the run sets no [select] key, so the flag defaults give its files
        cfg = pipeline_run
        assert cfg.pair is None
        assert run("select", "--in", cfg.out / "normalize", "--out", tmp_path / "select") == 0
        assert_same_files(tmp_path / "select", cfg.out / "select")
        # with no pair, the default one of these labels is the two largest classes
        assert "C_A*C_C" in load_gene_set(tmp_path / "select" / "set_refined.genes").provenance

    def test_config_with_only_required_keys_takes_dataclass_defaults(self, tmp_path):
        ini = tmp_path / "min.ini"
        ini.write_text("[input]\nmatrix = m.tsv\nlabels = l.tsv\n\n[run]\nout = o\n")
        assert load_config(ini) == PipelineConfig("m.tsv", "l.tsv", "o")


class TestDefaultPair:
    def test_ln_bone_first(self):
        assert default_pair(["Liver"] * 5 + ["Bone", "LN"]) == ("LN", "Bone")

    def test_two_largest_classes_then_name(self):
        assert default_pair(["A"] * 2 + ["B"] * 3 + ["C"] * 3) == ("B", "C")

    def test_one_site_raises(self):
        with pytest.raises(ValidationError, match="need at least 2 distinct site classes"):
            default_pair(["LN"] * 4)


class TestMalformedText:
    @pytest.mark.parametrize("factors", ["A", "A:x", "A:1,:2"])
    def test_bad_factors_flag_is_usage_error(self, dataset, tmp_path, capsys, factors):
        with pytest.raises(SystemExit) as exc:
            run("folds", "--in", dataset, "--factors", factors, "--out", tmp_path / "plan.json")
        assert exc.value.code == 2
        assert f"[folds] factors = {factors!r} is not SITE:N,..." in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["0.4:0.9", "a:b:c", "0.4:0.9:0.1:0.2"])
    def test_bad_sweep_flag_is_usage_error(self, dataset, tmp_path, sweep):
        with pytest.raises(SystemExit) as exc:
            run("gcn", "--in", dataset, "--genes", tmp_path / "g.genes", "--sweep", sweep,
                "--out", tmp_path / "gcn")
        assert exc.value.code == 2

    @pytest.mark.parametrize("section,line", [
        ("folds", "factors = LN"), ("select", "sweep = a:b:c"),
        ("gcn", "sweep = 0.4:0.9"),
    ])
    def test_bad_config_text_exits_1(self, tmp_path, caplog, section, line):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[input]\nmatrix = m.tsv\nlabels = l.tsv\n\n[run]\nout = o\n\n"
                       f"[{section}]\n{line}\n")
        assert run("pipeline", "--config", ini) == 1
        bad = line.split(" = ")[1]
        assert any(repr(bad) in r.message for r in caplog.records)

    @pytest.mark.parametrize("section,key,text", [("folds", "k", "ten"), ("booster", "max_depth", "3.0")])
    def test_bad_config_scalar_names_section_and_key(self, tmp_path, caplog, section, key, text):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[input]\nmatrix = m.tsv\nlabels = l.tsv\n\n[run]\nout = o\n\n"
                       f"[{section}]\n{key} = {text}\n")
        named = f"[{section}] {key} = {text!r}"
        with pytest.raises(ValidationError, match=re.escape(named)):
            load_config(ini)
        assert run("pipeline", "--config", ini) == 1
        assert any(named in r.message for r in caplog.records)


class TestFactorSites:
    """A factor naming a site twice, or a site without samples, fails before
    any plan is built."""

    def test_repeated_site_is_named(self, dataset, tmp_path, capsys):
        # a SITE:N map cannot hold the repeat: the flag's text does not parse (exit 2)
        with pytest.raises(SystemExit) as exc:
            run("folds", "--in", dataset, "--factors", "A:1,A:2", "--out", tmp_path / "plan.json")
        assert exc.value.code == 2
        assert "factors: 'A' is given more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["folds"])
    def test_absent_site_exits_1(self, dataset, tmp_path, caplog, command):
        out = tmp_path / "out"
        assert run(command, "--in", dataset, "--factors", "A:1,Lvier:5", "--out", out) == 1
        assert not out.exists()
        assert any("factors: 'Lvier' is not a site label (A, B, C)" in r.getMessage()
                   for r in caplog.records)

    def test_config_absent_site_stops_in_ingest(self, pipeline_config, caplog):
        tmp_path, write_cfg = pipeline_config
        ini = write_cfg("run")
        ini.write_text(ini.read_text().replace("[folds]\n", "[folds]\nfactors = A:1,Lvier:5\n"))
        assert run("pipeline", "--config", ini) == 1
        assert "ingest" in (tmp_path / "run" / ".partial").read_text()
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [".partial", "ingest"]
        assert any("stage 'ingest' failed" in r.getMessage()
                   and "factors: 'Lvier' is not a site label" in r.getMessage() for r in caplog.records)


class TestOneSitePair:
    def test_select_flag_exits_1(self, dataset, tmp_path, caplog):
        assert run("select", "--in", dataset, "--pair", "A", "--out", tmp_path / "x") == 1
        assert any("exactly two sites" in r.message for r in caplog.records)

    def test_config_pair_fails_select_stage(self, pipeline_config, caplog):
        tmp_path, write_cfg = pipeline_config
        cfg = write_cfg("onesite")
        cfg.write_text(cfg.read_text().replace("pair = A,B", "pair = LN"))
        assert run("pipeline", "--config", cfg) == 1
        assert "ingest" in (tmp_path / "onesite" / ".partial").read_text()
        assert any("stage 'ingest' failed" in r.message and "exactly two sites" in r.message
                   for r in caplog.records)

    def test_select_on_one_site_exits_1(self, dataset, tmp_path, caplog):
        one = tmp_path / "one"
        assert run("ingest", "--matrix", dataset / "matrix.tsv", "--labels", dataset / "labels.tsv",
                   "--keep-sites", "A", "--out", one) == 0
        out = tmp_path / "select"
        assert run("select", "--in", one, "--out", out) == 1
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "need at least 2 distinct site classes"]
        assert not out.exists()

    def test_config_one_site_stops_at_ingest(self, pipeline_config, caplog):
        tmp_path, write_cfg = pipeline_config
        ini = write_cfg("run")
        ini.write_text(ini.read_text().replace("pair = A,B\n", "").replace("[input]\n", "[input]\nkeep_sites = A\n"))
        assert run("pipeline", "--config", ini) == 1
        out = tmp_path / "run"
        assert (out / ".partial").read_text() == "failed at stage: ingest\nneed at least 2 distinct site classes\n"
        assert sorted(p.name for p in out.iterdir()) == [".partial", "ingest"]


SEEDED = {"folds", "train", "rfe", "gcn", "atlas", "pipeline"}


class TestFlags:
    def test_seed_only_where_a_seed_is_used_and_no_threads(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {name: {o for a in p._actions for o in a.option_strings}
                 for name, p in sub.choices.items()}
        assert {name for name, opts in flags.items() if "--seed" in opts} == SEEDED
        assert not any("--threads" in opts for opts in flags.values())

    @pytest.mark.parametrize("argv", [
        ("synth", "--spec", "spec.json", "--out", "o", "--seed", "1"),
        ("ingest", "--matrix", "m.tsv", "--labels", "l.tsv", "--out", "o", "--threads", "2"),
        ("gcn", "--in", "d", "--genes", "g.genes", "--out", "o", "--override", "0.5"),
        # rfe reads its folds from a `folds` plan file (--plan)
        ("rfe", "--in", "d", "--genes", "g.genes", "--plan", "p.json", "--out", "o", "--k", "10"),
        ("rfe", "--in", "d", "--genes", "g.genes", "--plan", "p.json", "--out", "o",
         "--factors", "A:1"),
        # renamed --drop-per-step, after its config key
        ("rfe", "--in", "d", "--genes", "g.genes", "--plan", "p.json", "--out", "o", "--drop", "1"),
    ])
    def test_removed_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2

    def test_pipeline_seed_zero_overrides_config_seed(self, pipeline_config):
        tmp_path, write_cfg = pipeline_config
        cfg = write_cfg("seed0")
        cfg.write_text(cfg.read_text().replace("seed = 7", "seed = 42"))
        assert run("pipeline", "--config", cfg, "--seed", "0") == 0
        assert json.loads((tmp_path / "seed0" / "MANIFEST.json").read_text())["root_seed"] == 0

    def test_rfe_on_min_genes_runs_one_step(self, dataset, tmp_path):
        genes = tmp_path / "three.genes"
        genes.write_text("\n".join(load_matrix(dataset / "matrix.tsv",
                                               dataset / "labels.tsv").gene_ids[:3]) + "\n")
        assert run("folds", "--in", dataset, "--k", "3", "--out", tmp_path / "folds") == 0
        out = tmp_path / "rfe"
        assert run("rfe", "--in", dataset, "--genes", genes, "--plan", tmp_path / "folds" / "plan_raw.json",
                   "--n-estimators", "4", "--out", out) == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 2
        assert load_gene_set(out / "best.genes").gene_ids == load_gene_set(genes).gene_ids

    def test_rfe_plan_of_another_matrix_exits_1(self, dataset, tmp_path, caplog):
        other = tmp_path / "other"
        m, planted, blocks = generate(UNEQUAL_SPEC)
        write_dataset(m, planted, blocks, other)
        assert run("folds", "--in", other, "--k", "3", "--out", tmp_path / "folds") == 0
        out = tmp_path / "rfe"
        assert run("rfe", "--in", dataset, "--genes", dataset / "planted_A.genes",
                   "--plan", tmp_path / "folds" / "plan_raw.json", "--n-estimators", "4",
                   "--out", out) == 1
        assert any("fold plan labels do not match the matrix" in r.getMessage()
                   for r in caplog.records)
        assert not out.exists()


MINIMAL_INI = "[input]\nmatrix = m.tsv\nlabels = l.tsv\n\n[run]\nout = o\n"

# the subcommands whose flag `--<key>` mirrors each config key; the pipeline's
# own --seed and --out replace the config's value, so they default to None
MIRRORS = {
    ("input", "matrix"): ("ingest",), ("input", "labels"): ("ingest",),
    ("input", "keep_sites"): ("ingest",),
    ("normalize", "scheme"): ("normalize",), ("normalize", "epsilon"): ("normalize",),
    ("select", "sweep"): ("select",), ("select", "t_intersect"): ("select",),
    ("select", "t_combined"): ("select",), ("select", "pair"): ("select",),
    ("folds", "k"): ("folds",), ("folds", "factors"): ("folds",),
    ("rfe", "drop_per_step"): ("rfe",), ("rfe", "repeats"): ("rfe",),
    ("gcn", "sweep"): ("gcn", "atlas"), ("gcn", "cohorts"): ("atlas",),
    ("run", "out"): (), ("run", "seed"): ("folds", "train", "rfe", "gcn", "atlas"),
    **{("booster", name): ("train", "rfe") for name in hyperparameters(BoosterConfig())},
}

# one value per checked key that parses but is out of range, and its check's message
BAD_VALUES = {
    ("normalize", "scheme"): ("rnak", "unknown scheme 'rnak'"),
    ("normalize", "epsilon"): ("0.5", "epsilon must lie in (0, 0.5)"),
    ("select", "sweep"): ("0.05:1.0:0.05", "threshold must lie in (0, 1), got 1.0"),
    ("select", "t_intersect"): ("0", "threshold must lie in (0, 1), got 0.0"),
    ("select", "t_combined"): ("1.0", "threshold must lie in (0, 1), got 1.0"),
    ("folds", "k"): ("1", "must be >= 2, got 1"),
    ("rfe", "drop_per_step"): ("0", "must be >= 1, got 0"),
    ("rfe", "repeats"): ("0", "must be >= 1, got 0"),
    ("gcn", "sweep"): ("0.4:0.9:0", "need step > 0 and t_max >= t_min"),
    ("gcn", "cohorts"): ("all", "'all' is not a site"),
}


class TestSettingsTable:
    """Each flag that mirrors a config key takes the key's default, and a bad
    value gives the same error through the flag as through a config file."""

    def _flag_errors(self, dataset, tmp_path, caplog, command, *flags):
        genes = dataset / "planted_A.genes"
        inputs = {"normalize": [], "select": [], "folds": [], "gcn": ["--genes", genes],
                  "rfe": ["--genes", genes, "--plan", tmp_path / "plan.json"],
                  "atlas": ["--nested", genes]}[command]
        out = tmp_path / "out"
        assert run(command, "--in", dataset, *inputs, *flags, "--out", out) == 1
        assert not out.exists()
        return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]

    def _config_errors(self, tmp_path, caplog, text):
        caplog.clear()
        ini = tmp_path / "bad.ini"
        ini.write_text(MINIMAL_INI + text)
        assert run("pipeline", "--config", ini) == 1
        return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]

    def test_every_key_is_listed(self):
        assert MIRRORS.keys() == SETTINGS.keys()
        assert BAD_VALUES.keys() == {k for k, setting in SETTINGS.items() if setting.check}

    @pytest.mark.parametrize("section,key", list(SETTINGS), ids="-".join)
    def test_flag_default_and_bad_value(self, dataset, tmp_path, caplog, section, key):
        setting = SETTINGS[section, key]
        default = getattr(BoosterConfig if section == "booster" else PipelineConfig, setting.field, None)
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flag = "--" + key.replace("_", "-")
        for command in MIRRORS[section, key]:
            (action,) = [a for a in sub.choices[command]._actions if flag in a.option_strings]
            assert (action.dest, action.default, action.help) == (setting.field, default, setting.help)
        if (section, key) not in BAD_VALUES:
            return
        value, message = BAD_VALUES[section, key]
        errors = self._flag_errors(dataset, tmp_path, caplog, MIRRORS[section, key][0], flag, value)
        assert len(errors) == 1 and errors[0].startswith(f"[{section}] {key}: {message}")
        assert self._config_errors(tmp_path, caplog, f"\n[{section}]\n{key} = {value}\n") == errors

    def test_select_sets_must_nest(self, dataset, tmp_path, caplog):
        errors = self._flag_errors(dataset, tmp_path, caplog, "select",
                                   "--t-intersect", "0.4", "--t-combined", "0.2")
        assert errors == ["[select] t_combined must be >= t_intersect so the selected sets nest"]
        text = "\n[select]\nt_intersect = 0.4\nt_combined = 0.2\n"
        assert self._config_errors(tmp_path, caplog, text) == errors


class TestStageTable:
    """Each stage's step declares its inputs, settings and seed once: the run
    and the subcommands built from the table read that one declaration."""

    def test_inputs_are_earlier_results_and_settings_are_config_keys(self):
        assert [name for name, _ in pipeline.STAGES] == list(STEPS)
        made = set()
        for name, step in STEPS.items():
            assert set(step.inputs) <= made, name
            assert set(step.settings) <= SETTINGS.keys(), name
            made.update(step.results)

    def test_seed_names_are_the_manifest_stage_seeds(self, pipeline_run):
        assert {step.seed for step in STEPS.values()} - {None} == stage_seeds(pipeline_run).keys()

    @pytest.mark.parametrize("command", list(STEP_COMMANDS))
    def test_subcommand_flags_are_the_declaration(self, command):
        step = STEPS[STEP_COMMANDS[command][0]]
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {o for a in sub.choices[command]._actions for o in a.option_strings}
        declared = {"--" + flag for flag in step.inputs.values()}
        declared |= {"--" + key.replace("_", "-") for _, key in step.settings}
        declared |= {"--seed"} if step.seed else set()
        assert options == declared | {"--out", "-v", "--verbose", "-h", "--help"}


class TestUnknownConfigKeys:
    @pytest.mark.parametrize("extra,named", [
        ("[booster]\nn_estimator = 5\n", "[booster] n_estimator"),
        ("[gcn]\nsweeep = 0.3:0.9:0.1\n", "[gcn] sweeep"),
        ("[networks]\nsweep = 0.3:0.9:0.1\n", "[networks]"),
        ("[DEFAULT]\nseed = 3\n", "[DEFAULT]"),
    ])
    def test_unknown_section_or_key_exits_1(self, tmp_path, caplog, extra, named):
        ini = tmp_path / "typo.ini"
        ini.write_text(MINIMAL_INI + "\n" + extra)
        with pytest.raises(ValidationError, match=re.escape(named)):
            load_config(ini)
        assert run("pipeline", "--config", ini) == 1
        assert any(named in r.message for r in caplog.records)

    def test_threads_key_is_unknown(self, tmp_path):
        ini = tmp_path / "threads.ini"
        ini.write_text(MINIMAL_INI + "threads = 2\n")
        with pytest.raises(ValidationError, match=re.escape("[run] threads")):
            load_config(ini)

    def test_every_unknown_key_is_named(self, tmp_path):
        ini = tmp_path / "two.ini"
        ini.write_text(MINIMAL_INI + "\n[booster]\nn_estimator = 5\n\n[gcn]\nsweeep = 0.3:0.9:0.1\n")
        with pytest.raises(ValidationError, match=r"\[booster\] n_estimator, \[gcn\] sweeep"):
            load_config(ini)


class TestOutsideFiles:
    """A file from outside that cannot be read ends in one logged line and exit 1."""

    def _fails_with(self, caplog, argv, *needles):
        assert run(*argv) == 1
        (msg,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert "\n" not in msg
        for needle in needles:
            assert needle in msg

    def test_latin1_matrix(self, tmp_path, caplog):
        matrix = tmp_path / "latin1.tsv"
        matrix.write_bytes(b"gene_id\ts1\ts2\nG\xe8ne\t1\t2\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("s1\tA\ns2\tB\n")
        self._fails_with(caplog, ("ingest", "--matrix", matrix, "--labels", labels,
                                  "--out", tmp_path / "o"), "latin1.tsv", "line 2", "UTF-8")

    def test_latin1_labels(self, tmp_path, caplog):
        matrix = tmp_path / "matrix.tsv"
        matrix.write_text("gene_id\ts1\ts2\ng1\t1\t2\n")
        labels = tmp_path / "sites.tsv"
        labels.write_bytes(b"s1\tA\ns2\tF\xe9mur\n")
        self._fails_with(caplog, ("ingest", "--matrix", matrix, "--labels", labels,
                                  "--out", tmp_path / "o"), "sites.tsv", "line 2", "UTF-8")

    def test_missing_gene_set(self, dataset, tmp_path, caplog):
        self._fails_with(caplog, ("train", "--in", dataset, "--genes", tmp_path / "nope.genes",
                                  "--out", tmp_path / "model.json"), "nope.genes")

    def test_config_without_section_header(self, tmp_path, caplog):
        ini = tmp_path / "flat.ini"
        ini.write_text("matrix = m.tsv\nlabels = l.tsv\n")
        self._fails_with(caplog, ("pipeline", "--config", ini), "flat.ini", "no section headers")

    def test_latin1_config(self, tmp_path, caplog):
        ini = tmp_path / "latin1.ini"
        ini.write_bytes(b"[input]\nmatrix = m.tsv\nlabels = G\xe8nes.tsv\n")
        self._fails_with(caplog, ("pipeline", "--config", ini), "latin1.ini", "line 3",
                         "is not UTF-8 text")

    def test_config_with_a_byte_order_mark_loads(self, pipeline_config):
        tmp_path, write_cfg = pipeline_config
        ini = write_cfg("run")
        bom = tmp_path / "bom.ini"
        bom.write_bytes(b"\xef\xbb\xbf" + ini.read_bytes())
        assert load_config(bom) == load_config(ini)

    def test_truncated_spec(self, tmp_path, caplog):
        spec = tmp_path / "spec.json"
        spec.write_text(spec_to_json(SMALL_SPEC)[:40])
        self._fails_with(caplog, ("synth", "--spec", spec, "--out", tmp_path / "o"),
                         "spec is not JSON")

    @pytest.mark.parametrize("text, needle", [
        ("{}", "spec has no key 'samples_per_class'"),
        ("[]", "spec is not a JSON object"),
        ('{"samples_per_class": [1, 2]}',
         "spec key 'samples_per_class' is malformed: TypeError('expected an object, got an array')"),
        ('{"samples_per_class": {"A": 3, "B": 3}, "background_gene": 5}',
         "spec has an unknown key 'background_gene'"),
        ('{"samples_per_class": {"A": 3, "B": 3}, "background_genes": 10.9}',
         "spec key 'background_genes' is malformed: TypeError('expected an integer, got 10.9')"),
        ('{"samples_per_class": {"A": 3, "B": 3}, "seed": true}',
         "spec key 'seed' is malformed: TypeError('expected an integer, got true')"),
        ('{"samples_per_class": {"A": 3, "B": 3}, "effect_size": "3"}',
         "spec key 'effect_size' is malformed: TypeError('expected a number, got \"3\"')"),
        ('{"samples_per_class": {"A": 3, "B": 3}, "blocks": [[4.5, 0.5]]}',
         "spec key 'blocks' is malformed: TypeError('expected an integer, got 4.5')"),
    ], ids=["empty", "list", "counts_as_list", "typo_key", "fractional_count", "boolean_seed",
            "string_effect_size", "fractional_block_size"])
    def test_malformed_spec(self, tmp_path, caplog, text, needle):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        self._fails_with(caplog, ("synth", "--spec", spec, "--out", tmp_path / "o"), needle)


class TestNonFiniteFlags:
    def test_nan_learning_rate_exits_1(self, dataset, tmp_path, caplog):
        genes = tmp_path / "g.genes"
        genes.write_text("BG0000\n")
        model = tmp_path / "model.json"
        assert run("train", "--in", dataset, "--genes", genes, "--learning-rate", "nan",
                   "--out", model) == 1
        assert any("learning_rate must be finite" in r.message for r in caplog.records)
        assert not model.exists()


class TestGroupMeansCsv:
    def test_site_with_comma_keeps_rows_whole(self, tmp_path):
        rng = np.random.default_rng(4)
        labels = ("L,N",) * 3 + ("Bone",) * 3 + ("Liver",) * 3
        m = ExpressionMatrix(tuple(f"g{i}" for i in range(6)), tuple(f"s{i}" for i in range(9)),
                             labels, rng.normal(size=(6, 9)))
        d = tmp_path / "data"
        d.mkdir()
        write_matrix(m, d / "matrix.tsv", d / "labels.tsv")
        gm = tmp_path / "gm.csv"
        assert run("corr", "--in", d, "--group-means", gm) == 0
        with open(gm, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["", "L,N", "Bone", "Liver"]
        assert [r[0] for r in rows[1:]] == ["L,N", "Bone", "Liver"]
        assert all(len(r) == 4 for r in rows)


    def test_zero_variance_sample_leaves_the_others_under_their_labels(self, tmp_path, caplog):
        # s2 holds 5 in every gene, so `pairwise` leaves it out of the correlations
        values = np.array([[1.0, 5, 2, 3, 1, 4], [2, 5, 1, 5, 3, 1], [4, 5, 3, 1, 2, 2]])
        m = ExpressionMatrix(("g1", "g2", "g3"), tuple(f"s{i}" for i in range(1, 7)),
                             ("A", "A", "B", "B", "C", "C"), values)
        d = tmp_path / "data"
        d.mkdir()
        write_matrix(m, d / "matrix.tsv", d / "labels.tsv")
        c, gm = tmp_path / "c.csv", tmp_path / "gm.csv"
        assert run("corr", "--in", d, "--axis", "samples", "--csv", c, "--group-means", gm) == 0
        assert any("excluding 1 zero-variance sample(s): s2" in r.getMessage() for r in caplog.records)
        with open(c, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        ids = ["s1", "s3", "s4", "s5", "s6"]  # grouped by label: A, B, B, C, C
        assert rows[0] == ["", *ids] and [r[0] for r in rows[1:]] == ids
        r = {(a, b): float(v) for a, row in zip(ids, rows[1:]) for b, v in zip(ids, row[1:])}
        with open(gm, newline="", encoding="utf-8") as fh:
            means = {row[0]: row[1:] for row in csv.reader(fh)}
        assert means[""] == ["A", "B", "C"]
        assert means["A"][0] == "nan"  # one A sample is left
        assert float(means["B"][1]) == r["s3", "s4"]
        assert float(means["A"][1]) == pytest.approx((r["s1", "s3"] + r["s1", "s4"]) / 2)
        assert float(means["B"][2]) == pytest.approx(np.mean([r[a, b] for a in ("s3", "s4")
                                                              for b in ("s5", "s6")]))


class TestReservedSiteName:
    """`all` names the all-sample network, so a site of that name is rejected at
    ingest and by `atlas`."""

    @pytest.fixture
    def all_site(self, tmp_path):
        m, planted, blocks = generate(UNEQUAL_SPEC)
        labels = tuple("all" if lab == "A" else lab for lab in m.labels)
        data = tmp_path / "data"
        write_dataset(replace(m, labels=labels), planted, blocks, data)
        return data

    def test_pipeline_stops_in_ingest(self, all_site, tmp_path):
        cfg = PipelineConfig(matrix=all_site / "matrix.tsv", labels=all_site / "labels.tsv",
                             out=tmp_path / "run", k=3, booster=BoosterConfig(n_estimators=4))
        with pytest.raises(StageError, match="reserved") as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "ingest"
        assert not (tmp_path / "run" / "gcn").exists()

    def test_ingest_exits_1(self, all_site, tmp_path, caplog):
        assert run("ingest", "--matrix", all_site / "matrix.tsv", "--labels",
                   all_site / "labels.tsv", "--out", tmp_path / "ingest") == 1
        assert any("site label 'all' is reserved" in r.getMessage() for r in caplog.records)

    def test_atlas_exits_1_and_writes_nothing(self, all_site, tmp_path, caplog):
        out = tmp_path / "atlas"
        assert run("atlas", "--in", all_site, "--nested", all_site / "planted_B.genes",
                   "--out", out) == 1
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "site label 'all' is reserved for the all-sample network"]
        assert not out.exists()


class TestSiteLabelIsAFileName:
    """Site labels name output paths (gcn/<site>/, atlas/<site>_*), so a label
    that is not a plain file-name component is rejected when the matrix loads."""

    @pytest.fixture
    def escaping(self, dataset):
        labels = dataset / "labels.tsv"
        labels.write_text(labels.read_text().replace("\tA\n", "\t../escaped\n"))
        return dataset

    def test_atlas_exits_1_and_writes_nothing(self, escaping, tmp_path, caplog):
        out = tmp_path / "atl"
        assert run("atlas", "--in", escaping, "--nested", escaping / "planted_B.genes",
                   "--out", out) == 1
        assert any("site label '../escaped' is not a plain file-name component" in r.getMessage()
                   for r in caplog.records)
        assert not out.exists() and not list(tmp_path.glob("escaped*"))

    def test_pipeline_stops_in_ingest(self, escaping, tmp_path):
        cfg = PipelineConfig(matrix=escaping / "matrix.tsv", labels=escaping / "labels.tsv",
                             out=tmp_path / "run", k=3, booster=BoosterConfig(n_estimators=4))
        with pytest.raises(StageError, match="'../escaped' is not a plain") as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "ingest"
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [".partial"]


# Every list of site names the user gives goes through `matrix.check_sites`,
# so each fault reads the same: (input, value, message) on the A/B/C data.
# `gcn --cohort` names one site, which cannot repeat.
SITE_NAMES = [
    pytest.param("keep_sites", "A,Lung", "keep_sites: 'Lung' is not a site label (A, B, C)",
                 id="keep_sites-unknown"),
    pytest.param("keep_sites", "A,B,A", "keep_sites: 'A' is given more than once",
                 id="keep_sites-repeated"),
    pytest.param("cohorts", "A,Lung", "cohorts: 'Lung' is not a site label (A, B, C)",
                 id="cohorts-unknown"),
    pytest.param("cohorts", "B,B", "cohorts: 'B' is given more than once", id="cohorts-repeated"),
    pytest.param("factors", "A:1,Lung:2", "factors: 'Lung' is not a site label (A, B, C)",
                 id="factors-unknown"),
    pytest.param("factors", "A:1,B:2,A:3", "factors: 'A' is given more than once",
                 id="factors-repeated"),
    pytest.param("pair", "A,Lung", "pair: 'Lung' is not a site label (A, B, C)", id="pair-unknown"),
    pytest.param("pair", "A,A", "pair: 'A' is given more than once", id="pair-repeated"),
    pytest.param("cohort", "Lung", "cohort: 'Lung' is not a site label (A, B, C)", id="cohort-unknown"),
]

CONFIG_SECTION = {"keep_sites": "input", "cohorts": "gcn", "factors": "folds", "pair": "select"}


class TestSiteNames:
    # a factor given twice does not parse into a SITE:N map; through the flag
    # that is a usage error (TestFactorSites::test_repeated_site_is_named)
    @pytest.mark.parametrize("name,value,message",
                             [p for p in SITE_NAMES if p.id != "factors-repeated"])
    def test_flag_exits_1_and_writes_nothing(self, dataset, tmp_path, caplog, name, value, message):
        genes = dataset / "planted_A.genes"
        argv = {
            "keep_sites": ["ingest", "--matrix", dataset / "matrix.tsv",
                           "--labels", dataset / "labels.tsv", "--keep-sites", value],
            "cohorts": ["atlas", "--in", dataset, "--nested", genes, "--cohorts", value],
            "factors": ["folds", "--in", dataset, "--factors", value],
            "pair": ["select", "--in", dataset, "--pair", value],
            "cohort": ["gcn", "--in", dataset, "--genes", genes, "--cohort", value],
        }[name]
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 1
        assert any(message in r.getMessage() for r in caplog.records if r.levelname == "ERROR")
        assert not out.exists()

    @pytest.mark.parametrize("name,value,message",
                             [p for p in SITE_NAMES if p.values[0] in CONFIG_SECTION])
    def test_config_stops_at_ingest(self, pipeline_config, name, value, message):
        tmp_path, write_cfg = pipeline_config
        ini = write_cfg("run")
        section = f"[{CONFIG_SECTION[name]}]\n"
        text = ini.read_text().replace("pair = A,B\n", "")
        ini.write_text(text.replace(section, f"{section}{name} = {value}\n"))
        out = tmp_path / "run"
        with pytest.raises(CoexpressError) as exc:
            run_pipeline(load_config(ini))
        assert message in str(exc.value)
        if (name, value) == ("factors", "A:1,B:2,A:3"):
            # a factor dict cannot hold the repeat, so the config reader refuses it
            assert not out.exists()
            return
        assert exc.value.stage == "ingest"
        assert (out / ".partial").read_text() == f"failed at stage: ingest\n{message}\n"
        # a bad keep_sites stops before cleansing; no stage after ingest runs
        written = [".partial"] if name == "keep_sites" else [".partial", "ingest"]
        assert sorted(p.name for p in out.iterdir()) == written


class TestCohortNames:
    """A cohort name that is not a site label, or is listed twice, fails before
    any network is built."""

    def _config(self, data, out, **kw):
        return PipelineConfig(matrix=data / "matrix.tsv", labels=data / "labels.tsv", out=out,
                              k=3, booster=BoosterConfig(n_estimators=4), **kw)

    @pytest.fixture
    def ln_dataset(self, tmp_path):
        m, planted, blocks = generate(SMALL_SPEC)
        data = tmp_path / "ln"
        write_dataset(replace(m, labels=tuple("LN" if lab == "A" else lab for lab in m.labels)),
                      planted, blocks, data)
        return data

    def test_atlas_repeated_cohort_exits_1(self, ln_dataset, tmp_path, caplog, monkeypatch):
        built = []
        build_weighted = pipeline.build_weighted

        def recording(m, genes, cohort):
            built.append(cohort)
            return build_weighted(m, genes, cohort)

        monkeypatch.setattr(pipeline, "build_weighted", recording)
        out = tmp_path / "atlas"
        assert run("atlas", "--in", ln_dataset, "--nested", ln_dataset / "planted_A.genes",
                   "--cohorts", "LN,LN", "--out", out) == 1
        assert built == []
        assert not out.exists()
        assert any("cohorts: 'LN' is given more than once" in r.getMessage()
                   for r in caplog.records)

    def test_pipeline_repeated_cohort_stops_in_ingest(self, ln_dataset, tmp_path):
        with pytest.raises(StageError, match="cohorts: 'LN' is given more than once") as exc:
            run_pipeline(self._config(ln_dataset, tmp_path / "run", cohorts=("LN", "LN")))
        assert exc.value.stage == "ingest"
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [".partial", "ingest"]

    def test_pipeline_unknown_cohort_stops_before_rfe(self, dataset, tmp_path):
        with pytest.raises(StageError, match="cohorts: 'Lung' is not a site label") as exc:
            run_pipeline(self._config(dataset, tmp_path / "run", cohorts=("A", "Lung")))
        assert exc.value.stage == "ingest"
        assert not (tmp_path / "run" / "rfe_raw").exists()
        assert not (tmp_path / "run" / "gcn").exists()

    def test_config_cohort_all_rejected(self, pipeline_config, caplog):
        tmp_path, write_cfg = pipeline_config
        with pytest.raises(ValidationError, match="'all' is not a site"):
            self._config(tmp_path, tmp_path / "run", cohorts=("A", "all"))
        ini = write_cfg("run")
        ini.write_text(ini.read_text().replace("[gcn]\n", "[gcn]\ncohorts = all\n"))
        assert run("pipeline", "--config", ini) == 1
        assert any("'all' is not a site" in r.getMessage() for r in caplog.records)
        assert not (tmp_path / "run").exists()

    def test_atlas_unknown_cohort_exits_1(self, dataset, tmp_path, caplog, monkeypatch):
        def no_network(*args, **kwargs):
            pytest.fail("a network was built")

        monkeypatch.setattr(pipeline, "build_weighted", no_network)
        out = tmp_path / "atlas"
        # `all` is no cohort: the all-sample network is always built
        for cohorts, message in (
                ("A,Lung", "cohorts: 'Lung' is not a site label (A, B, C)"),
                ("all", "[gcn] cohorts: 'all' is not a site; the all-sample network is always built")):
            caplog.clear()
            assert run("atlas", "--in", dataset, "--nested", dataset / "planted_A.genes",
                       "--cohorts", cohorts, "--out", out) == 1
            assert not out.exists()
            assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [message]

    def test_atlas_genes_not_in_matrix_is_one_error(self, dataset, tmp_path, caplog):
        nope = tmp_path / "nope.genes"
        nope.write_text("NOPE1\nNOPE2\n")
        assert run("atlas", "--in", dataset, "--nested", nope, "--out", tmp_path / "atlas") == 1
        assert [r.getMessage() for r in caplog.records if r.levelname != "INFO"] == [
            "genes not in matrix: ['NOPE1', 'NOPE2']"]

    def test_atlas_no_nested_set_is_one_error(self, dataset, tmp_path, caplog):
        assert run("atlas", "--in", dataset, "--nested", ",", "--out", tmp_path / "atlas") == 1
        assert [r.getMessage() for r in caplog.records if r.levelname != "INFO"] == [
            "need at least 1 gene set"]
        assert not (tmp_path / "atlas").exists()

    def test_atlas_bad_sweep_is_one_error_not_skipped_cohorts(self, dataset, tmp_path, caplog):
        assert run("atlas", "--in", dataset, "--nested", dataset / "planted_A.genes",
                   "--sweep", "0.4:0.9:0", "--out", tmp_path / "atlas") == 1
        assert [r.getMessage() for r in caplog.records if r.levelname != "INFO"] == [
            "[gcn] sweep: need step > 0 and t_max >= t_min"]


@pytest.mark.parametrize("section,sweep", [("gcn", "0.4:0.9:0"), ("select", "0.6:0.05:0.05"),
                                           ("gcn", "nan:0.9:0.02")])
def test_bad_sweep_fails_before_the_first_stage(pipeline_config, caplog, section, sweep):
    tmp_path, write_cfg = pipeline_config
    ini = write_cfg("run")
    text = ini.read_text().replace("[gcn]\nsweep = 0.4:0.9:0.02\n", "[gcn]\n")
    ini.write_text(text.replace(f"[{section}]\n", f"[{section}]\nsweep = {sweep}\n"))
    assert run("pipeline", "--config", ini) == 1
    assert any(f"[{section}] sweep:" in r.getMessage() for r in caplog.records)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section,key,value", [("folds", "k", "1"), ("rfe", "drop_per_step", "0"),
                                               ("rfe", "repeats", "0")])
def test_bad_count_fails_before_the_first_stage(pipeline_config, caplog, section, key, value):
    tmp_path, write_cfg = pipeline_config
    ini = write_cfg("run")
    text = re.sub(rf"^{key} = .*\n", "", ini.read_text(), flags=re.M)
    ini.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    assert run("pipeline", "--config", ini) == 1
    assert any(f"[{section}] {key}: must be >= " in r.getMessage() for r in caplog.records)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section,key,value,message", [
    ("normalize", "scheme", "rnak", "unknown scheme 'rnak'"),
    ("normalize", "epsilon", "0.5", "epsilon must lie in (0, 0.5)"),
    ("select", "sweep", "0.05:1.0:0.05", "threshold must lie in (0, 1), got 1.0"),
    ("select", "t_intersect", "0", "threshold must lie in (0, 1), got 0.0"),
    ("select", "t_combined", "1.0", "threshold must lie in (0, 1), got 1.0"),
])
def test_bad_value_fails_before_the_first_stage(pipeline_config, caplog, section, key, value, message):
    tmp_path, write_cfg = pipeline_config
    ini = write_cfg("run")
    text = re.sub(rf"^{key} = .*\n", "", ini.read_text(), flags=re.M)
    ini.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    assert run("pipeline", "--config", ini) == 1
    assert any(f"[{section}] {key}: {message}" in r.getMessage() for r in caplog.records)
    assert not (tmp_path / "run").exists()


def test_readme_commands_parse():
    # every `coexpress ...` line of the README's shell examples, continuation
    # lines joined, is accepted by the parser, so a removed flag cannot stay documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("coexpress ")]
    assert {argv[1] for argv in commands} >= {"folds", "rfe", "train", "gcn", "atlas"}
    for argv in commands:
        build_parser().parse_args(argv[1:])


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_gcn_sweep_of_too_many_thresholds_exits_1(dataset, tmp_path):
    # run in a child process with 1 GiB of address space, as an unbounded
    # sweep fills memory before it fails
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    argv = ["gcn", "--in", dataset, "--genes", dataset / "planted_A.genes",
            "--sweep", "0.4:0.9:1e-9", "--out", tmp_path / "gcn"]
    done = subprocess.run([sys.executable, "-m", "coexpress.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory)
    assert done.returncode == 1
    assert "exceeds the limit of 10000" in done.stderr
