import json

import numpy as np
import pytest

from coexpress.cli import main
from coexpress.masks import load_gene_set
from coexpress.matrix import load_matrix
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

        genes_out = tmp_path / "chosen.genes"
        assert run(
            "select", "--in", norm, "--rule", "combined", "--threshold", "0.2",
            "--pair", "A,B", "--out", genes_out,
        ) == 0
        gs = load_gene_set(genes_out)
        assert len(gs) > 0

    def test_two_stage_select(self, dataset, tmp_path):
        out = tmp_path / "two.genes"
        assert run(
            "select", "--in", dataset, "--rule", "two-stage",
            "--t-intersect", "0.15", "--t-pair", "0.2", "--pair", "A,B", "--out", out,
        ) == 0
        assert load_gene_set(out).provenance.startswith("intersect@0.15")

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
        plan_path = tmp_path / "plan.json"
        assert run(
            "folds", "--in", dataset, "--k", "5", "--seed", "42",
            "--factors", "A:1,B:2,C:0", "--out", plan_path,
        ) == 0
        payload = json.loads(plan_path.read_text())
        assert payload["k"] == 5
        assert payload["replication"] == {"A": 1, "B": 2, "C": 0}
        assert len(payload["expanded"]) == 10 * 2 + 10 * 3 + 10

    def test_train_and_rfe(self, dataset, tmp_path):
        genes_out = tmp_path / "sel.genes"
        run("select", "--in", dataset, "--rule", "intersect", "--threshold", "0.2",
            "--out", genes_out)
        model = tmp_path / "model.json"
        assert run(
            "train", "--in", dataset, "--genes", genes_out,
            "--n-estimators", "8", "--out", model,
        ) == 0
        payload = json.loads(model.read_text())
        assert payload["schema_version"] == 1
        assert payload["classes"] == ["A", "B", "C"]

        rfe_out = tmp_path / "rfe"
        assert run(
            "rfe", "--in", dataset, "--genes", genes_out, "--k", "3",
            "--drop", "3", "--n-estimators", "8", "--seed", "5", "--out", rfe_out,
        ) == 0
        assert (rfe_out / "trace.csv").exists()
        assert (rfe_out / "best.genes").exists()

    def test_train_sampling_flags_reach_model_config(self, dataset, tmp_path):
        genes_out = tmp_path / "sel.genes"
        run("select", "--in", dataset, "--rule", "intersect", "--threshold", "0.2",
            "--out", genes_out)
        model = tmp_path / "model.json"
        assert run(
            "train", "--in", dataset, "--genes", genes_out, "--n-estimators", "4",
            "--subsample", "0.5", "--colsample", "0.75", "--base-score", "0.25", "--out", model,
        ) == 0
        config = json.loads(model.read_text())["config"]
        assert (config["subsample"], config["colsample"], config["base_score"]) == (0.5, 0.75, 0.25)

    def test_gcn_with_override(self, dataset, tmp_path):
        genes_out = tmp_path / "blocks.genes"
        blocks = json.loads((dataset / "blocks.json").read_text())
        genes_out.write_text("\n".join(blocks["block0"]) + "\n")
        out = tmp_path / "gcn"
        assert run(
            "gcn", "--in", dataset, "--genes", genes_out, "--cohort", "A",
            "--override", "0.5", "--out", out,
        ) == 0
        assert (out / "edges.tsv").exists()
        assert (out / "graph.graphml").exists()

    def test_atlas_command(self, dataset, tmp_path):
        blocks = json.loads((dataset / "blocks.json").read_text())
        small = tmp_path / "key.genes"
        small.write_text("\n".join(blocks["block0"][:2]) + "\n")
        big = tmp_path / "all.genes"
        big.write_text("\n".join(blocks["block0"]) + "\n")
        out = tmp_path / "atlas"
        assert run(
            "atlas", "--in", dataset, "--nested", f"{small},{big}",
            "--cohorts", "all,A", "--sweep", "0.4:0.9:0.05", "--out", out,
        ) == 0
        assert (out / "summary.csv").exists()
        assert (out / "all_colored_by_A.graphml").exists()


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
            "select", "--in", dataset, "--rule", "combined", "--threshold", "2.0",
            "--pair", "A,B", "--out", tmp_path / "x.genes",
        ) == 1


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
