import hashlib
import json
import re

import numpy as np
import pytest

from coexpress.booster import BoosterConfig
from coexpress.cli import main
from coexpress.errors import ValidationError
from coexpress.masks import GeneSet, default_pair, load_gene_set, save_gene_set
from coexpress.matrix import ExpressionMatrix, load_matrix, write_matrix
from coexpress.pipeline import PipelineConfig, load_config, run_pipeline, stage_seed
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
        # the plan stores no replica list; the written rows keep their order and folds
        assert hashlib.sha256(plan_path.read_bytes()).hexdigest() == (
            "07215a65f20a72b913069144d9de75b017c56fe5a8c6f6cfefd91b7698d1e5d2")

    def test_folds_raw_plan_bytes_pinned(self, dataset, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert run("folds", "--in", dataset, "--k", "5", "--seed", "42", "--out", plan_path) == 0
        assert hashlib.sha256(plan_path.read_bytes()).hexdigest() == (
            "0ea110ff8511e9d9e877963e35c82659b35b898ec4b628d57e3afb32010d398c")

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

    def test_atlas_single_nested_set_is_one_tier(self, dataset, tmp_path):
        blocks = json.loads((dataset / "blocks.json").read_text())
        genes = tmp_path / "all.genes"
        genes.write_text("\n".join(blocks["block0"]) + "\n")
        out = tmp_path / "atlas"
        assert run("atlas", "--in", dataset, "--nested", genes, "--cohorts", "all",
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
        d = one_empty_cohort(tmp_path / "data")
        assert run("atlas", "--in", d, "--nested", f"{d / 'n5.genes'},{d / 'n13.genes'}",
                   "--cohorts", "LN", "--sweep", "0.4:0.9:0.05", "--out", tmp_path / "atlas") == 1
        assert any("no cohort network remains" in r.message for r in caplog.records)


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
    """A pipeline run with no configured pair on A/B/C labels of unequal sizes."""
    tmp = tmp_path_factory.mktemp("agree")
    m, planted, blocks = generate(UNEQUAL_SPEC)
    write_dataset(m, planted, blocks, tmp / "data")
    cfg = PipelineConfig(
        matrix=tmp / "data" / "matrix.tsv", labels=tmp / "data" / "labels.tsv", out=tmp / "run",
        keep_sites=("C", "A", "B"), k=3, booster=BoosterConfig(n_estimators=4),
        drop_per_step=3, seed=11,
    )
    run_pipeline(cfg)
    return cfg


def assert_same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


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

    def test_select_default_pair(self, pipeline_run, tmp_path):
        cfg = pipeline_run
        out = tmp_path / "set_refined.genes"
        assert run("select", "--in", cfg.out / "normalize", "--rule", "combined",
                   "--threshold", cfg.t_combined, "--out", out) == 0
        assert out.read_bytes() == (cfg.out / "select" / "set_refined.genes").read_bytes()
        assert "C_A*C_C" in load_gene_set(out).provenance

    def test_config_with_only_required_keys_takes_dataclass_defaults(self, tmp_path):
        ini = tmp_path / "min.ini"
        ini.write_text("[input]\nmatrix = m.tsv\nlabels = l.tsv\n\n[run]\nout = o\n")
        assert load_config(ini) == PipelineConfig("m.tsv", "l.tsv", "o")


class TestDefaultPair:
    def test_ln_bone_first(self):
        assert default_pair(["Liver"] * 5 + ["Bone", "LN"]) == ("LN", "Bone")

    def test_two_largest_classes_then_name(self):
        assert default_pair(["A"] * 2 + ["B"] * 3 + ["C"] * 3) == ("B", "C")


class TestMalformedText:
    @pytest.mark.parametrize("factors", ["A", "A:x", "A:1,:2"])
    def test_bad_factors_exit_1(self, dataset, tmp_path, caplog, factors):
        assert run("folds", "--in", dataset, "--factors", factors,
                   "--out", tmp_path / "plan.json") == 1
        assert any(repr(factors) in r.message for r in caplog.records)

    @pytest.mark.parametrize("sweep", ["0.4:0.9", "a:b:c", "0.4:0.9:0.1:0.2"])
    def test_bad_sweep_flag_is_usage_error(self, dataset, tmp_path, sweep):
        with pytest.raises(SystemExit) as exc:
            run("gcn", "--in", dataset, "--genes", tmp_path / "g.genes", "--sweep", sweep,
                "--out", tmp_path / "gcn")
        assert exc.value.code == 2

    @pytest.mark.parametrize("section,line", [
        ("folds", "factors = LN"), ("select", "sweep = a:b:c"), ("gcn", "sweep = 0.4:0.9"),
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


class TestOneSitePair:
    def test_select_flag_exits_1(self, dataset, tmp_path, caplog):
        assert run("select", "--in", dataset, "--rule", "combined", "--pair", "A",
                   "--out", tmp_path / "x.genes") == 1
        assert any("exactly two sites" in r.message for r in caplog.records)

    def test_config_pair_fails_select_stage(self, pipeline_config, caplog):
        tmp_path, write_cfg = pipeline_config
        cfg = write_cfg("onesite")
        cfg.write_text(cfg.read_text().replace("pair = A,B", "pair = LN"))
        assert run("pipeline", "--config", cfg) == 1
        assert "select" in (tmp_path / "onesite" / ".partial").read_text()
        assert any("stage 'select' failed" in r.message and "exactly two sites" in r.message
                   for r in caplog.records)
