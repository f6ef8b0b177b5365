"""Golden pipeline run: a small planted dataset through every stage, MANIFEST outputs pinned.

The run covers ingest and normalize matrix writes, greedy community detection on
the all-cohort network, two cohort networks and one skipped cohort, in about a second.
"""
import hashlib
import json
import logging
import re
from pathlib import Path

import pytest

from coexpress.booster import BoosterConfig
from coexpress.errors import StageError
from coexpress.pipeline import SETTINGS, STAGES, PipelineConfig, _config_echo, load_config, run_pipeline
from coexpress.synthetic import BlockSpec, SynthSpec, generate, write_dataset

# sha256 of the MANIFEST `outputs` map (path -> sha256) of the golden run
GOLDEN_OUTPUTS = "14a5861bc6b4a58002387e7e103d134306ccfcb1b3c66514f17872b5fea39dd9"
# sha256 of the whole MANIFEST.json (config echo, seeds, threads, inputs, outputs; no paths)
GOLDEN_MANIFEST = "6a41ac92e67b5d3fe00b5fb2ebcafcf8f95eb58ba97ac5ad813b42e7b9bd89cf"

GOLDEN_SPEC = SynthSpec(
    samples_per_class={"LN": 18, "Bone": 14, "Liver": 10},
    background_genes=40,
    planted_per_class=10,
    effect_size=3.0,
    blocks=(BlockSpec(14, 0.9), BlockSpec(10, 0.8)),
    seed=5,
)


def run_golden(tmp_path):
    m, planted, blocks = generate(GOLDEN_SPEC)
    write_dataset(m, planted, blocks, tmp_path / "data")
    cfg = PipelineConfig(
        matrix=tmp_path / "data" / "matrix.tsv",
        labels=tmp_path / "data" / "labels.tsv",
        out=tmp_path / "run",
        k=3,
        booster=BoosterConfig(n_estimators=8),
        drop_per_step=2,
        seed=13,
    )
    return run_pipeline(cfg)


@pytest.fixture(scope="module")
def golden_manifest(tmp_path_factory):
    return run_golden(tmp_path_factory.mktemp("golden"))


class TestGoldenPipeline:
    def test_manifest_outputs_unchanged(self, golden_manifest):
        outputs = json.loads(golden_manifest.read_text())["outputs"]
        digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
        assert digest == GOLDEN_OUTPUTS

    def test_manifest_bytes_unchanged(self, golden_manifest):
        assert hashlib.sha256(golden_manifest.read_bytes()).hexdigest() == GOLDEN_MANIFEST


class TestOutputDirectory:
    """The output directory must be empty or absent, so the manifest lists only
    the run's files (a rerun into a used one: TestPipeline in test_cli.py)."""

    def test_empty_directory_runs_as_an_absent_one(self, tmp_path):
        (tmp_path / "run").mkdir()
        assert hashlib.sha256(run_golden(tmp_path).read_bytes()).hexdigest() == GOLDEN_MANIFEST


class TestStageLog:
    def test_each_stage_logs_its_wall_time_in_run_order(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="coexpress.pipeline")
        manifest = run_golden(tmp_path)
        timed = [re.fullmatch(r"pipeline stage (\w+) took \d+\.\d{3} s", r.getMessage())
                 for r in caplog.records]
        assert [t[1] for t in timed if t] == [name for name, _ in STAGES]
        assert hashlib.sha256(manifest.read_bytes()).hexdigest() == GOLDEN_MANIFEST


class TestNullData:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pure_noise_fails_in_select(self, tmp_path, seed):
        # paper-shaped cohort, no planted signal: at the default thresholds the
        # combined rule keeps no gene, so the run stops before any model is fit
        spec = SynthSpec(samples_per_class={"LN": 90, "Bone": 50, "Liver": 20},
                         background_genes=1800, planted_per_class=0, seed=seed)
        m, planted, blocks = generate(spec)
        write_dataset(m, planted, blocks, tmp_path / "data")
        cfg = PipelineConfig(tmp_path / "data" / "matrix.tsv", tmp_path / "data" / "labels.tsv",
                             tmp_path / "run", seed=seed)
        with pytest.raises(StageError, match="combined selection kept no genes") as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "select"
        assert not (tmp_path / "run" / "folds").exists()


class TestConfigEcho:
    def test_empty_factors_and_cohorts_echo_apart_from_unset(self, tmp_path):
        # `{}` adds no extra copies where unset derives them, and `()` builds
        # only the "all" network where unset builds every site's
        ini = tmp_path / "empty.ini"
        ini.write_text("[input]\nmatrix = m.tsv\nlabels = l.tsv\n\n[folds]\nfactors = ,\n\n"
                       "[gcn]\ncohorts = ,\n\n[run]\nout = o\n")
        cfg = load_config(ini)
        assert (cfg.factors, cfg.cohorts) == ({}, ())
        echo = _config_echo(cfg)
        assert (echo["factors"], echo["cohorts"]) == ({}, [])
        unset = _config_echo(PipelineConfig("m.tsv", "l.tsv", "o"))
        assert (unset["factors"], unset["cohorts"]) == (None, None)

    def test_echo_keys_are_the_config_table_fields(self):
        # every setting read from the config file but the paths and the seed
        fields = {s.field for (section, _), s in SETTINGS.items()
                  if section != "booster" and s.parse is not Path} - {"seed"}
        assert _config_echo(PipelineConfig("m.tsv", "l.tsv", "o")).keys() == fields | {"booster"}
