"""Golden pipeline run: a small planted dataset through every stage, MANIFEST outputs pinned.

The run covers ingest and normalize matrix writes, greedy community detection on
the all-cohort network, two cohort networks and one skipped cohort, in about a second.
"""
import hashlib
import json

from coexpress.booster import BoosterConfig
from coexpress.pipeline import PipelineConfig, run_pipeline
from coexpress.synthetic import BlockSpec, SynthSpec, generate, write_dataset

# sha256 of the MANIFEST `outputs` map (path -> sha256) of the golden run
GOLDEN_OUTPUTS = "14a5861bc6b4a58002387e7e103d134306ccfcb1b3c66514f17872b5fea39dd9"

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
    return json.loads(run_pipeline(cfg).read_text())["outputs"]


class TestGoldenPipeline:
    def test_manifest_outputs_unchanged(self, tmp_path):
        outputs = run_golden(tmp_path)
        digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
        assert digest == GOLDEN_OUTPUTS
