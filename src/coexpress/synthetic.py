"""Planted-signal synthetic expression data, the testing oracle for the pipeline."""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .masks import GeneSet, save_gene_set
from .matrix import ExpressionMatrix, write_matrix
from .textio import array, json_text, mapping, number, read_json, row, whole, write_json

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BlockSpec:
    """A co-expression block: n_genes sharing one latent factor with the given loading."""

    n_genes: int
    loading: float

    def __post_init__(self):
        if self.n_genes < 0:
            raise ValidationError("block gene count must be >= 0")
        if not 0.0 <= self.loading <= 1.0:
            raise ValidationError("loading must lie in [0, 1]")


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters. Effect size is a mean shift in units of the noise sigma."""

    samples_per_class: dict[str, int]
    background_genes: int = 50
    planted_per_class: int = 10
    effect_size: float = 3.0
    noise_sigma: float = 1.0
    blocks: tuple[BlockSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "samples_per_class", dict(self.samples_per_class))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.samples_per_class) < 2:
            raise ValidationError("need at least 2 classes")
        if any(n < 2 for n in self.samples_per_class.values()):
            raise ValidationError("need at least 2 samples per class")
        if self.background_genes < 0 or self.planted_per_class < 0:
            raise ValidationError("gene counts must be >= 0")
        if self.effect_size < 0:
            raise ValidationError("effect size must be >= 0")
        if self.noise_sigma <= 0:
            raise ValidationError("noise sigma must be > 0")


def generate(spec: SynthSpec) -> tuple[ExpressionMatrix, dict[str, GeneSet], dict[str, tuple[str, ...]]]:
    """Build the matrix plus ground truth (planted gene sets per class, block membership).

    Background genes are iid Gaussian noise. A gene planted for class c adds
    effect_size * sigma on c's samples. A block gene is
    sigma * (loading * factor + sqrt(1 - loading^2) * eps) with one latent
    standard-normal factor per block per sample, so within-block correlation
    is loading^2 and reaches 1 as the idiosyncratic part vanishes; factors
    are independent across blocks.
    """
    rng = np.random.default_rng(spec.seed)
    classes = list(spec.samples_per_class)
    labels: list[str] = []
    for cl in classes:
        labels.extend([cl] * spec.samples_per_class[cl])
    n = len(labels)
    if n == 0:
        raise ValidationError("zero total samples")
    sample_ids = tuple(f"S{i:04d}" for i in range(n))
    label_arr = np.asarray(labels, dtype=object)

    gene_ids: list[str] = []
    rows: list[np.ndarray] = []
    sigma = spec.noise_sigma

    for b in range(spec.background_genes):
        gene_ids.append(f"BG{b:04d}")
        rows.append(rng.normal(0.0, sigma, size=n))

    planted: dict[str, GeneSet] = {}
    for cl in classes:
        ids = []
        indicator = (label_arr == cl).astype(np.float64)
        for p in range(spec.planted_per_class):
            gid = f"PL_{cl}_{p:03d}"
            ids.append(gid)
            gene_ids.append(gid)
            rows.append(rng.normal(0.0, sigma, size=n) + spec.effect_size * sigma * indicator)
        planted[cl] = GeneSet(f"planted_{cl}", tuple(ids), provenance=f"planted for class {cl}")

    blocks: dict[str, tuple[str, ...]] = {}
    for bi, block in enumerate(spec.blocks):
        factor = rng.normal(0.0, 1.0, size=n)
        idio = np.sqrt(max(0.0, 1.0 - block.loading**2))
        ids = []
        for p in range(block.n_genes):
            gid = f"BK{bi}_{p:03d}"
            ids.append(gid)
            gene_ids.append(gid)
            rows.append(sigma * (block.loading * factor + idio * rng.normal(0.0, 1.0, size=n)))
        blocks[f"block{bi}"] = tuple(ids)

    if not rows:
        raise ValidationError("spec generates no genes")
    m = ExpressionMatrix(tuple(gene_ids), sample_ids, tuple(labels), np.vstack(rows))
    return m, planted, blocks


def spec_to_json(spec: SynthSpec) -> str:
    return json_text({**asdict(spec), "blocks": [[b.n_genes, b.loading] for b in spec.blocks]})


_SPEC_KEYS = {
    "samples_per_class": lambda v: mapping(v, whole),
    "background_genes": whole,
    "planted_per_class": whole,
    "effect_size": number,
    "noise_sigma": number,
    "blocks": lambda v: array(v, lambda b: BlockSpec(*row(b, whole, number))),
    "seed": whole,
}


def spec_from_json(text: str) -> SynthSpec:
    """A spec from JSON (ParseErrors name `spec`); keys other than
    `samples_per_class` may be absent and take the SynthSpec defaults."""
    return SynthSpec(**read_json(text, "spec", _SPEC_KEYS, required=("samples_per_class",)))


def write_dataset(
    m: ExpressionMatrix,
    planted: Mapping[str, GeneSet],
    blocks: Mapping[str, Sequence[str]],
    out_dir: str | Path,
) -> None:
    """Emit matrix.tsv, labels.tsv, per-class truth gene sets, and blocks.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(m, out / "matrix.tsv", out / "labels.tsv")
    for cl, gs in planted.items():
        save_gene_set(gs, out / f"planted_{cl}.genes")
    write_json(out / "blocks.json", {k: list(v) for k, v in blocks.items()})
