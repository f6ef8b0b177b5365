from dataclasses import replace

import numpy as np
import pytest

from coexpress.masks import GeneSet
from coexpress.matrix import ExpressionMatrix
from coexpress.normalize import NormalizationScheme, normalize_matrix
from coexpress.synthetic import BlockSpec, SynthSpec, generate

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # the same examples on every run, and no timing failures on a loaded host
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")

# Planted fixture shared across tests: 3 balanced classes, 60 samples,
# 50 background + 10 planted genes per class, 3-sigma effect.
PLANTED_SPEC = SynthSpec(
    samples_per_class={"A": 20, "B": 20, "C": 20},
    background_genes=50,
    planted_per_class=10,
    effect_size=3.0,
    seed=0,
)


@pytest.fixture(scope="session")
def planted_bundle():
    return generate(PLANTED_SPEC)


@pytest.fixture(scope="session")
def planted_rank(planted_bundle):
    m, planted, blocks = planted_bundle
    return normalize_matrix(m, NormalizationScheme("rank")), planted


@pytest.fixture(scope="session")
def golden_atlas_input():
    """The pinned atlas input: three sites with four co-expression blocks, and
    four nested tiers (5 < 13 < 34 < every gene) from a seeded permutation."""
    spec = SynthSpec(
        samples_per_class={"LN": 30, "Bone": 20, "Liver": 12},
        background_genes=36,
        planted_per_class=0,
        blocks=(BlockSpec(12, 0.95), BlockSpec(10, 0.85), BlockSpec(8, 0.75),
                BlockSpec(6, 0.7)),
        seed=7,
    )
    m, _, _ = generate(spec)
    order = np.random.default_rng(7).permutation(m.n_genes)
    ids = [m.gene_ids[i] for i in order]
    return m, [GeneSet(f"tier{n}", tuple(ids[:n])) for n in (5, 13, 34, m.n_genes)]


@pytest.fixture(scope="session")
def take_columns():
    """A function of (m, cols): `m` with only the samples `cols`, in that order."""
    return lambda m, cols: replace(m, sample_ids=tuple(m.sample_ids[j] for j in cols),
                                   labels=tuple(m.labels[j] for j in cols), values=m.values[:, cols])


@pytest.fixture
def tiny_matrix():
    return ExpressionMatrix(
        gene_ids=("g1", "g2", "g3"),
        sample_ids=("s1", "s2", "s3", "s4"),
        labels=("LN", "LN", "Bone", "Bone"),
        values=np.array(
            [
                [1.0, 2.0, 3.0, 4.0],
                [4.0, 3.0, 2.0, 1.0],
                [1.0, 1.0, 5.0, 5.0],
            ]
        ),
    )
