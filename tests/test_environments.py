"""The determinism contract as one table of environments.

Each row is a set of environment variables for a subprocess that runs the
golden tests: every row must reproduce the golden pipeline's MANIFEST
(`GOLDEN_OUTPUTS` in test_pipeline.py) and the `TestGoldenModels` digests bit
for bit. The rows vary what a machine or an interpreter can change without the
run's config changing: the string hash seed, the BLAS thread count and the
BLAS kernel.

A row joins the table with the change that makes it pass; none is an expected
failure. Rows that no change makes pass yet: numpy's lower SIMD dispatch
levels (the exp/log kernels of the booster's softmax and loss), shuffled input
rows and columns (the outputs follow the input file's order), and a
correlation near a threshold under every BLAS kernel.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TESTS = ("tests/test_pipeline.py::TestGoldenPipeline", "tests/test_booster.py::TestGoldenModels")

ENVIRONMENTS = {
    "hash-seed-1": {"PYTHONHASHSEED": "1"},
    "hash-seed-4242": {"PYTHONHASHSEED": "4242"},
    "blas-one-thread": {"OPENBLAS_NUM_THREADS": "1"},
    "blas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "blas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}


@pytest.mark.parametrize("env", ENVIRONMENTS.values(), ids=ENVIRONMENTS.keys())
def test_golden_digests_hold(env):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *GOLDEN_TESTS],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-1000:]
