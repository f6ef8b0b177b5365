"""The benchmark's tracer wraps program functions by module and name; a rename
must fail here rather than only under `perfbench/run.py --trace 1`."""
import importlib.util
import sys
from pathlib import Path

import pytest

from coexpress.folds import oversample, stratified_folds

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)  # defines only; nothing is wrapped until `install`
    return module


def test_every_wrapped_name_resolves(tracer):
    for module, attr, span, _ in tracer.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_cv_split_rows_counter_reads_the_plan(tracer):
    (count,) = [c for m, attr, _, c in tracer.WRAPPED if attr == "cv_split"]
    plan = oversample(stratified_folds(["A"] * 4 + ["B"] * 2, 2, seed=0), {"B": 3})
    assert count((plan, 0), {}, None) == {"rows": 4 + 2 * 4}
