"""Every function the benchmark's tracer wraps exists in the package, so a
rename or deletion fails here rather than in a traced benchmark run."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _ in tracing.WRAPS])
def test_wrapped_name_resolves(module_name, attr):
    target = importlib.import_module(f"edgecolor.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
