"""Every function the benchmark's tracer wraps exists in the package, and
the pipeline calls it through the name the tracer rebinds, so a rename, a
deletion or a bypass fails here rather than in a traced benchmark run.
Every name the package exports resolves too, so a stale export fails."""

import importlib
import os
import sys

import pytest

import edgecolor
from edgecolor.generators import gen_complete_minus_matching
from edgecolor.reduction import color_odd_dense

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _ in tracing.WRAPS])
def test_wrapped_name_resolves(module_name, attr):
    target = importlib.import_module(f"edgecolor.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_package_exports_resolve():
    assert [name for name in edgecolor.__all__ if not hasattr(edgecolor, name)] == []


def test_traced_run_records_one_reduction_case():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        color_odd_dense(gen_complete_minus_matching(7, 3), 0.2)
    finally:
        tracer.uninstall()
    assert tracer.group_count.get("reduction.case") == 1
