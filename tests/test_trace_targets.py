"""The traced benchmark wraps bdlab by (module, attribute) name; a rename that
drops one of those boundaries must fail here, not only in a traced run."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

from bdlab.ellipticity import counterexample1_competitor
from bdlab.geometry import extract_interfaces

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets():
    return _spans().TARGETS


@pytest.mark.parametrize("module, attribute, metric", _targets())
def test_trace_target_resolves(module, attribute, metric):
    obj = reduce(getattr, attribute.split("."), importlib.import_module(module))
    assert callable(obj), f"{module}.{attribute} ({metric})"


def test_counters_read_real_outputs():
    # the counters take len() of what the traced calls return: the CE1
    # competitor has 8 interfaces, every one a jump
    spans = _spans()
    tracer = spans.Tracer()
    u = counterexample1_competitor(1.0)
    args = (u.partition.vertices, u.partition.counts, u.partition.tol)
    spans.COUNTERS["PiecewiseAffine.jump_segments"](tracer, (u,), u.jump_segments())
    spans.COUNTERS["extract_interfaces"](tracer, args, extract_interfaces(*args))
    assert tracer.counts["functions.segments"] == 8
    assert tracer.counts["geometry.interfaces"] == 8
