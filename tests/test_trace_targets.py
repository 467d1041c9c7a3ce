"""The traced benchmark wraps bdlab by (module, attribute) name; a rename that
drops one of those boundaries must fail here, not only in a traced run."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, attribute, metric", _targets())
def test_trace_target_resolves(module, attribute, metric):
    obj = reduce(getattr, attribute.split("."), importlib.import_module(module))
    assert callable(obj), f"{module}.{attribute} ({metric})"
