"""Load every local module that a test file loads before any test runs.

Hypothesis draws float literals from the non-test local modules loaded so
far, so a `derandomize=True` property draws the same examples whether its
file runs alone or within the whole suite only if these are all loaded
first: bdlab.cli, which loads every bdlab module, and the benchmark's
workloads, which `test_benchmark_calls.py` takes from here.
"""

import importlib.util
import sys
from pathlib import Path

import bdlab.cli  # noqa: F401

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
_workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = _workloads  # its dataclasses look their module up there
_SPEC.loader.exec_module(_workloads)
