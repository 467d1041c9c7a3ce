"""The benchmark's workloads call bdlab by name, with keyword arguments; a
change of the API they use must fail here, not only in a benchmark run.
Every workload is built at its smoke size and every step runs once."""

import importlib.util
import sys
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(SPEC)
sys.modules[SPEC.name] = workloads  # its dataclasses look their module up there
SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_step_runs_and_passes_its_checks(name, tmp_path):
    steps = workloads.build(name, 0, True, str(tmp_path))
    assert steps
    for step in steps:
        result = step.check(step.run())
        failed = [(check, detail) for check, passed, detail in result.checks if not passed]
        assert result.checks and not failed, (step.label, failed)
