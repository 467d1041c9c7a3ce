"""The benchmark's workloads call bdlab by name, with keyword arguments; a
change of the API they use must fail here, not only in a benchmark run.
Every workload is built at its smoke size and every step runs once."""

import pytest

import perfbench_workloads as workloads  # perfbench/workloads.py, loaded by conftest.py


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_step_runs_and_passes_its_checks(name, tmp_path):
    steps = workloads.build(name, 0, True, str(tmp_path))
    assert steps
    for step in steps:
        result = step.check(step.run())
        failed = [(check, detail) for check, passed, detail in result.checks if not passed]
        assert result.checks and not failed, (step.label, failed)
