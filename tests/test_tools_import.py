"""Every script under tools/ imports against the package: a deletion that
removes a name a tool imports must fail here, not in the tool's next run."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parents[1] / "tools").glob("*.py"))


def test_there_are_tools():
    assert TOOLS


@pytest.mark.parametrize("path", TOOLS, ids=[p.stem for p in TOOLS])
def test_tool_imports(path):
    # loaded under another name, so its guarded main() does not run
    spec = importlib.util.spec_from_file_location(f"bdlab_tool_{path.stem}", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert callable(tool.main)
