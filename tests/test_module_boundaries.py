"""A bdlab module uses only the public names of the others: no module imports,
or reads through an imported module, another module's underscore-prefixed
name.  Dunder names such as `__version__` are public."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bdlab"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_uses(tree: ast.Module, own: str):
    """(line, module, name) for each private name this module takes from
    another bdlab module."""
    modules = {}  # local name -> bdlab module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "bdlab":
                continue
            source = module.removeprefix("bdlab").lstrip(".")
            for alias in node.names:
                if not source:  # from . import energy
                    modules[alias.asname or alias.name] = alias.name
                elif source != own and _private(alias.name):
                    yield node.lineno, source, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("bdlab.") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix("bdlab.")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and modules.get(node.value.id, own) != own
            and _private(node.attr)
        ):
            yield node.lineno, modules[node.value.id], node.attr


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    uses = list(_private_uses(ast.parse(path.read_text()), path.stem))
    assert not uses, f"{path.name} uses private names of other modules: {uses}"


def test_checker_sees_private_imports():
    tree = ast.parse(
        "from .energy import _x, ok\n"
        "from bdlab.geometry import _y\n"
        "from . import fields\n"
        "import bdlab.functions as fn\n"
        "fields._z; fn._w; fields.__name__; _v\n"
    )
    names = sorted((m, n) for _, m, n in _private_uses(tree, "cli"))
    assert names == [("energy", "_x"), ("fields", "_z"), ("functions", "_w"), ("geometry", "_y")]
    assert list(_private_uses(ast.parse("from .energy import _x"), "energy")) == []
