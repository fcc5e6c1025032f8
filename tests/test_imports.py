"""Each module reads every name it imports; no linter is installed to say so."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scatterpoly"
# __init__.py is left out: its imports are re-exports
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` aside) and never loads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(set(imported) - read)


def test_unread_imports_are_caught():
    assert unread_imports("import os\nfrom x import a, b as c\nprint(a)\n") == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_imports(path):
    assert unread_imports(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """``module.name`` of each ``_``-prefixed name a module imports from another."""
    return sorted(f"{node.module or '.'}.{a.name}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  for a in node.names if a.name.startswith("_"))


def test_private_imports_are_caught():
    source = "from .field import _a, b\nfrom x import _c as c\nimport _d\n"
    assert private_imports(source) == ["field._a", "x._c"]


# a private name is its module's own: another module that needs it asks the
# owner for a public door instead
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []
