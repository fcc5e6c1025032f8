"""Every exception class in ``errors.py`` is raised in the package, or is the base of one that is."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scatterpoly"


def unraised_errors(errors_source: str, sources) -> list[str]:
    """Classes of ``errors_source`` that no ``raise`` in ``sources`` names, nor any subclass."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)}
    raised = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append(getattr(exc, "id", getattr(exc, "attr", None)))
    live = set()
    while raised:
        name = raised.pop()
        if name in bases and name not in live:
            live.add(name)
            raised += bases[name]
    return sorted(set(bases) - live)


def test_unraised_errors_are_caught():
    errors = ("class Base(Exception): pass\nclass Used(Base): pass\n"
              "class Dead(Base): pass\n")
    assert unraised_errors(errors, ["raise Used('x')\n"]) == ["Dead"]
    assert unraised_errors(errors, ["raise errors.Dead\n"]) == ["Used"]


def test_every_error_is_raised():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unraised_errors((PACKAGE / "errors.py").read_text(), sources) == []
