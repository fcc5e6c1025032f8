"""Every exception class in ``errors.py`` is raised in the package, or is the base of one that is;
an index out of range is refused in one place, with one text, at every entry."""

import ast
from pathlib import Path

import pytest

from scatterpoly import (
    BadIndex,
    build_field,
    deciding_pairs,
    index_shift_reduction,
    is_exceptional_desk,
    is_scattered_bruteforce,
    parse_poly,
    scattered_via_pp,
)
from scatterpoly.cli import main

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


def index_range_raises(sources: dict[str, str]) -> list[str]:
    """``module.function`` of each ``raise BadIndex("index ...")`` outside ``field.check_index``.

    ``sources`` maps a module name to its source; a message is a string or
    an f-string, and its text before the first placeholder is read.
    """
    found = []
    for module, source in sources.items():
        for func in ast.walk(ast.parse(source)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and getattr(node.exc.func, "id", None) == "BadIndex"
                        and node.exc.args):
                    continue
                message = node.exc.args[0]
                if isinstance(message, ast.JoinedStr):
                    message = message.values[0] if message.values else None
                text = getattr(message, "value", None)
                if (isinstance(text, str) and text.startswith("index ")
                        and (module, func.name) != ("field", "check_index")):
                    found.append(f"{module}.{func.name}")
    return sorted(set(found))


def test_index_range_raises_are_caught():
    source = ('def check_index(t, n):\n    raise BadIndex(f"index {t} out of range")\n'
              'def other(t):\n    raise BadIndex("index " + str(t))\n'
              'def third(t):\n    raise BadIndex(f"need 0 <= t, got {t}")\n'
              'def fourth(t):\n    raise BadIndex(f"index {t} too big")\n')
    assert index_range_raises({"field": source}) == ["field.fourth"]
    assert index_range_raises({"cli": source}) == ["cli.check_index", "cli.fourth"]


def test_index_range_is_raised_in_one_place():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert index_range_raises(sources) == []


@pytest.mark.parametrize("t", [4, -1])
def test_every_entry_reports_a_bad_index_alike(t, capsys):
    """The CLI and every library entry that takes an index refuse t = n and
    t = -1 over F_3^4 with the same text."""
    ctx = build_field(3, 1, 4)
    s = parse_poly(ctx, "1:g^0,2:g^1")
    text = f"index {t} out of range 0..3"
    for entry in (lambda: index_shift_reduction(ctx, s, t),
                  lambda: is_scattered_bruteforce(ctx, s, t),
                  lambda: deciding_pairs(ctx, s, t),
                  lambda: scattered_via_pp(ctx, s, t),
                  lambda: is_exceptional_desk(ctx, s, t, [1])):
        with pytest.raises(BadIndex) as caught:
            entry()
        assert str(caught.value) == text
    for argv in (["check", "--p", "3", "--n", "4", "--poly", "1:g^0", f"--index={t}"],
                 ["scan", "--p", "3", "--n", "4", "--family", "pseudoregulus",
                  f"--indices={t}"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {text}\n")
