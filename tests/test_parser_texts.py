"""The argument parser's own texts: help, usage and argparse's errors.

Each case is one argument list run through ``cli.main`` with ``COLUMNS=80``;
its exit code (or ``SystemExit`` code, for ``-h``), stdout and stderr must
match ``golden/parser_texts.json``.  ``test_golden.replay`` cannot run these
cases, because ``-h`` ends in ``SystemExit``.

Run this module as a script to record the file again from the current code:

    PYTHONPATH=src python tests/test_parser_texts.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from scatterpoly import cli

GOLDEN = Path(__file__).with_name("golden") / "parser_texts.json"

_CHECK = ["--p", "3", "--n", "4", "--poly", "1:g^0"]

CASES = [
    ["-h"],
    ["field-info", "-h"],
    ["check", "-h"],
    ["scan", "-h"],
    ["verify", "-h"],
    [],
    ["check", "--bogus", "1"],
    ["check", *_CHECK, "--index", "0", "--bogus", "1"],
    ["check", *_CHECK, "--index", "0", "--mode", "fast"],
    ["check", "--p", "x", "--n", "4", "--poly", "1:g^0", "--index", "0"],
    ["--p", "3", "check", "--n", "4", "--poly", "1:g^0", "--index", "0"],
    ["check", *_CHECK, "--ind", "0"],
]


def replay(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one invocation; ``COLUMNS`` is the caller's."""
    out, err = io.StringIO(), io.StringIO()
    system_exit = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code, system_exit = exc.code, True
    return {"argv": list(argv), "exit": code, "system_exit": system_exit,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_text_unchanged(argv, recorded, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SCATTERPOLY_CAP", raising=False)
    assert replay(argv) == recorded[tuple(argv)]


def test_every_parser_case_is_recorded(recorded):
    assert set(recorded) == {tuple(argv) for argv in CASES}


@pytest.mark.parametrize("argv,progs", [
    (["check", *_CHECK, "--index", "0", "--mode", "criteria"], ["scatterpoly check"]),
    (["frobnicate"], ["scatterpoly", *(f"scatterpoly {name}" for name in cli._COMMANDS)]),
])
def test_a_named_command_builds_only_its_parser(argv, progs, monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.main(argv)
    assert built == progs


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.environ.pop("SCATTERPOLY_CAP", None)
    GOLDEN.write_text(json.dumps([replay(argv) for argv in CASES], indent=1) + "\n")
    print(f"recorded {len(CASES)} cases in {GOLDEN}")
