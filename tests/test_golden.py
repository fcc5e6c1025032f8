"""Golden outputs of the ``scatterpoly`` command.

Each case is one argument list replayed through ``cli.main``; its exit code,
stdout and stderr must match ``golden/cli_outputs.json``.  JSON outputs are
compared without their ``timing`` blocks and ``seconds`` fields, which vary
from run to run; the rest of every output is compared as text.

Run this module as a script to record the file again from the current code:

    PYTHONPATH=src python tests/test_golden.py

Recorded cases keep their place in the file and new ones are appended, so
a case whose output did not change keeps its bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from scatterpoly.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli_outputs.json"
_VOLATILE = ("timing", "seconds")

_F55 = ("--p", "5", "--n", "5", "--poly", "3:g^0,4:g^0", "--census")
_TOWER = ("--p", "3", "--n", "5", "--poly", "1:g^0,3:g^121", "--index", "2")
_BEYOND = ("--p", "101", "--n", "6", "--poly", "2:g^0,4:g^0", "--index", "2")

CASES = [
    # field-info
    *(["field-info", *field, "--output", out]
      for field in (("--p", "3", "--n", "5"), ("--p", "3", "--m", "2", "--n", "2"),
                    ("--p", "5", "--n", "4"))
      for out in ("text", "json")),
    # the F_5^5 worked example, at both of its indices
    *(["check", *_F55, "--index", t, "--output", out]
      for t in ("3", "4") for out in ("text", "json", "csv")),
    # not scattered, with a witness
    *(["check", "--p", "3", "--n", "4", "--poly", "2:g^0", "--index", "0",
       "--census", "--output", out] for out in ("text", "json", "csv")),
    ["check", "--p", "5", "--n", "4", "--poly", "1:g^3,2:g^0,3:g^7", "--index", "1",
     "--output", "json"],
    # [c0,...] coefficients, over a prime field and over F_9^3
    *(["check", "--p", "3", "--n", "5", "--poly", "1:[1],3:[2]", "--index", "2",
       "--output", out] for out in ("text", "json", "csv")),
    ["check", "--p", "3", "--m", "2", "--n", "3", "--poly", "0:[1,2,0,1],2:g^5",
     "--index", "1", "--output", "json"],
    ["check", "--p", "3", "--m", "2", "--n", "2", "--poly", "1:g^0", "--index", "0",
     "--output", "json"],
    # the x^3 - x^27 tower: scattered at m=1, a witness in F_3^10 at m=2
    *(["check", *_TOWER, "--census", "--m-list", "1,2", "--output", out]
      for out in ("text", "json", "csv")),
    # criteria mode within and beyond the cap, oracle mode alone
    *(["check", *_BEYOND, "--mode", "criteria", "--output", out]
      for out in ("text", "json", "csv")),
    *(["check", *_TOWER, "--mode", "criteria", "--output", out]
      for out in ("text", "json", "csv")),
    ["check", *_TOWER, "--mode", "oracle", "--output", "text"],
    # criteria mode on the paths that read the Zech table, and those that do not
    ["check", "--p", "3", "--n", "5", "--poly", "1:[1],3:[2]", "--index", "2",
     "--mode", "criteria"],
    ["check", "--p", "3", "--n", "4", "--poly", "1:g^0,1:g^0", "--index", "0",
     "--mode", "criteria", "--output", "csv"],
    ["check", *_TOWER, "--mode", "criteria", "--m-list", "1,2", "--output", "json"],
    ["field-info", "--p", "3", "--n", "13", "--output", "json"],
    # the oracle without S's own term at t: a monomial and a binomial at their
    # own exponents, and [c0,...] coefficients, which still need the table
    *(["check", "--p", "3", "--n", "4", "--poly", "2:g^0", "--index", "2",
       "--mode", "both", "--output", out] for out in ("text", "json")),
    ["check", *_TOWER[:6], "--index", "1", "--census", "--output", "json"],
    ["check", *_TOWER[:6], "--index", "3", "--output", "csv"],
    ["check", *_TOWER[:6], "--index", "1", "--m-list", "1,2", "--output", "json"],
    ["scan", *_TOWER[:4], "--family", "binomial", "--indices", "own", "--output", "csv"],
    ["check", *_TOWER[:4], "--poly", "1:[1],3:[2]", "--index", "1", "--mode", "both",
     "--output", "json"],
    # F_3^11: the scan spans three chunks, the last one partial; a monomial,
    # a binomial at its own exponent and a 3-term instance that is not scattered
    *(["check", "--p", "3", "--n", "11", "--poly", poly, "--index", t, "--census",
       "--output", "json"]
      for poly, t in (("3:g^5", "1"), ("1:g^0,4:g^7", "4"), ("1:g^0,2:g^5,4:g^7", "1"))),
    # scans
    ["scan", "--p", "3", "--n", "4", "--family", "pseudoregulus"],
    ["scan", "--p", "3", "--n", "5", "--family", "pseudoregulus", "--output", "text"],
    ["scan", "--p", "3", "--n", "5", "--family", "binomial", "--output", "json"],
    ["scan", "--p", "5", "--n", "4", "--family", "binomial", "--coeff-dlogs", "0,1,39"],
    ["scan", "--p", "3", "--n", "4", "--family", "custom", "--poly", "1:g^0,2:g^0",
     "--poly", "0:g^3,2:g^1", "--indices", "all"],
    ["scan", *_BEYOND[:4], "--family", "custom", "--poly", "2:g^0,4:g^0",
     "--indices", "2,4", "--output", "json"],
    # verify
    ["verify", "--suite", "lp", "--output", "json"],
    ["verify", "--suite", "exceptional", "--output", "json"],
    ["verify", "--suite", "binomials", "--output", "json"],
    ["verify", "--suite", "pseudoregulus", "--output", "json"],
    *(["verify", "--suite", suite, "--output", "json"]
      for suite in ("lemmas", "reductions", "pp-criterion", "csajbok")),
    # exit 1: usage and parse problems
    ["check", "--p", "3", "--n", "4", "--poly", "1:g^0", "--index", "4"],
    ["check", "--p", "4", "--n", "2", "--poly", "1:g^0", "--index", "9"],
    ["check", "--p", "3", "--n", "4", "--poly", "1:oops", "--index", "0"],
    ["check", "--p", "3", "--n", "4", "--poly", "1:[0]", "--index", "0"],
    ["check", "--p", "3", "--n", "4", "--poly", "1:g^0,1:g^40", "--index", "0"],
    ["check", "--p", "3", "--n", "4", "--poly", "1:g^0,1:g^40", "--index", "0",
     "--mode", "criteria"],
    ["check", "--p", "3", "--n", "4"],
    ["check", *_TOWER, "--m-list", "1,x"],
    ["check", *_TOWER, "--m-list", "0"],
    ["check", *_BEYOND[:4], "--poly", "2:[1],4:g^0", "--index", "2", "--mode", "criteria"],
    ["scan", "--p", "3", "--n", "4", "--family", "pseudoregulus", "--indices", "7"],
    ["verify", "--suite", "nosuchsuite"],
    ["frobnicate"],
    # exit 2: field construction problems
    ["field-info", "--p", "4", "--n", "2"],
    ["field-info", "--p", "2", "--n", "3"],
    ["field-info", "--p", "3", "--n", "30"],
    ["check", *_BEYOND, "--mode", "oracle"],
    ["check", *_BEYOND, "--mode", "both"],
    ["check", "--p", "4", "--n", "30", "--poly", "1:g^0,3:g^0", "--index", "1",
     "--mode", "criteria"],
    ["scan", "--p", "4", "--n", "30", "--family", "custom", "--poly", "1:g^0"],
    ["check", "--p", "3", "--n", "5", "--cap", "100", "--poly", "1:g^0", "--index", "0"],
    ["field-info", "--p", "3", "--n", "5", "--cap", "100"],
    # one-term scans, read off the ids' period: a scattered monomial over
    # 797,161 points, a binomial at r1 with witness (g^0, g^15751), one at r2,
    # and a constant ratio (period 1)
    ["check", "--p", "3", "--n", "13", "--poly", "8:g^918316", "--index", "3",
     "--output", "json"],
    ["check", "--p", "5", "--n", "9", "--poly", "1:g^885242,4:g^488281", "--index", "1",
     "--census", "--output", "json"],
    ["check", "--p", "7", "--n", "7", "--poly", "2:g^267459,5:g^0", "--index", "2",
     "--output", "csv"],
    ["check", "--p", "3", "--n", "4", "--poly", "1:g^0", "--index", "1", "--census",
     "--output", "json"],
    # one-term periods past the first witness window and past a chunk: over
    # F_3^12, 66430 values with a census, and 20440 with witness (g^0, g^20440)
    ["check", "--p", "3", "--n", "12", "--poly", "2:g^5", "--index", "0", "--census",
     "--output", "json"],
    ["check", "--p", "3", "--n", "12", "--poly", "3:g^1", "--index", "0", "--output", "json"],
]


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in _VOLATILE}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def replay(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one invocation, volatile fields dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if stdout and "json" in argv:
        parsed = json.loads(stdout)
        assert stdout == _dump(parsed), "JSON output is not sorted with indent 2"
        stdout = _dump(_strip(parsed))
    return {"argv": list(argv), "exit": code, "stdout": stdout, "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_unchanged(argv, recorded, monkeypatch):
    monkeypatch.delenv("SCATTERPOLY_CAP", raising=False)
    assert replay(argv) == recorded[tuple(argv)]


def test_every_case_is_recorded(recorded):
    assert set(recorded) == {tuple(argv) for argv in CASES}


if __name__ == "__main__":
    os.environ.pop("SCATTERPOLY_CAP", None)
    GOLDEN.parent.mkdir(exist_ok=True)
    old = [case["argv"] for case in json.loads(GOLDEN.read_text())] if GOLDEN.exists() else []
    cases = sorted(CASES, key=lambda argv: old.index(argv) if argv in old else len(old))
    GOLDEN.write_text(json.dumps([replay(argv) for argv in cases], indent=1) + "\n")
    print(f"recorded {len(CASES)} cases in {GOLDEN}")
