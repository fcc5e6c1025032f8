"""The committed benchmark's workloads run, traced, and every decision passes.

The tracer wraps the program's functions by name, and each workload checks
the answers it gets, so a renamed function or a refused output fails here.
Each run replays one round of its workload, about a second.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["check-large", "desk-sweep"])
def test_traced_workload_passes(workload):
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
