"""The benchmark's traced runs finish and pass their own output checks.

Each workload runs for about a second with --trace 1: the span wrappers, the
per-layer metrics and the check that the --trace CSV holds the sampler's draws
all run, so a change that breaks a traced run fails here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["higdon-small", "higdon-large"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
