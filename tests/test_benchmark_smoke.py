"""The benchmark's traced runs finish and pass their own output checks, and its hooks bind.

Each workload runs for about a second with --trace 1: the span wrappers, the
per-layer metrics and the check that the --trace CSV holds the sampler's draws
all run, so a change that breaks a traced run fails here. The tracer's capture
hooks are keyed by the name of the sipr function they follow; a hook whose
function is renamed away never runs and its per-layer metric reads 0, so every
hook must name a public function of the package, or be listed as known dead.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LIVE_HOOKS = {"sampler.run_mcmc", "basis.build_orthonormal_basis", "pipeline.save_archive", "predict.credible_band"}
# Their functions are gone; ROADMAP item 1 deletes these hooks with the per-layer metrics they fed.
DEAD_HOOKS = {"linalg.solve_symmetric", "linalg.solve_square", "posterior.laplace_precondition",
              "io.atomic_write_text"}


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


def hook_names() -> list[str]:
    """The keys of benchmarks/tracing.py's HOOKS, read from its source without importing it."""
    with open(os.path.join(ROOT, "benchmarks", "tracing.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets):
            return [key.value for key in node.value.keys]
    raise AssertionError("benchmarks/tracing.py binds no HOOKS")


def wraps_a_public_function(name: str) -> bool:
    """Whether the tracer would name a public function of sipr.<layer> (or sipr._<layer>) `name`."""
    layer, function = name.split(".")
    for module_name in (f"sipr.{layer}", f"sipr._{layer}"):
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        obj = getattr(module, function, None)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module_name and not function.startswith("_"):
            return True
    return False


def test_every_hook_binds_a_public_function_or_is_known_dead():
    names = hook_names()
    live = {name for name in names if wraps_a_public_function(name)}
    assert live == LIVE_HOOKS
    assert set(names) - live == DEAD_HOOKS
