"""In-memory spans around every public function of the sipr package.

``Tracer.install`` replaces each public function of each sipr module with a
timing wrapper at every module-level name it is bound under (``test_function``
lives in ``sipr.interpolate`` but is also looked up from ``sipr.basis`` and
``sipr.predict``), and wraps the public methods of sipr classes on the class
itself (``PosteriorDensity.grad``). Every call then becomes a span with a
name, start, end, parent span and operation id, so each call is counted once
and attributed to its caller. ``uninstall`` puts the originals back.

The program is not modified: the wrappers live here and are installed only
for the traced operations of a run.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict

import numpy as np

from ess import diagnose
from oracle import orthonormality_residual

PACKAGE = "sipr"


def _layer(module_name: str) -> str:
    """'sipr._linalg' -> 'linalg'."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _is_diagonal(L) -> bool:
    L = np.asarray(L)
    return not np.any(L - np.diag(np.diag(L)))


# Capture hooks: run after a call returns, outside its own span, and only keep
# references or cheap sizes. Anything costly is computed in `Tracer.op_metrics`,
# so it never lands inside an enclosing span's time.
def _hook_solve_symmetric(rec, args, kwargs, result):
    n = np.shape(_arg(args, kwargs, 0, "A"))[0]
    rec["linalg.factor_flop"] += n**3 / 3.0


def _hook_solve_square(rec, args, kwargs, result):
    n = np.shape(_arg(args, kwargs, 0, "A"))[0]
    rec["linalg.factor_flop"] += 2.0 * n**3 / 3.0


def _hook_laplace_precondition(rec, args, kwargs, result):
    rec["posterior.precond_diag_fallback"] += int(_is_diagonal(result))


def _hook_run_mcmc(rec, args, kwargs, result):
    rec.setdefault("_posteriors", []).append(result)


def _hook_build_basis(rec, args, kwargs, result):
    rec.setdefault("_bases", []).append(result)


def _hook_save_archive(rec, args, kwargs, result):
    rec["pipeline.archive_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _hook_atomic_write(rec, args, kwargs, result):
    rec["io.bytes_written"] += len(_arg(args, kwargs, 1, "content"))  # ASCII CSV and JSON


def _hook_credible_band(rec, args, kwargs, result):
    rec["predict.probes"] += len(result.mean)


HOOKS = {
    "linalg.solve_symmetric": _hook_solve_symmetric,
    "linalg.solve_square": _hook_solve_square,
    "posterior.laplace_precondition": _hook_laplace_precondition,
    "sampler.run_mcmc": _hook_run_mcmc,
    "basis.build_orthonormal_basis": _hook_build_basis,
    "pipeline.save_archive": _hook_save_archive,
    "io.atomic_write_text": _hook_atomic_write,
    "predict.credible_band": _hook_credible_band,
}


class Tracer:
    """Span recorder and the wrapper installation it drives."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []  # op, id, parent, name, t0, t1
        self.records: dict[int, defaultdict] = {}
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        op = self.op
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((op, sid, parent, name, t0, t1))

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer.records[tracer.op], args, kwargs, result)
            return result

        return wrapper

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public sipr function and method of the loaded sipr modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = self._wrap(obj, f"{_layer(mod.__name__)}.{obj.__name__}")
                elif isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and not meth.startswith("_"):
                            name = f"{_layer(mod.__name__)}.{obj.__name__}.{meth}"
                            self._patch(obj, meth, self._wrap(fn, name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    self._patch(mod, attr, wrappers[id(obj)])

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- per-operation metrics ------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.records[op] = defaultdict(float)

    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-layer metrics of one traced operation (see README.md for each name)."""
        spans = [s for s in self.spans if s[0] == op]
        rec = self.records[op]
        by_id = {s[1]: s for s in spans}
        child_ns: dict[int, int] = defaultdict(int)
        for s in spans:
            child_ns[s[2]] += s[5] - s[4]

        total = defaultdict(float)  # seconds inside spans of a name
        calls = defaultdict(int)
        self_s = defaultdict(float)  # exclusive seconds per layer
        for _, sid, _, name, t0, t1 in spans:
            total[name] += (t1 - t0) * 1e-9
            calls[name] += 1
            layer = name.split(".", 1)[0]
            self_s[layer] += (t1 - t0 - child_ns[sid]) * 1e-9

        def under(sid: int, ancestor: str) -> bool:
            parent = by_id[sid][2]
            while parent in by_id:
                if by_id[parent][3] == ancestor:
                    return True
                parent = by_id[parent][2]
            return False

        mcmc_grads = [s for s in spans if s[3] == "posterior.PosteriorDensity.grad"
                      and under(s[1], "sampler.run_mcmc")]
        grad_s_in_mcmc = sum((s[5] - s[4]) * 1e-9 for s in mcmc_grads)
        map_iters = sum(1 for s in spans if s[3] == "linalg.solve_symmetric"
                        and by_id.get(s[2], (0, 0, 0, ""))[3] == "posterior.map_estimate")

        diags = [self._mcmc_summary(p) for p in rec.get("_posteriors", [])]
        resid = [orthonormality_residual(b.X, b.H, b.eta.value) for b in rec.get("_bases", [])]

        def ratio(num, den):
            return num / den if den else 0.0

        run_mcmc_s = total["sampler.run_mcmc"]
        ess_med = [d["ess_bulk_median"] for d in diags]
        m = {
            "sampler.run_mcmc_s": run_mcmc_s,
            "sampler.self_s": self_s["sampler"],
            "sampler.grad_share": ratio(grad_s_in_mcmc, run_mcmc_s),
            "sampler.ess_bulk_min": min((d["ess_bulk_min"] for d in diags), default=0.0),
            "sampler.ess_bulk_median": float(np.median(ess_med)) if diags else 0.0,
            "sampler.ess_tail_min": min((d["ess_tail_min"] for d in diags), default=0.0),
            "sampler.rhat_rank_max": max((d["rhat_max"] for d in diags), default=0.0),
            "sampler.accept_rate": float(np.mean([d["accept"] for d in diags])) if diags else 0.0,
            "sampler.divergence_rate": (float(np.mean([d["divergence"] for d in diags]))
                                        if diags else 0.0),
            "sampler.grads_per_ess": ratio(len(mcmc_grads), sum(ess_med)),
            "posterior.grad_calls": calls["posterior.PosteriorDensity.grad"],
            "posterior.grad_us": 1e6 * ratio(total["posterior.PosteriorDensity.grad"],
                                             calls["posterior.PosteriorDensity.grad"]),
            "posterior.log_density_calls": calls["posterior.PosteriorDensity.log_density"],
            "posterior.build_density_s": total["posterior.build_density"],
            "posterior.map_s": total["posterior.map_estimate"],
            "posterior.map_iters": map_iters,
            "posterior.precondition_s": total["posterior.laplace_precondition"],
            "posterior.precond_diag_fallback": rec["posterior.precond_diag_fallback"],
            "basis.build_s": total["basis.build_orthonormal_basis"],
            "basis.to_subspace_s": total["basis.to_subspace"],
            "basis.orthonormality_resid": max(resid, default=0.0),
            "linalg.solve_symmetric_calls": calls["linalg.solve_symmetric"],
            "linalg.solve_symmetric_s": total["linalg.solve_symmetric"],
            "linalg.solve_square_calls": calls["linalg.solve_square"],
            "linalg.factor_gflop_computed": rec["linalg.factor_flop"] * 1e-9,
            "interpolate.solve_interpolation_calls": calls["interpolate.solve_interpolation"],
            "interpolate.solve_interpolation_s": total["interpolate.solve_interpolation"],
            "interpolate.test_function_calls": calls["interpolate.test_function"],
            "predict.credible_band_s": total["predict.credible_band"],
            "predict.us_per_probe": 1e6 * ratio(total["predict.credible_band"],
                                                rec["predict.probes"]),
            "geometry.greens_matrix_calls": calls["geometry.greens_matrix"],
            "geometry.greens_matrix_s": total["geometry.greens_matrix"],
            "geometry.kernel_system_calls": calls["geometry.kernel_system"],
            "pipeline.fit_regression_s": total["pipeline.fit_regression"],
            "pipeline.self_s": self_s["pipeline"],
            "pipeline.save_archive_s": total["pipeline.save_archive"],
            "pipeline.load_archive_s": total["pipeline.load_archive"],
            "pipeline.archive_bytes": rec["pipeline.archive_bytes"],
            "data.load_csv_s": total["data.load_csv"],
            "data.load_probe_csv_s": total["data.load_probe_csv"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": self_s["cli"],
            "io.write_s": total["io.atomic_write_text"],
            "io.bytes_written": rec["io.bytes_written"],
            "trace.spans": len(spans),
        }
        return {k: float(v) for k, v in m.items()}

    @staticmethod
    def _mcmc_summary(posterior) -> dict[str, float]:
        d = diagnose(posterior.samples, posterior.config.chains)
        chains = posterior.diagnostics.chains
        return {
            "ess_bulk_min": float(np.nanmin(d.ess_bulk)),
            "ess_bulk_median": float(np.nanmedian(d.ess_bulk)),
            "ess_tail_min": float(np.nanmin(d.ess_tail)),
            "rhat_max": float(np.nanmax(d.rhat)),
            "accept": float(np.mean([c.accept_rate for c in chains])),
            "divergence": float(np.mean([c.divergence_rate for c in chains])),
        }

    # --- output -----------------------------------------------------------------

    def write(self, path: str, meta: dict) -> None:
        """Write the metadata line, then one JSON array per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(meta) + "\n")
            fh.write(json.dumps(["op", "id", "parent", "name", "start_ns", "end_ns"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
