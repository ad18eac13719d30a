"""Benchmark for the sipr CLI: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sipr is imported from ./src. The run
generates the workload's inputs from the seed, warms up, then issues the
workload's operation (a fixed sequence of CLI commands, called in-process
through ``sipr.cli.main``) in a closed loop, one at a time, for about S
seconds. Every operation's outputs are checked. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced operations on the first input set, reports per-layer metrics from the
traced ones (see README.md) and writes every span to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time

from metrics import COUNTS, END_TO_END, PER_LAYER

T_START = time.perf_counter()  # set-up time counts from here: imports, warm-up, inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Input sets per seed: more than a run's operations, so no operation repeats an
# input and nothing cached in-process can serve one (a CLI user starts fresh).
INPUT_SETS = 32
SETUP_REPEATS = 3  # input generation is timed this often; setup_s takes the median


def _blas_record() -> dict:
    """Version and live thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {}
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info = {"threads": get_threads(), "config": get_config().decode()}
                break
        out[os.path.basename(path)] = info
    return out


def machine_record() -> dict:
    import platform

    import numpy
    import scipy

    src_lines = {}
    pkg = os.path.join(SRC, "sipr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines[name] = sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_record(),
        "blas_env_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines_total": sum(src_lines.values()),
        "src_lines": src_lines,
    }


def _warm_blas(np) -> None:
    # the first dense factorization in a process pays the BLAS start-up
    A = np.random.default_rng(0).standard_normal((300, 300))
    np.linalg.solve(A + A.T + 600.0 * np.eye(300), np.ones(300))


def run(args) -> int:
    sys.path.insert(0, SRC)
    import numpy as np

    try:
        import sipr
        import sipr.cli
    except ImportError as exc:
        print(f"cannot import sipr from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(sipr.__file__).startswith(SRC + os.sep):
        print(f"sipr imported from {sipr.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        _warm_blas(np)
        warm = wl.make_input(np.random.default_rng(0), workdir, "warm", small=True)
        wl.run(sipr.cli.main, warm)  # lazy imports and first-call costs land in set-up
        fixed_s = time.perf_counter() - T_START

        gen_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = [wl.make_input(np.random.default_rng(np.random.SeedSequence([args.seed, j])),
                                    workdir, f"in{j}") for j in range(INPUT_SETS)]
            gen_s.append(time.perf_counter() - t0)
        setup_s = fixed_s + statistics.median(gen_s)

        record = machine_record()
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics, outcomes = _traced(wl, sipr.cli, inputs[0], deadline, args.seed, record)
        else:
            metrics, outcomes = _untraced(wl, sipr.cli, inputs, deadline, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        if not math.isfinite(value):
            outcomes[-1].failures.append(f"{name} is {value}")
            metrics[name] = 0.0
    failed = [o for o in outcomes if o.failures]
    for o in failed:
        for msg in o.failures:
            print(f"gate failed: {msg}", file=sys.stderr)
    units = END_TO_END if not args.trace else {k: u for k, (u, _) in PER_LAYER.items()}
    print("machine: " + json.dumps(record))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _next_overruns(started: float, deadline: float) -> bool:
    """Whether another operation as long as the one started at `started` would end more
    than half its length past the deadline, so a run lasts its seconds give or take
    half an operation."""
    now = time.perf_counter()
    return now + 0.5 * (now - started) > deadline


def _untraced(wl, cli, inputs, deadline, setup_s):
    import resource

    outcomes = []
    while True:
        t0 = time.perf_counter()
        outcomes.append(wl.run(cli.main, inputs[len(outcomes) % len(inputs)]))
        if _next_overruns(t0, deadline):
            break
    ok = [o for o in outcomes if not o.failures]
    metrics = {
        "setup_s": setup_s,
        # Best of the run: on a shared host identical operations swing by +-20%
        # from one to the next, and contention only ever adds time.
        "op_s": min(sum(o.seconds.values()) for o in ok or outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": len(ok) / len(outcomes),
    }
    return metrics, outcomes


def _traced(wl, cli, inp, deadline, seed, record):
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, layer = [], [], []
    while True:
        t0 = time.perf_counter()
        plain.append(wl.run(cli.main, inp))
        op = len(traced) + 1
        tracer.begin_op(op)
        with tracer:  # cli.main is looked up after install, so it is the wrapped one
            traced.append(tracer.span("bench.op", wl.run, cli.main, inp))
        layer.append(tracer.op_metrics(op))
        if _next_overruns(t0, deadline):
            break

    metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
    for name in ("fit", "predict"):  # best of the run, as op_s
        metrics[f"cmd.{name}_s"] = min((o.seconds[name] for o in plain if name in o.seconds),
                                       default=0.0)
    fit_s = metrics["cmd.fit_s"]
    metrics["cmd.fit_ess_per_s"] = metrics["sampler.ess_bulk_median"] / fit_s if fit_s else 0.0
    plain_s = min(sum(o.seconds.values()) for o in plain)
    traced_s = min(sum(o.seconds.values()) for o in traced)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0

    for k in COUNTS:
        if len({m[k] for m in layer}) > 1:
            traced[-1].failures.append(f"{k} differs between traced runs of one input")
    # the --trace CSV and the in-memory draws are the same chain-major draws
    ess = metrics["sampler.ess_bulk_median"]
    for o in plain:
        csv_ess = o.stats.get("ess_bulk_median")
        if csv_ess is not None and not math.isclose(csv_ess, ess, rel_tol=1e-9):
            o.failures.append(f"bulk-ESS from --trace CSV {csv_ess:.6g} differs from the "
                              f"sampler's draws {ess:.6g}")

    tracer.write(os.path.join(WORK, f"trace-{wl.name}-{seed}.jsonl.gz"), {
        "workload": wl.name, "seed": seed, "machine": record,
        "per_op": layer, "untraced_op_s": [sum(o.seconds.values()) for o in plain],
    })
    return {k: metrics[k] for k in PER_LAYER}, plain + traced


def main(argv=None) -> int:
    # One BLAS thread, set before numpy loads: seeded draws only reproduce for
    # a fixed thread count. SIPR_JOBS would override the --jobs 1 the
    # workloads pass.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SIPR_JOBS", None)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
