"""rksv benchmark: one workload per process, untraced end-to-end or traced per-layer.

    python3 perfbench/run.py --workload advection --seed 0 --seconds 35 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` of
the checkout (never from an installed copy).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; earlier lines carry the run metadata and a readable summary.
"""

from __future__ import annotations

import os

# single-threaded BLAS/OpenMP, fixed before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import tracer as tracing
from workloads import WORKLOADS, pass_share

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 15


def fresh_import() -> tuple[float, SimpleNamespace]:
    """Import rksv from scratch (numpy stays loaded); return (seconds, modules)."""
    for name in [n for n in sys.modules if n == "rksv" or n.startswith("rksv.")]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("rksv")
    mods = {name: importlib.import_module(f"rksv.{name}") for name in tracing.TRACED_MODULES}
    elapsed = perf_counter() - start
    origin = Path(sys.modules["rksv"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"rksv was imported from {origin}, not from {SRC}")
    return elapsed, SimpleNamespace(**mods)


def measure_setup(workload, repeats: int, times: list) -> SimpleNamespace:
    """Append ``repeats`` timings of import plus the workload's per-mesh preparation."""
    for _ in range(repeats):
        import_s, rk = fresh_import()
        start = perf_counter()
        workload.setup(rk)
        times.append(import_s + perf_counter() - start)
    return rk


def timed_bodies(workload, rk, seconds: float):
    """Repeat the body while another one is expected to end within ``seconds``.

    At least one body runs; the median body time so far predicts the next.
    """
    times, results = [], []
    start = perf_counter()
    while not times or perf_counter() - start + statistics.median(times) <= seconds:
        t0 = perf_counter()
        results.append(workload.body(rk))
        times.append(perf_counter() - t0)
    return times, results


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds):
    # half the set-ups before the bodies and half after, so that set-up and
    # body times sample the same stretch of machine load
    setup_times = []
    rk = measure_setup(workload, SETUP_REPEATS - SETUP_REPEATS // 2, setup_times)
    times, results = timed_bodies(workload, rk, seconds)
    rk = measure_setup(workload, SETUP_REPEATS // 2, setup_times)
    l2_err, time_order = workload.accuracy(rk, results[-1])
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics = {
        "wall_s": _metric(statistics.median(times), "s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "l2_err": _metric(l2_err, "1"),
        "time_order": _metric(time_order, "order"),
        "pass_share": _metric(pass_share(attempted, failed), "share"),
    }
    return attempted, failed, metrics, times


# per-layer metric -> span names whose self time (or inclusive time) it sums
PER_CALL_US = {
    "sv_space.tendency": ("sv_space.tendency",),
    "harness.source": ("harness.source",),
    "sv_space.workspace": ("sv_space.workspace",),
    "sv_space.operator_init": ("sv_space.operator_init",),
    "mesh.build": ("mesh.uniform_mesh", "mesh.perturbed_mesh"),
    "quadrature.gauss_rule": ("quadrature.gauss_rule",),
    "quadrature.interpolatory_weights": ("quadrature.interpolatory_weights",),
    "sv_space.project_initial": ("sv_space.project_initial",),
    "sv_space.error_norms": ("sv_space.error_norms",),
}
PG_FUNCTIONS = ("quadrature_residual", "map_to_test", "bilinear_ah", "inner_star",
                "lagrange_interpolant", "derivative_coeffs", "global_antiderivative")
for _fn in PG_FUNCTIONS:
    PER_CALL_US[f"petrov_galerkin.{_fn}"] = (f"petrov_galerkin.{_fn}",)


def per_layer(summary, bodies: int, overhead_s: float):
    def calls(names):
        return sum(summary.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_ns(names):
        return sum(summary.get(n, (0, 0.0, 0.0))[2] for n in names)

    def per_call(ns, count, scale):
        return ns / count / scale if count else 0.0

    metrics = {}
    for metric, names in PER_CALL_US.items():
        metrics[f"{metric}.us"] = _metric(per_call(self_ns(names), calls(names), 1e3), "us")
        metrics[f"{metric}.calls"] = _metric(calls(names) / bodies, "count")
    steps = calls(("ssp_rk.step_increment",))
    metrics["ssp_rk.step.us"] = _metric(per_call(self_ns(("ssp_rk.step_increment",)), steps, 1e3), "us")
    metrics["ssp_rk.integrate.us_per_step"] = _metric(
        per_call(self_ns(("ssp_rk.integrate",)), steps, 1e3), "us")
    metrics["ssp_rk.steps"] = _metric(steps / bodies, "count")
    # a stage count costs one stability and one error transfer; inclusive time
    transfers = summary.get("matrix_transfer.run_transfer", (0, 0.0, 0.0))
    metrics["matrix_transfer.transfer.ms_per_s"] = _metric(
        per_call(transfers[1], transfers[0] / 2, 1e6), "ms")
    metrics["matrix_transfer.render.ms"] = _metric(
        self_ns(("matrix_transfer.render_table", "matrix_transfer.render_matrices")) / bodies / 1e6,
        "ms")
    metrics["cli.analyze.self_ms"] = _metric(
        self_ns(("cli.main", "cli.build_parser")) / bodies / 1e6, "ms")
    metrics["harness.run_checks.self_ms"] = _metric(
        per_call(self_ns(("harness.run_checks",)), calls(("harness.run_checks",)), 1e6), "ms")
    metrics["harness.run_solve.self_us"] = _metric(
        per_call(self_ns(("harness.run_solve",)), calls(("harness.run_solve",)), 1e3), "us")
    metrics["trace.overhead_s"] = _metric(overhead_s, "s")
    return metrics


def traced(workload, seconds):
    """Untraced bodies for half the time, then traced bodies for the other half."""
    _, rk = fresh_import()
    plain_times, plain = timed_bodies(workload, rk, seconds / 2)
    spans = tracing.Tracer()
    tracing.install(spans)
    traced_times, results = timed_bodies(workload, rk, seconds / 2)
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"spans-{workload.name}.npz")
    overhead = statistics.median(traced_times) - statistics.median(plain_times)
    metrics = per_layer(spans.summary(), len(traced_times), overhead)
    results += plain
    return (sum(r.attempted for r in results), sum(r.failed for r in results), metrics,
            traced_times)


def _loadavg():
    try:
        return os.getloadavg()
    except OSError:
        return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs for the self-tests; not a benchmark setting")
    args = parser.parse_args(argv)
    if not (SRC / "rksv" / "__init__.py").is_file():
        print(f"error: no rksv package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "loadavg_before": _loadavg(), "git_commit": _git_commit(),
    }
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    run = traced if args.trace else end_to_end
    attempted, failed, metrics, times = run(workload, args.seconds)
    meta["loadavg_after"] = _loadavg()
    meta["bodies"] = len(times)
    meta["body_s"] = times
    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
