#!/usr/bin/env python3
"""posauctions benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload learn_dataset --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced pass (see README.md).
Artifacts go to ``perfbench/out/<workload>/``; span dumps to
``perfbench/out/spans_<workload>.npz``.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the benchmark is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# numpy loads before any clock starts: its cold import would otherwise be most
# of setup_s, which measures the package.
import numpy  # noqa: F401

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 11


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(workload, seed: int) -> dict:
    import numpy as np

    try:
        cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
        processor = next((l.split(":", 1)[1].strip() for l in cpuinfo
                          if l.startswith("model name")), "")
    except OSError:
        processor = ""
    return {"workload": workload.name, "seed": seed, "size": workload.size(),
            "machine": os.uname().machine, "processor": processor,
            "cpus": os.cpu_count(), "platform": f"{os.uname().sysname}-{os.uname().release}",
            "python": platform.python_version(), "numpy": np.__version__}


def import_package() -> float:
    """Time one fresh import of the package (its modules, not numpy's)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "posauctions"]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("posauctions.cli")
    return time.perf_counter() - t0


def timed_passes(workload, checks, seconds: float) -> list:
    """Whole passes until the next one would overrun ``seconds`` (at least one)."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(workload.run_pass(checks))
        print(f"pass {len(passes)}: {passes[-1]}", file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if elapsed + passes[-1].wall_s > seconds:
            return passes


def end_to_end(passes, setup_s: float, checks) -> dict:
    from workloads import FORMAT_NAMES

    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "checks_passed_frac": ((checks.attempted - checks.failed) / checks.attempted, "ratio"),
    }
    for fmt in FORMAT_NAMES:
        rate = statistics.median(r for p in passes for r in p.rates[fmt])
        metrics[f"evals_per_s.{fmt}"] = (rate, "1/s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "posauctions" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Before workloads/tracer import it, so every later reference is to the
    # package copy that stays in sys.modules.
    import_s = statistics.median(import_package() for _ in range(SETUP_REPEATS))

    import tracer
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    base = OUT / args.workload
    shutil.rmtree(base, ignore_errors=True)
    workload = WORKLOADS[args.workload](base, args.seed)
    checks = Checks()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload.clear()
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    workload.run_pass(checks, warm_up=True)

    if args.trace:
        workload.spot_check(checks)
        untraced = workload.run_pass(checks)
        workload.clear()
        recorder = tracer.SpanRecorder()
        restore = tracer.install(recorder, tracer.layer_boundaries())
        try:
            workload.setup()
            traced = workload.run_pass(checks)
        finally:
            restore()
        recorder.save(OUT / f"spans_{workload.name}.npz")
        metrics = tracer.per_layer_metrics(recorder)
        metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
        for command in ("equilibrium", "poa"):
            metrics[f"cli.{command}.wall_s"] = (untraced.unit_s.get(command, 0.0), "s")
    else:
        passes = timed_passes(workload, checks, args.seconds)
        workload.spot_check(checks)
        metrics = end_to_end(passes, setup_s, checks)

    print("# provenance " + json.dumps(provenance(workload, args.seed), sort_keys=True))
    for failure in checks.failures:
        print(f"# check failed: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
