#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, recorded as the noise baseline.

    python3 perfbench/spread.py --first-seed 101 [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` on ten consecutive seeds for every workload of
``BENCHMARK.json``, one run at a time, and writes the record (by default
``perfbench/baseline.json``): for every workload and metric the ten
values, their median and quartiles, and the spread (interquartile distance over
the median, as ``statistics.quantiles(values, n=4)`` gives the quartiles),
together with the machine, interpreter and sizes the runs reported.  A later
change should treat a difference smaller than a metric's spread as noise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(l[len("# provenance "):]) for l in lines
                if l.startswith("# provenance "))
    return json.loads(lines[-1]), prov


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    doc = {"run_seconds": bench["run_seconds"], "program_commit": commit, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        seeds = list(range(args.first_seed, args.first_seed + RUNS))
        values: dict[str, list[float]] = {}
        correct = True
        for seed in seeds:
            result, prov = run_once(name, seed, bench["run_seconds"])
            correct = correct and result["correct"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for metric, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            metrics[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bounds.get(metric), "values": xs}
        doc["workloads"][name] = {"seeds": seeds, "all_correct": correct,
                                  "size": prov["size"], "metrics": metrics}
        doc["machine"] = {k: prov[k] for k in ("machine", "processor", "cpus", "platform",
                                               "python", "numpy")}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, w in doc["workloads"].items():
        for metric, m in w["metrics"].items():
            print(f"{name:17s} {metric:26s} median {m['median']:.6g}  spread {m['spread']:.4f}"
                  f"  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
