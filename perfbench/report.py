"""Run the benchmark over several seeds and summarize it.

    python3 perfbench/report.py --runs 10
    python3 perfbench/report.py --runs 10 --trace-runs 2 --baseline perfbench/BASELINE.json

For every workload in BENCHMARK.json it runs ``run.py`` once per seed
(seeds 1 to ``--runs``) for BENCHMARK.json's ``run_seconds``, with tracing
off, in a fresh process each time, and prints each end-to-end metric's
median, quartiles and spread: the distance between the first and third
quartile over the median, next to the metric's regression bound. A spread
of a third of the bound or more is marked WIDE and makes the exit status 1.
It also prints the error rate over all results.
``--trace-runs`` adds traced runs for the per-layer medians. ``--baseline``
writes everything, with the environment, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    summary = {"median": median, "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return summary


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--baseline", metavar="PATH")
    args = parser.parse_args(argv)

    seeds = list(range(1, args.runs + 1))
    seconds = spec["run_seconds"]
    report = {"environment": environment(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for declared in spec["workloads"]:
        workload, why = declared["name"], declared["why"]
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        w = WORKLOADS[workload]
        entry = {"why": why, "layers": list(w.layers), "fixed": w.fixed, "bands": w.bands,
                 "error_rate": {"value": failed / attempted, "failed": failed, "attempted": attempted},
                 "end_to_end": {}, "per_layer": {}}
        print(f"{workload}: error_rate {failed}/{attempted}")
        ok &= failed == 0 and all(r["correct"] for r in runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary.update(unit=metric["unit"], better=metric["better"], bound=metric["bound"])
            entry["end_to_end"][name] = summary
            spread = summary.get("spread")
            steady = spread is not None and spread < metric["bound"] / 3
            ok &= steady
            print(f"  {name:14s} median {summary['median']:.6g} {metric['unit']:3s} "
                  f"spread {spread if spread is not None else float('nan'):.4f} "
                  f"bound {metric['bound']} {'ok' if steady else 'WIDE'}")
        traced = [run_once(workload, seed, seconds, 1) for seed in seeds[: args.trace_runs]]
        for metric in spec["per_layer"] if traced else ():
            name = metric["name"]
            summary = summarize([r["metrics"][name]["value"] for r in traced])
            summary.update(unit=metric["unit"], better=metric["better"], bound=None)
            entry["per_layer"][name] = summary
            print(f"  {name:40s} median {summary['median']:.6g} {metric['unit']}")
        report["workloads"][workload] = entry
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
