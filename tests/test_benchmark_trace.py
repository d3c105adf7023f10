"""Smoke test of the benchmark's traced mode against the package as it stands.

The tracer wraps names where cohsh's callers look them up (perfbench/tracer.py
TARGETS), and its per-cell sampler time divides by the number of sampler
spans, so a refactor that drops a traced name or stops calling the samplers
once per cell breaks ``perfbench/run.py --trace 1`` while every other test
passes.  Each case runs one short traced benchmark in a child process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Per workload, the traced counts that must be positive.
_COUNTS = {
    "exact_grid": ("elements.apply.calls", "measurement.exact_rates.self_s"),
    "mc_headline": ("measurement.mc.calls.coherent", "measurement.mc.scaling_2w"),
    "mc_detector": ("measurement.mc.calls.coherent", "measurement.mc.calls.fock"),
}


@pytest.mark.parametrize("workload", list(_COUNTS))
def test_traced_benchmark_run_completes_and_counts_each_layer(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert (record["correct"], record["failed"]) == (True, 0), done.stderr
    for name in _COUNTS[workload]:
        assert record["metrics"][name]["value"] > 0, name
