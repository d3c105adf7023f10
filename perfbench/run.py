"""Benchmark entry point: one run of one workload on one seed.

    python3 perfbench/run.py --workload exact_grid --seed 1 --seconds 40 --trace 0

Run from the root of a cohsh checkout; the package is imported from its
``src`` directory. The run generates the workload's config files from the
seed, passes each to ``cohsh.cli.main`` in this process, checks every
result, and makes a fixed number of whole passes over the workload: as many
as fit in ``--seconds`` at the workload's nominal pass and set-up times
(workloads.py), so a faster or slower program is timed over the same number
of passes. Only a host or program so slow that the next pass would end past
``--seconds`` cuts the passes short.

With ``--trace 0`` it reports the end-to-end metrics listed in
BENCHMARK.json, all untraced:

    setup_s      median of fifteen set-ups (this process's and 14 in child
                 processes, spread between the passes): import cohsh, write
                 and parse the configs, and one warm-up invocation at the
                 smallest size
    wall_s       time to produce every result of the workload once: the sum
                 over results of each result's shortest wall time over passes
    cpu_s        the same over process CPU time
    peak_rss_mb  peak resident memory of this process

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics (see tracer.py), including ``trace.overhead`` (traced over
untraced time, each the sum of every result's fastest pass, minus 1) and, on
workloads that run with more than one worker, ``measurement.mc.scaling_2w``
(the mean time of a sampler cell at one worker over that at the configured
workers, from one more traced run of the jobs at one worker and one
repetition). The traced run fits the same ``--seconds`` budget.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. A result that fails its check or raises counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 14
PROBE_TIMEOUT_S = 120


@dataclass
class Session:
    """A workload's config files on disk, with cohsh imported and warm."""

    workload: str
    seed: int
    cli: object
    jobs: list
    written: list  # (config path, output path) per job
    directory: Path


@dataclass
class Pass:
    walls: list  # wall time per job
    cpus: list  # process CPU time per job
    reasons: list
    texts: list = field(repr=False)

    @property
    def wall(self) -> float:
        return sum(self.walls)


def _call_cli(cli, argv):
    """Return code of ``cohsh.cli.main``, or the exception it raised."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)  # looked up per call, so a traced wrapper is used
        except (Exception, SystemExit) as exc:
            return exc


def setup(workload: str, seed: int, directory: Path) -> Session:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("cohsh.cli")
    config = importlib.import_module("cohsh.config")
    jobs = workloads.generate(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    written = [workloads.write_job(job, directory) for job in jobs]
    for config_path, _ in written:
        config.load_config(config_path)
    warmup = workloads.warmup_job(jobs)
    warmup_config, _ = workloads.write_job(warmup, directory)
    _call_cli(cli, warmup.argv(warmup_config))  # a broken program fails the timed passes instead
    return Session(workload, seed, cli, jobs, written, directory)


def run_pass(cli, jobs: list, written: list) -> Pass:
    for _, out in written:
        out.unlink(missing_ok=True)
    statuses, walls, cpus = [], [], []
    for job, (config_path, _) in zip(jobs, written):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        statuses.append(_call_cli(cli, job.argv(config_path)))
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)

    results, texts = [], []
    for job, (_, out), status in zip(jobs, written, statuses):
        text = None
        if isinstance(status, BaseException):
            result = status
        elif status != 0:
            result = RuntimeError(f"cohsh {job.command} exited with status {status}")
        else:
            try:
                text = out.read_text(encoding="utf-8")
                result = checks.parse(text, job.out_format)
            except (OSError, ValueError, KeyError) as exc:
                result = exc
        results.append(result)
        texts.append(text)
    reasons = checks.evaluate(jobs, results, workloads.SWEEP_POINTS)
    return Pass(walls, cpus, reasons, texts)


class Runner:
    """Runs passes, keeps every pass's verdicts, and checks that each pass
    over the session's jobs reproduces the first one's output byte for byte."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self.reference: list | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, jobs=None, written=None) -> Pass:
        """One pass over the session's jobs, or over ``jobs`` written to ``written``."""
        own = jobs is None
        if own:
            jobs, written = self.session.jobs, self.session.written
        p = run_pass(self.session.cli, jobs, written)
        if own and self.reference is None:
            self.reference = p.texts
        for i, text in enumerate(p.texts if own else ()):
            if p.reasons[i] is None and text != self.reference[i]:
                p.reasons[i] = "output differs from the first pass"
        self.attempted += len(p.reasons)
        self.failures += [f"{job.name}: {r}" for job, r in zip(jobs, p.reasons) if r]
        return p


def _setup_probe(workload: str, seed: int, directory: Path) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--setup-probe", str(directory)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _repeat(count: int, deadline: float, step) -> None:
    """Call ``step`` ``count`` times, or fewer if the next call is expected to
    end after ``deadline`` (a ``perf_counter`` reading), which happens only on
    a host or program much slower than the nominal times. Never fewer than
    once."""
    durations: list[float] = []
    for _ in range(count):
        if durations and time.perf_counter() + statistics.median(durations) > deadline:
            return
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)


def _best_of_passes(passes: list[list[float]]) -> float:
    """Sum over jobs of each job's shortest time over the passes.

    Slow spells on a shared host last seconds to minutes and lengthen every
    pass they overlap; the fastest pass of each job is the least disturbed
    reading of the time the program needs (the rule ``timeit`` uses).
    """
    return sum(min(times) for times in zip(*passes))


def untraced_metrics(runner: Runner, first_setup_s: float, seconds: float, deadline: float) -> dict[str, float]:
    """Set-up probes interleaved with a fixed number of passes, so that the
    probes of one run sample the whole run and not one moment of it."""
    session = runner.session
    w = workloads.WORKLOADS[session.workload]
    count = max(1, int((seconds - (1 + SETUP_PROBES) * w.nominal_setup_s) // w.nominal_pass_s))
    setup_samples = [first_setup_s]
    passes: list[Pass] = []

    def probe() -> None:
        k = len(setup_samples) - 1
        setup_samples.append(_setup_probe(session.workload, session.seed, session.directory / f"probe{k}"))

    def step() -> None:
        passes.append(runner.run())
        while len(setup_samples) - 1 < SETUP_PROBES * len(passes) // count:
            probe()

    _repeat(count, deadline, step)
    while len(setup_samples) - 1 < SETUP_PROBES:  # only when a slow host cut the passes short
        probe()
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": _best_of_passes([p.walls for p in passes]),
        "cpu_s": _best_of_passes([p.cpus for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(runner: Runner, seconds: float, deadline: float, spans_path: Path) -> dict[str, float]:
    """Alternate untraced and traced passes; on a workload that runs with
    more than one worker, end with a traced run of its jobs at one worker and
    one repetition, for ``measurement.mc.scaling_2w``."""
    session = runner.session
    w = workloads.WORKLOADS[session.workload]
    workers = max(job.config.get("workers", 1) for job in session.jobs)
    repetitions = max(job.config.get("repetitions", 1) for job in session.jobs)
    one_worker_s = w.nominal_pass_s * workers / repetitions if workers > 1 else 0.0
    count = max(1, int((seconds - w.nominal_setup_s - one_worker_s) // (2 * w.nominal_pass_s)))

    tracer = tracing.Tracer()
    untraced: list[Pass] = []
    traced: list[tuple[Pass, list]] = []

    def step() -> None:
        untraced.append(runner.run())
        with tracer.installed():
            p = runner.run()
        traced.append((p, tracer.take()))

    _repeat(count, deadline - one_worker_s, step)
    per_pass = [tracing.layer_metrics(spans, p.wall) for p, spans in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead"] = (
        _best_of_passes([p.walls for p, _ in traced]) / _best_of_passes([p.walls for p in untraced]) - 1.0
    )

    metrics["measurement.mc.scaling_2w"] = 0.0
    all_spans = [s for _, spans in traced for s in spans]
    if workers > 1:
        single = workloads.one_worker(session.jobs)
        written = [workloads.write_job(job, session.directory) for job in single]
        with tracer.installed():
            runner.run(single, written)
        spans = tracer.take()
        all_spans += spans
        at_workers = statistics.median(tracing.sampler_seconds_per_cell(s) for _, s in traced)
        metrics["measurement.mc.scaling_2w"] = tracing.sampler_seconds_per_cell(spans) / at_workers
    tracing.dump(all_spans, spans_path)
    return metrics


def _declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "cohsh" / "__init__.py").is_file():
        print(f"error: no cohsh package under {ROOT / 'src'}; run from a cohsh checkout", file=sys.stderr)
        return 2

    if args.setup_probe:
        start = time.perf_counter()
        setup(args.workload, args.seed, Path(args.setup_probe))
        print(time.perf_counter() - start)
        return 0

    directory = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        start = time.perf_counter()
        deadline = start + args.seconds
        session = setup(args.workload, args.seed, directory)
        setup_s = time.perf_counter() - start
        runner = Runner(session)
        if args.trace:
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            measured = traced_metrics(runner, args.seconds, deadline, spans_path)
        else:
            measured = untraced_metrics(runner, setup_s, args.seconds, deadline)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            directory.parent.rmdir()

    metrics = {}
    for spec in _declared_metrics(bool(args.trace)):
        metrics[spec["name"]] = {"value": measured[spec["name"]], "unit": spec["unit"]}
        print(f"{spec['name']:40s} {measured[spec['name']]:.6g} {spec['unit']}")
    failed = len(runner.failures)
    print(f"{'error_rate':40s} {failed / runner.attempted:.6g} ({failed}/{runner.attempted} results failed)")
    for failure in runner.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
