"""Seeded workload generator for the cohsh benchmark.

A workload is a list of jobs. A job is one ``cohsh`` subcommand run on one
config JSON file that this module writes; the program receives nothing but
that file. Only cost-neutral values are drawn from the workload seed: mean
photon numbers inside a band, the visibility eta, a common offset added to
all four CHSH angles (S depends only on angle differences) and the Monte
Carlo seed. The fields that set the cost (mode, semantics, n_max, trials,
repetitions, workers) are fixed per workload, so a number taken on one seed
is comparable with a number taken on another.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

#: (alpha, alpha', beta, beta') maximizing the singlet CHSH violation.
BELL_ANGLES = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)
SWEEP_POINTS = 17
WARMUP_TRIALS = 20_000


@dataclass(frozen=True)
class Job:
    """One result: a subcommand, the config it reads, and how to check it."""

    name: str
    command: str  # "chsh" (JSON result) or "sweep" (CSV result)
    config: dict  # the config document, without its "output" section
    check: str  # which check in checks.evaluate applies
    eta: float  # the visibility the config was generated with

    @property
    def out_format(self) -> str:
        return "csv" if self.command == "sweep" else "json"

    def argv(self, config_path: Path) -> list[str]:
        return [self.command, "--config", str(config_path)]


@dataclass(frozen=True)
class Workload:
    layers: tuple[str, ...]  # the layers it stresses
    fixed: dict  # cost-determining fields, the same on every seed
    bands: dict  # [low, high] of every value drawn from the seed
    build: Callable[[Workload, random.Random], list[Job]]
    # Seconds one set-up probe (a fresh interpreter) and one pass take at the
    # seed commit on a 2-core Xeon host, rounded up. They fix how many passes
    # fit in a run, so a faster program is timed over as many passes as a
    # slower one.
    nominal_setup_s: float
    nominal_pass_s: float


def _draw(rng: random.Random, band: list[float]) -> float:
    return rng.uniform(*band)


def _quad(w: Workload, rng: random.Random) -> dict:
    offset = _draw(rng, w.bands["angle_offset"])
    a, ap, b, bp = (angle + offset for angle in BELL_ANGLES)
    return {"quad": {"alpha": a, "alpha_prime": ap, "beta": b, "beta_prime": bp}}


def _exact_grid(w: Workload, rng: random.Random) -> list[Job]:
    fixed, jobs = w.fixed, []
    for k, n_max in enumerate(fixed["n_max"]):
        eta = _draw(rng, w.bands["eta"])
        common = {
            "source": {"mu_a": _draw(rng, w.bands["mu_a"]), "mu_b": _draw(rng, w.bands["mu_b"]), "n_max": n_max},
            "detector": {"visibility_eta": eta, "coincidence_semantics": fixed["coincidence_semantics"]},
            "mode": fixed["mode"],
            "repetitions": 1,
            "workers": fixed["workers"],
        }
        for command in fixed["commands"]:
            angles = _quad(w, rng) if command == "chsh" else {"sweep": dict(fixed["sweep"])}
            jobs.append(Job(f"c{k}-{command}", command, {**common, "angles": angles}, f"exact_{command}", eta))
    return jobs


def _monte_carlo(w: Workload, rng: random.Random) -> list[Job]:
    """One chsh job per mode in ``fixed["modes"]``, all on the same drawn values;
    two modes are checked against each other, one against 2*sqrt2*eta."""
    fixed = w.fixed
    mu = _draw(rng, w.bands["mu_a = mu_b"])
    eta = _draw(rng, w.bands["eta"])
    shared = {
        "source": {"mu_a": mu, "mu_b": mu, "n_max": fixed["n_max"]},
        "detector": {
            "visibility_eta": eta,
            "efficiency": fixed["efficiency"],
            "coincidence_semantics": fixed["coincidence_semantics"],
            "dark_rate": fixed["dark_rate"],
        },
        "trials": fixed["trials"],
        "repetitions": fixed["repetitions"],
        "angles": _quad(w, rng),
        "seed": rng.randrange(*w.bands["seed"]),
        "workers": fixed["workers"],
    }
    check = "detector" if len(fixed["modes"]) == 2 else "headline"
    return [Job(f"{mode}-chsh", "chsh", {**shared, "mode": mode}, check, eta) for mode in fixed["modes"]]


_SEED_BANDS = {"angle_offset": [0.0, math.pi], "seed": [0, 2**32]}

WORKLOADS: dict[str, Workload] = {
    # problem size (n_max) drives the Fock layer's cost; no Monte Carlo
    "exact_grid": Workload(
        layers=("elements.apply", "source.two_mode_input", "measurement.exact_rates", "chsh", "cli"),
        fixed={
            "mode": "exact",
            "coincidence_semantics": "exact_one_one",
            "n_max": [4, 4, 4, 6, 6, 6],
            "commands": ["chsh", "sweep"],
            "sweep": {"start": 0.0, "stop": math.pi, "points": SWEEP_POINTS},
            "workers": 1,
        },
        bands={"mu_a": [0.02, 0.2], "mu_b": [0.02, 0.2], "eta": [0.8, 1.0], "angle_offset": [0.0, math.pi]},
        build=_exact_grid,
        nominal_setup_s=0.4,
        nominal_pass_s=5.0,
    ),
    # acceptance criterion 3 at three of its ten repetitions; ten blocks per
    # cell, so the thread pool is used; apply does no work
    "mc_headline": Workload(
        layers=("measurement.run_montecarlo_coherent", "chsh"),
        fixed={
            "modes": ["mc_coherent"],
            "coincidence_semantics": "exact_one_one",
            "efficiency": 1.0,
            "dark_rate": 0.0,
            "n_max": 4,
            "trials": 10_000_000,
            "repetitions": 3,
            "workers": 2,
        },
        bands={"mu_a = mu_b": [0.04, 0.06], "eta": [0.94, 0.98], **_SEED_BANDS},
        build=_monte_carlo,
        nominal_setup_s=0.3,
        nominal_pass_s=13.0,
    ),
    # Poisson readout, Fock sector tables, thinning and visibility relabel;
    # one block per cell, so the single-threaded reference for those paths.
    # No dark counts: no correct reference exists for them yet.
    "mc_detector": Workload(
        layers=(
            "measurement.run_montecarlo_fock",
            "measurement.run_montecarlo_coherent",
            "elements.apply",
            "chsh",
        ),
        fixed={
            "modes": ["mc_fock", "mc_coherent"],
            "coincidence_semantics": "threshold",
            "efficiency": 0.6,
            "dark_rate": 0.0,
            "n_max": 4,
            "trials": 500_000,
            "repetitions": 3,
            "workers": 1,
        },
        bands={"mu_a = mu_b": [0.08, 0.12], "eta": [0.85, 0.95], **_SEED_BANDS},
        build=_monte_carlo,
        nominal_setup_s=0.6,
        nominal_pass_s=8.5,
    ),
}


def generate(workload: str, seed: int) -> list[Job]:
    """The jobs of one workload; the same seed gives the same jobs."""
    w = WORKLOADS[workload]
    return w.build(w, random.Random(f"{workload}:{seed}"))


def warmup_job(jobs: list[Job]) -> Job:
    """The first job at the smallest size: exact jobs as they are, Monte
    Carlo jobs at WARMUP_TRIALS trials and one repetition."""
    job = jobs[0]
    config = dict(job.config)
    if config["mode"] != "exact":
        config.update(trials=WARMUP_TRIALS, repetitions=1)
    return replace(job, name=f"warmup-{job.name}", config=config)


def one_worker(jobs: list[Job]) -> list[Job]:
    """The jobs at one worker and one repetition, for timing the samplers'
    cells without the thread pool."""
    return [replace(j, name=f"{j.name}-w1", config={**j.config, "workers": 1, "repetitions": 1}) for j in jobs]


def write_job(job: Job, directory: Path) -> tuple[Path, Path]:
    """Write the job's config file; return its path and the output path."""
    out_path = directory / f"{job.name}.out.{job.out_format}"
    config_path = directory / f"{job.name}.config.json"
    doc = {**job.config, "output": {"path": str(out_path), "format": job.out_format}}
    config_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return config_path, out_path
