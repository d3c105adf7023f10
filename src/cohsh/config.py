"""Experiment configuration: one flat JSON document.

Schema (all keys optional, defaults shown):

    {
      "source":   {"mu_a": 0.05, "mu_b": 0.05, "n_max": 4, "blocked": "none"},
      "detector": {"visibility_eta": 1.0, "efficiency": 1.0,
                   "coincidence_semantics": "exact_one_one", "dark_rate": 0.0},
      "mode": "exact",                  # exact | mc_fock | mc_coherent
      "trials": 1000000,                # per configuration per setting
      "repetitions": 10,
      "angles": {
        "quad": {"alpha": 0.0, "alpha_prime": 0.7853981633974483,
                 "beta": 0.39269908169872414, "beta_prime": 1.1780972450961724},
        "sweep": [0.0, ...]             # or {"start": s, "stop": e, "points": n}
      },
      "seed": 12345,                    # in [0, 2**64); required unless mode == "exact"
      "workers": 1,                     # >= 1; changes neither speed nor results
      "output": {"path": null, "format": "json"}
    }

Parsing is strict: unknown keys raise ConfigError.  parse -> serialize ->
parse is the identity (a sweep given as start/stop/points serializes as the
explicit list it expands to).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .chsh import BELL_TEST_ANGLES
from .measurement import SEED_LIMIT, CoincidenceSemantics, DetectorModel
from .source import BlockedArm, SourceSpec


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class RunMode(str, Enum):
    EXACT = "exact"
    MC_FOCK = "mc_fock"
    MC_COHERENT = "mc_coherent"


class OutputFormat(str, Enum):
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceSpec = field(default_factory=lambda: SourceSpec(0.05, 0.05))
    detector: DetectorModel = field(default_factory=DetectorModel)
    mode: RunMode = RunMode.EXACT
    trials: int = 1_000_000
    repetitions: int = 10
    quad: tuple[float, float, float, float] = BELL_TEST_ANGLES
    sweep: tuple[float, ...] | None = None
    seed: int | None = None
    workers: int = 1
    out_path: str | None = None
    out_format: OutputFormat = OutputFormat.JSON

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.seed is not None and not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.mode is not RunMode.EXACT:
            if self.trials < 1:
                raise ConfigError(f"mode {self.mode.value} needs trials >= 1")
            if self.seed is None:
                raise ConfigError(f"mode {self.mode.value} needs an explicit seed")

    def to_json_dict(self) -> dict:
        return {
            "source": {
                "mu_a": float(self.source.mu_a),
                "mu_b": float(self.source.mu_b),
                "n_max": int(self.source.n_max),
                "blocked": self.source.blocked.value,
            },
            "detector": {
                "visibility_eta": float(self.detector.visibility_eta),
                "efficiency": float(self.detector.efficiency),
                "coincidence_semantics": self.detector.semantics.value,
                "dark_rate": float(self.detector.dark_rate),
            },
            "mode": self.mode.value,
            "trials": int(self.trials),
            "repetitions": int(self.repetitions),
            "angles": {
                "quad": {
                    "alpha": float(self.quad[0]),
                    "alpha_prime": float(self.quad[1]),
                    "beta": float(self.quad[2]),
                    "beta_prime": float(self.quad[3]),
                },
                **({"sweep": [float(t) for t in self.sweep]} if self.sweep else {}),
            },
            "seed": None if self.seed is None else int(self.seed),
            "workers": int(self.workers),
            "output": {
                "path": self.out_path,
                "format": self.out_format.value,
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        data = dict(data)
        try:
            source = _parse_source(data.pop("source", {}))
            detector = _parse_detector(data.pop("detector", {}))
            mode = RunMode(data.pop("mode", "exact"))
            trials = int(data.pop("trials", 1_000_000))
            repetitions = int(data.pop("repetitions", 10))
            quad, sweep = _parse_angles(data.pop("angles", {}))
            seed = data.pop("seed", None)
            seed = None if seed is None else int(seed)
            workers = int(data.pop("workers", 1))
            out_path, out_format = _parse_output(data.pop("output", {}))
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(str(exc)) from exc
        if data:
            raise ConfigError(f"unknown config keys: {sorted(data)}")
        return cls(
            source=source,
            detector=detector,
            mode=mode,
            trials=trials,
            repetitions=repetitions,
            quad=quad,
            sweep=sweep,
            seed=seed,
            workers=workers,
            out_path=out_path,
            out_format=out_format,
        )


def _reject_unknown(section: str, data: Mapping, allowed: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")


def _parse_source(data: Mapping) -> SourceSpec:
    _reject_unknown("source", data, {"mu_a", "mu_b", "n_max", "blocked"})
    return SourceSpec(
        mu_a=float(data.get("mu_a", 0.05)),
        mu_b=float(data.get("mu_b", 0.05)),
        n_max=int(data.get("n_max", 4)),
        blocked=BlockedArm(data.get("blocked", "none")),
    )


def _parse_detector(data: Mapping) -> DetectorModel:
    _reject_unknown(
        "detector", data, {"visibility_eta", "efficiency", "coincidence_semantics", "dark_rate"}
    )
    return DetectorModel(
        visibility_eta=float(data.get("visibility_eta", 1.0)),
        efficiency=float(data.get("efficiency", 1.0)),
        semantics=CoincidenceSemantics(data.get("coincidence_semantics", "exact_one_one")),
        dark_rate=float(data.get("dark_rate", 0.0)),
    )


def _parse_angles(data: Mapping) -> tuple[tuple[float, float, float, float], tuple[float, ...] | None]:
    _reject_unknown("angles", data, {"quad", "sweep"})
    quad = BELL_TEST_ANGLES
    if "quad" in data:
        q = data["quad"]
        _reject_unknown("angles.quad", q, {"alpha", "alpha_prime", "beta", "beta_prime"})
        quad = (
            float(q["alpha"]),
            float(q["alpha_prime"]),
            float(q["beta"]),
            float(q["beta_prime"]),
        )
    sweep: tuple[float, ...] | None = None
    if "sweep" in data:
        grid = data["sweep"]
        if isinstance(grid, Mapping):
            _reject_unknown("angles.sweep", grid, {"start", "stop", "points"})
            points = int(grid["points"])
            if points < 1:
                raise ConfigError("sweep needs at least one point")
            sweep = tuple(
                float(t)
                for t in np.linspace(float(grid["start"]), float(grid["stop"]), points)
            )
        else:
            sweep = tuple(float(t) for t in grid)
            if not sweep:
                raise ConfigError("sweep grid is empty")
    return quad, sweep


def _parse_output(data: Mapping) -> tuple[str | None, OutputFormat]:
    _reject_unknown("output", data, {"path", "format"})
    path = data.get("path")
    return (None if path is None else str(path)), OutputFormat(data.get("format", "json"))


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return ExperimentConfig.from_json_dict(data)


def apply_overrides(
    cfg: ExperimentConfig,
    *,
    seed: int | None = None,
    mode: str | None = None,
    trials: int | None = None,
    repetitions: int | None = None,
    out_path: str | None = None,
    out_format: str | None = None,
    workers: int | None = None,
) -> ExperimentConfig:
    """Command-line flag overrides on top of a parsed config."""
    updates: dict[str, Any] = {}
    if seed is not None:
        updates["seed"] = int(seed)
    if mode is not None:
        updates["mode"] = RunMode(mode)
    if trials is not None:
        updates["trials"] = int(trials)
    if repetitions is not None:
        updates["repetitions"] = int(repetitions)
    if out_path is not None:
        updates["out_path"] = out_path
    if out_format is not None:
        updates["out_format"] = OutputFormat(out_format)
    if workers is not None:
        updates["workers"] = int(workers)
    try:
        return replace(cfg, **updates) if updates else cfg
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
