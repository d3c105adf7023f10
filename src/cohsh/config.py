"""Experiment configuration: one flat JSON document.

Keys, all optional:

    source       mu_a, mu_b, n_max, blocked (none | block_a | block_b)
    detector     visibility_eta, efficiency, dark_rate,
                 coincidence_semantics (exact_one_one | threshold)
    mode         exact | mc_fock | mc_coherent
    trials       per configuration per setting
    repetitions
    angles       quad: {alpha, alpha_prime, beta, beta_prime};
                 sweep: [theta, ...] or {start, stop, points}
    seed         in [0, 2**64); required unless mode is exact
    workers      >= 1; changes neither speed nor results
    output       path, format (json | csv)

A key that is left out keeps the default of the dataclass field it sets;
``ExperimentConfig().to_json_dict()`` is the document of defaults.
Parsing is strict: unknown keys raise ConfigError, and so do fractional or
boolean values of the integer keys (whole-number floats such as 1e7 pass).
parse -> serialize -> parse is the identity (a sweep given as
start/stop/points serializes as the explicit list it expands to), so
command-line flags are laid over the serialized config and parsed by the
same ``from_json_dict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .chsh import BELL_TEST_ANGLES, RunMode
from .measurement import SEED_LIMIT, CoincidenceSemantics, DetectorModel
from .source import BlockedArm, SourceSpec


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


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
        """Parse a config document; a key it leaves out keeps the dataclass default."""
        data = dict(data)
        default = cls()
        try:
            source = _parse_source(data.pop("source", {}), default.source)
            detector = _parse_detector(data.pop("detector", {}), default.detector)
            mode = RunMode(data.pop("mode", default.mode))
            trials = _whole("trials", data.pop("trials", default.trials))
            repetitions = _whole("repetitions", data.pop("repetitions", default.repetitions))
            quad, sweep = _parse_angles(data.pop("angles", {}), default)
            seed = data.pop("seed", default.seed)
            seed = None if seed is None else _whole("seed", seed)
            workers = _whole("workers", data.pop("workers", default.workers))
            out_path, out_format = _parse_output(data.pop("output", {}), default)
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


def _whole(key: str, value: Any) -> int:
    """An integer config value.  Whole-number floats such as 1e7 are accepted;
    fractional, infinite or boolean values are refused, never truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _reject_unknown(section: str, data: Mapping, allowed: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")


def _parse_source(data: Mapping, default: SourceSpec) -> SourceSpec:
    _reject_unknown("source", data, {"mu_a", "mu_b", "n_max", "blocked"})
    return SourceSpec(
        mu_a=float(data.get("mu_a", default.mu_a)),
        mu_b=float(data.get("mu_b", default.mu_b)),
        n_max=_whole("source.n_max", data.get("n_max", default.n_max)),
        blocked=BlockedArm(data.get("blocked", default.blocked)),
    )


def _parse_detector(data: Mapping, default: DetectorModel) -> DetectorModel:
    _reject_unknown(
        "detector", data, {"visibility_eta", "efficiency", "coincidence_semantics", "dark_rate"}
    )
    return DetectorModel(
        visibility_eta=float(data.get("visibility_eta", default.visibility_eta)),
        efficiency=float(data.get("efficiency", default.efficiency)),
        semantics=CoincidenceSemantics(data.get("coincidence_semantics", default.semantics)),
        dark_rate=float(data.get("dark_rate", default.dark_rate)),
    )


def _parse_angles(
    data: Mapping, default: ExperimentConfig
) -> tuple[tuple[float, float, float, float], tuple[float, ...] | None]:
    _reject_unknown("angles", data, {"quad", "sweep"})
    quad = default.quad
    if "quad" in data:
        q = data["quad"]
        _reject_unknown("angles.quad", q, {"alpha", "alpha_prime", "beta", "beta_prime"})
        quad = (
            float(q["alpha"]),
            float(q["alpha_prime"]),
            float(q["beta"]),
            float(q["beta_prime"]),
        )
    sweep = default.sweep
    if "sweep" in data:
        grid = data["sweep"]
        if isinstance(grid, Mapping):
            _reject_unknown("angles.sweep", grid, {"start", "stop", "points"})
            points = _whole("angles.sweep.points", grid["points"])
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


def _parse_output(data: Mapping, default: ExperimentConfig) -> tuple[str | None, OutputFormat]:
    _reject_unknown("output", data, {"path", "format"})
    path = data.get("path", default.out_path)
    out_format = OutputFormat(data.get("format", default.out_format))
    return (None if path is None else str(path)), out_format


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
