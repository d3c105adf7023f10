"""Experiment configuration: one flat JSON document.

Keys, all optional:

    source       mu_a, mu_b, n_max
    detector     visibility_eta, efficiency, dark_rate,
                 coincidence_semantics (exact_one_one | threshold)
    mode         exact | mc_fock | mc_coherent
    trials       per configuration per setting; at most 2**60 - 1
    repetitions
    angles       quad: {alpha, alpha_prime, beta, beta_prime};
                 sweep: [theta, ...] or {start, stop, points}
    seed         in [0, 2**64); required unless mode is exact
    workers      >= 1; changes neither speed nor results
    output       path, format (json | csv)

A key that is left out keeps the default of the dataclass field it sets;
``ExperimentConfig().to_json_dict()`` is the document of defaults.
Parsing is strict: every section must be a JSON object, and unknown keys,
missing required keys (all four quad angles; start, stop and points of a
sweep object), numeric values that are not finite JSON numbers, a mode,
coincidence_semantics or format outside its listed values and an
output.path that is not a string or null raise ConfigError naming the
section or key.  So do fractional or boolean values of the integer keys
(whole-number floats such as 1e7 pass).
parse -> serialize -> parse is the identity (a sweep given as
start/stop/points serializes as the explicit list it expands to), so
command-line flags are laid over the serialized config and parsed by the
same ``from_json_dict``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .chsh import BELL_TEST_ANGLES, RunMode
from .measurement import (
    SEED_LIMIT,
    TRIALS_LIMIT,
    CoincidenceSemantics,
    DetectorModel,
    too_many_trials,
)
from .source import SourceSpec


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
        if self.trials >= TRIALS_LIMIT:
            raise ConfigError(too_many_trials(self.trials))
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
            mode = _member("mode", RunMode, data.pop("mode", default.mode))
            trials = _whole("trials", data.pop("trials", default.trials))
            repetitions = _whole("repetitions", data.pop("repetitions", default.repetitions))
            quad, sweep = _parse_angles(data.pop("angles", {}), default)
            seed = data.pop("seed", default.seed)
            seed = None if seed is None else _whole("seed", seed)
            workers = _whole("workers", data.pop("workers", default.workers))
            out_path, out_format = _parse_output(data.pop("output", {}), default)
        except (ValueError, TypeError) as exc:
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


def _number(key: str, value: Any) -> float:
    """A real config value: a finite JSON number, never a string, boolean or null."""
    # the comparison is exact for ints, so it also refuses ints beyond float range
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _whole(key: str, value: Any) -> int:
    """An integer config value.  Whole-number floats such as 1e7 are accepted;
    fractional, infinite, boolean or non-numeric values are refused, never
    truncated or converted."""
    if not (type(value) is int or (type(value) is float and value.is_integer())):
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _member(key: str, kind: type[Enum], value: Any) -> Any:
    """An enum config value, given by the string of one of its members."""
    try:
        return kind(value)
    except ValueError:
        allowed = [member.value for member in kind]
        raise ConfigError(f"{key} must be one of {allowed}, got {value!r}") from None


def _section(name: str, data: Any, keys: set[str], complete: bool = False) -> Mapping:
    """A config section: a JSON object with no key outside ``keys``, and with
    all of them if ``complete``."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{name} must be a JSON object, got {data!r}")
    if unknown := set(data) - keys:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    if complete and (missing := keys - set(data)):
        raise ConfigError(f"missing keys in {name}: {sorted(missing)}")
    return data


def _parse_source(data: Any, default: SourceSpec) -> SourceSpec:
    data = _section("source", data, {"mu_a", "mu_b", "n_max"})
    return SourceSpec(
        mu_a=_number("source.mu_a", data.get("mu_a", default.mu_a)),
        mu_b=_number("source.mu_b", data.get("mu_b", default.mu_b)),
        n_max=_whole("source.n_max", data.get("n_max", default.n_max)),
    )


def _parse_detector(data: Any, default: DetectorModel) -> DetectorModel:
    keys = {"visibility_eta", "efficiency", "coincidence_semantics", "dark_rate"}
    data = _section("detector", data, keys)
    return DetectorModel(
        visibility_eta=_number(
            "detector.visibility_eta", data.get("visibility_eta", default.visibility_eta)
        ),
        efficiency=_number("detector.efficiency", data.get("efficiency", default.efficiency)),
        semantics=_member(
            "detector.coincidence_semantics",
            CoincidenceSemantics,
            data.get("coincidence_semantics", default.semantics),
        ),
        dark_rate=_number("detector.dark_rate", data.get("dark_rate", default.dark_rate)),
    )


_QUAD_KEYS = ("alpha", "alpha_prime", "beta", "beta_prime")


def _parse_angles(
    data: Any, default: ExperimentConfig
) -> tuple[tuple[float, float, float, float], tuple[float, ...] | None]:
    data = _section("angles", data, {"quad", "sweep"})
    quad = default.quad
    if "quad" in data:
        q = _section("angles.quad", data["quad"], set(_QUAD_KEYS), complete=True)
        quad = tuple(_number(f"angles.quad.{key}", q[key]) for key in _QUAD_KEYS)
    sweep = default.sweep
    if "sweep" in data:
        grid = data["sweep"]
        if isinstance(grid, list):
            sweep = tuple(_number(f"angles.sweep[{k}]", t) for k, t in enumerate(grid))
            if not sweep:
                raise ConfigError("sweep grid is empty")
        elif isinstance(grid, Mapping):
            grid = _section("angles.sweep", grid, {"start", "stop", "points"}, complete=True)
            points = _whole("angles.sweep.points", grid["points"])
            if points < 1:
                raise ConfigError("sweep needs at least one point")
            start, stop = (_number(f"angles.sweep.{k}", grid[k]) for k in ("start", "stop"))
            sweep = tuple(float(t) for t in np.linspace(start, stop, points))
        else:
            raise ConfigError(
                f"angles.sweep must be a list of angles or a JSON object, got {grid!r}"
            )
    return quad, sweep


def _parse_output(data: Any, default: ExperimentConfig) -> tuple[str | None, OutputFormat]:
    data = _section("output", data, {"path", "format"})
    path = data.get("path", default.out_path)
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"output.path must be a string or null, got {path!r}")
    return path, _member("output.format", OutputFormat, data.get("format", default.out_format))


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
