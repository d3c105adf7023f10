"""Background subtraction, correlation functions, and CHSH statistics.

The three-configuration protocol (measurement.protocol) measures each
analyzer setting three times: both arms open, arm a blocked, arm b blocked.
The entrywise weighted sum

    C_ij = N_ij(mu_a, mu_b) + w_a N_ij(0, mu_b) + w_b N_ij(mu_a, 0),

with w = -exp(-m) of the blocked arm's detected mean m under exact_one_one
and w = -1 under threshold, removes the separable two-photon contributions
and leaves the singlet-sourced coincidences, from which the normalized
correlation

    E = (C_pp - C_pm - C_mp + C_mm) / (C_pp + C_pm + C_mp + C_mm)

is formed.  Sign convention: detectors are labeled so that the subtracted
singlet gives E = -1 at identical analyzer angles, hence E(alpha, beta) =
-eta * cos 2(alpha - beta) with visibility eta.

The CHSH statistic S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| reaches
2*sqrt(2) at the Bell test angles (0, pi/4, pi/8, 3pi/8); because the singlet
correlation depends only on the angle difference, S there also equals
|3 E(theta) - E(3 theta)| with theta = pi/8.

One engine (_run_protocol) runs the protocol for run_chsh and
sweep_correlation, and its record of a run is the array raw[s, r, k] of the
four cells of configuration k in repetition r at setting s.  The
subtraction and E are computed in one place each: subtract_background and
correlation_E take arrays with any leading axes, so the engine passes every
(setting, repetition) of a run at once.  A setting's result is a
SubtractedCorrelation (e_value, std_error).

Error conventions: a single count table gets the multinomial standard error
sqrt((1 - E^2) / total) of its subtracted cells, an exact-mode table zero;
repeated runs report the empirical standard deviation over the repetitions.
The two are never mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .measurement import (
    AnalyzerSetting,
    DetectorModel,
    derive_rng,
    exact_rates,
    protocol,
    run_montecarlo_coherent,
    run_montecarlo_fock,
)
from .source import SourceSpec

#: (alpha, alpha', beta, beta') maximizing the singlet CHSH violation.
BELL_TEST_ANGLES = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)

#: Seed-derivation substreams of the engine's two callers.
_STREAM_CHSH = 1
_STREAM_SWEEP = 2


class RunMode(str, Enum):
    EXACT = "exact"
    MC_FOCK = "mc_fock"
    MC_COHERENT = "mc_coherent"


def setting_quad(
    alpha: float, alpha_prime: float, beta: float, beta_prime: float
) -> tuple[AnalyzerSetting, ...]:
    """The four setting pairs in CHSH order: (a,b), (a,b'), (a',b), (a',b')."""
    return (
        AnalyzerSetting(alpha, beta),
        AnalyzerSetting(alpha, beta_prime),
        AnalyzerSetting(alpha_prime, beta),
        AnalyzerSetting(alpha_prime, beta_prime),
    )


@dataclass(frozen=True)
class SubtractedCorrelation:
    """A setting's normalized correlation E of the subtracted table, and its error."""

    e_value: float
    std_error: float


@dataclass(frozen=True)
class ChshResult:
    """Four correlations, the CHSH statistic, and its quadrature error."""

    e_values: tuple[float, float, float, float]
    e_errors: tuple[float, float, float, float]
    s_value: float
    s_error: float

    def to_json_dict(self) -> dict:
        return {
            "e_values": [float(e) for e in self.e_values],
            "s": float(self.s_value),
            "s_err": float(self.s_error),
        }


def subtract_background(
    raw: np.ndarray, runs: Sequence[tuple[SourceSpec, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise C = sum_k w_k N_k over the runs of measurement.protocol.

    ``raw`` holds the four cells of each table on its last axis and the
    configurations, in protocol order, on axis -2; leading axes (settings,
    repetitions) are carried through.  Negative entries are clamped to
    zero.  They arise from statistical fluctuation in Monte Carlo tables,
    and in exact threshold tables from the model itself, where the
    subtraction leaves third-order threshold terms: run_chsh(SourceSpec(0.15,
    0.3, n_max=6), DetectorModel(semantics=THRESHOLD), (2, 2, 0.5, 0.5))
    clamps 1.04e-3 in total and reads E = 1.0 at every setting.  Returns C
    and, per subtracted table, the clamped magnitude as a diagnostic.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape[-2] != len(runs):
        raise ValueError(f"{raw.shape[-2]} tables for a protocol of {len(runs)} runs")
    subtracted = sum(weight * raw[..., k, :] for k, (_, weight) in enumerate(runs))
    clamped = np.where(subtracted < 0, -subtracted, 0.0).sum(axis=-1)
    return np.maximum(subtracted, 0.0), clamped


def correlation_E(cells: np.ndarray, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized correlation of coincidence tables (cells on the last axis).

    Returns E and its single-table error: the multinomial standard error
    sqrt((1 - E^2) / total) for counts (trials > 0), zero for exact-mode
    probabilities (trials == 0).
    """
    cells = np.asarray(cells, dtype=float)
    total = cells.sum(axis=-1)
    if not (total > 0.0).all():
        raise ValueError("insufficient statistics: subtracted table has zero total")
    e = (cells[..., 0] - cells[..., 1] - cells[..., 2] + cells[..., 3]) / total
    if trials > 0:
        return e, np.sqrt(np.maximum(0.0, 1.0 - e * e) / total)
    return e, np.zeros_like(e)


def chsh_S(quad: Sequence[SubtractedCorrelation]) -> ChshResult:
    """S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| with quadrature error.

    Only ``e_value`` and ``std_error`` of each entry are read, so the
    repetition means of run_chsh enter the same way as single correlations.
    """
    if len(quad) != 4:
        raise ValueError(f"need exactly four correlations, got {len(quad)}")
    e = tuple(c.e_value for c in quad)
    err = tuple(c.std_error for c in quad)
    s = abs(e[0] - e[1] + e[2] + e[3])
    s_err = math.sqrt(sum(x * x for x in err))
    return ChshResult(e, err, s, s_err)


def bell_angle_S(
    e_theta: SubtractedCorrelation, e_3theta: SubtractedCorrelation
) -> ChshResult:
    """S = |3 E(theta) - E(3 theta)| for difference angles theta and 3 theta.

    Equivalent to the four-setting form when the correlation depends only on
    the angle difference; the repeated E(theta) entries in ``e_values`` are
    one measurement, so its error enters the propagation three times coherently.
    """
    e1, e3 = e_theta.e_value, e_3theta.e_value
    err1, err3 = e_theta.std_error, e_3theta.std_error
    s = abs(3.0 * e1 - e3)
    s_err = math.sqrt(9.0 * err1**2 + err3**2)
    return ChshResult((e1, e3, e1, e1), (err1, err3, err1, err1), s, s_err)


@dataclass(frozen=True)
class VisibilityFit:
    eta: float
    eta_error: float


def fit_visibility(points: Iterable[tuple[float, float, float]]) -> VisibilityFit:
    """Weighted least-squares fit of E(theta) = -eta * cos(2 theta).

    ``points`` are (theta, E, error) triples covering at least half a period
    (pi/2).  Points with known positive errors are weighted by 1/error^2 and
    the fit error is exact; otherwise unit weights are used and the error is
    scaled from the residuals.
    """
    data = [(float(t), float(e), float(s)) for t, e, s in points]
    if len(data) < 3:
        raise ValueError("visibility fit needs at least 3 sweep points")
    thetas = np.array([t for t, _, _ in data])
    if thetas.max() - thetas.min() < math.pi / 2 - 1e-9:
        raise ValueError("sweep must span at least half a period (pi/2)")
    e = np.array([v for _, v, _ in data])
    sigma = np.array([s for _, _, s in data])
    weighted = bool((sigma > 0).all())
    w = 1.0 / sigma**2 if weighted else np.ones_like(sigma)
    c = np.cos(2.0 * thetas)
    denom = float((w * c * c).sum())
    if denom <= 0.0 or float(np.abs(c).max()) < 1e-9:
        raise ValueError("degenerate design: cos(2 theta) vanishes on every point")
    eta = float(-(w * c * e).sum() / denom)
    if weighted:
        eta_error = math.sqrt(1.0 / denom)
    else:
        residuals = e + eta * c
        rss = float((residuals**2).sum())
        eta_error = math.sqrt(rss / (len(data) - 1) / denom)
    return VisibilityFit(eta, eta_error)


def _sampler(mode: RunMode, trials: int, seed: int | None):
    """The Monte Carlo sampler of ``mode``, once the trials and seed are checked."""
    if trials < 1:
        raise ValueError("Monte Carlo modes need trials >= 1")
    if seed is None:
        raise ValueError("Monte Carlo modes need a seed")
    return run_montecarlo_fock if mode is RunMode.MC_FOCK else run_montecarlo_coherent


class _ProtocolRun(NamedTuple):
    """Every cell of one run of the engine (_run_protocol)."""

    runs: tuple[tuple[SourceSpec, float], ...]
    settings: Sequence[AnalyzerSetting]
    trials: int
    #: raw[s, r, k]: the four cells of configuration k in repetition r at setting s
    raw: np.ndarray
    correlations: list[SubtractedCorrelation]
    clamped: float


def _run_protocol(
    spec, detector, settings, mode, trials, repetitions, seed, stream
) -> _ProtocolRun:
    """The three-configuration protocol at every setting of a run, repeated.

    The one engine of run_chsh and sweep_correlation.  Exact mode reads
    every (setting, configuration) cell from one exact_rates call
    and runs once whatever ``repetitions`` says.  Monte Carlo modes make one
    sampler call per (setting, repetition, configuration) cell, settings
    outermost, each on the stream derive_rng(seed, stream, setting index,
    repetition, configuration index).  subtract_background and correlation_E
    take every (setting, repetition) at once.  A setting's E is the mean
    over its repetitions, and its error the standard deviation over them
    when there are several, else the single run's error (multinomial for
    counts, zero for exact rates).  The clamp total adds the clamped
    magnitudes in (setting, repetition) order.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    mode = RunMode(mode)
    runs = protocol(spec, detector)
    if mode is RunMode.EXACT:
        repetitions, trials = 1, 0
        raw = exact_rates(spec, settings, detector)[:, None]
    else:
        runner = _sampler(mode, trials, seed)
        tables = [
            runner(config, setting, detector, trials, derive_rng(seed, stream, s, rep, k))
            for s, setting in enumerate(settings)
            for rep in range(repetitions)
            for k, (config, _) in enumerate(runs)
        ]
        raw = np.array([t.values() for t in tables]).reshape(
            len(settings), repetitions, len(runs), 4
        )
    c, clamped = subtract_background(raw, runs)
    e, error = correlation_E(c, trials)
    error = e.std(axis=1, ddof=1) if repetitions > 1 else error[:, 0]
    correlations = [
        SubtractedCorrelation(mean, err)
        for mean, err in zip(e.mean(axis=1).tolist(), error.tolist())
    ]
    return _ProtocolRun(runs, settings, trials, raw, correlations, sum(clamped.ravel().tolist()))


@dataclass(frozen=True)
class SweepPoint:
    theta: float
    e_mean: float
    e_std: float
    trials: int
    repetitions: int


def sweep_correlation(
    spec: SourceSpec,
    detector: DetectorModel,
    thetas: Sequence[float],
    mode: RunMode | str = RunMode.EXACT,
    trials: int = 0,
    repetitions: int = 1,
    seed: int | None = None,
) -> list[SweepPoint]:
    """Correlation E versus difference angle via the subtraction protocol.

    Each theta is measured at the setting (alpha=theta, beta=0).  Monte Carlo
    modes repeat the protocol ``repetitions`` times and report the mean; the
    error ``e_std`` follows the module's convention: the standard deviation
    over repetitions when there are several, the multinomial error of the
    single count table otherwise.  Exact mode runs once, reports zero error,
    and records zero trials and one repetition.
    """
    settings = [AnalyzerSetting(alpha=float(theta), beta=0.0) for theta in thetas]
    run = _run_protocol(spec, detector, settings, mode, trials, repetitions, seed, _STREAM_SWEEP)
    return [
        SweepPoint(setting.alpha, corr.e_value, corr.std_error, run.trials, run.raw.shape[1])
        for setting, corr in zip(settings, run.correlations)
    ]


@dataclass(frozen=True)
class ChshRun:
    """A full CHSH measurement: the statistic and the run it was read from.

    raw[s, r, k] holds the four cells of configuration k of ``runs`` (the
    (configuration, weight) pairs of measurement.protocol) in repetition r
    at ``settings[s]``, the settings of setting_quad; ``trials`` is every
    Monte Carlo cell's trial number, 0 for exact per-trial probabilities.
    ``clamped`` is the run's clamped magnitude (see subtract_background).
    """

    result: ChshResult
    runs: tuple[tuple[SourceSpec, float], ...]
    settings: Sequence[AnalyzerSetting]
    trials: int
    raw: np.ndarray
    clamped: float


def run_chsh(
    spec: SourceSpec,
    detector: DetectorModel,
    angles: tuple[float, float, float, float] = BELL_TEST_ANGLES,
    mode: RunMode | str = RunMode.EXACT,
    trials: int = 0,
    repetitions: int = 1,
    seed: int | None = None,
) -> ChshRun:
    """CHSH statistic from the three-configuration protocol at four settings.

    Monte Carlo modes repeat every (setting, configuration) cell
    ``repetitions`` times; the reported E values are means over repetitions
    with errors as in sweep_correlation, and the S error combines the four E
    errors in quadrature.
    """
    run = _run_protocol(
        spec, detector, setting_quad(*angles), mode, trials, repetitions, seed, _STREAM_CHSH
    )
    return ChshRun(
        chsh_S(run.correlations), run.runs, run.settings, run.trials, run.raw, run.clamped
    )
