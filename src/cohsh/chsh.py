"""Background subtraction, correlation functions, and CHSH statistics.

The three-configuration protocol measures each analyzer setting three times:
both arms open, arm a blocked, arm b blocked.  Entrywise subtraction

    C_ij = N_ij(mu_a, mu_b) - N_ij(mu_a, 0) - N_ij(0, mu_b)

removes the separable two-photon contributions and leaves the singlet-sourced
coincidences, from which the normalized correlation

    E = (C_pp - C_pm - C_mp + C_mm) / (C_pp + C_pm + C_mp + C_mm)

is formed.  Sign convention: detectors are labeled so that the subtracted
singlet gives E = -1 at identical analyzer angles, hence E(alpha, beta) =
-eta * cos 2(alpha - beta) with visibility eta.

The CHSH statistic S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')| reaches
2*sqrt(2) at the Bell test angles (0, pi/4, pi/8, 3pi/8); because the singlet
correlation depends only on the angle difference, S there also equals
|3 E(theta) - E(3 theta)| with theta = pi/8.

Error conventions: single count tables get a multinomial standard error;
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
    CoincidenceSemantics,
    CountTable,
    DetectorModel,
    _blocked_variants,
    derive_rng,
    detected_means,
    exact_rates,
    run_montecarlo_coherent,
    run_montecarlo_fock,
)
from .source import BlockedArm, SourceSpec

#: (alpha, alpha', beta, beta') maximizing the singlet CHSH violation.
BELL_TEST_ANGLES = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)

#: Seed-derivation substreams for the two protocol drivers.
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
    """Isolated coincidence table with its normalized correlation."""

    c_table: CountTable
    e_value: float
    std_error: float


@dataclass(frozen=True)
class ChshResult:
    """Four correlations, the CHSH statistic, and its quadrature error."""

    e_values: tuple[float, float, float, float]
    e_errors: tuple[float, float, float, float]
    s_value: float
    s_error: float
    eta_fit: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "e_values": [float(e) for e in self.e_values],
            "s": float(self.s_value),
            "s_err": float(self.s_error),
            "eta": None if self.eta_fit is None else float(self.eta_fit),
        }


def _check_meta(field: str, *values) -> None:
    known = [v for v in values if v is not None]
    for v in known[1:]:
        if isinstance(v, float) or isinstance(known[0], float):
            if abs(float(v) - float(known[0])) > 1e-12:
                raise ValueError(f"tables disagree on {field}: {known[0]} vs {v}")
        elif v != known[0]:
            raise ValueError(f"tables disagree on {field}: {known[0]} vs {v}")


def subtract_background(
    full: CountTable, blocked_a: CountTable, blocked_b: CountTable
) -> tuple[CountTable, float]:
    """Entrywise C = N(full) - N(arm a blocked) - N(arm b blocked).

    The three tables must share settings and normalization (rates, or counts
    from equal trial numbers).  Negative entries, which can arise from
    statistical fluctuation, are clamped to zero; the clamped magnitude is
    returned as a diagnostic.
    """
    _check_meta("alpha", full.alpha, blocked_a.alpha, blocked_b.alpha)
    _check_meta("beta", full.beta, blocked_a.beta, blocked_b.beta)
    _check_meta("mu_a", full.mu_a, blocked_a.mu_a, blocked_b.mu_a)
    _check_meta("mu_b", full.mu_b, blocked_a.mu_b, blocked_b.mu_b)
    trials = {t.trials for t in (full, blocked_a, blocked_b) if t.trials > 0}
    if len(trials) > 1:
        raise ValueError(f"count tables have unequal trial numbers: {sorted(trials)}")
    for table, expected in (
        (full, BlockedArm.NONE),
        (blocked_a, BlockedArm.BLOCK_A),
        (blocked_b, BlockedArm.BLOCK_B),
    ):
        if table.blocked is not None and table.blocked is not expected:
            raise ValueError(
                f"table marked {table.blocked.value} used in the {expected.value} slot"
            )
    raw = full.values() - blocked_a.values() - blocked_b.values()
    clamped = float(-raw[raw < 0].sum())
    return full.with_values(np.clip(raw, 0.0, None)), clamped


def correlation_E(c_table: CountTable) -> SubtractedCorrelation:
    """Normalized correlation of a coincidence table.

    Count tables (trials > 0) get a multinomial standard error
    sqrt((1 - E^2) / total); rate tables get zero (they are exact).
    """
    values = c_table.values()
    total = float(values.sum())
    if total <= 0.0:
        raise ValueError("insufficient statistics: subtracted table has zero total")
    e = float((values[0] - values[1] - values[2] + values[3]) / total)
    if c_table.trials > 0:
        std_error = math.sqrt(max(0.0, 1.0 - e * e) / total)
    else:
        std_error = 0.0
    return SubtractedCorrelation(c_table, e, std_error)


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


def _one_table(spec, setting, detector, mode, trials, seed, cell_key):
    rng = derive_rng(seed, *cell_key)
    runner = run_montecarlo_fock if mode is RunMode.MC_FOCK else run_montecarlo_coherent
    return runner(spec, setting, detector, trials, rng)


def _common_normalization(
    tables: tuple[CountTable, CountTable, CountTable],
    spec: SourceSpec,
    detector: DetectorModel,
) -> tuple[CountTable, CountTable, CountTable]:
    """Bring blocked-run counts into the full-run normalization.

    An exclusive one-photon-per-output window vetoes events in which the
    other arm contributed photons, so a blocked run overcounts relative to
    the full run by exactly the missing arm's vacuum factor.  Rescaling the
    blocked counts by exp(-m), m the missing arm's detected mean, makes the
    entrywise subtraction an unbiased estimate of the separable-background
    removal.
    Exact-mode rate tables already share the vacuum-relative units, and
    threshold counting has no veto, so both pass through unchanged.
    """
    full, blocked_a, blocked_b = tables
    if full.trials == 0 or detector.semantics is not CoincidenceSemantics.EXACT_ONE_ONE:
        return tables
    m_a, m_b = detected_means(spec, detector)
    return (
        full,
        blocked_a.with_values(blocked_a.values() * math.exp(-m_a)),
        blocked_b.with_values(blocked_b.values() * math.exp(-m_b)),
    )


def measure_protocol(
    spec: SourceSpec,
    setting: AnalyzerSetting,
    detector: DetectorModel,
    mode: RunMode | str = RunMode.EXACT,
    trials: int = 0,
    seed: int | None = None,
    cell_key: tuple[int, ...] = (),
) -> tuple[SubtractedCorrelation, tuple[CountTable, CountTable, CountTable], float]:
    """One three-configuration run at one setting.

    Returns the subtracted correlation, the raw (full, blocked-a, blocked-b)
    tables, and the clamp diagnostic; exact mode gets all three from one
    exact_rates call.  All three configurations use the same trial count; in
    Monte Carlo modes each configuration gets its own derived stream keyed by
    (cell_key, configuration index), and the blocked counts are rescaled to
    the full-run normalization before subtraction (see _common_normalization).
    """
    mode = RunMode(mode)
    if mode is RunMode.EXACT:
        tables = exact_rates(spec, setting, detector)
    else:
        if trials < 1:
            raise ValueError("Monte Carlo modes need trials >= 1")
        if seed is None:
            raise ValueError("Monte Carlo modes need a seed")
        tables = tuple(
            _one_table(s, setting, detector, mode, trials, seed, cell_key + (cfg,))
            for cfg, s in enumerate(_blocked_variants(spec))
        )
    c_table, clamped = subtract_background(*_common_normalization(tables, spec, detector))
    return correlation_E(c_table), tables, clamped


class _Repeated(NamedTuple):
    e_value: float
    std_error: float
    tables: tuple[CountTable, ...]
    clamped: float


def _repeated_protocol(
    spec, setting, detector, mode, trials, repetitions, seed, cell_key
) -> _Repeated:
    """The three-configuration protocol at one setting, repeated.

    Returns the mean correlation over the repetitions, its error, every raw
    table in (repetition, configuration) order, and the total clamped weight.
    The error is the standard deviation over repetitions when there are
    several, else the single run's std_error (multinomial for counts, zero
    for exact rates).  Exact mode runs once whatever ``repetitions`` says.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    if RunMode(mode) is RunMode.EXACT:
        repetitions = 1
    es, tables, clamped_total = [], [], 0.0
    for rep in range(repetitions):
        corr, raw, clamped = measure_protocol(
            spec, setting, detector, mode, trials, seed, cell_key + (rep,)
        )
        es.append(corr.e_value)
        tables.extend(raw)
        clamped_total += clamped
    error = float(np.std(es, ddof=1)) if repetitions > 1 else corr.std_error
    return _Repeated(float(np.mean(es)), error, tuple(tables), clamped_total)


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
    exact = RunMode(mode) is RunMode.EXACT
    points = []
    for t_idx, theta in enumerate(thetas):
        setting = AnalyzerSetting(alpha=float(theta), beta=0.0)
        e, err, _, _ = _repeated_protocol(
            spec, setting, detector, mode, trials, repetitions, seed, (_STREAM_SWEEP, t_idx)
        )
        points.append(
            SweepPoint(float(theta), e, err, 0 if exact else trials, 1 if exact else repetitions)
        )
    return points


@dataclass(frozen=True)
class ChshRun:
    """A full CHSH measurement: the statistic plus every raw table produced."""

    result: ChshResult
    tables: tuple[CountTable, ...]
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
    quad = [
        _repeated_protocol(
            spec, setting, detector, mode, trials, repetitions, seed, (_STREAM_CHSH, s_idx)
        )
        for s_idx, setting in enumerate(setting_quad(*angles))
    ]
    return ChshRun(
        chsh_S(quad),
        tuple(t for q in quad for t in q.tables),
        sum(q.clamped for q in quad),
    )
