"""Polarization analyzers, detector semantics, and coincidence counting.

Detection layout: the recombined beams leave on ports c and d, pass a
half-wave-plate / polarizing-splitter analyzer pair, and hit four detectors.
Outcome "+" at a port is the H output after rotating that port's polarization
by minus the analyzer angle, "-" is the V output.

Rate normalization.  Exact-mode tables are two-photon event rates expressed
relative to the vacuum-window rate, i.e. the mixture component |i_aH, j_bV>
enters with coefficient

    m_a^i / i!  *  m_b^j / j!

of the detected means m (the Poisson weight divided by the vacuum weight;
see Detector model).  For coherent light this equals the normally-ordered
pair-detection rate, which is exactly bilinear in (m_a, m_b); in these
units the two-photon decomposition

    N_ij = m_a m_b P_ij(1,1) + m_a^2/2 P_ij(2,0) + m_b^2/2 P_ij(0,2)

is an identity, the three-configuration background subtraction cancels the
separable terms exactly, and the normalized correlation E is independent of
the overall scale anyway.  Exact mode propagates each registering sector
(i + j = 2 for exact_one_one) once per setting, for all three configurations.

Detector model.  Visibility eta mixes the ideal outcome distribution with a
uniform relabeling of coincidences (E_measured = eta * E_ideal exactly).
Efficiency is loss in front of ideal detectors: loss keeps a coherent state
coherent, |alpha> -> |sqrt(efficiency) alpha>, so a phase-randomized beam of
mean mu reaches the detectors as a Poisson beam of mean efficiency * mu.
Every mode applies efficiency through this one substitution (detected_means).
Dark counts are an additive Poisson rate per detector, modeled in the
coherent model only.

Monte Carlo.  Trials are i.i.d., so the counts of one cell are exactly
multinomial over p-bar, the per-trial outcome distribution averaged over the
beam phases.  Two independent builders compute p-bar: fock_outcome_table
from Fock propagation of photon-number inputs, coherent_outcome_table from
the Poisson readout of coherent amplitudes.  One sampler turns either into
counts.

Monte Carlo determinism.  Every (setting, configuration, repetition) cell
draws from its own SeedSequence-derived stream (derive_rng) and takes one
multinomial draw, so a run is a pure function of its seed; the worker count
plays no part.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .elements import ModeTransform, apply, beam_splitter, compose, polarization_rotator
from .fock import AH, BV, CH, CV, DH, DV, MODE_INDEX, DensityMixture, Port, StateVector
from .source import BlockedArm, SourceSpec, two_mode_input, _sector_state, _truncated_weights

#: Seeds are 64-bit: derive_rng accepts exactly the integers in [0, SEED_LIMIT).
SEED_LIMIT = 2**64

#: Equispaced phase-difference nodes of coherent_outcome_table's trapezoidal
#: rule.  It is exact for the exact_one_one integrand, a trigonometric
#: polynomial of degree 2, and converges exponentially for the smooth
#: threshold integrand: at 64 nodes it matches 128 nodes to rounding for
#: mean photon numbers up to ten per beam.
PHASE_NODES = 64

_DET_MODES = (MODE_INDEX[CH], MODE_INDEX[CV], MODE_INDEX[DH], MODE_INDEX[DV])
_INPUT_PORTS = {Port.A, Port.B}
_OUTPUT_PORTS = {Port.C, Port.D}
#: Detector-mode column pairs (c-side, d-side) for the four cells.
_CELL_COLUMNS = ((0, 2), (0, 3), (1, 2), (1, 3))
#: Click patterns of the four detectors (bit k set: detector k fires) and the
#: cells each one registers under threshold semantics.
_PATTERNS = np.array([[(p >> k) & 1 for k in range(4)] for p in range(16)], dtype=bool)
_PATTERN_CELLS = np.array(
    [[int(pattern[c] and pattern[d]) for c, d in _CELL_COLUMNS] for pattern in _PATTERNS]
)

#: The recombining 50:50 splitter, a/b inputs onto c/d outputs.
RECOMBINER = beam_splitter(Port.A, Port.B)


class CoincidenceSemantics(str, Enum):
    #: Exactly one photon at each of the two fired detectors, zero elsewhere.
    EXACT_ONE_ONE = "exact_one_one"
    #: At least one click at each of the two named detectors.
    THRESHOLD = "threshold"


@dataclass(frozen=True)
class AnalyzerSetting:
    """Analyzer rotation angles (radians) at ports c and d; physics is pi-periodic."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class DetectorModel:
    visibility_eta: float = 1.0
    efficiency: float = 1.0
    semantics: CoincidenceSemantics = CoincidenceSemantics.EXACT_ONE_ONE
    dark_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility_eta <= 1.0:
            raise ValueError("visibility_eta must lie in [0, 1]")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        if self.dark_rate < 0.0:
            raise ValueError("dark_rate must be non-negative")


@dataclass(frozen=True)
class CountTable:
    """Coincidence counts or rates for the four (+/-, +/-) outcomes.

    ``trials == 0`` marks an exact-mode rate table; counts from Monte Carlo
    carry the number of trials.  The remaining fields are run metadata used
    to validate that tables entering a subtraction belong together.
    """

    n_pp: float
    n_pm: float
    n_mp: float
    n_mm: float
    trials: int = 0
    alpha: float | None = None
    beta: float | None = None
    mu_a: float | None = None
    mu_b: float | None = None
    blocked: BlockedArm | None = None

    CSV_HEADER = "setting_alpha,setting_beta,mu_a,mu_b,blocked,n_pp,n_pm,n_mp,n_mm,trials"

    @classmethod
    def from_values(cls, values: np.ndarray, **meta) -> "CountTable":
        pp, pm, mp, mm = (float(v) for v in values)
        return cls(pp, pm, mp, mm, **meta)

    def with_values(self, values: np.ndarray) -> "CountTable":
        """Copy with the four cells replaced and the metadata kept."""
        pp, pm, mp, mm = (float(v) for v in values)
        return replace(self, n_pp=pp, n_pm=pm, n_mp=mp, n_mm=mm)

    def values(self) -> np.ndarray:
        return np.array([self.n_pp, self.n_pm, self.n_mp, self.n_mm], dtype=float)

    @property
    def total(self) -> float:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def csv_row(self) -> str:
        if None in (self.alpha, self.beta, self.mu_a, self.mu_b, self.blocked):
            raise ValueError("table lacks the metadata required for a CSV row")
        cells = ",".join(_fmt_number(v) for v in self.values())
        return (
            f"{_fmt_number(self.alpha)},{_fmt_number(self.beta)},"
            f"{_fmt_number(self.mu_a)},{_fmt_number(self.mu_b)},"
            f"{self.blocked.value},{cells},{int(self.trials)}"
        )


def _fmt_number(x: float) -> str:
    f = float(x)
    return str(int(f)) if f.is_integer() else repr(f)


def analyzer_transform(setting: AnalyzerSetting) -> ModeTransform:
    """Rotation by -alpha within port c and -beta within port d.

    After this transform the H mode of each output port is the "+" detector
    along the analyzer axis and the V mode is "-".
    """
    return compose(
        polarization_rotator(Port.C, -setting.alpha),
        polarization_rotator(Port.D, -setting.beta),
    )


def setup_transform(setting: AnalyzerSetting) -> ModeTransform:
    """The recombining splitter followed by the analyzers: inputs a, b to the detectors."""
    return compose(RECOMBINER, analyzer_transform(setting))


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent child stream for (seed, key).

    Cells of a larger computation (setting, configuration, repetition) each
    get their own key, so results are reproducible for a fixed seed
    regardless of execution order.  Seeds outside [0, 2**64) are rejected.
    """
    seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _classify_exact(occ: tuple[int, ...]) -> int | None:
    """Cell index for exactly-one-photon-per-output events, else None."""
    if occ[0] or occ[1] or occ[2] or occ[3]:
        return None
    nc_h, nc_v, nd_h, nd_v = occ[4], occ[5], occ[6], occ[7]
    if nc_h + nc_v != 1 or nd_h + nd_v != 1:
        return None
    return (0 if nc_h else 2) + (0 if nd_h else 1)


def _click_pattern(occ: tuple[int, ...]) -> int:
    """Index of the detectors that see at least one photon (bit k: detector k)."""
    return sum(1 << k for k, mode in enumerate(_DET_MODES) if occ[mode])


def _empty_outcomes(semantics: CoincidenceSemantics) -> np.ndarray:
    return np.zeros(4 if semantics is CoincidenceSemantics.EXACT_ONE_ONE else len(_PATTERNS))


def _can_register(i: int, j: int, semantics: CoincidenceSemantics) -> bool:
    """Whether input sector |i_aH, j_bV> can give a nonzero outcome row.

    The optics conserve photon number and exact_one_one needs exactly one
    photon at each output port, so only i + j == 2 registers; every sector
    contributes to the 16 threshold click patterns.
    """
    return semantics is CoincidenceSemantics.THRESHOLD or i + j == 2


def _outcome_probs(
    state: StateVector, transform: ModeTransform, semantics: CoincidenceSemantics
) -> np.ndarray:
    """Outcome probabilities of one pure state, before detector effects.

    The layout of every outcome table: the four cells for exact_one_one, the
    16 click patterns for threshold.
    """
    probs = _empty_outcomes(semantics)
    for bstate, amp in apply(transform, state).items():
        p = amp.real * amp.real + amp.imag * amp.imag
        if semantics is CoincidenceSemantics.THRESHOLD:
            probs[_click_pattern(bstate.occ)] += p
        elif (cell := _classify_exact(bstate.occ)) is not None:
            probs[cell] += p
    return probs


def detected_means(spec: SourceSpec, detector: DetectorModel) -> tuple[float, float]:
    """Mean photon numbers of the two beams as the detectors see them.

    Efficiency is the substitution mu -> efficiency * mu (see the module
    docstring); this is the only place a model reads it.
    """
    eff = detector.efficiency
    return eff * spec.effective_mu_a, eff * spec.effective_mu_b


def _finalize_cells(outcomes: np.ndarray, detector: DetectorModel) -> np.ndarray:
    """Bin outcomes into the four cells and fold in the visibility.

    Efficiency is already in the outcomes, through the detected means.
    """
    cells = outcomes
    if detector.semantics is CoincidenceSemantics.THRESHOLD:
        cells = outcomes @ _PATTERN_CELLS
    eta = detector.visibility_eta
    return eta * cells + (1.0 - eta) / 4.0 * cells.sum()


def _transform_for(support_ports: set[Port], setting: AnalyzerSetting) -> ModeTransform:
    if support_ports <= _INPUT_PORTS:
        return setup_transform(setting)
    if support_ports <= _OUTPUT_PORTS:
        return analyzer_transform(setting)
    names = ",".join(sorted(p.value for p in support_ports))
    raise ValueError(f"input occupies unsupported port combination: {names}")


def coincidence_probabilities(
    input_state: DensityMixture, setting: AnalyzerSetting, detector: DetectorModel
) -> CountTable:
    """Coincidence probabilities of a mixture under the analyzer setting.

    States on the recombination inputs (ports a, b) are propagated through
    the 50:50 splitter and the analyzers; states already on the output ports
    c, d skip the splitter.  Events with both photons in one port register in
    no cell.  Efficiency acts on the source means (detected_means), which a
    general mixture lacks, so a lossy detector is refused.
    """
    if detector.efficiency != 1.0:
        raise ValueError("coincidence_probabilities models lossless detectors only")
    support = set()
    for _, component in input_state.components:
        support |= {mode.port for mode in component.support_modes()}
    transform = _transform_for(support, setting)
    outcomes = _empty_outcomes(detector.semantics)
    for weight, component in input_state.components:
        outcomes += weight * _outcome_probs(component, transform, detector.semantics)
    return CountTable.from_values(
        _finalize_cells(outcomes, detector),
        trials=0,
        alpha=setting.alpha,
        beta=setting.beta,
    )


def _blocked_variants(spec: SourceSpec) -> tuple[SourceSpec, SourceSpec, SourceSpec]:
    """The protocol's three configurations: both arms open, a blocked, b blocked."""
    if spec.blocked is not BlockedArm.NONE:
        raise ValueError("protocol runs require an unblocked source spec")
    return (
        spec,
        replace(spec, blocked=BlockedArm.BLOCK_A),
        replace(spec, blocked=BlockedArm.BLOCK_B),
    )


def exact_rates(
    spec: SourceSpec, setting: AnalyzerSetting, detector: DetectorModel
) -> tuple[CountTable, CountTable, CountTable]:
    """Two-photon event rates N_ij: (full, arm a blocked, arm b blocked) of an unblocked spec.

    Each sector that can register is propagated once, and each configuration
    weights its row by the rate coefficient of its own detected means
    relative to the vacuum window (see the module docstring).  exact_one_one,
    which registers only i + j == 2, asks the source for i, j <= 2 alone.
    Dark counts are not modeled here; use the coherent sampler for that.
    """
    if detector.dark_rate > 0.0:
        raise ValueError("exact mode does not model dark counts; use mc_coherent")
    variants = _blocked_variants(spec)
    n_max = spec.n_max
    if detector.semantics is CoincidenceSemantics.EXACT_ONE_ONE:
        n_max = min(n_max, 2)
    mixture, _ = two_mode_input(replace(spec, n_max=n_max))
    transform = setup_transform(setting)
    rows = []
    for _, component in mixture.components:
        (bstate, _), = component.items()
        i, j = bstate.count(AH), bstate.count(BV)
        if _can_register(i, j, detector.semantics):
            rows.append((i, j, _outcome_probs(component, transform, detector.semantics)))
    tables = []
    for variant in variants:
        m_a, m_b = detected_means(variant, detector)
        outcomes = _empty_outcomes(detector.semantics)
        for i, j, probs in rows:
            coeff = m_a**i / math.factorial(i) * m_b**j / math.factorial(j)
            if coeff != 0.0:
                outcomes += coeff * probs
        tables.append(_run_table(_finalize_cells(outcomes, detector), variant, setting, 0))
    return tuple(tables)


def _run_table(
    values: np.ndarray, spec: SourceSpec, setting: AnalyzerSetting, trials: int
) -> CountTable:
    """The four cells of one configuration's run, with the run's metadata."""
    return CountTable.from_values(
        values,
        trials=trials,
        alpha=setting.alpha,
        beta=setting.beta,
        mu_a=spec.mu_a,
        mu_b=spec.mu_b,
        blocked=spec.blocked,
    )


def _as_rng(rng: np.random.Generator | int) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(int(rng))


def coherent_outcome_table(
    spec: SourceSpec, setting: AnalyzerSetting, detector: DetectorModel
) -> np.ndarray:
    """Per-trial outcome probabilities of the coherent-amplitude model.

    Coherent states stay coherent under linear optics, so for a phase
    difference delta between the beams detector k sees intensity I_k(delta)
    of the beams' detected means and registers an independent Poisson count
    of mean m_k = I_k + dark_rate.  The per-trial probabilities are averaged
    over delta by the trapezoidal rule on PHASE_NODES equispaced nodes.
    Returns the four cell probabilities m_c m_d exp(-sum m) for
    exact_one_one, or the probabilities of the 16 click patterns for
    threshold.
    """
    total = setup_transform(setting).matrix
    u = total[list(_DET_MODES), MODE_INDEX[AH]]
    v = total[list(_DET_MODES), MODE_INDEX[BV]]
    m_a, m_b = detected_means(spec, detector)
    base = m_a * np.abs(u) ** 2 + m_b * np.abs(v) ** 2
    cross = 2.0 * math.sqrt(m_a * m_b) * (u * v.conj())
    delta = 2.0 * math.pi * np.arange(PHASE_NODES) / PHASE_NODES
    intensity = (
        base[None, :]
        + np.cos(delta)[:, None] * cross.real[None, :]
        - np.sin(delta)[:, None] * cross.imag[None, :]
    )
    # fully destructive interference can round to -1e-19
    np.maximum(intensity, 0.0, out=intensity)
    means = intensity + detector.dark_rate
    silent = np.exp(-means)
    if detector.semantics is CoincidenceSemantics.EXACT_ONE_ONE:
        c_cols, d_cols = zip(*_CELL_COLUMNS)
        per_node = means[:, c_cols] * means[:, d_cols] * silent.prod(axis=1, keepdims=True)
    else:
        fired = -np.expm1(-means)
        patterns = np.where(_PATTERNS[None, :, :], fired[:, None, :], silent[:, None, :])
        per_node = patterns.prod(axis=2)
    # an exactly rounded sum keeps the average as accurate as the node values
    return np.array([math.fsum(column) for column in per_node.T]) / PHASE_NODES


def fock_outcome_table(
    spec: SourceSpec, setting: AnalyzerSetting, detector: DetectorModel
) -> np.ndarray:
    """Per-trial outcome probabilities of the photon-number model.

    Each arm delivers a truncated, renormalized Poisson number of photons of
    its detected mean to the detectors, and |i_aH, j_bV> is read out through
    its sector table.  Same layout as coherent_outcome_table.  Dark counts
    are not modeled here; use the coherent model for that.
    """
    if detector.dark_rate > 0.0:
        raise ValueError("dark counts are only modeled in the coherent sampler")
    w_a, w_b = (_truncated_weights(m, spec.n_max) for m in detected_means(spec, detector))
    sectors = _sector_table(setting, spec.n_max, detector.semantics)
    return np.einsum("i,j,ijk->k", w_a / w_a.sum(), w_b / w_b.sum(), sectors)


@lru_cache(maxsize=128)
def _sector_table(
    setting: AnalyzerSetting, n_max: int, semantics: CoincidenceSemantics
) -> np.ndarray:
    """Outcome probabilities of every input sector |i_aH, j_bV>, i, j <= n_max.

    Axis 2 holds the four cells (exact_one_one) or the 16 click patterns
    (threshold); rows of sectors that cannot register stay zero.  Read-only:
    one array is shared by every caller.
    """
    transform = setup_transform(setting)
    table = np.zeros((n_max + 1, n_max + 1, len(_empty_outcomes(semantics))))
    for i in range(n_max + 1):
        for j in range(n_max + 1):
            if _can_register(i, j, semantics):
                table[i, j] = _outcome_probs(_sector_state(i, j), transform, semantics)
    table.setflags(write=False)
    return table


def _sample_counts(
    table: np.ndarray, detector: DetectorModel, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Registered counts of the four cells over ``trials`` i.i.d. trials.

    Visibility replaces each registered outcome by a uniform one with
    probability 1 - eta.  For exact_one_one a trial registers at most one
    outcome, so this folds into the cell probabilities.  A threshold trial
    can register several, so the replaced counts are split off binomially
    per cell and dealt back uniformly; both give the law of relabeling every
    event independently.
    """
    if detector.semantics is CoincidenceSemantics.EXACT_ONE_ONE:
        cells = _finalize_cells(table, detector)
        return rng.multinomial(trials, np.append(cells, max(0.0, 1.0 - cells.sum())))[:4]
    counts = rng.multinomial(trials, table) @ _PATTERN_CELLS
    flipped = rng.binomial(counts, 1.0 - detector.visibility_eta)
    return counts - flipped + rng.multinomial(flipped.sum(), [0.25] * 4)


def _sampled_table(
    builder: Callable[[SourceSpec, AnalyzerSetting, DetectorModel], np.ndarray],
    spec: SourceSpec,
    setting: AnalyzerSetting,
    detector: DetectorModel,
    trials: int,
    rng: np.random.Generator | int,
) -> CountTable:
    if trials < 1:
        raise ValueError("trials must be at least 1")
    counts = _sample_counts(builder(spec, setting, detector), detector, trials, _as_rng(rng))
    return _run_table(counts, spec, setting, trials)


def run_montecarlo_fock(
    spec: SourceSpec,
    setting: AnalyzerSetting,
    detector: DetectorModel,
    trials: int,
    rng: np.random.Generator | int,
) -> CountTable:
    """Coincidence counts of ``trials`` trials of the photon-number model.

    One multinomial draw over fock_outcome_table; dark counts are rejected.
    """
    return _sampled_table(fock_outcome_table, spec, setting, detector, trials, rng)


def run_montecarlo_coherent(
    spec: SourceSpec,
    setting: AnalyzerSetting,
    detector: DetectorModel,
    trials: int,
    rng: np.random.Generator | int,
) -> CountTable:
    """Coincidence counts of ``trials`` trials of the coherent-amplitude model.

    One multinomial draw over coherent_outcome_table.  Statistically
    equivalent to the photon-number sampler for every observable, and the
    only one that models dark counts.
    """
    return _sampled_table(coherent_outcome_table, spec, setting, detector, trials, rng)
