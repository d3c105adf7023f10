"""Polarization analyzers, detector semantics, and coincidence counting.

Detection layout: the recombined beams leave on ports c and d, pass a
half-wave-plate / polarizing-splitter analyzer pair, and hit four detectors.
Outcome "+" at a port is the H output after rotating that port's polarization
by minus the analyzer angle, "-" is the V output.

Rate normalization.  Exact-mode tables are two-photon event rates expressed
relative to the vacuum-window rate, i.e. the mixture component |i_aH, j_bV>
enters with coefficient

    mu_a^i / i!  *  mu_b^j / j!

(the Poisson weight divided by the vacuum weight).  For coherent light this
equals the normally-ordered pair-detection rate, which is exactly bilinear in
(mu_a, mu_b); in these units the two-photon decomposition

    N_ij = mu_a mu_b P_ij(1,1) + mu_a^2/2 P_ij(2,0) + mu_b^2/2 P_ij(0,2)

is an identity, the three-configuration background subtraction cancels the
separable terms exactly, and the normalized correlation E is independent of
the overall scale anyway.

Detector model.  Visibility eta mixes the ideal outcome distribution with a
uniform relabeling of coincidences (E_measured = eta * E_ideal exactly);
efficiency scales exact coincidence rates by efficiency^2 (both photons must
be seen) and acts as per-photon loss in the Monte Carlo models; dark counts
are an additive Poisson rate per detector, modeled in the coherent model
only.

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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .elements import ModeTransform, apply, beam_splitter, compose, polarization_rotator
from .fock import AH, BV, CH, CV, DH, DV, MODE_INDEX, DensityMixture, Port, StateVector, basis_state
from .source import BlockedArm, SourceSpec, two_mode_input, _truncated_weights

#: Seeds are 64-bit: derive_rng accepts exactly the integers in [0, SEED_LIMIT).
SEED_LIMIT = 2**64

#: Equispaced phase-difference nodes of coherent_outcome_table's trapezoidal
#: rule.  It is exact for the exact_one_one integrand, a trigonometric
#: polynomial of degree 2, and converges exponentially for the smooth
#: threshold integrand: at 64 nodes it matches 128 nodes to rounding for
#: mean photon numbers up to ten per beam.
PHASE_NODES = 64

#: Outcome cells in CSV order: (+,+), (+,-), (-,+), (-,-).
CELLS = ("pp", "pm", "mp", "mm")

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


def _raw_cell_probs(
    state: StateVector, transform: ModeTransform, semantics: CoincidenceSemantics
) -> np.ndarray:
    """Coincidence probabilities of one pure state, before detector effects."""
    out = apply(transform, state)
    cells = np.zeros(4)
    for bstate, amp in out.items():
        p = amp.real * amp.real + amp.imag * amp.imag
        if semantics is CoincidenceSemantics.EXACT_ONE_ONE:
            cell = _classify_exact(bstate.occ)
            if cell is not None:
                cells[cell] += p
        else:
            cells += p * _PATTERN_CELLS[_click_pattern(bstate.occ)]
    return cells


def _finalize_cells(cells: np.ndarray, detector: DetectorModel) -> np.ndarray:
    """Apply visibility mixing and the pair-detection efficiency factor."""
    eta = detector.visibility_eta
    mixed = eta * cells + (1.0 - eta) / 4.0 * cells.sum()
    return mixed * detector.efficiency**2


def _transform_for(support_ports: set[Port], setting: AnalyzerSetting) -> ModeTransform:
    if support_ports <= _INPUT_PORTS:
        return compose(RECOMBINER, analyzer_transform(setting))
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
    no cell.
    """
    support = set()
    for _, component in input_state.components:
        support |= {mode.port for mode in component.support_modes()}
    transform = _transform_for(support, setting)
    cells = np.zeros(4)
    for weight, component in input_state.components:
        cells += weight * _raw_cell_probs(component, transform, detector.semantics)
    return CountTable.from_values(
        _finalize_cells(cells, detector),
        trials=0,
        alpha=setting.alpha,
        beta=setting.beta,
    )


def exact_rates(
    spec: SourceSpec, setting: AnalyzerSetting, detector: DetectorModel
) -> CountTable:
    """Two-photon event rates N_ij for the full truncated source mixture.

    Each component is weighted by its rate coefficient relative to the vacuum
    window (see the module docstring), which makes the rates exactly bilinear
    in the two mean photon numbers.
    """
    mixture, _ = two_mode_input(spec)
    transform = compose(RECOMBINER, analyzer_transform(setting))
    mu_a, mu_b = spec.effective_mu_a, spec.effective_mu_b
    cells = np.zeros(4)
    for weight, component in mixture.components:
        (bstate, _), = component.items()
        i, j = bstate.count(AH), bstate.count(BV)
        coeff = mu_a**i / math.factorial(i) * mu_b**j / math.factorial(j)
        if coeff == 0.0:
            continue
        cells += coeff * _raw_cell_probs(component, transform, detector.semantics)
    return CountTable.from_values(
        _finalize_cells(cells, detector),
        trials=0,
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
    and registers an independent Poisson count of mean
    m_k = efficiency * I_k + dark_rate.  The per-trial probabilities are
    averaged over delta by the trapezoidal rule on PHASE_NODES equispaced
    nodes.  Returns the four cell probabilities m_c m_d exp(-sum m) for
    exact_one_one, or the probabilities of the 16 click patterns for
    threshold.
    """
    total = compose(RECOMBINER, analyzer_transform(setting)).matrix
    u = total[list(_DET_MODES), MODE_INDEX[AH]]
    v = total[list(_DET_MODES), MODE_INDEX[BV]]
    mu_a, mu_b = spec.effective_mu_a, spec.effective_mu_b
    base = mu_a * np.abs(u) ** 2 + mu_b * np.abs(v) ** 2
    cross = 2.0 * math.sqrt(mu_a * mu_b) * (u * v.conj())
    delta = 2.0 * math.pi * np.arange(PHASE_NODES) / PHASE_NODES
    intensity = (
        base[None, :]
        + np.cos(delta)[:, None] * cross.real[None, :]
        - np.sin(delta)[:, None] * cross.imag[None, :]
    )
    # fully destructive interference can round to -1e-19
    np.maximum(intensity, 0.0, out=intensity)
    means = detector.efficiency * intensity + detector.dark_rate
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

    Each arm carries a truncated, renormalized Poisson number of photons;
    each photon survives with the detector efficiency (binomial thinning),
    and the surviving |i_aH, j_bV> is read out through its sector table.
    Same layout as coherent_outcome_table.  Dark counts are not modeled
    here; use the coherent model for that.
    """
    if detector.dark_rate > 0.0:
        raise ValueError("dark counts are only modeled in the coherent sampler")
    eff = detector.efficiency
    w_a = _thinned_weights(spec.effective_mu_a, spec.n_max, eff)
    w_b = _thinned_weights(spec.effective_mu_b, spec.n_max, eff)
    sectors = _sector_table(setting, spec.n_max, detector.semantics)
    return np.einsum("i,j,ijk->k", w_a, w_b, sectors)


def _thinned_weights(mu: float, n_max: int, eff: float) -> np.ndarray:
    """Law of the surviving photon number of one arm."""
    weights = _truncated_weights(mu, n_max)
    weights /= weights.sum()
    return np.array(
        [
            sum(
                weights[n] * math.comb(n, k) * eff**k * (1.0 - eff) ** (n - k)
                for n in range(k, n_max + 1)
            )
            for k in range(n_max + 1)
        ]
    )


@lru_cache(maxsize=128)
def _sector_table(
    setting: AnalyzerSetting, n_max: int, semantics: CoincidenceSemantics
) -> np.ndarray:
    """Outcome probabilities of every input sector |i_aH, j_bV>, i, j <= n_max.

    Axis 2 holds the four cells (exact_one_one) or the 16 click patterns
    (threshold).  Read-only: one array is shared by every caller.
    """
    transform = compose(RECOMBINER, analyzer_transform(setting))
    exact = semantics is CoincidenceSemantics.EXACT_ONE_ONE
    table = np.zeros((n_max + 1, n_max + 1, 4 if exact else len(_PATTERNS)))
    for i in range(n_max + 1):
        for j in range(n_max + 1):
            out = apply(transform, StateVector.from_basis(basis_state(aH=i, bV=j)))
            for bstate, amp in out.items():
                p = amp.real * amp.real + amp.imag * amp.imag
                if not exact:
                    table[i, j, _click_pattern(bstate.occ)] += p
                elif (cell := _classify_exact(bstate.occ)) is not None:
                    table[i, j, cell] += p
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
    eta = detector.visibility_eta
    if detector.semantics is CoincidenceSemantics.EXACT_ONE_ONE:
        cells = eta * table + (1.0 - eta) / 4.0 * table.sum()
        return rng.multinomial(trials, np.append(cells, max(0.0, 1.0 - cells.sum())))[:4]
    counts = rng.multinomial(trials, table) @ _PATTERN_CELLS
    flipped = rng.binomial(counts, 1.0 - eta)
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
    return CountTable.from_values(
        counts,
        trials=trials,
        alpha=setting.alpha,
        beta=setting.beta,
        mu_a=spec.mu_a,
        mu_b=spec.mu_b,
        blocked=spec.blocked,
    )


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
