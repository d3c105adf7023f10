"""Polarization analyzers, detector semantics, and coincidence counting.

Detection layout: the recombined beams leave on ports c and d, pass a
half-wave-plate / polarizing-splitter analyzer pair, and hit four detectors.
Outcome "+" at a port is the H output after rotating that port's polarization
by minus the analyzer angle, "-" is the V output.

Table units.  Exact-mode tables are per-trial probabilities: the outcome
distribution of one configuration that the Monte Carlo samplers draw their
counts from, so exact mode is the infinite-trial limit of Monte Carlo.  An
exact run (exact_rates) builds its mixture, its protocol, its Poisson
weights and one stack of its settings' setup matrices once, over the
sectors the detected means give weight to.  It then propagates each sector
|i_aH, j_bV> that can register (i + j = 2 for exact_one_one) once per run,
through the whole stack (elements.apply), reads its 16 click patterns at
every setting as the sampler reads _sector_table (_outcome_columns), and
weights the row by the Poisson weight P(i; m_a) P(j; m_b) of each
configuration's detected means m (see Detector model).  For exact_one_one
this is the two-photon decomposition

    N_ij = e^{-m_a-m_b} [m_a m_b P_ij(1,1) + m_a^2/2 P_ij(2,0) + m_b^2/2 P_ij(0,2)],

which equals the coherent-amplitude table; threshold tables equal it up to
the Poisson tail beyond n_max.  The configurations of the background
subtraction, and the weight each table enters it with, are defined in one
place for every mode: protocol.

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
from the photon-number sectors |i_aH, j_bV>, whose outcome rows have a
closed form in the setup's two input columns (_sector_table; no sector is
propagated), and coherent_outcome_table from the Poisson readout of
coherent amplitudes.  One sampler turns either into counts.  Each builder
keeps one table per protocol configuration, read-only: the protocol draws a
setting's configurations one repetition after another, so every repetition
samples from the tables built for the first, and the next setting rebuilds
them.  A setting costs one setup matrix (setup_transform multiplies the two
analyzer rotations and the splitter once), and the coherent threshold
tables of the blocked configurations, which have no interference term,
evaluate a single phase node (see coherent_outcome_table).

Monte Carlo determinism.  Every (setting, configuration, repetition) cell
draws from its own SeedSequence-derived stream (derive_rng) and takes one
multinomial draw, so a run is a pure function of its seed; the worker count
plays no part.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .elements import _FACT, ModeTransform, apply, beam_splitter, rotation_matrix
from .fock import AH, BV, CH, CV, DH, DV, MODE_INDEX, PRUNE_EPS, Port, StateVector
from .source import (
    BlockedArm,
    SourceSpec,
    poisson_pmf,
    two_mode_input,
    _truncated_weights,
)

#: Seeds are 64-bit: derive_rng accepts exactly the integers in [0, SEED_LIMIT).
SEED_LIMIT = 2**64
#: The samplers take trial numbers below TRIALS_LIMIT.  Generator draws read
#: their counts as a C long (below 2**63), and under threshold a cell can
#: reach 5 * trials: a trial registers up to four cells, and the visibility
#: relabel can deal every replaced event to one cell.
TRIALS_LIMIT = 2**60
#: Exact threshold propagates sectors of up to 2 n_max photons, which can all
#: land in one detector mode, and elements.apply tabulates n! below len(_FACT).
EXACT_THRESHOLD_N_MAX = (len(_FACT) - 1) // 2

#: Equispaced phase-difference nodes of coherent_outcome_table's trapezoidal
#: rule for threshold tables (exact_one_one has a closed form).  It converges
#: exponentially for the smooth threshold integrand: at 64 nodes it matches
#: 128 nodes to rounding for mean photon numbers up to ten per beam.
PHASE_NODES = 64

_DET_MODES = (MODE_INDEX[CH], MODE_INDEX[CV], MODE_INDEX[DH], MODE_INDEX[DV])
_C_H, _C_V, _D_H, _D_V = _DET_MODES
#: _DET_MODES as an index array (numpy indexes faster with it than with a tuple or list).
_DET_ROWS = np.array(_DET_MODES)
#: Detector-mode column pairs (c-side, d-side) for the four cells.
_CELL_COLUMNS = ((0, 2), (0, 3), (1, 2), (1, 3))
#: Click patterns of the four detectors (bit k set: detector k fires) and the
#: cells each one registers under threshold semantics.
_PATTERNS = np.array([[(p >> k) & 1 for k in range(4)] for p in range(16)], dtype=bool)
_PATTERN_CELLS = np.array(
    [[int(pattern[c] and pattern[d]) for c, d in _CELL_COLUMNS] for pattern in _PATTERNS]
)
#: Entry [k, p, 0]: whether pattern p fires detector k (broadcasts over phase nodes).
_DETECTOR_FIRES = np.ascontiguousarray(_PATTERNS.T)[:, :, None]
#: Every click pattern, and the pattern of each cell's two detectors and no other.
_ALL_PATTERNS = np.arange(len(_PATTERNS))
_CELL_PATTERNS = np.array([(1 << c) | (1 << d) for c, d in _CELL_COLUMNS])
#: The visibility relabel deals a replaced outcome to each cell with equal probability.
_UNIFORM_CELLS = np.full(4, 0.25)
_UNIFORM_CELLS.setflags(write=False)

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
        # a str value compares equal to its enum member, so coerce it: equal
        # models must build equal tables (the outcome-table memos rely on it)
        object.__setattr__(self, "semantics", CoincidenceSemantics(self.semantics))
        if not 0.0 <= self.visibility_eta <= 1.0:
            raise ValueError("visibility_eta must lie in [0, 1]")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        if not 0.0 <= self.dark_rate < math.inf:
            raise ValueError("dark_rate must be finite and non-negative")


@dataclass(frozen=True)
class CountTable:
    """Coincidence counts of the four (+/-, +/-) outcomes over ``trials`` trials.

    The return value of the Monte Carlo samplers; a run keeps its cells in
    arrays (see chsh.run_chsh).
    """

    n_pp: float
    n_pm: float
    n_mp: float
    n_mm: float
    trials: int

    def values(self) -> np.ndarray:
        return np.array([self.n_pp, self.n_pm, self.n_mp, self.n_mm], dtype=float)

    @property
    def total(self) -> float:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm


def _analyzer_matrix(setting: AnalyzerSetting) -> np.ndarray:
    """The port-c rotation followed by the port-d rotation, as one matrix.

    The matrix of compose(polarization_rotator(Port.C, -alpha),
    polarization_rotator(Port.D, -beta)), bit for bit; the rotations act on
    disjoint blocks, so the product is exact.
    """
    return rotation_matrix(Port.D, -setting.beta) @ rotation_matrix(Port.C, -setting.alpha)


def analyzer_transform(setting: AnalyzerSetting) -> ModeTransform:
    """Rotation by -alpha within port c and -beta within port d.

    After this transform the H mode of each output port is the "+" detector
    along the analyzer axis and the V mode is "-".
    """
    return ModeTransform(_analyzer_matrix(setting))


def setup_transform(setting: AnalyzerSetting | Sequence[AnalyzerSetting]) -> ModeTransform:
    """The recombining splitter followed by the analyzers: inputs a, b to the detectors.

    One matrix product, bit for bit compose(RECOMBINER, analyzer_transform(setting)).
    A sequence of settings gives the stack of their matrices in one product,
    member s bit for bit the matrix of settings[s].
    """
    if isinstance(setting, AnalyzerSetting):
        return ModeTransform(_analyzer_matrix(setting) @ RECOMBINER.matrix)
    return ModeTransform(np.array([_analyzer_matrix(s) for s in setting]) @ RECOMBINER.matrix)


def too_many_trials(trials: int) -> str:
    """The refusal of a trial number at or above TRIALS_LIMIT."""
    return f"trials must be at most 2**{TRIALS_LIMIT.bit_length() - 1} - 1, got {trials}"


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


def _click_pattern(occ: tuple[int, ...]) -> int:
    """Index of the detectors that see at least one photon (bit k: detector k)."""
    return (
        (1 if occ[_C_H] else 0)
        | (2 if occ[_C_V] else 0)
        | (4 if occ[_D_H] else 0)
        | (8 if occ[_D_V] else 0)
    )


def _outcome_columns(semantics: CoincidenceSemantics) -> np.ndarray:
    """The click patterns a table of ``semantics`` keeps: all 16, or each cell's (c, d) pair."""
    return _ALL_PATTERNS if semantics is CoincidenceSemantics.THRESHOLD else _CELL_PATTERNS


def _can_register(i: int, j: int, semantics: CoincidenceSemantics) -> bool:
    """Whether input sector |i_aH, j_bV> can give a nonzero outcome row.

    The optics conserve photon number and exact_one_one needs exactly one
    photon at each output port, so only i + j == 2 registers; every sector
    contributes to the 16 threshold click patterns.
    """
    return semantics is CoincidenceSemantics.THRESHOLD or i + j == 2


def _outcome_probs(state: StateVector, transform: ModeTransform) -> np.ndarray:
    """The 16 click-pattern probabilities of one pure state, before detector effects.

    A stack of S transforms gives an (S, 16) array, row s that of member s.
    Each pattern sums its output terms in canonical order.
    """
    out = apply(transform, state)
    terms = out.items() if isinstance(out, StateVector) else out
    amps = np.array([amp for _, amp in terms], dtype=complex)
    probs = np.zeros((len(_PATTERNS),) + amps.shape[1:])
    patterns = [_click_pattern(bstate.occ) for bstate, _ in terms]
    np.add.at(probs, patterns, amps.real * amps.real + amps.imag * amps.imag)
    return probs.T


def detected_means(spec: SourceSpec, detector: DetectorModel) -> tuple[float, float]:
    """Mean photon numbers of the two beams as the detectors see them.

    Efficiency is the substitution mu -> efficiency * mu (see the module
    docstring); this is the only place a model reads it.
    """
    eff = detector.efficiency
    return eff * spec.effective_mu_a, eff * spec.effective_mu_b


def _finalize_cells(outcomes: np.ndarray, detector: DetectorModel) -> np.ndarray:
    """Bin outcomes into the four cells and fold in the visibility.

    The last axis holds one configuration's outcomes; leading axes stack
    configurations.  Efficiency is already in the outcomes, through the
    detected means.
    """
    cells = outcomes
    if detector.semantics is CoincidenceSemantics.THRESHOLD:
        # row by row: a stacked product sums in another order than a vector's
        rows = [row @ _PATTERN_CELLS for row in outcomes.reshape(-1, len(_PATTERNS))]
        cells = np.array(rows).reshape(outcomes.shape[:-1] + (4,))
    eta = detector.visibility_eta
    return eta * cells + (1.0 - eta) / 4.0 * cells.sum(axis=-1, keepdims=True)


def protocol(spec: SourceSpec, detector: DetectorModel) -> tuple[tuple[SourceSpec, float], ...]:
    """The background-subtraction protocol of an unblocked spec: (configuration, weight) pairs.

    The configurations are both arms open, arm a blocked and arm b blocked,
    in that order, and the subtracted table is C = sum_k w_k N_k over their
    tables.  Every table is per trial: exact-mode probabilities, or Monte
    Carlo counts of equal trial numbers.  An exclusive one-photon-per-output
    window vetoes events in which the other arm contributed photons, so a
    blocked run overcounts relative to the full run by exactly the missing
    arm's vacuum factor.  Weighting the blocked tables by -exp(-m), m the
    missing arm's detected mean, makes the sum remove the separable
    background exactly (exact mode) or without bias (Monte Carlo).
    Threshold counting has no veto, so its blocked tables enter with -1.
    """
    if spec.blocked is not BlockedArm.NONE:
        raise ValueError("protocol runs require an unblocked source spec")
    vetoed = detector.semantics is CoincidenceSemantics.EXACT_ONE_ONE
    w_a, w_b = (-math.exp(-m) if vetoed else -1.0 for m in detected_means(spec, detector))
    mu_a, mu_b, n_max = spec.mu_a, spec.mu_b, spec.n_max
    return (
        (spec, 1.0),
        (SourceSpec(mu_a, mu_b, n_max, BlockedArm.BLOCK_A), w_a),
        (SourceSpec(mu_a, mu_b, n_max, BlockedArm.BLOCK_B), w_b),
    )


def _detected_weights(m: float, n_max: int) -> np.ndarray:
    """Poisson weights of a detected mean up to n_max; refuses a mean with none."""
    weights = _truncated_weights(m, n_max)
    if not weights.sum() > 0.0:
        raise ValueError(
            f"detected mean {m:g}: every Poisson weight up to source.n_max = "
            f"{n_max} underflows to 0; use mc_coherent"
        )
    return weights


def exact_rates(
    spec: SourceSpec, settings: Sequence[AnalyzerSetting], detector: DetectorModel
) -> np.ndarray:
    """Per-trial cell probabilities of an unblocked spec's protocol at every setting.

    Entry [s, k] holds the four cells of configuration k of protocol(spec,
    detector) at settings[s]; a single AnalyzerSetting counts as a sequence
    of one.  The run builds one mixture, one protocol, one set of Poisson
    weights and one stack of setup matrices (setup_transform of every
    setting), and sends each sector that can register through the stack in
    one apply.  The sectors are those the detected means of the open
    configuration give weight to, and each configuration weights a sector's
    row by the Poisson weight of its own detected means (see the module
    docstring).  exact_one_one, which registers only i + j == 2, asks the
    source for i, j <= 2 alone; threshold refuses n_max above
    EXACT_THRESHOLD_N_MAX.  A detected mean whose weights up to n_max all
    underflow is refused, and so are two means under which the weight of
    every sector that can register underflows.
    Dark counts are not modeled here; use the coherent sampler for that.
    """
    settings = (settings,) if isinstance(settings, AnalyzerSetting) else settings
    if detector.dark_rate > 0.0:
        raise ValueError("exact mode does not model dark counts; use mc_coherent")
    if detector.semantics is CoincidenceSemantics.THRESHOLD and spec.n_max > EXACT_THRESHOLD_N_MAX:
        raise ValueError(
            f"source.n_max must be at most {EXACT_THRESHOLD_N_MAX} for exact threshold runs, "
            f"got {spec.n_max}; use mc_fock"
        )
    runs = protocol(spec, detector)
    m_a, m_b = detected_means(spec, detector)
    w_a, w_b = (_detected_weights(m, spec.n_max) for m in (m_a, m_b))
    n_max = spec.n_max
    if detector.semantics is CoincidenceSemantics.EXACT_ONE_ONE:
        n_max = min(n_max, 2)
    n = range(n_max + 1)
    # sectors that can register and have weight before rounding: no photon from a mean of 0
    weighted = [
        (i, j)
        for i in n
        for j in n
        if _can_register(i, j, detector.semantics) and (m_a > 0 or i == 0) and (m_b > 0 or j == 0)
    ]
    if weighted and not any(w_a[i] * w_b[j] > 0.0 for i, j in weighted):
        raise ValueError(
            f"detected means {m_a:g} and {m_b:g}: the weight of every sector that can "
            f"register, up to {n_max} photons per beam, underflows to 0; use mc_coherent"
        )
    mixture, _ = two_mode_input(SourceSpec(m_a, m_b, n_max))
    sectors = []
    for _, component in mixture.components:
        (bstate, _), = component.items()
        i, j = bstate.count(AH), bstate.count(BV)
        if _can_register(i, j, detector.semantics):
            sectors.append((i, j, component))
    # weights[k, r]: configuration k's Poisson weight of sector r
    weights = np.array(
        [
            [poisson_pmf(c_a, i) * poisson_pmf(c_b, j) for i, j, _ in sectors]
            for c_a, c_b in (detected_means(variant, detector) for variant, _ in runs)
        ]
    ).reshape(len(runs), len(sectors))
    columns = _outcome_columns(detector.semantics)
    transform = setup_transform(settings)
    probs = np.empty((len(sectors), len(settings), len(columns)))
    for r, (_, _, component) in enumerate(sectors):
        probs[r] = _outcome_probs(component, transform)[:, columns]
    # accumulated sector by sector, in mixture order
    outcomes = np.zeros((len(settings), len(runs), len(columns)))
    for r in range(len(sectors)):
        outcomes += weights[:, r, None] * probs[r, :, None, :]
    return _finalize_cells(outcomes, detector)


def _detector_images(setting: AnalyzerSetting) -> tuple[np.ndarray, np.ndarray]:
    """The aH and bV columns of the setup on the four detector modes."""
    total = setup_transform(setting).matrix
    return total[_DET_ROWS, MODE_INDEX[AH]], total[_DET_ROWS, MODE_INDEX[BV]]


@lru_cache(maxsize=len(BlockedArm))
def coherent_outcome_table(
    spec: SourceSpec, setting: AnalyzerSetting, detector: DetectorModel
) -> np.ndarray:
    """Per-trial outcome probabilities of the coherent-amplitude model.

    Coherent states stay coherent under linear optics, so for a phase
    difference delta between the beams detector k sees intensity
    I_k(delta) = b_k + Re(x_k e^{i delta}) of the beams' detected means and
    registers an independent Poisson count of mean m_k = I_k + dark_rate.
    The per-trial probabilities are averaged over delta.  Returns the four
    cell probabilities for exact_one_one, or the probabilities of the 16
    click patterns for threshold.

    exact_one_one has a closed form: the setup carries both beams wholly
    onto the detectors, so sum_k I_k = m_a + m_b for every delta and the
    average of m_c m_d exp(-sum m) is

        exp(-(m_a + m_b + 4 dark)) [(b_c + dark)(b_d + dark) + Re(x_c conj(x_d)) / 2].

    Threshold averages by the trapezoidal rule on PHASE_NODES equispaced
    nodes.  At each node the 16 pattern probabilities are products of the
    four detectors' click (1 - e^{-m_k}) or no-click (e^{-m_k}) factors,
    multiplied in detector order, and each pattern's nodes are summed
    exactly (math.fsum).  When x is identically zero (an arm blocked or a
    mean 0) the integrand does not depend on delta, so one node is
    evaluated: the exact sum of PHASE_NODES equal doubles is that double
    times a power of two, so averaging them returns the node's value, and
    the table is bit for bit the one of the full rule.  The nodes are
    built from PHASE_NODES on every call, so raising it refines the rule.
    The memo keeps one table per protocol configuration (see the module
    docstring); read-only.
    """
    u, v = _detector_images(setting)
    m_a, m_b = detected_means(spec, detector)
    base = m_a * np.abs(u) ** 2 + m_b * np.abs(v) ** 2
    cross = 2.0 * math.sqrt(m_a * m_b) * (u * v.conj())
    dark = detector.dark_rate
    if detector.semantics is CoincidenceSemantics.EXACT_ONE_ONE:
        c_cols, d_cols = (list(cols) for cols in zip(*_CELL_COLUMNS))
        mean = base + dark
        pair = mean[c_cols] * mean[d_cols] + 0.5 * (cross[c_cols] * cross[d_cols].conj()).real
        table = math.exp(-(m_a + m_b + 4.0 * dark)) * pair
    else:
        # intensity[k, n]: detector k at node n; without interference one node stands for all
        if cross.any():
            delta = 2.0 * math.pi * np.arange(PHASE_NODES) / PHASE_NODES
            intensity = (
                base[:, None]
                + cross.real[:, None] * np.cos(delta)
                - cross.imag[:, None] * np.sin(delta)
            )
        else:
            intensity = base[:, None]
        # fully destructive interference can round to -1e-19
        means = np.maximum(intensity, 0.0) + dark
        fired, silent = -np.expm1(-means), np.exp(-means)
        factor = np.where(_DETECTOR_FIRES, fired[:, None, :], silent[:, None, :])
        # row p of the product: pattern p at every node, multiplied in detector order
        patterns = factor[0] * factor[1] * factor[2] * factor[3]
        # an exactly rounded sum keeps the average as accurate as the node values
        table = np.array(list(map(math.fsum, patterns.tolist()))) / means.shape[1]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=len(BlockedArm))
def fock_outcome_table(
    spec: SourceSpec, setting: AnalyzerSetting, detector: DetectorModel
) -> np.ndarray:
    """Per-trial outcome probabilities of the photon-number model.

    Each arm delivers a truncated, renormalized Poisson number of photons of
    its detected mean to the detectors, and |i_aH, j_bV> is read out through
    its row of _sector_table, a closed form whose cost barely grows with
    n_max.  Same layout and memo as coherent_outcome_table.  Dark counts are
    not modeled here; use the coherent model for that.
    """
    if detector.dark_rate > 0.0:
        raise ValueError("dark counts are only modeled in the coherent sampler")
    w_a, w_b = (_detected_weights(m, spec.n_max) for m in detected_means(spec, detector))
    sectors = _sector_table(setting, spec.n_max, detector.semantics)
    table = np.einsum("i,j,ijk->k", w_a / w_a.sum(), w_b / w_b.sum(), sectors)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=128)
def _sector_table(
    setting: AnalyzerSetting, n_max: int, semantics: CoincidenceSemantics
) -> np.ndarray:
    """Outcome probabilities of every input sector |i_aH, j_bV>, i, j <= n_max.

    Axis 2 holds the four cells (exact_one_one) or the 16 click patterns
    (threshold); rows of sectors that cannot register are exactly zero.
    Read-only: one array is shared by every caller.

    Closed form, with no sector sent through the optics.  The setup maps
    a_H^dag -> A^dag = sum_k u_k c_k^dag and b_V^dag -> B^dag = sum_k v_k c_k^dag
    over the four detector modes, so |i, j> leaves as
    (A^dag)^i (B^dag)^j |0> / sqrt(i! j!).  All its photons land in the
    detector subset T when the modes outside T stay empty; that component
    is (A_T^dag)^i (B_T^dag)^j |0> / sqrt(i! j!), with A_T^dag and B_T^dag
    the images restricted to T.  Their commutators are
    [A_T, A_T^dag] = alpha_T = sum_T |u_k|^2, [B_T, B_T^dag] = beta_T =
    sum_T |v_k|^2 and [A_T, B_T^dag] = gamma_T = sum_T conj(u_k) v_k.  The
    squared norm of a product of creation operators on the vacuum is the
    permanent of the Gram matrix of their mode vectors: alpha_T between two
    A's, beta_T between two B's, gamma_T or its conjugate across.  A
    permutation that sends k of the i A's onto B's sends k of the j B's onto
    A's and contributes g_T^k alpha_T^(i-k) beta_T^(j-k), g_T = |gamma_T|^2;
    C(i,k)^2 C(j,k)^2 k!^2 (i-k)! (j-k)! permutations do so.  Dividing by
    i! j! leaves the probability that no detector outside T fires,

        Q_T(i, j) = sum_{k <= min(i,j)} C(i,k) C(j,k) g_T^k alpha_T^(i-k) beta_T^(j-k).

    Exactly the detectors of S fire with probability
    sum_{T <= S} (-1)^{|S - T|} Q_T, the subset Moebius inversion, done in
    place one detector bit at a time.  exact_one_one reads the two-detector
    patterns (c, d) of the i + j = 2 sectors: with two photons, both firing
    and nothing else is one photon each.

    Rounding leaves entries of order 1e-16 where the probability is zero.
    Negatives are clamped at zero, and the outcomes the optics rule out are
    exactly zero, as the propagation gives them: image amplitudes at or
    below PRUNE_EPS are dropped, as elements.apply drops them, and i + j
    photons fire at most i + j detectors.  The sampler draws no random
    number for a zero cell, so where the zeros lie fixes its random stream.
    """
    u, v = (np.where(np.abs(x) > PRUNE_EPS, x, 0.0) for x in _detector_images(setting))
    alpha = _PATTERNS @ np.abs(u) ** 2
    beta = _PATTERNS @ np.abs(v) ** 2
    gram = np.abs(_PATTERNS @ (u.conj() * v)) ** 2
    n = np.arange(n_max + 1)
    binom = np.array([[math.comb(a, k) for k in n] for a in n], dtype=float)
    # row m holds x_T^m; 0^0 = 1 keeps the vacuum sector at Q_T = 1
    a_pow, b_pow, g_pow = (x[None, :] ** n[:, None] for x in (alpha, beta, gram))
    probs = np.zeros((n_max + 1, n_max + 1, len(_PATTERNS)))
    for k in n:
        rest = n[k:] - k
        probs[k:, k:] += (
            np.outer(binom[k:, k], binom[k:, k])[:, :, None]
            * g_pow[k]
            * a_pow[rest][:, None, :]
            * b_pow[rest][None, :, :]
        )
    for bit in range(4):
        fires = _PATTERNS[:, bit]
        probs[:, :, fires] -= probs[:, :, ~fires]
    np.maximum(probs, 0.0, out=probs)
    registers = np.array([[_can_register(i, j, semantics) for j in n] for i in n])
    possible = registers[:, :, None] & (_PATTERNS.sum(axis=1) <= np.add.outer(n, n)[:, :, None])
    columns = _outcome_columns(semantics)
    table = np.where(possible[:, :, columns], probs[:, :, columns], 0.0)
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
    # cell by cell, as the array call draws them, without its per-call argument checks
    p_flip = 1.0 - detector.visibility_eta
    flipped = np.array([rng.binomial(n, p_flip) for n in counts.tolist()])
    return counts - flipped + rng.multinomial(flipped.sum(), _UNIFORM_CELLS)


def _sampled_table(
    builder: Callable[[SourceSpec, AnalyzerSetting, DetectorModel], np.ndarray],
    spec: SourceSpec,
    setting: AnalyzerSetting,
    detector: DetectorModel,
    trials: int,
    rng: np.random.Generator,
) -> CountTable:
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials >= TRIALS_LIMIT:
        raise ValueError(too_many_trials(trials))
    counts = _sample_counts(builder(spec, setting, detector), detector, trials, rng)
    return CountTable(*counts.astype(float).tolist(), trials)


def run_montecarlo_fock(
    spec: SourceSpec,
    setting: AnalyzerSetting,
    detector: DetectorModel,
    trials: int,
    rng: np.random.Generator,
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
    rng: np.random.Generator,
) -> CountTable:
    """Coincidence counts of ``trials`` trials of the coherent-amplitude model.

    One multinomial draw over coherent_outcome_table.  Statistically
    equivalent to the photon-number sampler for every observable, and the
    only one that models dark counts.
    """
    return _sampled_table(coherent_outcome_table, spec, setting, detector, trials, rng)
