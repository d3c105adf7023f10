"""Phase-randomized weak-coherent-state source model.

A coherent beam whose phase is scrambled uniformly over [0, 2pi) is
indistinguishable from a Poisson mixture of photon-number states:

    avg over phi of |sqrt(mu) e^{i phi}><...|  =  sum_n P(n; mu) |n><n|,
    P(n; mu) = mu^n e^{-mu} / n!

The experiment feeds two such beams into the recombining splitter: port a
carries H polarization with mean photon number mu_a, port b carries V with
mu_b (the half-wave plate rotation is already folded in).  The explicit phase
randomization makes the two photon-number draws independent, so the two-mode
input is the product Poisson mixture over |i_aH, j_bV>.

Everything here is pure.  Monte Carlo randomness lives in cohsh.measurement,
which derives one SeedSequence stream per (setting, configuration,
repetition) cell (see cohsh.measurement.derive_rng).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import AH, DensityMixture, FockBasisState, ModeLabel, StateVector, basis_state


class BlockedArm(str, Enum):
    NONE = "none"
    BLOCK_A = "block_a"
    BLOCK_B = "block_b"


@dataclass(frozen=True)
class SourceSpec:
    """Source configuration: mean photon numbers, cutoff, optional blocking.

    A blocked arm forces the corresponding effective mean to zero without
    touching the nominal value, mirroring the shutter used for the
    background-measurement runs.
    """

    mu_a: float
    mu_b: float
    n_max: int = 4
    blocked: BlockedArm = BlockedArm.NONE

    def __post_init__(self) -> None:
        if self.mu_a < 0 or self.mu_b < 0:
            raise ValueError("mean photon numbers must be non-negative")
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")

    @property
    def effective_mu_a(self) -> float:
        return 0.0 if self.blocked is BlockedArm.BLOCK_A else self.mu_a

    @property
    def effective_mu_b(self) -> float:
        return 0.0 if self.blocked is BlockedArm.BLOCK_B else self.mu_b


def poisson_pmf(mu: float, n: int) -> float:
    """P(n; mu) = mu^n e^{-mu} / n!"""
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if n < 0:
        raise ValueError("n must be non-negative")
    return mu**n * math.exp(-mu) / math.factorial(n)


def _truncated_weights(mu: float, n_max: int) -> np.ndarray:
    return np.array([poisson_pmf(mu, n) for n in range(n_max + 1)])


def two_mode_input(spec: SourceSpec) -> tuple[DensityMixture, float]:
    """Product Poisson mixture over |i_aH, j_bV>, i and j up to n_max.

    Returns the renormalized truncated mixture and the discarded tail weight.
    """
    wa = _truncated_weights(spec.effective_mu_a, spec.n_max)
    wb = _truncated_weights(spec.effective_mu_b, spec.n_max)
    discarded = 1.0 - float(wa.sum() * wb.sum())
    components = [
        (float(wa[i] * wb[j]), StateVector.from_basis(basis_state(aH=i, bV=j)))
        for i in range(spec.n_max + 1)
        for j in range(spec.n_max + 1)
        if wa[i] * wb[j] > 0.0
    ]
    return DensityMixture.from_components(components), max(0.0, discarded)


def two_photon_component(spec: SourceSpec) -> DensityMixture:
    """The two-photon sector of the source mixture.

    Unnormalized weights mu_a*mu_b on |1_aH,1_bV>, mu_a^2/2 on |2_aH>, and
    mu_b^2/2 on |2_bV>; identical to conditioning the full product mixture on
    total photon number two.
    """
    mu_a, mu_b = spec.effective_mu_a, spec.effective_mu_b
    pairs = [
        (mu_a * mu_b, basis_state(aH=1, bV=1)),
        (mu_a**2 / 2.0, basis_state(aH=2)),
        (mu_b**2 / 2.0, basis_state(bV=2)),
    ]
    components = [(w, StateVector.from_basis(s)) for w, s in pairs if w > 0.0]
    if not components:
        raise ValueError("two-photon component is empty: both means are zero")
    return DensityMixture.from_components(components)


def coherent_state(
    mu: float, phase: float, n_max: int, mode: ModeLabel = AH
) -> StateVector:
    """Truncated single-mode coherent state |sqrt(mu) e^{i phase}> on one mode."""
    alpha = complex(math.sqrt(mu) * math.cos(phase), math.sqrt(mu) * math.sin(phase))
    terms: dict[FockBasisState, complex] = {}
    amp = complex(math.exp(-mu / 2.0))
    for n in range(n_max + 1):
        if n > 0:
            amp = amp * alpha / math.sqrt(n)
        terms[FockBasisState.from_occupations({mode: n})] = amp
    return StateVector(terms).normalize()


def phase_averaged_coherent(
    mu: float, n_max: int, n_phases: int, mode: ModeLabel = AH
) -> DensityMixture:
    """Uniform discrete phase average of a coherent projector.

    Averages |sqrt(mu) e^{i phi}><...| over n_phases equally spaced phases.
    For n_phases >= n_max + 1 the discrete average already kills every Fock
    coherence |n-m| <= n_max, leaving the diagonal Poisson mixture; smaller
    n_phases leave residual coherences, which is exactly what this mixture is
    used to quantify.
    """
    if n_phases < 1:
        raise ValueError("n_phases must be at least 1")
    weight = 1.0 / n_phases
    return DensityMixture.from_components(
        (weight, coherent_state(mu, 2.0 * math.pi * k / n_phases, n_max, mode))
        for k in range(n_phases)
    )


def poisson_diagonal_mixture(mu: float, n_max: int, mode: ModeLabel = AH) -> DensityMixture:
    """Truncated, renormalized Poisson mixture of number states on one mode."""
    weights = _truncated_weights(mu, n_max)
    return DensityMixture.from_components(
        (float(weights[n]), StateVector.from_basis(FockBasisState.from_occupations({mode: n})))
        for n in range(n_max + 1)
    )


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """T(rho, sigma) = (1/2) * trace norm of (rho - sigma)."""
    eigenvalues = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.abs(eigenvalues).sum())
