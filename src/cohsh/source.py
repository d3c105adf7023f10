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
from functools import lru_cache

import numpy as np

from .fock import AH, BV, DensityMixture, FockBasisState, StateVector


#: The largest photon cutoff: the largest n whose n! a float holds.
N_MAX_LIMIT = 170


class BlockedArm(str, Enum):
    NONE = "none"
    BLOCK_A = "block_a"
    BLOCK_B = "block_b"


@dataclass(frozen=True)
class SourceSpec:
    """Source configuration: mean photon numbers, cutoff, optional blocking.

    A blocked arm forces the corresponding effective mean to zero without
    touching the nominal value, mirroring the shutter used for the
    background-measurement runs; measurement.protocol sets it.
    """

    mu_a: float
    mu_b: float
    n_max: int = 4
    blocked: BlockedArm = BlockedArm.NONE

    def __post_init__(self) -> None:
        # a str value compares equal to its enum member; see DetectorModel
        object.__setattr__(self, "blocked", BlockedArm(self.blocked))
        if not (0 <= self.mu_a < math.inf and 0 <= self.mu_b < math.inf):
            raise ValueError("mean photon numbers must be finite and non-negative")
        if not 0 <= self.n_max <= N_MAX_LIMIT:
            # poisson_pmf divides by n!, and 171! exceeds the float range
            raise ValueError(f"n_max must lie in [0, {N_MAX_LIMIT}], got {self.n_max}")

    @property
    def effective_mu_a(self) -> float:
        return 0.0 if self.blocked is BlockedArm.BLOCK_A else self.mu_a

    @property
    def effective_mu_b(self) -> float:
        return 0.0 if self.blocked is BlockedArm.BLOCK_B else self.mu_b


def poisson_pmf(mu: float, n: int) -> float:
    """P(n; mu) = mu^n e^{-mu} / n!

    Where mu^n or n! overflows a float, the weight is taken in log space,
    exp(n log mu - mu - lgamma(n + 1)); every value the direct formula
    returns is kept as it is.
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if n < 0:
        raise ValueError("n must be non-negative")
    try:
        return mu**n * math.exp(-mu) / math.factorial(n)
    except OverflowError:
        # mu = 0 lands here only through an n! beyond the float range
        return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1)) if mu > 0 else 0.0


def _truncated_weights(mu: float, n_max: int) -> np.ndarray:
    return np.array([poisson_pmf(mu, n) for n in range(n_max + 1)])


@lru_cache(maxsize=None)
def _sector_state(i: int, j: int) -> StateVector:
    """The input sector |i_aH, j_bV>, built once per process.

    States are immutable, so one instance is shared by every caller.
    """
    return StateVector.from_basis(FockBasisState.from_occupations({AH: i, BV: j}))


def two_mode_input(spec: SourceSpec) -> tuple[DensityMixture, float]:
    """Product Poisson mixture over |i_aH, j_bV>, i and j up to n_max.

    Returns the renormalized truncated mixture and the discarded tail weight.
    """
    wa = _truncated_weights(spec.effective_mu_a, spec.n_max)
    wb = _truncated_weights(spec.effective_mu_b, spec.n_max)
    discarded = 1.0 - float(wa.sum() * wb.sum())
    components = [
        (float(wa[i] * wb[j]), _sector_state(i, j))
        for i in range(spec.n_max + 1)
        for j in range(spec.n_max + 1)
        if wa[i] * wb[j] > 0.0
    ]
    return DensityMixture.from_components(components), max(0.0, discarded)


def coherent_state(mu: float, phase: float, n_max: int) -> StateVector:
    """Truncated coherent state |sqrt(mu) e^{i phase}> on mode aH."""
    alpha = complex(math.sqrt(mu) * math.cos(phase), math.sqrt(mu) * math.sin(phase))
    terms: dict[FockBasisState, complex] = {}
    amp = complex(math.exp(-mu / 2.0))
    for n in range(n_max + 1):
        if n > 0:
            amp = amp * alpha / math.sqrt(n)
        terms[FockBasisState.from_occupations({AH: n})] = amp
    return StateVector(terms).normalize()


def phase_averaged_coherent(mu: float, n_max: int, n_phases: int) -> DensityMixture:
    """Uniform discrete phase average of a coherent projector on mode aH.

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
        (weight, coherent_state(mu, 2.0 * math.pi * k / n_phases, n_max))
        for k in range(n_phases)
    )


def poisson_diagonal_mixture(mu: float, n_max: int) -> DensityMixture:
    """Truncated, renormalized Poisson mixture of number states on mode aH."""
    weights = _truncated_weights(mu, n_max)
    return DensityMixture.from_components(
        (float(weights[n]), StateVector.from_basis(FockBasisState.from_occupations({AH: n})))
        for n in range(n_max + 1)
    )


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """T(rho, sigma) = (1/2) * trace norm of (rho - sigma)."""
    eigenvalues = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.abs(eigenvalues).sum())
