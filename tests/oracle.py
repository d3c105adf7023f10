"""Independent brute-force references used only by the test suite.

Nothing here shares code with the library's propagation path: the splitter
expansion enumerates every per-photon routing explicitly, the correlation
laws are closed forms derived by hand from projective measurement of the
singlet and of the separable two-photon states, and the Poisson-readout
sampler simulates the coherent-state experiment one trial at a time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from cohsh.fock import AH, AV, BH, BV, CH, CV, DH, DV, MODE_INDEX, FockBasisState, StateVector

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Balanced-splitter image of each input-mode creation operator,
# written out literally: a -> (c + i d)/sqrt2, b -> (i c + d)/sqrt2,
# polarization carried along unchanged.
_BS_IMAGE = {
    AH: ((CH, _INV_SQRT2), (DH, 1j * _INV_SQRT2)),
    AV: ((CV, _INV_SQRT2), (DV, 1j * _INV_SQRT2)),
    BH: ((CH, 1j * _INV_SQRT2), (DH, _INV_SQRT2)),
    BV: ((CV, 1j * _INV_SQRT2), (DV, _INV_SQRT2)),
}


def oracle_bs_expand(state: FockBasisState) -> StateVector:
    """Balanced-splitter action on a basis state over the two input ports.

    Every photon is routed independently through all 2^n choices; no
    multinomial shortcut.  Scope-bounded to four photons.
    """
    if state.total_photons > 4:
        raise ValueError("oracle expansion is bounded to 4 photons")
    occupations = state.occupations()
    if any(mode not in _BS_IMAGE for mode in occupations):
        raise ValueError("oracle input must live on ports a and b")

    photons = [mode for mode, n in occupations.items() for _ in range(n)]
    denom = math.sqrt(math.prod(math.factorial(n) for n in occupations.values()))
    acc: dict[tuple[int, ...], complex] = {}
    for routing in itertools.product(*[_BS_IMAGE[mode] for mode in photons]):
        occ = [0] * 8
        amp = 1.0 + 0j
        for mode, coeff in routing:
            occ[MODE_INDEX[mode]] += 1
            amp *= coeff
        key = tuple(occ)
        acc[key] = acc.get(key, 0j) + amp
    terms = {}
    for occ, amp in acc.items():
        fact = math.prod(math.factorial(n) for n in occ)
        value = amp * math.sqrt(fact) / denom
        if abs(value) > 1e-14:
            terms[FockBasisState(occ)] = value
    return StateVector(terms)


def oracle_singlet_E(alpha: float, beta: float) -> float:
    """Singlet correlation law, E = -cos 2(alpha - beta)."""
    return -math.cos(2.0 * (alpha - beta))


def oracle_sector_tables(alpha: float, beta: float) -> dict[str, np.ndarray]:
    """Closed-form coincidence tables of the three two-photon inputs.

    Cells ordered (++, +-, -+, --).  The |1,1> input reaches the coincidence
    sector through the singlet with probability 1/2; the |2,0> and |0,2>
    inputs put one photon per port with probability 1/2 and fixed (H resp. V)
    polarization.
    """
    delta = alpha - beta
    s2, c2 = math.sin(delta) ** 2, math.cos(delta) ** 2
    singlet = 0.5 * np.array([0.5 * s2, 0.5 * c2, 0.5 * c2, 0.5 * s2])
    ca, sa = math.cos(alpha) ** 2, math.sin(alpha) ** 2
    cb, sb = math.cos(beta) ** 2, math.sin(beta) ** 2
    both_h = 0.5 * np.array([ca * cb, ca * sb, sa * cb, sa * sb])
    both_v = 0.5 * np.array([sa * sb, sa * cb, ca * sb, ca * cb])
    return {"one_one": singlet, "two_zero": both_h, "zero_two": both_v}


def oracle_unsubtracted_E(alpha: float, beta: float) -> float:
    """Correlation of the raw (unsubtracted) rates at mu_a = mu_b.

    Combines the three sector tables with their relative rate weights
    1 : 1/2 : 1/2; the overall scale drops out of the ratio.
    """
    tables = oracle_sector_tables(alpha, beta)
    n = tables["one_one"] + 0.5 * tables["two_zero"] + 0.5 * tables["zero_two"]
    return float((n[0] - n[1] - n[2] + n[3]) / n.sum())


def oracle_poisson_readout_counts(
    mu_a: float,
    mu_b: float,
    alpha: float,
    beta: float,
    *,
    eta: float,
    efficiency: float,
    dark_rate: float,
    threshold: bool,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Registered (++, +-, -+, --) counts of a literal per-trial simulation.

    Per trial: the two beams get independent uniform phases; their coherent
    amplitudes (sqrt(mu_a) on aH, sqrt(mu_b) on bV) are routed through the
    splitter image above; each port's field is projected onto its analyzer
    axis ("+" along the analyzer angle, "-" perpendicular to it); every
    detector reads an independent Poisson count of mean
    efficiency * |field|^2 + dark_rate.  A threshold trial registers every
    (c, d) detector pair that both fired; an exact_one_one trial registers
    its cell only when each port saw exactly one photon.  Each registered
    outcome is then replaced by a uniformly random cell with probability
    1 - eta.
    """
    phases = 2.0 * math.pi * rng.random((trials, 2))
    inputs = {
        AH: math.sqrt(mu_a) * np.exp(1j * phases[:, 0]),
        BV: math.sqrt(mu_b) * np.exp(1j * phases[:, 1]),
    }
    field = {mode: np.zeros(trials, dtype=complex) for mode in (CH, CV, DH, DV)}
    for mode, amplitude in inputs.items():
        for out, coeff in _BS_IMAGE[mode]:
            field[out] += coeff * amplitude
    detectors = []  # c+, c-, d+, d-
    for h, v, angle in ((CH, CV, alpha), (DH, DV, beta)):
        c, s = math.cos(angle), math.sin(angle)
        detectors.append(c * field[h] + s * field[v])
        detectors.append(-s * field[h] + c * field[v])
    counts = np.stack(
        [rng.poisson(efficiency * np.abs(f) ** 2 + dark_rate) for f in detectors], axis=1
    )

    registered = []
    for n_cp, n_cm, n_dp, n_dm in counts.tolist():
        if threshold:
            pairs = ((n_cp, n_dp), (n_cp, n_dm), (n_cm, n_dp), (n_cm, n_dm))
            registered += [cell for cell, (c, d) in enumerate(pairs) if c and d]
        elif n_cp + n_cm == 1 and n_dp + n_dm == 1:
            registered.append(2 * n_cm + n_dm)
    cells = np.zeros(4)
    for cell in registered:
        if rng.random() < 1.0 - eta:
            cell = int(rng.integers(0, 4))
        cells[cell] += 1
    return cells
