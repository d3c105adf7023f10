"""Source model: Poisson statistics, product mixtures, phase averaging."""

import math

import numpy as np
import pytest

from cohsh import source
from cohsh.fock import AH, BV, FockBasisState, density_matrix
from cohsh.measurement import AnalyzerSetting, CoincidenceSemantics, DetectorModel, exact_rates
from cohsh.source import (
    BlockedArm,
    SourceSpec,
    coherent_state,
    phase_averaged_coherent,
    poisson_diagonal_mixture,
    poisson_pmf,
    trace_distance,
    two_mode_input,
    two_photon_component,
)


def test_poisson_pmf_values():
    assert poisson_pmf(0.0, 0) == 1.0
    assert poisson_pmf(0.0, 3) == 0.0
    assert poisson_pmf(0.1, 0) == pytest.approx(math.exp(-0.1))
    assert poisson_pmf(0.1, 2) == pytest.approx(0.005 * math.exp(-0.1))
    with pytest.raises(ValueError):
        poisson_pmf(-0.1, 0)
    with pytest.raises(ValueError):
        poisson_pmf(0.1, -1)


def test_poisson_pmf_normalization():
    for mu in (0.05, 0.3, 1.0):
        assert sum(poisson_pmf(mu, n) for n in range(41)) == pytest.approx(1.0, abs=1e-12)


def test_source_spec_validation():
    with pytest.raises(ValueError):
        SourceSpec(-0.1, 0.1)
    spec = SourceSpec(0.1, 0.2, blocked=BlockedArm.BLOCK_B)
    assert spec.effective_mu_a == 0.1
    assert spec.effective_mu_b == 0.0


def test_two_mode_input_vacuum():
    mixture, discarded = two_mode_input(SourceSpec(0.0, 0.0))
    assert discarded == 0.0
    assert len(mixture.components) == 1
    weight, state = mixture.components[0]
    assert weight == 1.0
    assert state.items()[0][0].total_photons == 0


def test_two_mode_input_blocked_is_single_arm():
    mixture, _ = two_mode_input(SourceSpec(0.1, 0.1, blocked=BlockedArm.BLOCK_B))
    for _, state in mixture.components:
        (bstate, _), = state.items()
        assert bstate.count(BV) == 0


def test_two_mode_input_weights_factorize():
    mu = 0.1
    mixture, discarded = two_mode_input(SourceSpec(mu, mu, n_max=2))
    weights = {}
    for weight, state in mixture.components:
        (bstate, _), = state.items()
        weights[(bstate.count(AH), bstate.count(BV))] = weight
    # weight on |1_aH, 1_bV> equals pmf(mu,1)^2 before renormalization
    assert weights[(1, 1)] * (1.0 - discarded) == pytest.approx(poisson_pmf(mu, 1) ** 2)
    for (i, j), w in weights.items():
        assert w * (1.0 - discarded) == pytest.approx(poisson_pmf(mu, i) * poisson_pmf(mu, j))


def test_sector_states_are_built_once_per_process(monkeypatch):
    """Work-count guard: repeated exact_rates calls reuse the input sector states."""
    built = []
    original = FockBasisState.__post_init__

    def counting_post_init(self):
        original(self)
        others = self.occ[1:3] + self.occ[4:]
        if (self.occ[0] or self.occ[3]) and not any(others):
            built.append((self.occ[0], self.occ[3]))

    monkeypatch.setattr(FockBasisState, "__post_init__", counting_post_init)
    source._sector_state.cache_clear()
    for call in range(50):
        semantics = list(CoincidenceSemantics)[call % 2]
        spec = SourceSpec(0.05 + 0.001 * call, 0.07, n_max=6)
        exact_rates(spec, AnalyzerSetting(0.1 * call, 0.3), DetectorModel(semantics=semantics))
    # every sector |i_aH, j_bV> but the vacuum, each exactly once
    assert sorted(built) == [(i, j) for i in range(7) for j in range(7) if i + j > 0]


def test_two_photon_component_weights():
    mixture = two_photon_component(SourceSpec(0.1, 0.1))
    weights = {}
    for weight, state in mixture.components:
        (bstate, _), = state.items()
        weights[(bstate.count(AH), bstate.count(BV))] = weight
    assert weights[(1, 1)] == pytest.approx(0.5)
    assert weights[(2, 0)] == pytest.approx(0.25)
    assert weights[(0, 2)] == pytest.approx(0.25)

    only_a = two_photon_component(SourceSpec(0.1, 0.0))
    assert len(only_a.components) == 1
    assert only_a.components[0][0] == 1.0

    with pytest.raises(ValueError):
        two_photon_component(SourceSpec(0.0, 0.0))


def test_two_photon_component_matches_conditioned_input():
    spec = SourceSpec(0.07, 0.11)
    sector = {
        tuple(s.items()[0][0].occ): w for w, s in two_photon_component(spec).components
    }
    mixture, _ = two_mode_input(spec)
    conditioned = {}
    for weight, state in mixture.components:
        (bstate, _), = state.items()
        if bstate.total_photons == 2:
            conditioned[tuple(bstate.occ)] = weight
    total = sum(conditioned.values())
    for occ, weight in conditioned.items():
        assert weight / total == pytest.approx(sector[occ], abs=1e-12)


def test_phase_average_single_phase_is_pure_coherent():
    mixture = phase_averaged_coherent(0.2, 6, 1)
    assert len(mixture.components) == 1
    weight, state = mixture.components[0]
    assert weight == 1.0
    assert state.allclose(coherent_state(0.2, 0.0, 6), tol=1e-12)


def test_phase_average_kills_coherences():
    n_max = 5
    mixture = phase_averaged_coherent(0.2, n_max, n_max + 1)
    rho = density_matrix(mixture, [AH], n_max)
    off_diag = rho - np.diag(np.diag(rho))
    assert np.abs(off_diag).max() < 1e-12


def test_phase_average_converges_to_poisson_mixture():
    mu, n_max = 0.2, 8
    sigma = density_matrix(poisson_diagonal_mixture(mu, n_max), [AH], n_max)
    distances = []
    for k in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        rho = density_matrix(phase_averaged_coherent(mu, n_max, k), [AH], n_max)
        distances.append(trace_distance(rho, sigma))
    assert all(a >= b - 1e-15 for a, b in zip(distances, distances[1:]))
    assert distances[-1] < 1e-6
