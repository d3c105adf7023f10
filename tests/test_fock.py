"""Fock-core: basis states, sparse vectors, mixtures, serialization."""

import json
import math

import numpy as np
import pytest

from cohsh.fock import (
    AH,
    MODES,
    DensityMixture,
    FockBasisState,
    ModeLabel,
    Polarization,
    Port,
    StateVector,
    VACUUM,
    basis_state,
    density_matrix,
)

SQRT2 = math.sqrt(2.0)


def psi_minus() -> StateVector:
    return StateVector(
        {
            basis_state(cH=1, dV=1): 1 / SQRT2,
            basis_state(cV=1, dH=1): -1 / SQRT2,
        }
    )


def phi_plus() -> StateVector:
    return StateVector(
        {
            basis_state(cH=1, cV=1): 1 / SQRT2,
            basis_state(dH=1, dV=1): 1 / SQRT2,
        }
    )


def test_mode_universe():
    assert len(MODES) == 8
    assert len(set(MODES)) == 8
    assert [m.name for m in MODES] == ["aH", "aV", "bH", "bV", "cH", "cV", "dH", "dV"]
    assert ModeLabel.parse("cV") == ModeLabel(Port.C, Polarization.V)
    assert sorted(MODES) == list(MODES)


def test_basis_state_basics():
    s = basis_state(aH=1, bV=2)
    assert sum(s.occ) == 3
    assert s.count(AH) == 1
    assert s.occupations() == {ModeLabel.parse("aH"): 1, ModeLabel.parse("bV"): 2}
    assert basis_state(aH=1, bV=2) == FockBasisState.from_occupations({"bV": 2, "aH": 1})
    with pytest.raises(ValueError):
        FockBasisState((0,) * 7)
    with pytest.raises(ValueError):
        FockBasisState.from_occupations({"aH": -1})


def test_normalize_single_term():
    s = StateVector({basis_state(cH=1): 2.0}).normalize()
    assert s.amplitude(basis_state(cH=1)) == pytest.approx(1.0)


def test_normalize_three_term_example():
    # amplitudes (1, -1, i*sqrt2): squared norm 1 + 1 + 2 = 4
    raw = StateVector(
        {
            basis_state(cH=2): 1.0,
            basis_state(dH=2): -1.0,
            basis_state(cH=1, dH=1): 1j * SQRT2,
        }
    )
    n = raw.normalize()
    assert n.amplitude(basis_state(cH=2)) == pytest.approx(0.5)
    assert n.amplitude(basis_state(dH=2)) == pytest.approx(-0.5)
    assert n.amplitude(basis_state(cH=1, dH=1)) == pytest.approx(1j / SQRT2)
    assert abs(n.norm() - 1.0) < 1e-12


def test_normalize_degenerate_inputs():
    with pytest.raises(ValueError):
        StateVector({}).normalize()
    with pytest.raises(ValueError):
        StateVector({basis_state(aH=1): 0.0}).normalize()


def test_pruning_threshold():
    s = StateVector({basis_state(aH=1): 1.0, basis_state(bV=1): 1e-16})
    assert len(s) == 1
    assert s.amplitude(basis_state(bV=1)) == 0.0


def test_mixture_weight_invariants():
    with pytest.raises(ValueError):
        DensityMixture(((-0.1, StateVector.from_basis(VACUUM)),))
    with pytest.raises(ValueError):
        DensityMixture(((1.0, StateVector({basis_state(aH=1): 0.5})),))


def test_serialization_round_trip_and_byte_stability():
    state = StateVector(
        {
            basis_state(cH=1, dV=1): 0.25 + 0.5j,
            basis_state(aH=2): -0.75,
            VACUUM: 0.1j,
        }
    )
    obj = state.to_json_obj()
    # insertion order must not leak into the serialized form
    shuffled = StateVector(dict(reversed(state.items())))
    assert json.dumps(shuffled.to_json_obj()) == json.dumps(obj)
    # terms are sorted by the canonical basis order
    occupation_keys = [tuple(sorted(t["occupations"])) for t in obj]
    assert occupation_keys[0] == ()  # vacuum first


def test_density_matrix_single_mode():
    mixture = DensityMixture.from_components(
        [
            (0.5, StateVector.from_basis(VACUUM)),
            (0.5, StateVector({VACUUM: 1 / SQRT2, basis_state(aH=1): 1 / SQRT2})),
        ]
    )
    rho = density_matrix(mixture, 2)
    assert rho.shape == (3, 3)
    assert np.trace(rho) == pytest.approx(1.0)
    assert rho[0, 0] == pytest.approx(0.75)
    assert rho[0, 1] == pytest.approx(0.25)
    assert rho[1, 1] == pytest.approx(0.25)
