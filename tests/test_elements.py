"""Optical elements: splitter convention, rotators, phases, unitary application."""

import itertools
import math

import numpy as np
import pytest

from cohsh import elements
from cohsh.elements import (
    ModeTransform,
    apply,
    beam_splitter,
    compose,
    phase_shift,
    polarization_rotator,
)
from cohsh.fock import FockBasisState, Port, StateVector, basis_state

from oracle import oracle_bs_expand
from test_fock import phi_plus, psi_minus

SQRT2 = math.sqrt(2.0)
BS = beam_splitter(Port.A, Port.B)


def test_bs_single_photon():
    out = apply(BS, StateVector.from_basis(basis_state(aH=1)))
    assert out.amplitude(basis_state(cH=1)) == pytest.approx(1 / SQRT2)
    assert out.amplitude(basis_state(dH=1)) == pytest.approx(1j / SQRT2)
    assert len(out) == 2


def test_bs_creates_bell_mixture():
    out = apply(BS, StateVector.from_basis(basis_state(aH=1, bV=1)))
    target = StateVector(
        [(s, a / SQRT2) for s, a in psi_minus().items()]
        + [(s, 1j * a / SQRT2) for s, a in phi_plus().items()]
    )
    assert out.allclose(target)


def test_bs_two_photons_one_arm():
    out = apply(BS, StateVector.from_basis(basis_state(aH=2)))
    assert out.amplitude(basis_state(cH=2)) == pytest.approx(0.5)
    assert out.amplitude(basis_state(dH=2)) == pytest.approx(-0.5)
    assert out.amplitude(basis_state(cH=1, dH=1)) == pytest.approx(1j / SQRT2)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_bs_two_photons_other_arm_matches_oracle():
    out = apply(BS, StateVector.from_basis(basis_state(bV=2)))
    assert out.amplitude(basis_state(cV=2)) == pytest.approx(-0.5)
    assert out.amplitude(basis_state(dV=2)) == pytest.approx(0.5)
    assert out.amplitude(basis_state(cV=1, dV=1)) == pytest.approx(1j / SQRT2)
    assert out.allclose(oracle_bs_expand(basis_state(bV=2)), tol=1e-12)


def test_bs_identical_ports_rejected():
    with pytest.raises(ValueError):
        beam_splitter(Port.A, Port.A)
    with pytest.raises(ValueError):
        beam_splitter(Port.A, Port.B, output_x=Port.C, output_y=Port.C)


def test_hom_cancellation():
    out = apply(BS, StateVector.from_basis(basis_state(aH=1, bH=1)))
    assert out.amplitude(basis_state(cH=2)) == pytest.approx(1j / SQRT2)
    assert out.amplitude(basis_state(dH=2)) == pytest.approx(1j / SQRT2)
    for state, amp in out.items():
        if sum(state.occ[4:6]) == 1 and sum(state.occ[6:8]) == 1:
            assert abs(amp) < 1e-12


def test_polarization_rotator():
    quarter = polarization_rotator(Port.B, math.pi / 2)
    out = apply(quarter, StateVector.from_basis(basis_state(bH=1)))
    assert abs(abs(out.amplitude(basis_state(bV=1))) - 1.0) < 1e-12

    assert polarization_rotator(Port.B, 0.0).unitarity_defect() < 1e-15
    assert np.allclose(polarization_rotator(Port.B, 0.0).matrix, np.eye(8))

    eighth = polarization_rotator(Port.C, math.pi / 4)
    out = apply(eighth, StateVector.from_basis(basis_state(cH=1)))
    assert out.amplitude(basis_state(cH=1)) == pytest.approx(1 / SQRT2)
    assert out.amplitude(basis_state(cV=1)) == pytest.approx(1 / SQRT2)


def test_phase_shift():
    assert np.allclose(phase_shift(Port.B, 0.0).matrix, np.eye(8))
    out = apply(phase_shift(Port.B, math.pi), StateVector.from_basis(basis_state(bV=1)))
    assert out.amplitude(basis_state(bV=1)) == pytest.approx(-1.0)
    phi = 0.7364
    out2 = apply(phase_shift(Port.B, phi), StateVector.from_basis(basis_state(bV=2)))
    assert out2.amplitude(basis_state(bV=2)) == pytest.approx(np.exp(2j * phi))


def test_compose_identity_inverse_additivity():
    ident = ModeTransform(np.eye(8, dtype=complex))
    assert np.allclose(compose(ident, BS).matrix, BS.matrix)
    inverse = ModeTransform(BS.matrix.conj().T)
    assert compose(BS, inverse).unitarity_defect() < 1e-12
    assert np.abs(compose(BS, inverse).matrix - np.eye(8)).max() < 1e-12
    double = compose(
        polarization_rotator(Port.C, math.pi / 4), polarization_rotator(Port.C, math.pi / 4)
    )
    assert np.abs(double.matrix - polarization_rotator(Port.C, math.pi / 2).matrix).max() < 1e-12


def test_apply_identity_and_unitarity_guard():
    state = psi_minus()
    assert apply(ModeTransform(np.eye(8, dtype=complex)), state).allclose(state)
    broken = ModeTransform(np.eye(8) * 1.5)
    for _ in range(2):  # the cached defect must keep the guard raising
        with pytest.raises(ValueError, match="not unitary"):
            apply(broken, state)


def test_transform_matrix_is_a_read_only_copy():
    source = np.eye(8, dtype=complex)
    transform = ModeTransform(source)
    assert not transform.matrix.flags.writeable
    with pytest.raises(ValueError):
        transform.matrix[0, 0] = 2.0
    source[0, 0] = 2.0
    assert transform.matrix[0, 0] == 1.0


def test_unitarity_defect_is_computed_once_per_transform(monkeypatch):
    """Work-count guard: apply reads a transform's defect, computed on first use."""
    calls = []
    original = ModeTransform.unitarity_defect

    def counting_defect(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ModeTransform, "unitarity_defect", counting_defect)
    first = compose(BS, polarization_rotator(Port.C, 0.3))
    second = compose(BS, polarization_rotator(Port.D, 0.3))
    state = StateVector.from_basis(basis_state(aH=1, bV=1))
    for _ in range(5):
        apply(first, state)
        apply(second, state)
    assert calls == [first, second]


def _random_transform(rng) -> ModeTransform:
    elements = [
        beam_splitter(Port.A, Port.B, rng.uniform(0, math.pi)),
        polarization_rotator(Port(rng.choice(list("abcd"))), rng.uniform(-math.pi, math.pi)),
        phase_shift(Port(rng.choice(list("abcd"))), rng.uniform(0, 2 * math.pi)),
        beam_splitter(Port.C, Port.D, rng.uniform(0, math.pi)),
    ]
    transform = ModeTransform(np.eye(8, dtype=complex))
    for _ in range(int(rng.integers(1, 5))):
        transform = compose(transform, elements[int(rng.integers(0, len(elements)))])
    return transform


def _random_state(rng) -> StateVector:
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        occ = [0] * 8
        for _ in range(int(rng.integers(1, 4))):
            occ[int(rng.integers(0, 8))] += 1
        terms[FockBasisState(tuple(occ))] = complex(rng.normal(), rng.normal())
    return StateVector(terms).normalize()


def test_apply_output_equals_the_validated_construction():
    """apply builds its output unchecked; it must equal the fully checked state."""
    rng = np.random.default_rng(99)
    # the first case cancels inside one term's image (HOM), the second only
    # once the images of two input terms are summed
    cancelling = StateVector({basis_state(aH=1): 1 / SQRT2, basis_state(bH=1): 1j / SQRT2})
    assert len(apply(BS, cancelling)) == 1
    cases = [(BS, StateVector.from_basis(basis_state(aH=1, bH=1))), (BS, cancelling)]
    for _ in range(40):
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        cases.append((ModeTransform(q), _random_state(rng)))
        cases.append((_random_transform(rng), _random_state(rng)))
    for transform, state in cases:
        acc = {}
        for bstate, amp in state.items():
            images = elements._apply_to_occupations(transform._column_images, bstate.occ)
            for occ, coeff in images.items():
                acc[occ] = acc.get(occ, 0j) + amp * coeff
        expected = StateVector({FockBasisState(occ): a for occ, a in acc.items()})
        out = apply(transform, state)
        assert len(out) == len(expected)
        assert out == expected
        assert out.items() == expected.items()
        assert all(type(b.occ) is tuple and len(b.occ) == 8 for b in out)
        assert all(type(a) is complex for _, a in out.items())


def test_generated_transforms_are_unitary():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        assert _random_transform(rng).unitarity_defect() < 1e-12


def test_apply_preserves_norm_and_photon_number():
    rng = np.random.default_rng(77)
    for _ in range(25):
        transform = _random_transform(rng)
        state = _random_state(rng)
        numbers = {s.total_photons for s, _ in state.items()}
        out = apply(transform, state)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        assert {s.total_photons for s, _ in out.items()} <= numbers


def test_composition_homomorphism():
    rng = np.random.default_rng(123)
    for _ in range(15):
        u = _random_transform(rng)
        v = _random_transform(rng)
        state = _random_state(rng)
        lhs = apply(compose(u, v), state)
        rhs = apply(v, apply(u, state))
        assert lhs.allclose(rhs, tol=1e-12)


def test_oracle_equivalence_all_two_port_states():
    """Splitter action matches the exhaustive per-photon enumeration."""
    checked = 0
    for occ4 in itertools.product(range(5), repeat=4):
        if not 0 < sum(occ4) <= 4:
            continue
        state = FockBasisState(tuple(occ4) + (0, 0, 0, 0))
        ours = apply(BS, StateVector.from_basis(state))
        reference = oracle_bs_expand(state)
        assert ours.allclose(reference, tol=1e-10), f"mismatch for {state}"
        checked += 1
    assert checked == 69  # all non-vacuum states with <= 4 photons on 4 modes


def test_in_place_beam_splitter_variant():
    mixer = beam_splitter(Port.C, Port.D, output_x=Port.C, output_y=Port.D)
    assert mixer.unitarity_defect() < 1e-12
    out = apply(mixer, StateVector.from_basis(basis_state(cH=1)))
    assert out.amplitude(basis_state(cH=1)) == pytest.approx(1 / SQRT2)
    assert out.amplitude(basis_state(dH=1)) == pytest.approx(1j / SQRT2)
