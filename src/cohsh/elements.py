"""Unitary linear-optical elements and their action on Fock states.

Every element is an 8x8 unitary acting on mode creation operators in the
canonical order of :data:`cohsh.fock.MODES`; modes an element does not touch
carry an identity block.  Applying a transform U to a basis state substitutes

    a_k^dag  ->  sum_j U[j, k] b_j^dag

into the occupied creation operators and expands the resulting product
polynomial mode by mode (iterative convolution), so the cost stays polynomial
in the photon cutoff.

The beam splitter uses the symmetric convention

    x^dag -> cos(t) ox^dag + i sin(t) oy^dag
    y^dag -> i sin(t) ox^dag + cos(t) oy^dag

with t the transmissivity angle (t = pi/4 is the balanced 50:50 case).  The
splitter routes each input onto its partner output port (a -> c, b -> d,
c -> a, d -> b); the completion on the output columns keeps the full matrix
unitary.  The overall phase of the two-photon outputs is a
convention of this choice and is fixed here once and for all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import (
    MODE_INDEX,
    MODES,
    N_MODES,
    PRUNE_EPS,
    ModeLabel,
    Polarization,
    Port,
    StateVector,
)

#: Unitarity tolerance enforced when a transform is applied.
UNITARY_TOL = 1e-9

#: Canonical routing of the recombining beam splitter.
_PARTNER = {Port.A: Port.C, Port.B: Port.D, Port.C: Port.A, Port.D: Port.B}

_FACT = [math.factorial(n) for n in range(40)]

_IDENTITY = np.eye(N_MODES, dtype=complex)
_IDENTITY.setflags(write=False)
#: The (H, V) mode indices of each port.
_PORT_MODES = {
    port: (MODE_INDEX[ModeLabel(port, Polarization.H)], MODE_INDEX[ModeLabel(port, Polarization.V)])
    for port in Port
}


@dataclass(frozen=True, eq=False)
class ModeTransform:
    """Complex unitary on the eight canonical modes (column k = image of mode k).

    The matrix is a read-only copy, so what is derived from it is computed
    once, on first use, and kept on the instance.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (N_MODES, N_MODES):
            raise ValueError(f"transform must be {N_MODES}x{N_MODES}, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def unitarity_defect(self) -> float:
        """Max entrywise deviation of U^dag U from the identity."""
        return float(np.abs(self.matrix.conj().T @ self.matrix - np.eye(N_MODES)).max())

    @cached_property
    def _defect(self) -> float:
        return self.unitarity_defect()

    @cached_property
    def _column_images(self) -> tuple[tuple[tuple[int, complex], ...], ...]:
        """Per mode k, the (j, U[j, k]) entries above PRUNE_EPS as Python complex."""
        return tuple(
            tuple((j, u) for j, u in enumerate(column) if abs(u) > PRUNE_EPS)
            for column in self.matrix.T.tolist()
        )

    def require_unitary(self) -> None:
        defect = self._defect
        if defect > UNITARY_TOL:
            raise ValueError(f"transform is not unitary (defect {defect:.3e} > {UNITARY_TOL:g})")

    def to_json_obj(self) -> dict:
        """Row-major complex matrix with the explicit mode-label order."""
        return {
            "labels": [mode.name for mode in MODES],
            "matrix": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.matrix
            ],
        }


def beam_splitter(
    port_x: Port, port_y: Port, transmissivity_angle: float = math.pi / 4
) -> ModeTransform:
    """Beam splitter mixing two input ports onto their partner output ports.

    Acts identically on the H and V polarizations of each port.  Each input
    leaves by its partner port (a <-> c, b <-> d): a and b mix onto c and d,
    and the partner pairs (a, c) and (b, d) mix in place.
    """
    if port_x == port_y:
        raise ValueError("beam splitter needs two distinct ports")
    out_x, out_y = _PARTNER[port_x], _PARTNER[port_y]
    inputs, outputs = {port_x, port_y}, {out_x, out_y}

    t = math.cos(transmissivity_angle)
    r = 1j * math.sin(transmissivity_angle)
    m = np.eye(N_MODES, dtype=complex)
    for pol in Polarization:
        x, y = MODE_INDEX[ModeLabel(port_x, pol)], MODE_INDEX[ModeLabel(port_y, pol)]
        ox, oy = MODE_INDEX[ModeLabel(out_x, pol)], MODE_INDEX[ModeLabel(out_y, pol)]
        for idx in {x, y, ox, oy}:
            m[idx, idx] = 0.0
        m[ox, x] = t
        m[oy, x] = r
        m[ox, y] = r
        m[oy, y] = t
        if outputs != inputs:
            m[x, ox] = t
            m[y, ox] = r
            m[x, oy] = r
            m[y, oy] = t
    return ModeTransform(m)


def rotation_matrix(port: Port, angle: float) -> np.ndarray:
    """The matrix of polarization_rotator(port, angle), as a plain array.

    H^dag -> cos(angle) H^dag + sin(angle) V^dag,
    V^dag -> -sin(angle) H^dag + cos(angle) V^dag; identity elsewhere.
    """
    c, s = math.cos(angle), math.sin(angle)
    m = _IDENTITY.copy()
    h, v = _PORT_MODES[port]
    m[h, h] = c
    m[v, h] = s
    m[h, v] = -s
    m[v, v] = c
    return m


def polarization_rotator(port: Port, angle: float) -> ModeTransform:
    """Rotate the polarization basis within one port (see rotation_matrix)."""
    return ModeTransform(rotation_matrix(port, angle))


def phase_shift(port: Port, phase: float) -> ModeTransform:
    """Multiply both polarizations of a port by exp(i * phase)."""
    m = np.eye(N_MODES, dtype=complex)
    factor = complex(math.cos(phase), math.sin(phase))
    for pol in Polarization:
        k = MODE_INDEX[ModeLabel(port, pol)]
        m[k, k] = factor
    return ModeTransform(m)


def compose(first: ModeTransform, second: ModeTransform) -> ModeTransform:
    """Transform equivalent to applying ``first`` and then ``second``."""
    if first.matrix.shape != second.matrix.shape:
        raise ValueError("cannot compose transforms over different mode universes")
    return ModeTransform(second.matrix @ first.matrix)


def _apply_to_occupations(
    column_images: tuple[tuple[tuple[int, complex], ...], ...], occ: tuple[int, ...]
) -> dict[tuple[int, ...], complex]:
    """Image of one basis state as a map occupation-tuple -> amplitude."""
    poly: dict[tuple[int, ...], complex] = {(0,) * N_MODES: 1.0 + 0j}
    denom = 1.0
    for k, n_k in enumerate(occ):
        if n_k == 0:
            continue
        denom *= _FACT[n_k]
        images = column_images[k]
        for _ in range(n_k):
            nxt: dict[tuple[int, ...], complex] = {}
            for mono, coeff in poly.items():
                for j, u in images:
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                    nxt[key] = nxt.get(key, 0j) + coeff * u
            poly = nxt
    inv_denom = 1.0 / math.sqrt(denom)
    out: dict[tuple[int, ...], complex] = {}
    for mono, coeff in poly.items():
        fact = 1.0
        for m_j in mono:
            fact *= _FACT[m_j]
        amp = coeff * math.sqrt(fact) * inv_denom
        if abs(amp) > PRUNE_EPS:
            out[mono] = amp
    return out


def apply(transform: ModeTransform, state: StateVector) -> StateVector:
    """Propagate a pure state through a mode unitary.

    Linear over terms; preserves the total photon number of every term and
    the norm of the state (no renormalization is performed).
    """
    transform.require_unitary()
    acc: dict[tuple[int, ...], complex] = {}
    for bstate, amp in state.items():
        for mono, coeff in _apply_to_occupations(transform._column_images, bstate.occ).items():
            acc[mono] = acc.get(mono, 0j) + amp * coeff
    return StateVector._trusted({occ: a for occ, a in acc.items() if abs(a) > PRUNE_EPS})

