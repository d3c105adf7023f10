"""Unitary linear-optical elements and their action on Fock states.

Every element is an 8x8 unitary acting on mode creation operators in the
canonical order of :data:`cohsh.fock.MODES`; modes an element does not touch
carry an identity block.  Applying a transform U to a basis state substitutes

    a_k^dag  ->  sum_j U[j, k] b_j^dag

into the occupied creation operators and expands the resulting product
polynomial mode by mode (iterative convolution), so the cost stays polynomial
in the photon cutoff.

A transform may hold a stack of unitaries, one (S, 8, 8) matrix.  apply
then propagates a state through every member at once, on (monomials,
members) arrays, and member s of the output is bit for bit the output of
member s alone.  The index work of an expansion (which monomial each photon
makes, in which order each sums) depends only on the input occupations and
on which image entries are kept, so it is done once per process for each
and reused; a call does the arithmetic.

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
from functools import cached_property, lru_cache

import numpy as np

from .fock import (
    MODE_INDEX,
    FockBasisState,
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
_FACT_F = np.array([float(f) for f in _FACT])

_IDENTITY = np.eye(N_MODES, dtype=complex)
_IDENTITY.setflags(write=False)
#: The (H, V) mode indices of each port.
_PORT_MODES = {
    port: (MODE_INDEX[ModeLabel(port, Polarization.H)], MODE_INDEX[ModeLabel(port, Polarization.V)])
    for port in Port
}


#: Per group of a transform's members: member indices, kept image rows per
#: mode, and the kept entries per mode (see _image_groups).
_ImageGroup = tuple[np.ndarray, tuple[tuple[int, ...], ...], tuple[np.ndarray, ...]]


@dataclass(frozen=True, eq=False)
class ModeTransform:
    """Complex unitary on the eight canonical modes (column k = image of mode k).

    The matrix may also be an (S, 8, 8) stack of S such unitaries, which
    apply propagates a state through at once.  The matrix is a read-only
    copy, so what is derived from it is computed once, on first use, and
    kept on the instance.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (N_MODES, N_MODES):
            raise ValueError(
                f"transform must be {N_MODES}x{N_MODES} or a stack of such, got {m.shape}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def unitarity_defect(self) -> float:
        """Max entrywise deviation of U^dag U from the identity, over every member of a stack."""
        m = self.matrix
        return float(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(N_MODES)).max())

    @cached_property
    def _defect(self) -> float:
        return self.unitarity_defect()

    @cached_property
    def _column_images(self) -> tuple[_ImageGroup, ...]:
        """Every member as one group of apply's expansion (see _image_groups)."""
        return _image_groups(self.matrix, grouped=False)

    @cached_property
    def _grouped_column_images(self) -> tuple[_ImageGroup, ...]:
        """The members grouped by which entries exceed PRUNE_EPS (see _image_groups)."""
        return _image_groups(self.matrix, grouped=True)

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


def _image_groups(matrix: np.ndarray, grouped: bool) -> tuple[_ImageGroup, ...]:
    """The members of a transform in groups that apply expands together.

    Per group: its member indices; per mode k, the rows j where some member
    keeps U[j, k] (|U[j, k]| above PRUNE_EPS); and per mode k those entries
    as a (rows, members) array, exactly 0 in a member that does not keep
    one.  ``grouped`` puts members together only if they keep the same
    entries.
    """
    stack = matrix.reshape(-1, N_MODES, N_MODES)
    kept = np.hypot(stack.real, stack.imag) > PRUNE_EPS
    # entries[k, j, s]: member s's kept U[j, k]
    entries = np.where(kept, stack, 0.0).transpose(2, 1, 0)
    labels = np.zeros(len(stack), dtype=int)
    if grouped:
        _, labels = np.unique(kept.reshape(len(stack), -1), axis=0, return_inverse=True)
    groups = []
    for label in range(labels.max() + 1):
        members = np.flatnonzero(labels == label)
        some = kept[members].any(axis=0).T.tolist()
        rows = tuple(tuple(j for j, keep in enumerate(column) if keep) for column in some)
        group_entries = entries[:, :, members]
        groups.append((members, rows, tuple(group_entries[k, rows[k], :] for k in range(N_MODES))))
    return tuple(groups)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The complex product a * b rounded as Python rounds it.

    numpy's complex multiply may fuse a multiply and an add, which changes
    the last bit; four real products and two sums do not.
    """
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=16)
def _expansion(
    occ: tuple[int, ...], rows: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, np.ndarray, int], ...], tuple[tuple[int, ...], ...], np.ndarray, float]:
    """The index work of apply's expansion of one basis state.

    It depends only on the occupations and on the rows each mode's image
    keeps, so it is done once per process for each; every call shares the
    arrays, read-only.  Returns, per photon, its mode, the key each
    (monomial, image row) pair adds into, monomials outermost, and the
    number of keys, which are numbered in order of first appearance; then
    the output monomials in that order, the square roots of their Bose
    factors prod_j m_j! as a column, and 1 / sqrt(prod_k n_k!).
    """
    # a monomial as one integer of base-`base` digits, no digit reaching the base
    base = sum(occ) + 1
    place = [base ** (N_MODES - 1 - j) for j in range(N_MODES)]
    codes = [0]
    steps = []
    denom = 1.0
    for k, n_k in enumerate(occ):
        if n_k == 0:
            continue
        denom *= _FACT[n_k]
        shifts = [place[j] for j in rows[k]]
        for _ in range(n_k):
            index: dict[int, int] = {}
            slots = [
                index.setdefault(code + shift, len(index)) for code in codes for shift in shifts
            ]
            codes = list(index)
            steps.append((k, _read_only(np.array(slots, dtype=np.int32)), len(codes)))
    monomials = np.array(codes, dtype=np.int64)[:, None] // np.array(place) % base
    fact = np.ones(len(codes))
    for m_j in monomials.T:
        fact = fact * _FACT_F[m_j]
    bose = _read_only(np.sqrt(fact)[:, None])
    return tuple(steps), tuple(map(tuple, monomials.tolist())), bose, 1.0 / math.sqrt(denom)


def apply(
    transform: ModeTransform, state: StateVector
) -> StateVector | list[tuple[FockBasisState, np.ndarray]]:
    """Propagate a pure state through a mode unitary, or through each member of a stack.

    Linear over terms; preserves the total photon number of every term and
    the norm of the state (no renormalization is performed).  A single
    transform gives a StateVector.  A stack of S gives the output terms in
    canonical order, each with its row of S amplitudes; a term is kept if
    some member keeps it, and is exactly 0 in a member that does not.

    Each basis state is expanded photon by photon on (monomials, members)
    arrays, and every output key sums its terms in one order: monomials in
    order of first appearance, images in row order, input terms in
    canonical order (np.add.at adds unbuffered, in index order).  From the
    third photon of a term on, which monomials appear first depends on
    which image entries a member keeps, so such states are expanded in
    groups of members that keep the same entries; up to two photons a key
    sums at most two terms per step, alike in either order.  Member s of a
    stack's output therefore equals, bit for bit, the output of member s
    alone.
    """
    transform.require_unitary()
    terms = state.items()
    photons = max((sum(bstate.occ) for bstate, _ in terms), default=0)
    groups = transform._grouped_column_images if photons > 2 else transform._column_images
    blocks = []
    for members, rows, images in groups:
        for bstate, amp in terms:
            steps, monomials, bose, inv_denom = _expansion(bstate.occ, rows)
            # the first photon's keys are its image rows, each 0j + (1 + 0j) * u:
            # the entry u with -0.0 made 0.0
            poly = images[steps[0][0]] + 0.0 if steps else np.ones((1, len(members)), dtype=complex)
            for k, slots, size in steps[1:]:
                nxt = np.zeros((size, len(members)), dtype=complex)
                np.add.at(nxt, slots, _times(poly[:, None, :], images[k]).reshape(-1, len(members)))
                poly = nxt
            coeffs = poly * bose * inv_denom
            coeffs[np.hypot(coeffs.real, coeffs.imag) <= PRUNE_EPS] = 0.0
            blocks.append((members, monomials, _times(np.complex128(amp), coeffs)))
    keys = sorted(set().union(*(monomials for _, monomials, _ in blocks)))
    position = {occ: i for i, occ in enumerate(keys)}
    out = np.zeros((len(keys), transform.matrix.size // N_MODES**2), dtype=complex)
    # the input terms of each member, in canonical order
    for members, monomials, part in blocks:
        out[np.array([position[occ] for occ in monomials], dtype=np.intp)[:, None], members] += part
    out[np.hypot(out.real, out.imag) <= PRUNE_EPS] = 0.0
    kept = out.any(axis=1)
    keys = [occ for occ, keep in zip(keys, kept.tolist()) if keep]
    if transform.matrix.ndim == 2:
        return StateVector._trusted(dict(zip(keys, out[kept, 0].tolist())))
    return list(zip(map(FockBasisState._trusted, keys), out[kept]))
