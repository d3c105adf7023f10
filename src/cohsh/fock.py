"""Sparse multimode bosonic Fock-state algebra.

The mode universe is fixed for the whole package: four spatial ports (a and b
feed the recombining beam splitter, c and d leave it) times two linear
polarizations (H, V), eight modes in total.  Pure states are sparse maps from
occupation-number basis states to complex amplitudes; mixed states are
weighted ensembles of pure states.

All values are immutable and every operation returns a new value, so states
can be shared freely across threads.  Amplitudes below ``PRUNE_EPS`` are
dropped after each linear step to keep the sparse maps bounded, and term
iteration always follows the fixed total order on basis states so that
serialized output is byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

#: Amplitudes with magnitude at or below this are dropped after linear ops.
PRUNE_EPS = 1e-15


class Port(str, Enum):
    A = "a"
    B = "b"
    C = "c"
    D = "d"


class Polarization(str, Enum):
    H = "H"
    V = "V"


class ModeLabel(NamedTuple):
    """One optical mode: a spatial port together with a linear polarization."""

    port: Port
    polarization: Polarization

    @property
    def name(self) -> str:
        return self.port.value + self.polarization.value

    @classmethod
    def parse(cls, text: str) -> "ModeLabel":
        if len(text) != 2:
            raise ValueError(f"not a mode label: {text!r}")
        return cls(Port(text[0]), Polarization(text[1]))

    def __repr__(self) -> str:
        return self.name


#: Canonical total order of the eight modes: (port, polarization).
MODES: tuple[ModeLabel, ...] = tuple(
    ModeLabel(port, pol) for port in Port for pol in Polarization
)
N_MODES = len(MODES)
MODE_INDEX: dict[ModeLabel, int] = {mode: k for k, mode in enumerate(MODES)}

AH, AV, BH, BV, CH, CV, DH, DV = MODES


@dataclass(frozen=True, order=True)
class FockBasisState:
    """Occupation numbers over the eight canonical modes.

    Modes that are absent from a constructor mapping are implicitly empty.
    Ordering and equality are occupation-wise, following the canonical mode
    order, which makes sorted iteration (and therefore serialization)
    reproducible.
    """

    occ: tuple[int, ...]

    def __post_init__(self) -> None:
        occ = tuple(map(int, self.occ))
        if len(occ) != N_MODES:
            raise ValueError(f"expected {N_MODES} occupation numbers, got {len(occ)}")
        if min(occ) < 0:
            raise ValueError(f"negative occupation in {occ}")
        object.__setattr__(self, "occ", occ)

    @classmethod
    def from_occupations(cls, occupations: Mapping[ModeLabel | str, int]) -> "FockBasisState":
        occ = [0] * N_MODES
        for key, n in occupations.items():
            mode = key if isinstance(key, ModeLabel) else ModeLabel.parse(key)
            occ[MODE_INDEX[mode]] = int(n)
        return cls(tuple(occ))

    @classmethod
    def _trusted(cls, occ: tuple[int, ...]) -> "FockBasisState":
        """Unchecked constructor for elements.apply: eight non-negative ints."""
        state = object.__new__(cls)
        object.__setattr__(state, "occ", occ)
        return state

    def occupations(self) -> dict[ModeLabel, int]:
        """Nonzero occupations keyed by mode, in canonical order."""
        return {mode: n for mode, n in zip(MODES, self.occ) if n}

    def count(self, mode: ModeLabel) -> int:
        return self.occ[MODE_INDEX[mode]]

    def __str__(self) -> str:
        inside = ",".join(f"{n}_{mode.name}" for mode, n in self.occupations().items())
        return f"|{inside or 'vac'}>"


def basis_state(**occupations: int) -> FockBasisState:
    """Shorthand constructor, e.g. ``basis_state(aH=1, bV=2)``."""
    return FockBasisState.from_occupations(occupations)


VACUUM = basis_state()


class StateVector:
    """Sparse pure state: basis states mapped to complex amplitudes."""

    __slots__ = ("_amp",)

    def __init__(
        self,
        terms: Mapping[FockBasisState, complex] | Iterable[tuple[FockBasisState, complex]],
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        amp: dict[FockBasisState, complex] = {}
        for state, amplitude in items:
            z = amp.get(state, 0j) + complex(amplitude)
            if abs(z) > PRUNE_EPS:
                amp[state] = z
            elif state in amp:
                del amp[state]
        self._amp = amp

    @classmethod
    def _trusted(cls, terms: dict[tuple[int, ...], complex]) -> "StateVector":
        """Unchecked constructor for elements.apply: valid occupations, pruned amplitudes."""
        new = object.__new__(cls)
        new._amp = dict(zip(map(FockBasisState._trusted, terms), terms.values()))
        return new

    @classmethod
    def from_basis(cls, state: FockBasisState) -> "StateVector":
        return cls({state: 1.0})

    def items(self) -> list[tuple[FockBasisState, complex]]:
        """Terms sorted by the canonical basis-state order."""
        return sorted(self._amp.items(), key=lambda kv: kv[0].occ)

    def amplitude(self, state: FockBasisState) -> complex:
        return self._amp.get(state, 0j)

    def __len__(self) -> int:
        return len(self._amp)

    def __iter__(self) -> Iterator[FockBasisState]:
        return iter(sorted(self._amp, key=lambda s: s.occ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self._amp == other._amp

    def norm(self) -> float:
        return math.sqrt(sum(a.real * a.real + a.imag * a.imag for a in self._amp.values()))

    def normalize(self) -> "StateVector":
        """Unit-norm copy; raises on an empty or numerically zero state."""
        n = self.norm()
        if n <= PRUNE_EPS:
            raise ValueError("cannot normalize a zero state")
        return self.scaled(1.0 / n)

    def scaled(self, factor: complex) -> "StateVector":
        return StateVector({s: a * factor for s, a in self._amp.items()})

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "occupations": {mode.name: n for mode, n in state.occupations().items()},
                "re": float(amp.real),
                "im": float(amp.imag),
            }
            for state, amp in self.items()
        ]

    def __repr__(self) -> str:
        parts = [f"({amp:.4g})*{state}" for state, amp in self.items()]
        return " + ".join(parts) if parts else "<zero state>"


@dataclass(frozen=True)
class DensityMixture:
    """Classical ensemble of pure states: (weight, state) pairs.

    A normalized mixture has weights summing to one and each component state
    individually unit-normalized.
    """

    components: tuple[tuple[float, StateVector], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        for weight, state in self.components:
            if weight < 0:
                raise ValueError(f"negative mixture weight {weight}")
            if abs(state.norm() - 1.0) > 1e-9:
                raise ValueError("mixture component is not normalized")

    @classmethod
    def from_components(
        cls, pairs: Iterable[tuple[float, StateVector]]
    ) -> "DensityMixture":
        """Build a normalized mixture; component states must be unit norm."""
        pairs = [(float(w), s) for w, s in pairs if w > 0.0]
        total = sum(w for w, _ in pairs)
        if total <= 0.0:
            raise ValueError("mixture has no weight")
        return cls(tuple((w / total, s) for w, s in pairs))

    def to_json_obj(self) -> list[dict]:
        return [
            {"weight": float(weight), "terms": state.to_json_obj()}
            for weight, state in self.components
        ]


def density_matrix(mixture: DensityMixture, n_max: int) -> np.ndarray:
    """Dense density matrix of a mixture supported on mode aH, basis |0>..|n_max>.

    Raises if any component occupies another mode or exceeds the cutoff
    (diagnostic use: trace-distance checks of the single-beam source).
    """
    rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for weight, state in mixture.components:
        vec = np.zeros(n_max + 1, dtype=complex)
        for bstate, amp in state.items():
            n = bstate.count(AH)
            if sum(bstate.occ) != n:
                raise ValueError(f"state {bstate} occupies a mode other than aH")
            if n > n_max:
                raise ValueError(f"occupation above n_max={n_max} in {bstate}")
            vec[n] = amp
        rho += weight * np.outer(vec, vec.conjugate())
    return rho
