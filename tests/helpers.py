"""Assertions shared by the test modules."""

from cohsh.fock import StateVector


def assert_states_close(ours: StateVector, reference: StateVector, tol: float = 1e-12) -> None:
    """Every amplitude of either state agrees with the other's within ``tol``."""
    keys = {s for s, _ in ours.items()} | {s for s, _ in reference.items()}
    worst = max((abs(ours.amplitude(k) - reference.amplitude(k)) for k in keys), default=0.0)
    assert worst <= tol, f"amplitudes differ by {worst:.3e} (tol {tol:g})"
