"""Shared fixtures for the test suite."""

import pytest

from cohsh import measurement


@pytest.fixture(autouse=True)
def _clear_outcome_table_memos():
    """Start every test with empty builder memos, so test order cannot decide
    whether a builder runs or which patched module value it reads."""
    measurement.coherent_outcome_table.cache_clear()
    measurement.fock_outcome_table.cache_clear()
