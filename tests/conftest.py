"""Shared fixtures."""

import pytest

from weylruns import oracle


@pytest.fixture
def cold_caches():
    """Empty caches before a test that injects a fault, and again after it:
    `verify` keeps each check's outcome until oracle.clear_caches(), so a
    check must run under the fault, and no other test may read its outcome."""
    oracle.clear_caches()
    yield
    oracle.clear_caches()
