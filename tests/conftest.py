"""Fixtures shared by the test modules."""

import pytest

import e8jac.e8


@pytest.fixture
def restore_orbit_cache():
    """Drop the orbits a test closes, so they do not stay for the session."""
    saved = dict(e8jac.e8._orbit_cache)
    yield
    e8jac.e8._orbit_cache.clear()
    e8jac.e8._orbit_cache.update(saved)
