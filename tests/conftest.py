"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def unlimited_str():
    """Lift the int-to-str digit limit for the test's own str() calls."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)
