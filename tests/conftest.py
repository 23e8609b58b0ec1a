"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int/str digit limit for one test, then the previous one."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(previous)
