"""Every test here starts at the interpreter's default int/str digit limit."""

import sys

import pytest


@pytest.fixture(autouse=True)
def _default_int_str_limit():
    # collecting perfbench/tests lifts the limit before any test here runs
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(limit)
