"""Shared fixtures."""

import signal

import pytest

from preab import ConstraintViolation
from preab.core import Opposite
from preab.linalg import invert


@pytest.fixture
def ten_second_alarm():
    """Fail the test with TimeoutError after 10 s instead of hanging the run."""
    def timeout(signum, frame):
        raise TimeoutError("did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _is_iso_by_inversion(cat, f):
    """The iso test that builds the inverse: invert the matrix, then ask
    the base category's structure constraints whether it is a morphism."""
    if isinstance(cat, Opposite):
        cat, f = cat.base, cat.unwrap(f)
    inv = invert(f.payload)
    if inv is None:
        return False
    try:
        cat.check_payload_constraints(f.cod, f.dom, inv)
    except ConstraintViolation:
        return False
    return True


@pytest.fixture
def is_iso_by_inversion():
    """An iso test independent of ``is_iso`` and ``classify``."""
    return _is_iso_by_inversion
