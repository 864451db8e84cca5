"""Shared fixtures."""

import signal
import sys

import pytest

from preab import ConstraintViolation, linalg
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


@pytest.fixture
def echelons(monkeypatch):
    """A list that records every echelon built, by name: each call of
    ``linalg._rref_pivots`` (rows absorbed: kernels, preimages, solves,
    row spaces) and of ``linalg.nested_spans`` (columns absorbed: every
    column span).  The functions are counted under every name that binds
    them in a ``preab`` module, so a module that imports one by name
    cannot get past the count."""
    calls = []
    for name in ("_rref_pivots", "nested_spans"):
        real = getattr(linalg, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("preab") \
                    and vars(module).get(name) is real:
                monkeypatch.setattr(module, name, counted)
    return calls
