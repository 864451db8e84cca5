"""Shared fixtures."""

import signal

import pytest


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
