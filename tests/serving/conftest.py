"""Fixtures shared by the serving tests."""

import pytest

from .forked import Daemon


@pytest.fixture
def serve():
    """``serve(directory, *flags, workers=2)`` starts ``python -m repro
    serve`` and returns its :class:`~tests.serving.forked.Daemon`; every
    daemon still running when the test ends is killed with its
    children."""
    started = []

    def start(directory, *args, workers=2):
        daemon = Daemon(directory, *args, workers=workers)
        started.append(daemon)
        return daemon

    yield start
    for daemon in started:
        daemon.kill()
