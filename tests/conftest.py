"""Fixtures shared by the tests of the process map (parallel._map)."""

import os

import pytest

from ppmoments import parallel


@pytest.fixture
def processes(monkeypatch):
    """Set the process count that parallel._map reads."""

    def use(count):
        monkeypatch.setattr(parallel, "_process_count", lambda: count)

    return use


@pytest.fixture
def forks(monkeypatch):
    """A list that grows by one entry per os.fork call of this process."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
