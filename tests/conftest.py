"""Fixtures shared by the tests of the process map (finite_model._map)."""

import os

import pytest

from ppmoments import finite_model


@pytest.fixture
def processes(monkeypatch):
    """Set the process count that the map reads."""

    def use(count):
        monkeypatch.setattr(finite_model, "_process_count", lambda: count)

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
