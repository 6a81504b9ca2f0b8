import os

import pytest

from agbmap import parallel


@pytest.fixture
def forks(monkeypatch):
    """Two usable cores, whatever the host has. Yields a list that gains an
    item at each os.fork, and checks afterwards that no child is left."""
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
    calls, fork = [], os.fork
    monkeypatch.setattr(parallel.os, "fork", lambda: calls.append(1) or fork())
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
