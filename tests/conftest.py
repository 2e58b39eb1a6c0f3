"""Suite-wide check that no test leaves a child process of the test
process behind, running or unreaped."""

import os
import pathlib

import pytest

_PROC = pathlib.Path("/proc")


def _children(pid: int) -> set:
    """Pids whose parent is pid, zombies included; empty without /proc."""
    kids = set()
    for stat in _PROC.glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.add(int(stat.parent.name))
    return kids


@pytest.fixture
def children():
    """_children, for tests that watch the processes a command starts."""
    return _children


@pytest.fixture(autouse=True)
def no_child_process_left():
    before = _children(os.getpid())
    yield
    left = _children(os.getpid()) - before
    assert not left, f"the test left child processes {sorted(left)} running or unreaped"
