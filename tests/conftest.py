"""Test-suite settings.

Hypothesis runs derandomized, without an example database and without a
per-example deadline, so it does not fail on a slow or busy host.

Derandomized alone does not fix the examples: Hypothesis also draws
literal constants mined from the non-test modules loaded when a test
runs, so a test's examples would depend on which other test files the run
imported.  Importing ``urcd.cli``, which loads every ``urcd`` module,
before collection makes that set the same in a single-file run and in a
full run, so each test draws the same examples either way.

A test that leaves a child process behind, running or unreaped, fails:
``run_experiment`` forks on every host with more than one usable CPU, and
none of its children may outlive it.
"""

import os

import pytest
from hypothesis import settings

import urcd.cli  # noqa: F401  (loads every urcd module; see above)

settings.register_profile("deterministic", derandomize=True,
                          database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _no_child_left_behind():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = f"pid {pid}, exited unreaped" if pid else "still running"
    pytest.fail(f"the test left a child process behind ({state})")
