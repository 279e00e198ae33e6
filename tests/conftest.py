"""Test-suite settings.

Hypothesis runs derandomized, without an example database and without a
per-example deadline, so it does not fail on a slow or busy host.

Derandomized alone does not fix the examples: Hypothesis also draws
literal constants mined from the non-test modules loaded when a test
runs, so a test's examples would depend on which other test files the run
imported.  Importing ``urcd.cli``, which loads every ``urcd`` module,
before collection makes that set the same in a single-file run and in a
full run, so each test draws the same examples either way.
"""

from hypothesis import settings

import urcd.cli  # noqa: F401  (loads every urcd module; see above)

settings.register_profile("deterministic", derandomize=True,
                          database=None, deadline=None)
settings.load_profile("deterministic")
