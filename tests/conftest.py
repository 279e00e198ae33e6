"""Test-suite settings.

Hypothesis runs derandomized (the same examples on every run), without an
example database and without a per-example deadline, so the suite is
deterministic and does not fail on a slow or busy host.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True,
                          database=None, deadline=None)
settings.load_profile("deterministic")
