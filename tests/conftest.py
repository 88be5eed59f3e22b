"""Shared test settings.

Hypothesis runs derandomized and without a deadline or example database, so
every run of the suite draws the same examples and takes the same time.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
