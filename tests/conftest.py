"""Test-suite settings: hypothesis draws the same examples on every run, so
the property tests are as deterministic as the rest of tier 1."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
