"""Test-suite set-up: one derandomized hypothesis profile, so every run of
the suite checks the same examples and a failure reproduces as it is."""

from hypothesis import settings

settings.register_profile("patchalg", derandomize=True, database=None, deadline=None)
settings.load_profile("patchalg")
