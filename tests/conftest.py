"""Shared test configuration: property tests draw the same examples on
every run and keep no example database."""

from hypothesis import settings

settings.register_profile("ternring", derandomize=True, database=None, deadline=None)
settings.load_profile("ternring")
