"""Shared test configuration.

The hypothesis profile fixes the generated examples (``derandomize``)
and drops the per-example deadline, so the property tests give the same
verdict on every run whatever the speed of the host; with no example
database they also leave no files behind.
"""

from hypothesis import settings

settings.register_profile("kolchin", derandomize=True, deadline=None, database=None)
settings.load_profile("kolchin")
