"""Test-suite settings.

Property tests run derandomized, without an example database and without
per-example deadlines, so a rerun of the suite on the same commit gives the
same result and writes no ``.hypothesis/`` directory.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
