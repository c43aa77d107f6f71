"""Test-suite settings.

Property tests run derandomized, without an example database and without
per-example deadlines, so a rerun of the suite on the same commit gives the
same result.  Hypothesis keeps its other files (the literals it collects from
local source) in a per-session temporary directory, so the suite writes no
``.hypothesis/`` directory into the working tree.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Set on import: hypothesis' pytest plugin reads local source constants while
# it sorts the collected tests, before any fixture runs.  The directory is
# removed when the interpreter exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
