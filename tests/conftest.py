"""Hypothesis settings shared by the property tests: ``derandomize`` fixes
the examples and ``database=None`` writes no example database.  Also one
OpenBLAS thread for the whole run."""

import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# one OpenBLAS thread unless the caller says otherwise: on a loaded host the
# Gram count runs several times slower on two.  numpy reads this when it
# loads, and pytest loads this file before any test module imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

SETTINGS = settings(derandomize=True, database=None, deadline=None)

# Hypothesis caches the constants of local source files under its home
# directory (./.hypothesis by default) at collection time; keep that cache in
# a temporary directory that is removed at exit.
_HOME = tempfile.TemporaryDirectory(prefix="qhv-hypothesis-")
set_hypothesis_home_dir(_HOME.name)
