"""Hypothesis settings shared by the property tests: ``derandomize`` fixes
the examples and ``database=None`` writes no example database."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

SETTINGS = settings(derandomize=True, database=None, deadline=None)

# Hypothesis caches the constants of local source files under its home
# directory (./.hypothesis by default) at collection time; keep that cache in
# a temporary directory that is removed at exit.
_HOME = tempfile.TemporaryDirectory(prefix="qhv-hypothesis-")
set_hypothesis_home_dir(_HOME.name)
