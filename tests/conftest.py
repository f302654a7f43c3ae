"""Hypothesis profiles. ``HYPOTHESIS_PROFILE=ci`` draws every property
test's examples from a fixed seed and keeps no example database, so each
run tries the same inputs."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
