"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes property tests reproducible.

The ``ci`` profile derandomizes example generation and prints the blob that
replays a failing example; local runs keep hypothesis' default profile.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
