"""Hypothesis profiles. `HYPOTHESIS_PROFILE=ci` draws the same examples on
every run (derandomized), 200 for each property that sets no count of its
own; without it the default profile applies."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
