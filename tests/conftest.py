"""The one Hypothesis profile of every property test in tests/.

Each property draws its examples from a seed fixed by its own source,
replays nothing saved from an earlier run and has no time limit per
example, so a run repeats exactly and a slow machine fails nothing.  A
property that needs another example count says so alone, with
``@settings(max_examples=N)``, and inherits the rest from here.
"""

from hypothesis import settings

PROFILE = "belltime"

settings.register_profile(PROFILE, max_examples=300, deadline=None, derandomize=True, database=None)
settings.load_profile(PROFILE)
