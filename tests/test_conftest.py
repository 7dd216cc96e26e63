"""The Hypothesis profile of tests/conftest.py is the one in force."""

from hypothesis import settings

from conftest import PROFILE


def test_the_suite_profile_is_the_default():
    # every @settings(max_examples=N) of the suite inherits the rest from it
    assert settings.default == settings.get_profile(PROFILE)
