"""Fixtures shared by several test modules."""

import pytest

import bergman.domains as dom


@pytest.fixture(scope="session")
def hartogs_profile():
    """The Hartogs triangle |z2| < |z1| < 1 as a Reinhardt profile."""
    profile = dom.ReinhardtProfile(name="hartogs", dim=2, r1_max=1.0, bound=lambda r: r,
                                   exponent_at_zero=1.0, allows_negative=(True, False))
    dom.validate_profile(profile)
    return profile
