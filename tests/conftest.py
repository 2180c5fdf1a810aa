"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def oracle_tolerance():
    """A setter of the oracle's tolerance constants for one test.  The
    oracle's caches key on the case and a dimensionless argument only, so
    they are emptied whenever a constant is set, and again once the
    constants are restored: no value computed at a patched tolerance is read
    by another call."""
    from bubblehbt import oracle

    def clear_caches():
        for cached in (oracle._origin_transform, oracle._time_amplitude,
                       oracle._space_amplitude):
            cached.cache_clear()

    with pytest.MonkeyPatch.context() as patch:
        def set_tolerance(name, value):
            patch.setattr(oracle, name, value)
            clear_caches()

        yield set_tolerance
    clear_caches()
