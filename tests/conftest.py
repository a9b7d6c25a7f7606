import time
from functools import cache

import pytest
from hypothesis import settings

from srscorr.correlation import _ALPHA_CACHE
from srscorr.verify import CHECKS

# Property tests draw the same examples on every run, so the suite is deterministic.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

_CHECKS_BY_IDENTITY = {check.identity: check for check in CHECKS}


@pytest.fixture(autouse=True)
def _cold_alpha_tables():
    """Start every test with no memoised alpha table, so a test that watches
    what ``alpha_coefficients`` calls sees a full build whatever ran before."""
    _ALPHA_CACHE.clear()


@cache
def _timed_check(identity: str):
    start = time.perf_counter()
    result = _CHECKS_BY_IDENTITY[identity].run()
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def check_result():
    """``check_result(identity)`` gives ``(CheckResult, seconds)`` of that
    registry check at its full range; each check runs at most once a session."""
    return _timed_check
