"""The memoized kernels are shared mutable state; concurrent first-touch
from several threads must still produce the sequential answers.  The Monte
Carlo sampler keeps its scratch arrays per call, so concurrent runs must
match sequential ones too."""

import concurrent.futures
import sys

from srscorr.correlation import _ALPHA_CACHE, alpha_coefficients, corr_exact
from srscorr.exactnum import bernoulli, stirling_first_unsigned, stirling_second
from srscorr.oracle import monte_carlo_corr
from srscorr.ppoly import p0_eval, p_poly


def _worker(shift: int):
    out = []
    for i in range(12):
        j = (i + shift) % 12
        out.append(
            (
                stirling_first_unsigned(10, j),
                stirling_second(11, j),
                bernoulli(2 * j),
                p_poly(9, min(j, 9)).coeffs,
                p0_eval(9, min(j, 9), 1),
                p0_eval(89, j, 1),  # k = 89 is read by no other test, so these rows start cold
                corr_exact(min(j, 5), 12, 5),
            )
        )
    return out


def test_concurrent_first_computation_matches_sequential():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so the cold builds interleave
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(_worker, range(8)))
    finally:
        sys.setswitchinterval(interval)
    for shift, rows in enumerate(results):
        expected = _worker(shift)  # caches are warm now; sequential replay
        assert rows == expected


def test_alpha_tables_identical_across_threads():
    orders = [24, 31, 24, 31, 6, 6]
    _ALPHA_CACHE.clear()  # every order starts cold, so the threads race to build and store it
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            tables = list(pool.map(alpha_coefficients, orders))
    finally:
        sys.setswitchinterval(interval)
    _ALPHA_CACHE.clear()
    assert tables == [alpha_coefficients(k) for k in orders]


_MC_DESIGNS = [
    (3, 5000, 600, 40),  # few lanes: block draws, event-driven tracker
    (2, 2**40, 30, 300),  # N > 2^32: one-row draws into per-call scratch
    (4, 230, 20, 40000),  # many lanes: one-row draws, row-by-row tracker
]


def _mc_worker(shift: int):
    return [monte_carlo_corr(*_MC_DESIGNS[(i + shift) % 3], seed=shift) for i in range(3)]


def test_concurrent_monte_carlo_matches_sequential():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(_mc_worker, range(4)))
    finally:
        sys.setswitchinterval(interval)
    for shift, estimates in enumerate(results):
        assert estimates == _mc_worker(shift)
