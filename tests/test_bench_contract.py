"""The package names the benchmark's traced passes rely on.

``perfbench/spans.py`` rebinds module-level names of the package to record
spans, and reads the memo caches for its counters.  A rename in ``src/``
would break ``perfbench/run.py --trace 1`` without failing anything else, so
these tests load that module by path (never calling its ``install``) and
resolve every name it uses."""

import importlib.util
from pathlib import Path

import pytest

from srscorr import correlation, ppoly

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("path, attr, layer", spans.BOUNDARIES, ids=[f"{p}.{a}" for p, a, _ in spans.BOUNDARIES])
def test_each_boundary_owner_has_a_callable_under_its_name(path, attr, layer):
    assert callable(getattr(spans._owner(path), attr, None)), layer


def test_each_cache_counter_resolves():
    counters = spans.cache_counters()
    assert {"ppoly.p0_cache_entries", "ppoly.p_cache_entries"} <= counters.keys()
    for fname in spans.CACHED_KERNELS:
        assert f"exactnum.{fname}.lookups" in counters


def test_weighted_prefix_poly_calls_the_rebindable_faulhaber_kernel(monkeypatch):
    # the span exactnum.power_sum_coefficients is recorded where ppoly sees it
    seen = []
    kernel = ppoly.power_sum_coefficients
    monkeypatch.setattr(ppoly, "power_sum_coefficients", lambda m: seen.append(m) or kernel(m))
    ppoly.weighted_prefix_poly(ppoly.Poly([1, 2, 3]))
    assert seen == [0, 1, 2, 3]


def test_alpha_coefficients_calls_the_rebindable_suffix_kernel(monkeypatch):
    # the span ppoly.p0_eval is recorded where correlation sees it
    seen = []
    kernel = correlation.p0_eval
    monkeypatch.setattr(correlation, "p0_eval", lambda *args: seen.append(args) or kernel(*args))
    correlation.alpha_coefficients(6)
    assert seen


def test_alpha_table_corr_calls_the_rebindable_falling_factorial(monkeypatch):
    # the span exactnum.falling_factorial is recorded where correlation sees it
    seen = []
    kernel = correlation.falling_factorial
    monkeypatch.setattr(correlation, "falling_factorial", lambda *args: seen.append(args) or kernel(*args))
    correlation.alpha_coefficients(3).corr(10, 4)
    assert seen == [(10, 3)]
