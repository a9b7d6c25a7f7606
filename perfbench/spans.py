"""Boundary spans for the traced benchmark passes.

``install`` rebinds the names that one srscorr module imported from another
(``srscorr.correlation.falling_factorial``, ``srscorr.cli.emit_report``, ...)
to recorders, so each call across that boundary leaves a span in memory:
(span id, parent span id, op id, layer name, start ns, end ns).  The package
source is not edited; a worker is a fresh process, so the bindings are never
restored.

A layer's self time is its span's duration minus the time its direct child
spans cover.  Spans nest strictly because each worker runs one op at a time
on one thread.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc

# (object holding the binding, attribute, layer name).  Rebinding the caller's
# name records exactly the calls made from that caller: falling_factorial is
# wrapped where correlation sees it, rational_str where report sees it, and
# p0_eval where correlation sees it, so ppoly's own recursion is not a span.
BOUNDARIES = (
    ("srscorr.cli", "run", "cli.run"),
    ("srscorr.cli", "emit_report", "report.emit_report"),
    ("srscorr.report", "rational_str", "exactnum.rational_str"),
    ("srscorr.cli", "convergence_scan", "correlation.convergence_scan"),
    ("srscorr.cli", "evaluate_correlation", "correlation.evaluate_correlation"),
    ("srscorr.correlation", "evaluate_correlation", "correlation.evaluate_correlation"),
    ("srscorr.correlation", "corr_exact", "correlation.corr_exact"),
    ("srscorr.correlation", "theorem_limit", "correlation.theorem_limit"),
    ("srscorr.correlation", "falling_factorial", "exactnum.falling_factorial"),
    ("srscorr.correlation", "binomial", "exactnum.binomial"),
    ("srscorr.correlation", "normal_moment", "exactnum.normal_moment"),
    ("srscorr.correlation", "p0_eval", "ppoly.p0_eval"),
    ("srscorr.cli", "p_poly", "ppoly.p_poly"),
    ("srscorr.correlation", "alpha_coefficients", "correlation.alpha_coefficients"),
    ("srscorr.correlation:AlphaTable", "corr", "correlation.AlphaTable.corr"),
    ("srscorr.ppoly", "power_sum_coefficients", "exactnum.power_sum_coefficients"),
    ("srscorr.cli", "monte_carlo_corr", "oracle.monte_carlo_corr"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in BOUNDARIES))
MC_LAYER = "oracle.monte_carlo_corr"
CACHED_KERNELS = ("bernoulli", "stirling_first_unsigned", "stirling_second", "power_sum_coefficients")
# Populations at or below this run the 65536-lane small-N regime of the sampler.
SMALL_N_MAX = 1000


def _owner(path: str):
    module, _, attr = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Recorder:
    """Spans of one worker pass, kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.mc_calls: dict[int, tuple[int, int]] = {}  # span id -> (N, trials)
        self.op = 0
        self._stack = [0]
        self._next_id = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def recorded(*args, **kwargs):
            self._next_id += 1
            sid, parent = self._next_id, stack[-1]
            if name == MC_LAYER:
                self.mc_calls[sid] = (args[1], args[3])  # (k, N, n, trials, seed)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, t0, t1))

        return recorded

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per layer (zeros for an unused layer)."""
        covered: dict[int, int] = {}
        for sid, parent, _, _, t0, t1 in self.spans:
            covered[parent] = covered.get(parent, 0) + (t1 - t0)
        stats = {name: [0, 0, 0] for name in LAYERS}
        for sid, _, _, name, t0, t1 in self.spans:
            entry = stats[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - covered.get(sid, 0)
        return {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9} for name, (c, t, s) in stats.items()}

    def mc_rates(self) -> dict[str, list[float]]:
        """[trials, seconds] summed over sampler calls, per N regime."""
        out = {"small_n": [0, 0.0], "large_n": [0, 0.0]}
        for sid, _, _, name, t0, t1 in self.spans:
            if sid in self.mc_calls:
                N, trials = self.mc_calls[sid]
                entry = out["small_n" if N <= SMALL_N_MAX else "large_n"]
                entry[0] += trials
                entry[1] += (t1 - t0) / 1e9
        return out


def install() -> Recorder:
    recorder = Recorder()
    for path, attr, name in BOUNDARIES:
        owner = _owner(path)
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr)))
    return recorder


def install_alloc_probe() -> dict:
    """Wrap only the sampler with tracemalloc and keep the largest peak it
    allocates in one call.  tracemalloc slows the sampler about 2.5x, so this
    runs in a pass of its own, never in a timed or span-traced pass."""
    peak = {"bytes": 0}
    cli = _owner("srscorr.cli")
    sampler = cli.monte_carlo_corr

    def probed(*args, **kwargs):
        tracemalloc.start()
        try:
            return sampler(*args, **kwargs)
        finally:
            peak["bytes"] = max(peak["bytes"], tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    cli.monte_carlo_corr = probed
    return peak


def cache_counters() -> dict[str, float]:
    """Memo-cache sizes and functools hit ratios, read without mutating them."""
    from srscorr import exactnum, ppoly

    out: dict[str, float] = {
        "ppoly.p0_cache_entries": len(ppoly._P0_CACHE),
        "ppoly.p_cache_entries": len(ppoly._P_CACHE),
    }
    for fname in CACHED_KERNELS:
        info = getattr(exactnum, fname).cache_info()
        lookups = info.hits + info.misses
        out[f"exactnum.{fname}.lookups"] = lookups
        out[f"exactnum.{fname}.hits"] = info.hits
    return out
