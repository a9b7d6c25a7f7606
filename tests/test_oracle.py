"""Tests for the independent oracles: the SplitMix64 generator, the
sampler, exhaustive enumeration, and the Monte Carlo estimator."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srscorr import oracle
from srscorr.correlation import corr_exact
from srscorr.errors import DomainError
from srscorr.oracle import (
    DEFAULT_MC_SEED,
    SplitMix64,
    brute_force_corr,
    hypergeom_inclusion_prob,
    monte_carlo_corr,
    sample_srs,
    trial_stream_seed,
)
from srscorr.verify import _unmix64


# ---------------------------------------------------------------------------
# generator


def test_splitmix64_reference_stream():
    # first outputs of the seed-0 stream, from the published reference
    # implementation of SplitMix64
    rng = SplitMix64(0)
    assert rng.next_uint64() == 0xE220A8397B1DCDAF
    assert rng.next_uint64() == 0x6E789E6AA1B965F4
    assert rng.next_uint64() == 0x06C45D188009454F


def test_splitmix64_streams_are_deterministic():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_uint64() for _ in range(50)] == [b.next_uint64() for _ in range(50)]


def test_next_below_range_and_determinism():
    rng = SplitMix64(42)
    draws = [rng.next_below(7) for _ in range(2000)]
    assert all(0 <= d < 7 for d in draws)
    assert set(draws) == set(range(7))
    rng2 = SplitMix64(42)
    assert draws == [rng2.next_below(7) for _ in range(2000)]


def test_next_below_handles_degenerate_and_power_of_two_bounds():
    rng = SplitMix64(7)
    assert all(rng.next_below(1) == 0 for _ in range(10))
    draws = [rng.next_below(64) for _ in range(1000)]
    assert all(0 <= d < 64 for d in draws)
    with pytest.raises(DomainError):
        rng.next_below(0)


def test_next_below_accepts_2_64_and_rejects_larger_bounds():
    # 2^64 takes every raw output as is; a larger bound has no acceptance
    # zone at all and used to loop forever
    assert SplitMix64(0).next_below(2**64) == 0xE220A8397B1DCDAF
    with pytest.raises(DomainError):
        SplitMix64(0).next_below(2**64 + 1)


def test_trial_stream_seeds_are_spread_out():
    seeds = [trial_stream_seed(DEFAULT_MC_SEED, t) for t in range(10000)]
    assert len(set(seeds)) == len(seeds)
    assert trial_stream_seed(DEFAULT_MC_SEED, 0) == trial_stream_seed(DEFAULT_MC_SEED, 0)
    assert trial_stream_seed(DEFAULT_MC_SEED, 0) != trial_stream_seed(DEFAULT_MC_SEED + 1, 0)


# ---------------------------------------------------------------------------
# sampler


def _dense_fisher_yates(N, n, rng):
    perm = list(range(N))
    for i in range(n):
        j = i + rng.next_below(N - i)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(sorted(perm[:n]))


@given(st.integers(0, 30).flatmap(lambda N: st.tuples(st.just(N), st.integers(0, N))), st.integers(0, 2**64 - 1))
def test_sample_srs_matches_a_dense_permutation(design, seed):
    # storing only the displaced slots must not change a single draw or member
    N, n = design
    rng, reference = SplitMix64(seed), SplitMix64(seed)
    assert sample_srs(N, n, rng) == _dense_fisher_yates(N, n, reference)
    assert rng.state == reference.state


def test_sample_srs_memory_does_not_grow_with_population():
    tracemalloc.start()
    try:
        members = sample_srs(10**12, 3, SplitMix64(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(members)) == 3 and all(0 <= a < 10**12 for a in members)
    assert peak < 64 * 2**10, peak


def test_sample_srs_domain_errors():
    rng = SplitMix64(0)
    assert sample_srs(0, 0, rng) == ()  # empty population is fine
    with pytest.raises(DomainError):
        sample_srs(4, 5, rng)
    with pytest.raises(DomainError):
        sample_srs(4, -1, rng)
    with pytest.raises(DomainError):
        sample_srs(-1, 0, rng)


# ---------------------------------------------------------------------------
# inclusion probabilities and enumeration


def test_hypergeom_inclusion_prob_values():
    assert hypergeom_inclusion_prob(0, 9, 3) == 1
    assert hypergeom_inclusion_prob(1, 10, 4) == Fraction(2, 5)
    assert hypergeom_inclusion_prob(2, 6, 3) == Fraction(1, 5)
    assert hypergeom_inclusion_prob(4, 6, 3) == 0  # more units than the sample holds


def test_hypergeom_inclusion_prob_product_rule():
    # P(first k all sampled) telescopes: prod_{i<k} (n-i)/(N-i).
    for N in range(1, 12):
        for n in range(0, N + 1):
            for k in range(0, n + 1):
                expected = math.prod(
                    [Fraction(n - i, N - i) for i in range(k)], start=Fraction(1)
                )
                assert hypergeom_inclusion_prob(k, N, n) == expected


def test_brute_force_corr_known_value():
    assert brute_force_corr(2, 6, 3) == Fraction(-1, 20)


def test_brute_force_is_exchangeable_in_the_unit_set():
    # Corr(k) must not depend on which k units are tracked.
    for members in [(0, 1, 2), (3, 5, 7), (1, 4, 8), (6, 7, 8)]:
        assert brute_force_corr(3, 9, 4, members=members) == corr_exact(3, 9, 4)


def test_brute_force_validates_unit_set():
    with pytest.raises(DomainError):
        brute_force_corr(3, 9, 4, members=(0, 1))
    with pytest.raises(DomainError):
        brute_force_corr(3, 9, 4, members=(0, 1, 1))
    with pytest.raises(DomainError):
        brute_force_corr(3, 9, 4, members=(0, 1, 9))


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def test_monte_carlo_depends_on_seed():
    a = monte_carlo_corr(2, 10, 5, trials=20000, seed=1)
    b = monte_carlo_corr(2, 10, 5, trials=20000, seed=2)
    assert a.mean != b.mean


def test_monte_carlo_brackets_exact_value():
    est = monte_carlo_corr(2, 10, 5, trials=50000, seed=DEFAULT_MC_SEED)
    exact = float(corr_exact(2, 10, 5))
    assert est.stderr > 0
    assert abs(est.mean - exact) <= 6 * est.stderr


def test_monte_carlo_records_provenance():
    est = monte_carlo_corr(3, 12, 5, trials=100, seed=777)
    assert (est.k, est.N, est.n, est.trials, est.seed) == (3, 12, 5, 100, 777)


def test_monte_carlo_single_trial_has_zero_stderr():
    est = monte_carlo_corr(2, 10, 5, trials=1, seed=4)
    assert est.stderr == 0.0


def test_monte_carlo_extreme_orders():
    # k = 0: every product is the empty product 1
    est = monte_carlo_corr(0, 10, 5, trials=500, seed=9)
    assert est.mean == 1.0 and est.stderr == 0.0
    # n = N: the sample is everything, each factor is exactly 1 - f = 0
    est = monte_carlo_corr(2, 6, 6, trials=500, seed=9)
    assert est.mean == 0.0


def test_monte_carlo_validation():
    with pytest.raises(DomainError):
        monte_carlo_corr(2, 10, 5, trials=0)
    with pytest.raises(DomainError):
        monte_carlo_corr(2, 0, 0, trials=10)
    with pytest.raises(DomainError):
        monte_carlo_corr(2, 10, 11, trials=10)
    with pytest.raises(DomainError):
        monte_carlo_corr(11, 10, 5, trials=10)


def test_monte_carlo_population_must_fit_in_64_bits():
    est = monte_carlo_corr(2, 2**64 - 1, 3, trials=50, seed=1)
    assert est.N == 2**64 - 1 and est.trials == 50
    with pytest.raises(DomainError):
        monte_carlo_corr(2, 2**64, 3, trials=50)


@st.composite
def _mc_designs(draw):
    # a small population, or one just above 2^63 where each bound rejects 25-50% of raw outputs
    N = draw(st.one_of(st.integers(1, 40), st.integers(2**63 + 1, 2**63 + 2**62)))
    n = draw(st.integers(0, min(N, 40)))
    k = draw(st.integers(0, min(N, 40)))
    trials = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**64 - 1))
    max_lanes = draw(st.sampled_from([1, 7, 64, oracle._MAX_LANES]))
    blocks_past_2_32 = draw(st.booleans())
    return k, N, n, trials, seed, max_lanes, blocks_past_2_32


_LANES = oracle._MAX_LANES


@given(_mc_designs())
@example((0, 5, 3, 10, 1, 64, False))  # k = 0
@example((7, 7, 4, 50, 2, 7, False))  # k = N
@example((3, 9, 0, 20, 3, 1, False))  # n = 0
@example((3, 9, 9, 20, 4, 7, False))  # n = N
@example((40, 40, 20, 300, 5, _LANES, False))  # the largest order drawn
@example((3, 2**31 + 5, 5, 30, 6, 7, False))  # positions past 32 bits
@example((3, 10**12, 5, 30, 7, _LANES, False))  # a population no dense permutation fits
@example((4, 256, 255, 40, 8, 16, False))  # the widest population with 8-bit positions
@example((4, 257, 256, 300, 9, 64, False))  # position 256 needs 16 bits
@example((3, 65536, 40, 100, 10, 7, False))  # the widest population with 16-bit positions
@example((3, 65537, 40, 100, 11, 7, False))  # 32-bit positions
@example((2, 2**63 + 2**61, 40, 2, 12, 64, True))  # blocks past 2^32: 3/8 of raw outputs reject
@example((300, 400, 390, 5, 13, _LANES, False))  # counts past 255, wider than 8 bits
@example((3, 40, 30, 70, 14, 64, False))  # a 64-lane batch of one-row blocks, then 6 lanes in 10-row blocks
def test_monte_carlo_agrees_with_scalar_replay(design):
    # the lockstep draws, final stream states and histogram must reproduce a
    # plain per-trial replay of sample_srs on the same substreams, for any
    # lane cap, which sets both the batch size and the block size
    k, N, n, trials, seed, max_lanes, blocks_past_2_32 = design
    hist = [0] * (k + 1)
    draws, ends = [], []
    for t in range(trials):
        rng = SplitMix64(trial_stream_seed(seed, t))
        members = sample_srs(N, n, rng)
        hist[sum(1 for a in members if a < k)] += 1
        ends.append(rng.state)
        rng = SplitMix64(trial_stream_seed(seed, t))
        draws.append([i + rng.next_below(N - i) for i in range(n)])
    states = np.array([trial_stream_seed(seed, t) for t in range(trials)], dtype=np.uint64)
    with (
        mock.patch.object(oracle, "_MAX_LANES", max_lanes),
        mock.patch.object(oracle, "_BLOCK_MAX_N", 2**64 if blocks_past_2_32 else oracle._BLOCK_MAX_N),
    ):
        blocks = oracle._fisher_yates_blocks(states, N, n, np.dtype(np.uint64))
        rows = [row.tolist() for _, block in blocks for row in block]
        assert rows == [list(steps) for steps in zip(*draws)]
        assert states.tolist() == ends
        assert oracle._intersection_histogram(k, N, n, trials, seed) == hist
    f = n / N
    values = []
    for i in range(k + 1):
        v = 1.0
        for _ in range(i):
            v *= 1.0 - f
        for _ in range(k - i):
            v *= -f
        values.append(v)
    mean = math.fsum(hist[i] * values[i] for i in range(k + 1)) / trials
    est = monte_carlo_corr(k, N, n, trials=trials, seed=seed)
    assert est.mean == mean


_TIGHT_N = 274177  # divides 2^64 + 1, so 2^64 mod N = N - 1: the limit at bound N is _MASK64 - N + 1


@pytest.mark.parametrize(
    "N, step, output, sizes, redraws",
    [
        (1000, 5, oracle._MASK64 - 1000, [12], 0),  # at the block's one-max bound: accepted whole
        (1000, 5, oracle._MASK64 - 1000 + 1, [5, 1, 6], 0),  # one past it: cut at step 5, whose own draw accepts it
        (_TIGHT_N, 0, oracle._MASK64 - _TIGHT_N + 1, [1, 11], 0),  # step 0's own limit: cut there and accepted
        (_TIGHT_N, 0, oracle._MASK64 - _TIGHT_N + 2, [1, 11], 1),  # one past that limit: cut there and redrawn
    ],
    ids=["one-max-bound", "one-max-bound-plus-1", "tight-row-limit", "tight-row-limit-plus-1"],
)
def test_block_acceptance_at_its_edges(N, step, output, sizes, redraws):
    # lane 2's raw output at ``step`` of a 12-step block from step 0 is set to
    # ``output``, at or just past the one-max bound _MASK64 - N; the partners,
    # block sizes and final states must reproduce the scalar replay
    # i + next_below(N - i) of each lane's stream, and lane 2 redraws only
    # when ``output`` is past its step's own limit
    n = 12
    seeds = [trial_stream_seed(17, t) for t in range(4)]
    seeds[2] = (_unmix64(output) - (step + 1) * oracle._GOLDEN) % 2**64
    rng = SplitMix64(seeds[2])
    assert [rng.next_uint64() for _ in range(step + 1)][-1] == output
    states = np.array(seeds, dtype=np.uint64)
    blocks = [block.tolist() for _, block in oracle._fisher_yates_blocks(states, N, n, np.min_scalar_type(N - 1))]
    rngs = [SplitMix64(seed) for seed in seeds]
    replay = [[i + rng.next_below(N - i) for rng in rngs] for i in range(n)]
    assert [row for block in blocks for row in block] == replay
    assert [len(block) for block in blocks] == sizes
    assert states.tolist() == [rng.state for rng in rngs]
    assert (rngs[2].state - seeds[2]) % 2**64 == (n + redraws) * oracle._GOLDEN % 2**64


def _scalar_histogram(k, N, n, trials, seed):
    hist = [0] * (k + 1)
    for t in range(trials):
        members = sample_srs(N, n, SplitMix64(trial_stream_seed(seed, t)))
        hist[sum(1 for a in members if a < k)] += 1
    return hist


@st.composite
def _sparse_designs(draw):
    # few lanes and a population large enough that 8 lanes k < N - i, where the
    # tracker applies only the steps that move a tracked label
    lanes = draw(st.integers(1, 60))
    N = draw(st.one_of(st.integers(300, 5000), st.integers(5000, 100_000)))
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, min(N, 12_000 // lanes)))
    seed = draw(st.integers(0, 2**64 - 1))
    max_lanes = draw(st.sampled_from([256, oracle._MAX_LANES]))
    return k, N, n, lanes, seed, max_lanes


@settings(max_examples=15)
@given(_sparse_designs())
@example((2, 1268, 523, 60, 1, _LANES))
@example((4, 3358, 1555, 20, 2, _LANES))
@example((1, 326, 200, 20, 3, _LANES))
def test_event_tracker_agrees_with_scalar_replay(design):
    # a label sent ahead by a step that reaches it can meet later rows of the
    # same block that no up-front compare found
    k, N, n, lanes, seed, max_lanes = design
    with mock.patch.object(oracle, "_MAX_LANES", max_lanes):
        assert oracle._intersection_histogram(k, N, n, lanes, seed) == _scalar_histogram(k, N, n, lanes, seed)


def _events_after_k(k, N, n, seed):
    # scalar Fisher-Yates replay of one trial, counting the steps i >= k whose
    # partner lands on a tracked label and those that reach one
    rng = SplitMix64(seed)
    where = list(range(k))  # where[a]: the position of label a
    hits = reaches = 0
    for i in range(n):
        j = i + rng.next_below(N - i)
        if i >= k:
            hits += j != i and j in where
            reaches += i in where
        where = [j if p == i else i if p == j else p for p in where]
    return hits, reaches


def test_event_tracker_meets_both_event_kinds_after_step_k():
    k, N, n, lanes, seed = 3, 2000, 1000, 20, 11
    assert 8 * lanes * k < N - n  # every block takes the event path after step k
    events = [_events_after_k(k, N, n, trial_stream_seed(seed, t)) for t in range(lanes)]
    assert sum(h for h, _ in events) > 0 and sum(r for _, r in events) > 0, events
    assert oracle._intersection_histogram(k, N, n, lanes, seed) == _scalar_histogram(k, N, n, lanes, seed)


@pytest.mark.parametrize(
    "design, limit_mb",
    [
        ((3, 90_000, 2_000, 180), 1.2),  # a few lanes: blocks of many steps
        ((5, 230, 33, 65536), 2.0),  # two batches of 32768 lanes, one step per block
    ],
)
def test_monte_carlo_memory_is_bounded_up_front(design, limit_mb):
    # blocks and tracker are sized by lanes and k, never by n: doubling the
    # steps leaves the peak where it was
    def peak_mb(k, N, n, trials):
        tracemalloc.start()
        try:
            monte_carlo_corr(k, N, n, trials, seed=3)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    k, N, n, trials = design
    peak, doubled = peak_mb(k, N, n, trials), peak_mb(k, N, 2 * n, trials)
    assert peak <= limit_mb and doubled <= limit_mb, (peak, doubled)
    assert abs(doubled - peak) <= 0.1 * peak, (peak, doubled)


@pytest.mark.parametrize(
    "design, mean, stderr",
    [
        ((2, 10, 5, 20000, 271828), "-0x1.a858793dd97f6p-6", "0x1.cced6c7db60edp-10"),
        ((5, 230, 15, 65536, 3501332431411006491), "0x1.e1eadf156bf28p-21", "0x1.51255cfb25a80p-20"),
        ((3, 90000, 1000, 180, 84900575075500574), "0x1.70396672a04e4p-19", "0x1.bca33341f16e6p-20"),
        ((8, 100, 37, 4096, 1), "-0x1.6ac8f4e85661fp-16", "0x1.7ba1300fc5272p-15"),
        ((4, 230, 20, 40000, 20), "-0x1.2027afffe97d0p-16", "0x1.94b512913e65ap-16"),  # 32768 + 7232 lanes
    ],
)
def test_monte_carlo_pinned_outputs(design, mean, stderr):
    # outputs of earlier samplers, to the bit: the first four rows of the
    # dense-permutation sampler this one replaced, the last of one 40000-lane
    # batch, which now runs as two
    est = monte_carlo_corr(*design)
    assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)
