"""Ground-truth oracles for the inclusion correlations: exhaustive
enumeration, hypergeometric inclusion probabilities, and a reproducible
Monte Carlo estimator.

Reproducibility contract
------------------------
All randomness comes from SplitMix64, a public 64-bit generator chosen here
because it is tiny enough to restate completely (so results are
reproducible from this docstring alone, on any platform):

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output: z XOR (z >> 31)

Bounded draws use unbiased rejection: draw a 64-bit z, accept z mod bound
when z < 2^64 - (2^64 mod bound), else redraw; the bound runs from 1 to
2^64.  ``sample_srs`` performs a partial Fisher-Yates shuffle consuming
exactly n bounded draws (one per selected position) and returns the sorted
member labels; each bounded draw consumes one or more raw outputs.

``monte_carlo_corr`` partitions its trials into chunks of size one: trial t
runs on a private SplitMix64 stream whose initial state is the (t+1)-th raw
output of a SplitMix64 seeded with the user seed.  Results are therefore
independent of batching/worker layout and bit-identical across runs and
platforms.  Its memory is O(k) per lane whatever N is, and it requires
N < 2^64.  Where lanes are few and N <= 2^32, the lockstep replay mixes the
candidate outputs of a block of Fisher-Yates steps from step i in one NumPy
call.  Every limit in the block is above 2^64 - 1 - (N - i), so a block whose
outputs are all at most that value is accepted whole; otherwise it is cut at
the first step with an output above it, and that step is drawn alone with its
own limit, so blocking, too, leaves every draw unchanged.  Partners are
narrowed to the position type before the step is added.  Where a step
expects few partner hits on the k tracked labels (8 lanes k < N - i), the
tracker then applies only the block's steps that move a tracked label; the
skipped steps are still drawn, so every draw is unchanged here as well.  The mean is the exactly-rounded
sum (``math.fsum``) of the per-trial products divided by the trial count; the
reported stderr is the Bessel-corrected sample standard deviation divided by
sqrt(trials).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .correlation import _check_corr_digits
from .errors import DomainError, EnumerationBoundError, check_at_least, check_budget, check_design, int_str

__all__ = [
    "SplitMix64",
    "DEFAULT_MC_SEED",
    "ENUMERATION_BUDGET",
    "MC_STEP_BUDGET",
    "trial_stream_seed",
    "sample_srs",
    "hypergeom_inclusion_prob",
    "brute_force_corr",
    "McEstimate",
    "monte_carlo_corr",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Seed used by the CLI and the acceptance checks when none is given.
DEFAULT_MC_SEED = 271828

#: Hard ceiling on C(N, n)(n + k + 6), the steps of an exhaustive enumeration, where a
#: sample costs about 6 steps more than its n + k: at most about 0.45 s on a 2-core host.
ENUMERATION_BUDGET = 10_000_000

#: Hard ceiling on trials x max(n, 1), the lane-steps of one Monte Carlo run
#: (a batch seeds its states even when n = 0): about 40 s of small-N and 90 s
#: of large-N sampling on a 2-core host.
MC_STEP_BUDGET = 1 << 32

# Monte Carlo batch shape: at most this many lanes, and at most this many
# tracker cells (lanes x k) per batch, so sampler memory is bounded by k alone.
# At 32768 lanes each lane-sized uint64 array is 256 KiB, and a k = 5 run
# peaks near 1.44 MB traced.  _MAX_LANES also caps the draws (steps x lanes)
# of one NumPy block, so few lanes still make large calls and a block's two
# uint64 scratch arrays are no larger than a full batch's rows.
# A block from step i is cut where an output is above 2^64 - 1 - (N - i), with
# chance under N / 2^64 per draw, so a full block is cut with chance under
# N / 2^49 and blocks stay nearly whole up to N ~ 2^49; they collapse only
# near 2^63.  Blocks are used only up to 2^32, a conservative bound that
# keeps the one-step cost for larger N.
_MAX_LANES = 32768
_TRACKER_BUDGET = 1 << 20
_BLOCK_MAX_N = 1 << 32


def _mix64(z: int) -> int:
    """SplitMix64 output scrambler (the three xor-shift-multiply steps)."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The SplitMix64 generator exactly as specified in the module docstring."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _mix64(self.state)

    def next_below(self, bound: int) -> int:
        """Unbiased uniform draw from {0, ..., bound-1} by rejection."""
        if not 1 <= bound <= 1 << 64:
            raise DomainError(f"next_below requires 1 <= bound <= 2^64, got {int_str(bound)}")
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            z = self.next_uint64()
            if z < threshold:
                return z % bound


def trial_stream_seed(seed: int, t: int) -> int:
    """Initial state of the private stream for trial t: the (t+1)-th raw
    output of a SplitMix64 seeded with ``seed``.  (Chunk size is one, so the
    chunk index is the trial index.)"""
    check_at_least("trial_stream_seed", 0, t=t)
    return _mix64((seed + (t + 1) * _GOLDEN) & _MASK64)


def sample_srs(N: int, n: int, rng: SplitMix64) -> tuple[int, ...]:
    """Draw a uniform n-subset of {0, ..., N-1} by partial Fisher-Yates and
    return its member labels, sorted.

    Position i (0-based, i < n) swaps with a uniform position in [i, N);
    the sample is the first n slots of the permutation.  Consumes exactly n
    bounded draws from ``rng``.  Only displaced slots of the permutation are
    stored, so memory is O(n) whatever N is.
    """
    if N < 0 or not 0 <= n <= N:
        raise DomainError(f"sample_srs requires 0 <= n <= N, got n={int_str(n)}, N={int_str(N)}")
    moved: dict[int, int] = {}  # position -> the label now there, where not its own
    members = []
    for i in range(n):
        j = i + rng.next_below(N - i)
        members.append(moved.get(j, j))
        moved[j] = moved.pop(i, i)  # slot i is final; no later step reads it
    return tuple(sorted(members))


def hypergeom_inclusion_prob(k: int, N: int, n: int) -> Fraction:
    """P(k fixed units all fall in the sample) = C(N-k, n-k) / C(N, n),
    which is 0 when k > n."""
    check_design("hypergeom_inclusion_prob", k, N, n)
    if k > n:
        return Fraction(0)
    return Fraction(comb(N - k, n - k), comb(N, n))


def brute_force_corr(k: int, N: int, n: int, members=None) -> Fraction:
    """Exact Corr(k) by enumerating every n-subset of {0, ..., N-1}.

    Accumulates prod_{A in H} (1_A - n/N) over all C(N, n) equally weighted
    samples, using the integer rescaling (N 1_A - n) / N so the running sum
    stays in plain integers.  ``members`` picks the unit set H (default
    {0, .., k-1}); by exchangeability the result must not depend on it.
    Refuses to run when its C(N, n)(n + k + 6) steps exceed ``ENUMERATION_BUDGET``
    or its result's digits, as ``corr_exact`` bounds them, exceed
    ``RESULT_DIGIT_BUDGET``: N^k grows even where C(N, n) = 1.
    """
    check_design("brute_force_corr", k, N, n)
    _check_corr_digits("brute_force_corr", k, N)
    # C(N, i) for i up to min(n, N - n): it rises until i = N/2, so the first cost past the budget is found without
    # computing C(N, n) in full.  A sample costs n + k steps, and drawing it and building its set about 6 more.
    for count in itertools.accumulate(range(min(n, N - n)), lambda c, i: c * (N - i) // (i + 1), initial=1):
        check_budget("brute_force_corr", "the step count C(N, n)(n + k + 6)", count * (n + k + 6), ENUMERATION_BUDGET,
                     EnumerationBoundError)
    if members is None:
        members = tuple(range(k))
    else:
        members = tuple(members)
        if len(members) != k:
            raise DomainError(f"H has {len(members)} units but k={int_str(k)}")
    if len(set(members)) != k or any(not 0 <= a < N for a in members):
        shown = ", ".join(map(int_str, members))
        raise DomainError(f"H must be k distinct units from 0..{int_str(N - 1)}, got ({shown})")
    total = 0
    for sample in itertools.combinations(range(N), n):
        inside = set(sample)
        prod = 1
        for a in members:
            prod *= (N - n) if a in inside else -n
        total += prod
    return Fraction(total, N**k * count)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate of Corr(k): sample mean of the indicator
    products, its standard error, and the provenance needed to rerun it."""

    k: int
    N: int
    n: int
    trials: int
    seed: int
    mean: float
    stderr: float


def _intersection_histogram(k: int, N: int, n: int, trials: int, seed: int) -> list[int]:
    """Histogram of |sample ∩ {0..k-1}| over all trials.

    Lockstep replay of ``sample_srs``: lane t holds the SplitMix64 stream
    seeded with ``trial_stream_seed(seed, t)``, and every lane runs the same
    partial Fisher-Yates schedule (``_fisher_yates_blocks``), so each lane
    reproduces the scalar sampler draw for draw.  The permutation itself is
    never built: a ``k x lanes`` tracker holds the current positions of
    labels 0..k-1, in the narrowest unsigned type that holds N - 1, and the
    step-i swap of positions i and j moves a tracked label at i to j and one
    at j to i.  ``_track_swaps`` applies only the steps that move a tracked
    label, where such steps are sparse; every draw is made all the same.
    After n steps a trial's count is the number of tracked labels at
    positions below n.  Memory is O(k) per lane and independent of N; a
    batch runs at most ``_MAX_LANES`` lanes, so at small k the sampler's
    arrays stay near 1.5 MB whatever ``trials`` is, and the reproducibility
    contract makes the batch size invisible in the result.
    """
    hist = np.zeros(k + 1, dtype=np.int64)
    width = np.min_scalar_type(N - 1)
    lanes_cap = max(1, min(_MAX_LANES, _TRACKER_BUDGET // max(k, 1)))
    for done in range(0, trials, lanes_cap):
        lanes = min(lanes_cap, trials - done)
        states = np.arange(done + 1, done + lanes + 1, dtype=np.uint64)
        states *= np.uint64(_GOLDEN)
        states += np.uint64(seed & _MASK64)
        _mix64_vec(states)  # trial_stream_seed, in place
        hist += _tracked_histogram(k, N, n, lanes, _fisher_yates_blocks(states, N, n, width))
    return [int(c) for c in hist]


def _tracked_histogram(k: int, N: int, n: int, lanes: int, blocks):
    """Bincount over ``lanes`` lanes of the labels 0..k-1 below n after ``(i, block)`` steps."""
    pos = np.repeat(np.arange(k, dtype=np.min_scalar_type(N - 1))[:, np.newaxis], lanes, axis=1)
    for i, block in blocks:
        _track_swaps(pos, i, block, N)
    counts = (pos < n).sum(axis=0, dtype=np.min_scalar_type(k))
    return np.bincount(counts, minlength=k + 1)


def _track_swaps(pos, i: int, block, N: int) -> None:
    """Apply Fisher-Yates steps i, i+1, ... to the ``k x lanes`` tracker
    ``pos`` in place; row r of ``block`` holds every lane's partner at step
    i + r.

    A step moves a tracked label only at an event: its partner lands on a
    tracked position, or the step reaches one.  Single-row blocks, an empty
    tracker, and blocks in which a step expects at least 1/8 partner hit over
    all lanes (8 lanes k >= N - i) swap row by row.  Otherwise the event rows
    are found up front, by k compares of the block against ``pos`` and the
    rows whose step reaches a tracked position (which covers every step below
    k, as labels 0..k-1 start there), and only those are applied.  A label
    that a step sends ahead to its partner's position is the only one that can
    meet a row not found up front (a label sent to the step's own position is
    final), so each such label adds the later rows that land on or reach its
    new place.  Both paths apply a step with ``_swap``.

    The 1/8 is a cost threshold; either path gives the same tracker.  Timed
    on a 2-core host with k = 2..5 and 20..500 lanes, the event path took
    0.55-0.8 of the row-by-row time at 1/8 expected hits per step and broke
    even near 1/4.
    """
    rows, lanes = block.shape
    k = len(pos)
    if rows == 1 or not k or 8 * lanes * k >= N - i:
        for s, j in enumerate(block, i):
            _swap(pos, s, j)
        return
    hit = block == pos[0]
    for p in pos[1:]:
        hit |= block == p
    pending = hit.any(axis=1)
    pending[pos[(pos >= i) & (pos < i + rows)] - i] = True  # rows that reach a tracked label
    r = int(pending.argmax())
    while pending[r]:
        s, j = i + r, block[r]
        _swap(pos, s, j)
        sent = np.flatnonzero((pos == j).any(axis=0))  # the labels at j now are those that were at s
        if sent.size:  # labels sent ahead from s to j
            ahead = j[sent]
            pending[r + 1 :] |= (block[r + 1 :, sent] == ahead).any(axis=1)
            pending[ahead[ahead < i + rows] - i] = True
        pending[r] = False  # only now: a step that swaps s with itself marks its own row
        r += int(pending[r:].argmax())


def _swap(pos, s: int, j) -> None:
    """Apply one Fisher-Yates step to the tracker ``pos`` in place: every lane
    swaps positions s and j (its entry of ``j``), which moves the tracked
    labels found at either.  No mask outlives the statement: one held across
    the multiply costs a full-batch step one more tracker-sized array."""
    pos ^= ((pos == s) | (pos == j)) * (j ^ s)  # x ^ (s ^ j) maps s to j and j to s


def _fisher_yates_blocks(states, N: int, n: int, width):
    """Yield ``(i, block)``: row r of the ``width`` array ``block`` holds
    every lane's step-(i + r) swap partner, for i + r = 0..n-1, advancing
    ``states`` in place.

    Where lanes are few (and N <= ``_BLOCK_MAX_N``), one block from step i
    mixes the candidate outputs of up to ``_MAX_LANES // lanes`` steps at
    once; a step's candidate is the lane's next raw output.  Each row's
    largest accepted output, ``_MASK64 - 2^64 mod b`` for its bound b, is
    above ``_MASK64 - (N - i)``, since 2^64 mod b <= b - 1 < N - i.  So a
    block whose largest output is at most that value is accepted whole by
    one ``max``; otherwise it is cut at the first step holding an output
    above it, ``states`` advances past the steps before it only, and that
    step goes through ``_draw_below``, which reads its exact limit from the
    same states, as a one-row block.  Blocking therefore changes no draw.
    All draws of a call mix in the same two uint64 scratch arrays, reused
    from step to step.  Each reduced draw is below its bound N - (i + r), so
    it is narrowed to ``width`` first and the step i + r added there: the
    sum is at most N - 1, which ``width`` holds.  Apart from the redraws of
    rejected lanes, that narrowed array is the one lane-sized array a step
    allocates.
    """
    rows_cap = max(1, min(n, _MAX_LANES // states.size)) if N <= _BLOCK_MAX_N else 1
    ahead = np.arange(1, rows_cap + 1, dtype=np.uint64)[:, np.newaxis] * np.uint64(_GOLDEN)  # wraps mod 2^64
    z_rows, tmp_rows = np.empty((2, rows_cap, states.size), dtype=np.uint64)
    z_row, tmp_row = z_rows[0], tmp_rows[0]
    i = 0
    while i < n:
        rows = min(rows_cap, n - i)
        if rows > 1:
            z = _mix64_vec(np.add(states, ahead[:rows], out=z_rows[:rows]), tmp_rows[:rows])
            safe = _MASK64 - (N - i)  # every row accepts any output up to here
            ok = int(np.flatnonzero((z > safe).any(axis=1))[0]) if z.max() > safe else rows
            states += np.uint64(ok * _GOLDEN & _MASK64)
            if ok:
                z = z[:ok]
                z %= np.array(range(N - i, N - i - ok, -1), dtype=np.uint64)[:, np.newaxis]
                block = z.astype(width)
                block += np.arange(i, i + ok, dtype=width)[:, np.newaxis]
                yield i, block
                i += ok
            if ok == rows:
                continue
        row = _draw_below(states, N - i, z_row, tmp_row).astype(width)
        row += width.type(i)
        yield i, row[np.newaxis]
        i += 1


def _draw_below(states, bound: int, z, tmp):
    """One bounded draw per lane, in lockstep: ``SplitMix64.next_below(bound)``
    for every lane's stream.  Advances ``states`` (a uint64 array) in place,
    redrawing only the lanes whose output exceeds the largest accepted
    output, ``_MASK64 - 2^64 mod bound`` (which fits in uint64 for every
    bound), and returns the accepted draws reduced below ``bound``
    (1 <= bound < 2^64).  ``z`` and ``tmp`` are the caller's uint64 scratch
    arrays shaped like ``states``: the outputs are mixed from ``states``
    straight into ``z``, which also returns the draws."""
    golden = np.uint64(_GOLDEN)
    states += golden
    _mix64_vec(states, tmp, out=z)
    limit = _MASK64 - (1 << 64) % bound
    if z.max() > limit:  # otherwise every draw is accepted
        reject = z > limit
        while reject.any():
            states[reject] += golden
            z[reject] = _mix64_vec(states[reject])
            reject = z > limit
    # z %= bound, as z - (z // bound) * bound: division by one scalar is far faster than remainder
    bound = np.uint64(bound)
    tmp = np.floor_divide(z, bound, out=tmp)
    tmp *= bound
    z -= tmp
    return z


def _mix64_vec(z, tmp=None, out=None):
    """``_mix64`` applied to a uint64 array, in place or, given ``out``,
    into ``out`` with ``z`` left as it was; returns the mixed array.  ``tmp``
    and ``out``, uint64 arrays shaped like ``z``, are optional scratch."""
    tmp = np.right_shift(z, np.uint64(30), out=tmp)  # allocated here when no scratch is given
    z = np.bitwise_xor(z, tmp, out=z if out is None else out)  # the first xor writes the result array
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def monte_carlo_corr(k: int, N: int, n: int, trials: int, seed: int = DEFAULT_MC_SEED) -> McEstimate:
    """Monte Carlo estimate of Corr(k) with H = {0, ..., k-1}.

    Each trial draws an independent simple random sample (see the module
    docstring for the exact stream layout) and evaluates
    prod_{A in H} (1_A - n/N).  That product depends on the sample only
    through the intersection size |sample ∩ H|, so the trials are reduced to
    an exact integer histogram first; the mean and stderr are then assembled
    with correctly-rounded float summation, making the estimate bit-identical
    across runs, platforms, and batch sizes.
    """
    check_at_least("monte_carlo_corr", 1, trials=trials)
    check_design("monte_carlo_corr", k, N, n)
    if N >= 1 << 64:  # the lockstep sampler holds states, bounds and positions in at most 64 bits
        raise DomainError(f"monte_carlo_corr requires N < 2^64, got N={int_str(N)}")
    check_budget("monte_carlo_corr", "the lane-step count trials x max(n, 1)", trials * max(n, 1), MC_STEP_BUDGET)
    hist = _intersection_histogram(k, N, n, trials, seed)
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
    if trials > 1:
        ss = math.fsum(hist[i] * (values[i] - mean) ** 2 for i in range(k + 1))
        stderr = math.sqrt(ss / (trials - 1)) / math.sqrt(trials)
    else:
        stderr = 0.0
    return McEstimate(k=k, N=N, n=n, trials=trials, seed=seed, mean=mean, stderr=stderr)
