"""Host-speed calibration for the timing metrics.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 1.7x in phases from seconds to minutes long.  On such a host a process's
CPU time tracks its wall time, so CPU time does not help.  Taking each op's
median over the passes of a run removes the short phases; a phase that
covers a whole run moves every time in it alike.  So the worker times a
short fixed stdlib kernel (big-integer products and remainders, a dict loop,
a list sort and a 1 MiB memory copy) before each op and after the last,
outside the timed region, and the run multiplies every time it reports by
``REFERENCE_S / median kernel time``.

A scaled time reads as seconds at the reference host speed, the speed at
which the kernel takes ``REFERENCE_S``.  The kernel is the benchmark's own
code and uses no numpy, so no change to srscorr moves it and it adds nothing
to the worker's set-up or peak RSS: a change that makes srscorr faster makes
every scaled time smaller by the same share as the raw one.  Each run prints
the raw times and the scale factor beside the scaled ones.

Set-up (a process start and ``import srscorr``) drifts apart from the kernel
over tens of minutes: two sets of runs 40 minutes apart gave set-up
medians of 0.27 s and 0.18-0.20 s.  A second kernel that started a
fresh interpreter did not track it either: over a set of runs it scaled
some set-ups by 0.6 and others by 1, so it is not used.
"""

from __future__ import annotations

import time

# The kernel's median time on a 2-core virtualised 2.1 GHz Xeon host.
REFERENCE_S = 0.0037

_BASE = 3**3000
_FLOATS = [((i * 7919) % 10007) / 10007 for i in range(6000)]
_BLOCK = bytearray(1 << 20)


def _kernel() -> int:
    acc = 0
    for i in range(60):
        acc += (_BASE * (_BASE + i)) % 1_000_003
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 977] = table.get(i % 977, 0) + i
    for _ in range(8):
        acc += len(bytes(_BLOCK))
    return acc + len(table) + len(sorted(_FLOATS))


def sample() -> float:
    """One kernel timing, in seconds."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start

