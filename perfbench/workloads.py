"""Seeded op lists for the four benchmark workloads.

Each generator takes only the workload seed and returns the fixed op list one
worker pass runs, as plain JSON-able dicts.  The program under test only ever
sees the argv or call arguments built here.

Every list has a fixed shape: the number of ops, their verbs and their size
strata (order k, sample size, polynomial degree, output options) come from a
schedule, and the seed draws the values inside each stratum (fractions, grid
starts and factors, populations, MC seeds) or shuffles a fixed multiset.
That keeps the cost of a pass steady from seed to seed while the inputs, and
so the outputs, change.

Op kinds:
  cli    -- ``srscorr.cli.run(argv)`` in the worker process
  alpha  -- ``alpha_coefficients(k)`` then ``AlphaTable.corr(N, n)``
  proc   -- ``python -m srscorr argv`` as its own process
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor

# Loop type, client count and input ranges of each workload, and how many
# plain passes its timing metrics are taken over: about as many as fit in
# 25 s.  The reason for each workload is its "why" in BENCHMARK.json.
WORKLOADS = {
    "exact-scan": {
        "loop": "closed",
        "clients": 1,
        "passes": 12,
        "ranges": "16 scans at 16 geometric orders k=8..128 over 6-point --grid-geom grids from N~1e6 to ~1e7, 8 corr (8 orders k=8..118, N=1e6..1e7), "
        "8 limit (8 orders k=8..128); fractions p/q with q<=97 in [0.05,0.95]; output options cycle by slot over json, csv, --precision 30 or 80 "
        "and --out (workloads._RENDER)",
    },
    "poly-tables": {
        "loop": "closed",
        "clients": 1,
        "passes": 18,
        "ranges": "8 alpha tables at 8 geometric orders k=24..60 in ascending k, each with AlphaTable.corr at N=1e5..1e6; 8 ppoly verbs at the same orders, "
        "m=12..16 (the degrees 12,12,13,14,14,15,16,16 shuffled over the orders); then 3 alpha repeats, 3 ppoly "
        "repeats (m=13,15,16) and 3 ppoly extensions (m=12,14,16 to m+3) of earlier keys",
    },
    "mc-sampler": {
        "loop": "closed",
        "clients": 1,
        "passes": 12,
        "ranges": "10 mc ops N=215..235 with 65536 trials, n=6,9,..,33 and k=2..5 by slot; 6 mc ops N=8.5e4..9.5e4 "
        "with 16e6//N trials, n=740..2010 and k=2..4 by slot; per-op seeds drawn from the workload seed",
    },
    "cli-coldstart": {
        "loop": "closed",
        "clients": 1,
        "passes": 11,
        "ranges": "8 sequential python -m srscorr processes: 2 limit (k=2..40), 2 corr (k=2..20, N=100..1e4), "
        "2 ppoly (k=4..20, m=1..6), 2 mc (k=2..4, N=20..60, 1000..2000 trials)",
    },
}


def _fraction(rng: random.Random, lo: float = 0.05, hi: float = 0.95) -> Fraction:
    """A random p/q with q <= 97 inside [lo, hi]."""
    while True:
        q = rng.randint(3, 97)
        f = Fraction(rng.randint(1, q - 1), q)
        if lo <= f <= hi:
            return f


# Output options by op slot: every seed renders the op in a given slot the
# same way, so the seed moves no op between the cheap and the dear renderings.
_RENDER = (
    {"format": "json", "precision": 12, "out": False},
    {"format": "csv", "precision": 12, "out": False},
    {"format": "json", "precision": 30, "out": False},
    {"format": "json", "precision": 12, "out": True},
    {"format": "json", "precision": 12, "out": False},
    {"format": "json", "precision": 12, "out": False},
    {"format": "csv", "precision": 12, "out": False},
    {"format": "json", "precision": 80, "out": False},
    {"format": "csv", "precision": 12, "out": True},
    {"format": "json", "precision": 12, "out": False},
)


def _render_mode(slot: int) -> dict:
    """Output options for the cli op in ``slot``: json, csv, a higher precision or --out."""
    return dict(_RENDER[slot % len(_RENDER)])


def _cli_op(verb: str, params: dict, mode: dict) -> dict:
    argv = [verb]
    for key, value in params.items():
        if key == "grid_geom":
            argv += ["--grid-geom", value]
        else:
            argv += [f"--{key}", str(value)]
    if mode["format"] != "json":
        argv += ["--format", mode["format"]]
    if mode["precision"] != 12:
        argv += ["--precision", str(mode["precision"])]
    return {"kind": "cli", "verb": verb, "argv": argv, "params": params, **mode}


def _strata(lo: int, hi: int, count: int) -> list[int]:
    """``count`` orders spread geometrically from lo to hi."""
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def exact_scan(seed: int) -> list[dict]:
    rng = random.Random(seed)
    scans = []
    for slot, k in enumerate(_strata(8, 128, 16)):
        start = rng.randint(1_000_000, 2_000_000)
        ratio = (10_000_000 / start) ** (1 / 5)
        q = rng.randint(5, 20)
        factor = Fraction(round(q * ratio * rng.uniform(0.97, 1.03)), q)
        params = {"k": k, "f": str(_fraction(rng)), "grid_geom": f"{start}:{factor}:6"}
        scans.append(_cli_op("scan", params, _render_mode(slot)))
    corrs = []
    for slot, k in enumerate(_strata(8, 118, 8)):
        N = rng.randint(1_000_000, 10_000_000)
        n = floor(_fraction(rng) * N)
        corrs.append(_cli_op("corr", {"k": k, "N": N, "n": n}, _render_mode(slot + 3)))
    limits = [
        _cli_op("limit", {"k": k, "f": str(_fraction(rng))}, _render_mode(slot + 6))
        for slot, k in enumerate(_strata(8, 128, 8))
    ]
    # Interleave so each quarter of the pass holds every verb.
    ops = []
    for i in range(8):
        ops += [scans[2 * i], corrs[i], scans[2 * i + 1], limits[i]]
    return ops


def poly_tables(seed: int) -> list[dict]:
    rng = random.Random(seed)
    # Alpha tables in ascending k, so each reuses the P0 values its smaller
    # predecessors cached.  p_poly's cost grows steeply with m and hardly with
    # k, so the ppoly ops are one fixed multiset of (degree, output options)
    # entries that the seed only shuffles over the orders, and the repeats
    # and extensions below pick entries, not positions: every seed then runs
    # ops of the same costs, which keeps op_p50_ms steady.
    entries = list(enumerate([12, 13, 14, 15, 16, 12, 14, 16]))
    rng.shuffle(entries)
    alpha_ops, ppoly_ops = [], {}
    for k, (entry, m) in zip(_strata(24, 60, 8), entries):
        N = rng.randint(100_000, 1_000_000)
        alpha_ops.append({"kind": "alpha", "verb": "alpha", "k": k, "N": N, "n": floor(_fraction(rng) * N)})
        ppoly_ops[entry] = _cli_op("ppoly", {"k": k, "m": m}, _render_mode(entry))
    ops = []
    for a, (entry, _) in zip(alpha_ops, entries):
        ops += [a, ppoly_ops[entry]]
    # Later ops revisit earlier keys: a repeat of the same key is a cache hit,
    # an extension (same k, larger m) reuses the cached prefix of the chain.
    for slot, entry in ((2, 1), (5, 3), (7, 7)):
        a = alpha_ops[slot]
        N = rng.randint(100_000, 1_000_000)
        ops.append({**a, "N": N, "n": floor(_fraction(rng) * N)})
        ops.append(_cli_op("ppoly", ppoly_ops[entry]["params"], _render_mode(entry + 1)))
    for entry in (0, 2, 4):
        params = dict(ppoly_ops[entry]["params"])
        params["m"] += 3
        ops.append(_cli_op("ppoly", params, _render_mode(entry + 2)))
    return ops


def _mc_op(rng: random.Random, slot: int, k: int, N: int, n: int, trials: int) -> dict:
    params = {"k": k, "N": N, "n": n, "trials": trials, "seed": rng.getrandbits(63)}
    return _cli_op("mc", params, _render_mode(slot))


def mc_sampler(seed: int) -> list[dict]:
    rng = random.Random(seed)
    # Small N: up to 244 units the sampler runs all 65536 trials as lanes of
    # one batch.  Large N: lanes x N is about 16e6, one batch of 16e6 // N.
    # A sampler op's cost follows its sample size n closely, so n and k are
    # fixed by slot; the seed draws N inside a narrow band and the MC seeds.
    small = []
    for slot, steps in enumerate(range(6, 34, 3)):
        N = rng.randint(215, 235)
        small.append(_mc_op(rng, slot, 2 + slot % 4, N, steps, 65536))
    large = []
    for slot, steps in enumerate((750, 1000, 1250, 1500, 1750, 2000)):
        N = rng.randint(85_000, 95_000)
        large.append(_mc_op(rng, slot + 1, 2 + slot % 3, N, steps + rng.randint(-10, 10), 16_000_000 // N))
    ops = []
    for i in range(6):
        ops += small[2 * i : 2 * i + 2] if i < 5 else []
        ops.append(large[i])
    return ops


def cli_coldstart(seed: int) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for slot in range(2):
        N = rng.randint(100, 10_000)
        ops.append(_cli_op("limit", {"k": rng.randint(2, 40), "f": str(_fraction(rng))}, _render_mode(slot)))
        ops.append(_cli_op("corr", {"k": rng.randint(2, 20), "N": N, "n": floor(_fraction(rng) * N)}, _render_mode(slot + 1)))
        k = rng.randint(4, 20)
        ops.append(_cli_op("ppoly", {"k": k, "m": rng.randint(1, min(6, k))}, _render_mode(slot + 2)))
        N = rng.randint(20, 60)
        ops.append(_mc_op(rng, slot + 3, rng.randint(2, 4), N, floor(_fraction(rng, 0.2, 0.8) * N), rng.randint(1000, 2000)))
    for op in ops:
        op["kind"] = "proc"
    return ops


GENERATORS = {
    "exact-scan": exact_scan,
    "poly-tables": poly_tables,
    "mc-sampler": mc_sampler,
    "cli-coldstart": cli_coldstart,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)


def revisit_share(ops: list[dict]) -> float:
    """Share of ops whose cache key repeats an earlier op's key (same alpha k,
    same ppoly (k, m)) or extends one (same ppoly k with a larger m)."""
    seen_alpha, seen_ppoly = set(), {}
    revisits = 0
    for op in ops:
        if op["verb"] == "alpha":
            revisits += op["k"] in seen_alpha
            seen_alpha.add(op["k"])
        elif op["verb"] == "ppoly":
            k, m = op["params"]["k"], op["params"]["m"]
            revisits += k in seen_ppoly and seen_ppoly[k] <= m
            seen_ppoly[k] = max(m, seen_ppoly.get(k, -1))
    return revisits / len(ops)
