"""srscorr benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 25 --trace 0

The package is run from ``src/`` (it need not be installed).  Each pass starts
a fresh worker process (see worker.py) that imports srscorr, builds the seeded
op list and runs it as a closed loop: one client, one op at a time.  Passes
repeat, one after another, until ``--seconds`` have gone by and at least the
workload's fixed number of plain passes (``workloads.WORKLOADS[...]["passes"]``)
have run.  The timing metrics come from that many first plain passes only, so
they do not depend on how many passes the program's speed lets into the run;
later passes feed the output checks and the digest.  Each op's time is its
median over those passes, and every time is scaled to the reference host
speed by the run's median kernel time (calib.py).  A run gives up at
``RUN_LIMIT_S``: a worker still running then is killed with its children and
its pass counts as failed.  At most two processes run at once: this one waits
while a worker (or, for cli-coldstart, the worker's current
``python -m srscorr`` child) runs.

``--trace 0`` prints the end-to-end metrics, measured with no probes
installed.  ``--trace 1`` alternates plain and span-traced passes and prints
the per-layer metrics; the difference between their wall times is the tracing
overhead.  Workloads that call the sampler get one more pass with tracemalloc
around it for the allocation peak.

Every op's output is checked after the timed passes (checks.py): the first
pass in full, every later pass by requiring byte-identical output per op.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it restate each metric by name
and unit, with the percentile behind ``op_tail_ms``, the fail ratio and the
per-workload SHA-256 output digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RUN_LIMIT_S = 160
MIN_TRACED_PASSES = 2  # two, so span call counts can be compared

import calib  # noqa: E402
import workloads  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _stop_group(worker: subprocess.Popen) -> None:
    """Kill the worker and every process it started, and wait for them."""
    os.killpg(worker.pid, signal.SIGKILL)
    worker.communicate()
    for _ in range(100):
        try:
            os.killpg(worker.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _run_pass(workload: str, seed: int, mode: str, workdir: str, full: bool, timeout: float) -> dict | None:
    """One worker pass, or None if it exits non-zero, prints no report or
    outlives ``timeout`` seconds; the caller counts all its ops as failed."""
    spawned = time.monotonic()
    worker = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), mode, workdir, "1" if full else "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env(),
        start_new_session=True,
    )
    try:
        stdout, stderr = worker.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _stop_group(worker)
        print(f"worker ({mode}) killed after {max(timeout, 1.0):.0f} s", file=sys.stderr)
        return None
    except BaseException:
        _stop_group(worker)
        raise
    if worker.returncode != 0:
        print(f"worker ({mode}) exited {worker.returncode}:\n{stderr.decode()[-4000:]}", file=sys.stderr)
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        print(f"worker ({mode}) printed no report:\n{stderr.decode()[-4000:]}", file=sys.stderr)
        return None
    report["setup"] = report["ready"] - spawned
    report["mode"] = mode
    return report


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten ops beyond it: (value, pct, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n


def _per_op_median(passes: list[dict]) -> list[float]:
    """Each op's median latency over the passes."""
    return [statistics.median(p["ops"][i]["lat"] for p in passes) for i in range(len(passes[0]["ops"]))]


def _speed(passes: list[dict]) -> float:
    """The factor that scales the passes' times to the reference host speed:
    ``calib.REFERENCE_S`` over the median of every kernel sample they took."""
    return calib.REFERENCE_S / statistics.median(t for p in passes for t in p["cal"])


def _src_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "srscorr")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as source:
                digest.update(name.encode() + b"\0" + source.read())
    return digest.hexdigest()


def _verdicts(ops: list[dict], passes: list[dict | None]) -> tuple[list[str | None], int]:
    """Check the first plain pass in full and every other pass against it.
    Returns the per-op verdicts of the reference pass and the failed count."""
    import checks

    reference = next(p for p in passes if p is not None and p["mode"] == "plain" and "out" in p["ops"][0])
    verdicts = []
    for op, rec in zip(ops, reference["ops"]):
        if rec["rc"] != 0:
            verdicts.append(f"exit {rec['rc']}: {(rec['err'].strip().splitlines() or [''])[-1]}")
        elif rec["file_ok"] is False:
            verdicts.append("--out file differs from stdout")
        else:
            verdicts.append(checks.check(op, rec["out"]))
    failed = 0
    for report in passes:
        if report is None:
            failed += len(ops)
            continue
        for verdict, rec, ref in zip(verdicts, report["ops"], reference["ops"]):
            failed += verdict is not None or rec["sha"] != ref["sha"] or rec["rc"] != 0 or rec["file_ok"] is False
    return verdicts, failed


def _layer_metrics(traced: list[dict], plain: list[dict], alloc: dict | None) -> tuple[dict, bool]:
    """Per-layer metrics (medians over the traced passes) and whether every
    traced pass made exactly the same calls and left the same caches."""
    import spans

    metrics = {}
    same = all(t["counters"] == traced[0]["counters"] for t in traced)
    for layer in spans.LAYERS:
        calls = [t["layers"][layer]["calls"] for t in traced]
        same &= len(set(calls)) == 1
        metrics[f"{layer}.calls"] = (calls[0], "count")
        for key in ("total_s", "self_s"):
            metrics[f"{layer}.{key}"] = (statistics.median(t["layers"][layer][key] for t in traced), "s")
    counters = traced[0]["counters"]
    metrics["ppoly.p0_cache_entries"] = (counters["ppoly.p0_cache_entries"], "count")
    metrics["ppoly.p_cache_entries"] = (counters["ppoly.p_cache_entries"], "count")
    for fname in spans.CACHED_KERNELS:
        lookups = counters[f"exactnum.{fname}.lookups"]
        hits = counters[f"exactnum.{fname}.hits"]
        metrics[f"exactnum.{fname}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        metrics[f"exactnum.{fname}.lookups"] = (lookups, "count")
    for regime in ("small_n", "large_n"):
        rates = [t["mc"][regime][0] / t["mc"][regime][1] if t["mc"][regime][1] else 0.0 for t in traced]
        metrics[f"oracle.trials_per_s.{regime}"] = (statistics.median(rates), "1/s")
    peak = alloc["peak_alloc_bytes"] if alloc else 0
    metrics["oracle.peak_alloc_mb"] = (peak / 2**20, "MB")
    both = min(len(traced), len(plain))
    overhead = sum(_per_op_median(traced[:both])) - sum(_per_op_median(plain[:both]))
    metrics["trace.overhead_s"] = (overhead * _speed(plain[:both]), "s")
    return metrics, same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "srscorr")):
        print(f"benchmark: no srscorr package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        why = next(w["why"] for w in json.load(spec)["workloads"] if w["name"] == args.workload)

    ops = workloads.generate(args.workload, args.seed)
    shape = workloads.WORKLOADS[args.workload]
    has_sampler = any(op["verb"] == "mc" for op in ops)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        started = time.monotonic()
        deadline, give_up = started + args.seconds, started + RUN_LIMIT_S
        # Untimed: writes the .pyc files that every later process reuses.
        warm = [sys.executable, "-m", "srscorr", "limit", "--k", "2", "--f", "1/2"]
        try:
            subprocess.run(warm, capture_output=True, env=_env(), timeout=RUN_LIMIT_S / 4)
        except subprocess.TimeoutExpired:
            pass  # the first pass then fails and ends the run
        passes: list[dict | None] = []
        while True:
            mode = "spans" if args.trace and len(passes) % 2 else "plain"
            passes.append(_run_pass(args.workload, args.seed, mode, workdir, not passes, give_up - time.monotonic()))
            # Counted whether or not the pass succeeded, so failing workers end the run.
            enough = len(passes) >= (2 * MIN_TRACED_PASSES if args.trace else shape["passes"])
            now = time.monotonic()
            if passes[0] is None or now >= give_up - 1 or (now >= deadline and enough):
                break
        alloc = None
        if args.trace and has_sampler and time.monotonic() < give_up - 1:
            alloc = _run_pass(args.workload, args.seed, "alloc", workdir, False, give_up - time.monotonic())
        if alloc is not None:
            passes.append(alloc)
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_work"), ignore_errors=True)

    attempted = len(ops) * len(passes)
    plain = [p for p in passes if p is not None and p["mode"] == "plain"]
    traced = [p for p in passes if p is not None and p["mode"] == "spans"]
    if passes[0] is None:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        return 0
    verdicts, failed = _verdicts(ops, passes)
    if args.trace and not traced:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 0
    digests = {p["digest"] for p in passes if p is not None}
    correct = failed == 0 and len(digests) == 1

    import numpy

    print(f"workload {args.workload}: {why}")
    print(f"  inputs: {shape['ranges']}")
    print(
        f"  {shape['loop']} loop, {shape['clients']} client, {len(ops)} ops per pass, {len(passes)} fresh-worker passes, seed {args.seed}; "
        f"python {sys.version.split()[0]}, numpy {numpy.__version__}, nproc {os.cpu_count()}, src sha256 {_src_digest()[:16]}"
    )
    if args.workload == "poly-tables":
        print(f"  share of ops repeating or extending an earlier cache key: {workloads.revisit_share(ops):.4f}")
    for i, verdict in enumerate(verdicts):
        if verdict is not None:
            print(f"  FAILED op {i} {ops[i].get('argv', ops[i])}: {verdict}")
    print(f"  output digest sha256 {passes[0]['digest']} ({'identical in every pass' if len(digests) == 1 else 'DIFFERS between passes'})")
    print(f"  fail_ratio {failed / attempted} ({failed} of {attempted} ops)")

    if args.trace:
        metrics, repeatable = _layer_metrics(traced, plain, alloc)
        correct &= repeatable
        if not repeatable:
            print("  traced passes disagree on span call counts or cache counters")
    else:
        measured = plain[: shape["passes"]]
        per_op = _per_op_median(measured)
        speed = _speed(measured)
        setup = statistics.median(p["setup"] for p in measured)
        tail, pct, count = _tail([rec["lat"] for p in measured for rec in p["ops"]])
        metrics = {
            "setup_s": (setup * speed, "s"),
            "wall_s": (sum(per_op) * speed, "s"),
            "ops_per_s": (len(per_op) / (sum(per_op) * speed), "1/s"),
            "op_p50_ms": (1000 * statistics.median(per_op) * speed, "ms"),
            "op_tail_ms": (1000 * tail * speed, "ms"),
            "peak_rss_mb": (statistics.median(p["rss_kb"] for p in measured) / 1024, "MB"),
        }
        print(f"  setup_s is the median and wall_s sums each op's median over the first {len(measured)} plain passes")
        print(
            f"  times are scaled by {speed} to the reference host speed (calib.py); raw setup_s {setup} s, "
            f"wall_s {sum(per_op)} s, op_p50_ms {1000 * statistics.median(per_op)} ms"
        )
        print(f"  op_tail_ms is p{pct:.2f} of {count} op latencies (10 ops above it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
