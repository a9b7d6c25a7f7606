"""One pass of a workload in a fresh interpreter, so caches start cold and
``ru_maxrss`` belongs to this pass alone.

Usage: python worker.py WORKLOAD SEED MODE WORKDIR FULL

MODE is ``plain`` (timed), ``spans`` (boundary spans) or ``alloc`` (sampler
allocation peak).  The worker imports srscorr and builds its op list, stamps
``ready`` on the monotonic clock (the parent stamped the spawn on the same
clock), then runs the ops one at a time, each only after the previous one
returned.  The host-speed kernel (calib.py) is timed, outside the timed
region, before each op and after the last, so its samples spread over the
pass as the ops do.  Outputs are serialised and hashed after the last op, also
outside the timed region.  One JSON object goes to stdout; with FULL=1 it
carries every op's output text for the parent's checks, otherwise only their
hashes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback

import srscorr  # noqa: F401  (import time is part of set-up by definition)
from srscorr import cli, correlation

import calib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PROC_TIMEOUT_S = 15  # per python -m srscorr op; 8 of them stay well inside run.RUN_LIMIT_S


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return out.getvalue(), code, err.getvalue()


def _run_alpha(op):
    table = correlation.alpha_coefficients(op["k"])
    return (table, table.corr(op["N"], op["n"])), 0, ""


def _run_proc(command):
    done = subprocess.run(command, capture_output=True, timeout=PROC_TIMEOUT_S)
    return done.stdout.decode(), done.returncode, done.stderr.decode()


def _alpha_text(op, result) -> str:
    table, value = result
    coeffs = hashlib.sha256(repr(table.coeffs).encode()).hexdigest()
    return json.dumps({"k": op["k"], "N": op["N"], "n": op["n"], "corr": str(value), "coeffs_sha256": coeffs}) + "\n"


def _sum_into(total: dict, part: dict):
    for key, value in part.items():
        if isinstance(value, dict):
            _sum_into(total.setdefault(key, {}), value)
        elif isinstance(value, list):
            total[key] = [a + b for a, b in zip(total.get(key, [0] * len(value)), value)]
        else:
            total[key] = total.get(key, 0) + value


def main() -> int:
    workload, seed, mode, workdir, full = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5] == "1"
    ops = workloads.generate(workload, seed)
    commands, probe_files = [], []
    for i, op in enumerate(ops):
        argv = list(op.get("argv", ()))
        if op.get("out"):
            argv += ["--out", os.path.join(workdir, f"op{i}.{op['format']}")]
        if op["kind"] == "proc" and mode == "plain":
            argv = [sys.executable, "-m", "srscorr", *argv]
        elif op["kind"] == "proc":
            probe_files.append(os.path.join(workdir, f"probe{i}.json"))
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), mode, probe_files[-1], *argv]
        commands.append(argv)
    recorder = alloc = None
    if mode != "plain" and any(op["kind"] != "proc" for op in ops):
        import spans

        if mode == "spans":
            recorder = spans.install()
        else:
            alloc = spans.install_alloc_probe()
    ready = time.monotonic()

    results, cal = [], []
    for i, (op, command) in enumerate(zip(ops, commands)):
        if recorder is not None:
            recorder.op = i + 1
        cal.append(calib.sample())
        start = time.perf_counter()
        try:
            if op["kind"] == "cli":
                outcome = _run_cli(command)
            elif op["kind"] == "alpha":
                outcome = _run_alpha(op)
            else:
                outcome = _run_proc(command)
        except Exception:
            outcome = (None, None, traceback.format_exc())
        results.append((time.perf_counter() - start, outcome))
    cal.append(calib.sample())
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    records, hashes = [], []
    for i, (op, (latency, (output, code, err))) in enumerate(zip(ops, results)):
        text = _alpha_text(op, output) if op["kind"] == "alpha" and output is not None else output
        sha = hashlib.sha256((text or "").encode()).hexdigest()
        record = {"lat": latency, "rc": code, "err": err[-2000:], "sha": sha, "file_ok": None}
        if op.get("out"):
            path = commands[i][commands[i].index("--out") + 1]
            if os.path.exists(path):
                with open(path, "rb") as source:
                    record["file_ok"] = source.read() == (text or "").encode()
                os.remove(path)
            else:
                record["file_ok"] = False
        if full:
            record["out"] = text
        records.append(record)
        hashes.append(sha)

    report = {
        "ready": ready,
        "rss_kb": rss_kb,
        "cal": cal,
        "ops": records,
        "digest": hashlib.sha256("\n".join(hashes).encode()).hexdigest(),
    }
    if recorder is not None:
        report.update(layers=recorder.layer_stats(), mc=recorder.mc_rates(), counters=spans.cache_counters())
    if alloc is not None:
        report["peak_alloc_bytes"] = alloc["bytes"]
    if probe_files:
        merged: dict = {}
        peak = 0
        for path in probe_files:
            if os.path.exists(path):
                with open(path) as source:
                    part = json.load(source)
                os.remove(path)
                peak = max(peak, part.pop("peak_alloc_bytes", 0))
                _sum_into(merged, part)
        report.update(merged)
        if mode == "alloc":
            report["peak_alloc_bytes"] = peak
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
