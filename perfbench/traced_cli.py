"""``python -m srscorr`` with the benchmark's probes installed, for the traced
and allocation passes of cli-coldstart.  Writes what the probes saw to a JSON
file and exits with the CLI's own code.

Usage: python traced_cli.py spans|alloc RESULT_JSON srscorr-args...
"""

from __future__ import annotations

import json
import sys

import spans


def main() -> int:
    mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "spans":
        recorder = spans.install()
    else:
        peak = spans.install_alloc_probe()
    import srscorr.cli

    code = srscorr.cli.run(argv)
    if mode == "spans":
        report = {"layers": recorder.layer_stats(), "mc": recorder.mc_rates(), "counters": spans.cache_counters()}
    else:
        report = {"peak_alloc_bytes": peak["bytes"]}
    with open(result_path, "w") as sink:
        json.dump(report, sink)
    return code


if __name__ == "__main__":
    sys.exit(main())
