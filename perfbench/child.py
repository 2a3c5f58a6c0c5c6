"""One benchmark round in a fresh process: set up, run the spinwork CLI once.

Usage (started by run.py):
    python3 perfbench/child.py --launched T --result PATH --mode {setup,scan,trace}
                               --run-id ID -- <spinwork CLI arguments>

``--launched`` is the parent's ``time.monotonic()`` just before it started
this process; CLOCK_MONOTONIC is shared by all processes, so the set-up time
spans interpreter start, imports and config load.  The result file holds the
set-up time, the scan's wall and CPU time, the peak RSS and, in trace mode,
the spans.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=["setup", "scan", "trace"], required=True)
    parser.add_argument("--run-id", default="")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from spinwork import cli, experiments

    experiments.load_config(cli_args[cli_args.index("--config") + 1])
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s, "spinwork_file": cli.__file__}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracing import Tracer

            tracer = Tracer(args.run_id)
            tracer.install()
        cpu0 = _cpu_seconds()
        t0 = time.monotonic()
        returncode = cli.main(cli_args)
        result["wall_s"] = time.monotonic() - t0
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["returncode"] = returncode
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.to_json()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
