"""spinwork benchmark: one workload, timed end to end or traced per layer.

Usage, from the repository root:
    python3 perfbench/run.py --workload velocity-n9 --seed 1 --seconds 20 --trace 0

Every round runs the spinwork CLI once in a fresh child process with BLAS
pinned to one thread.  ``--trace 0`` starts a few set-up-only children, then
runs rounds at ``--threads 2`` until ``--seconds`` have passed and reports
the medians of wall time, CPU time, peak RSS and set-up time.  ``--trace 1``
runs one untraced round at ``--threads 2`` (its records give the pool
figures), then traced rounds at ``--threads 1`` until ``--seconds`` have
passed, and reports the per-layer medians.  Every round's outputs are checked
against independent computations (checks.py).  The last line of standard
output is the result as JSON; the exit code is 0 only when every check
passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
THREADS = 2
TRACE_THREADS = 1
SETUP_LAUNCHES = 5
# A run must end within 180 s; a child still running at this many seconds
# after the run started is killed and its round counts as failed.
RUN_DEADLINE_S = 160.0


def unit_of(metric: str) -> str:
    if metric.endswith("steps_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in PINNED_BLAS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Runner:
    """Launches the child rounds of one benchmark run inside ``run_dir``."""

    def __init__(self, workload, config_path: Path, run_dir: Path):
        self.workload = workload
        self.config_path = config_path
        self.run_dir = run_dir
        self.count = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, **PINNED_BLAS)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def launch(self, mode: str, threads: int) -> dict:
        """One child process; returns its result with the output directory added."""
        self.count += 1
        tag = f"{mode}{self.count}"
        result_path = self.run_dir / f"{tag}.json"
        out_dir = self.run_dir / tag
        cli_args = [self.workload.subcommand, "--config", str(self.config_path),
                    "--output", str(out_dir), "--threads", str(threads)]
        with open(self.run_dir / f"{tag}.log", "w", encoding="utf-8") as log:
            launched = time.monotonic()
            cmd = [sys.executable, str(HERE / "child.py"), "--launched", repr(launched),
                   "--result", str(result_path), "--mode", mode, "--run-id", tag, "--", *cli_args]
            try:
                proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1.0, self.deadline - launched))
                exit_code = proc.returncode
            except subprocess.TimeoutExpired:
                exit_code = None
        result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else {}
        result["ok"] = exit_code == 0 and result.get("returncode", 0) == 0 and "setup_s" in result
        result["out_dir"] = out_dir
        if result.get("spinwork_file") and not Path(result["spinwork_file"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"child imported spinwork from {result['spinwork_file']}, not {SRC}")
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def pool_figures(summary: dict, threads: int) -> dict:
    """Slowest point and pool busy share from the records of an untraced scan."""
    runtimes = [r["runtime_seconds"] for r in summary["records"]]
    return {
        "experiments.slowest_point_s": max(runtimes, default=0.0),
        "experiments.pool_busy_share": sum(runtimes) / (threads * summary["wall_time"]),
    }


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinwork" / "__init__.py").is_file():
        print(f"benchmark: no spinwork sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_BLAS)  # before numpy is imported below
    import checks
    import tracing
    from workloads import WORKLOADS, config_for

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = HERE / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    cfg = config_for(workload, args.seed, str(run_dir / "out"))
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    runner = Runner(workload, config_path, run_dir)

    rounds, setups, traced = [], [], []
    if args.trace:
        rounds.append(runner.launch("scan", THREADS))
        start = time.monotonic()
        while not traced or time.monotonic() - start < args.seconds:
            traced.append(runner.launch("trace", TRACE_THREADS))
        rounds += traced
    else:
        setups = [runner.launch("setup", THREADS) for _ in range(SETUP_LAUNCHES)]
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(runner.launch("scan", THREADS))

    reference = checks.REFERENCES[workload.scan](cfg)
    failures, failed_rounds = [], 0
    for r in rounds:
        if not r["ok"]:
            failed_rounds += 1
            continue
        try:
            outputs = checks.load_outputs(workload.scan, r["out_dir"])
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"{r['out_dir'].name}: outputs unreadable: {exc}")
            continue
        found = checks.CHECKS[workload.scan](cfg, outputs, reference)
        failures += found
        r["summary"] = outputs["summary"]
        r["output_bytes"] = output_bytes(r["out_dir"])
        if not found:
            shutil.rmtree(r["out_dir"])

    ok = [r for r in rounds if r["ok"]]
    if args.trace:
        per_round = [
            tracing.layer_metrics(tracing.spans_from_json(r["spans"]), cfg["dt"], r["output_bytes"])
            for r in traced if "output_bytes" in r
        ]
        metrics = {k: _median([m[k] for m in per_round]) for k in (per_round[0] if per_round else {})}
        if "summary" in rounds[0]:
            metrics.update(pool_figures(rounds[0]["summary"], THREADS))
    else:
        metrics = {
            "wall_s": _median([r["wall_s"] for r in ok]),
            "cpu_s": _median([r["cpu_s"] for r in ok]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
            "setup_s": _median([r["setup_s"] for r in setups + ok if "setup_s" in r]),
        }

    result = {
        "correct": not failures,
        "attempted": workload.points * len(rounds),
        "failed": workload.points * failed_rounds,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "config": cfg,
        "environment": environment(),
        "threads": TRACE_THREADS if args.trace else THREADS,
        "rounds": [{k: v for k, v in r.items() if k not in ("spans", "out_dir", "summary")} for r in rounds],
        "setups": [r.get("setup_s") for r in setups],
        "failures": failures,
        "result": result,
    }
    (run_dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print("environment: " + json.dumps(detail["environment"]))
    print(json.dumps(result))
    return 0 if result["correct"] and ok else 1


if __name__ == "__main__":
    sys.exit(main())
