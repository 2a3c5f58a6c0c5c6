"""Command-line front end for config-driven scans.

Exit codes: 0 success, 2 config or argument error (including a run that would
exceed the memory limit, a step count or energy scale that overflows, and
``--threads`` below 1), 3 numerical-certification
failure (including a u grid too coarse for the work support and a quadrature
oracle that fails its step-halving check).
The output directory comes from the config, the ``--output`` flag, or the
``SPINWORK_OUTPUT_DIR`` environment variable (the only environment override).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import json

from . import experiments as xp
from .drive_dynamics import ProtocolError, UnitarityError
from .perturbative_cfw import QuadratureError, measure2_to_csv, measure3_to_csv
from .spin_model import DimensionError
from .work_statistics import ResolutionError, cfw_to_csv, distribution_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_SUBCOMMAND_SCAN = {
    "scan-velocity": "velocity",
    "scan-size": "size",
    "scan-lambda": "lambda_scaling",
    "pert-compare": "pert_compare",
    "single": "single",
}


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _build_parser() -> argparse.ArgumentParser:
    """One parser: the command and the options that every command shares."""
    parser = argparse.ArgumentParser(
        prog="spinwork",
        description="Work-statistics scans for driven XXZ chains",
    )
    parser.add_argument("command", choices=[*_SUBCOMMAND_SCAN, "validate-config"])
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output", default=None, help="output directory override")
    parser.add_argument("--dt", type=float, default=None, help="time step override")
    parser.add_argument("--threads", type=_worker_count, default=None,
                        help="worker pool size (default: the CPUs this process may run on)")
    parser.add_argument("--full-scale", action="store_true",
                        help="set model.n_sites to 11 (a size scan also runs N=10 and 11)")
    parser.add_argument(
        "--fidelity-convention",
        choices=["f", "sqrtf"],
        default=None,
        help="infidelity as 1-F (f) or 1-sqrt(F) (sqrtf)",
    )
    return parser


def _load(args) -> tuple[xp.RunConfig, int]:
    """The config with the command line's overrides, and its largest scan point's step count."""
    cfg = xp.load_config(args.config)
    if args.command != "validate-config":
        expected = _SUBCOMMAND_SCAN[args.command]
        if cfg.scan != expected:
            raise xp.ConfigError(f"scan: config says {cfg.scan!r} but the subcommand expects {expected!r}")
    if args.dt is not None:
        cfg.dt = args.dt
    if args.fidelity_convention is not None:
        cfg.fidelity_convention = {"f": "one_minus_F", "sqrtf": "one_minus_sqrtF"}[args.fidelity_convention]
    if args.output is not None:
        cfg.output_dir = args.output
    elif os.environ.get("SPINWORK_OUTPUT_DIR"):
        cfg.output_dir = os.environ["SPINWORK_OUTPUT_DIR"]
    if args.full_scale:
        cfg.model = xp.SpinChainSpec(11, cfg.model.coupling, cfg.model.boundary)
        if cfg.scan == "size":
            cfg.grid = sorted(set(int(v) for v in cfg.grid) | {10, 11})
    return cfg, cfg.validate()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg, steps = _load(args)
    except xp.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate-config":
        print(f"config ok: scan={cfg.scan} N={cfg.model.n_sites} beta={cfg.beta} steps={steps}")
        return EXIT_OK

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    workers = {}
    try:
        if args.command == "scan-velocity":
            records = xp.run_velocity_scan(cfg, threads=args.threads, workers=workers)
            fits = {}
        elif args.command == "scan-size":
            records = xp.run_size_scan(cfg, threads=args.threads, workers=workers)
            fits = {}
        elif args.command == "scan-lambda":
            report = xp.run_lambda_scaling(cfg, threads=args.threads, workers=workers)
            records = report.records_adiabatic + report.records_quench
            fits = {f.name: getattr(report, f.name) for f in fields(report) if not f.name.startswith("records_")}
        elif args.command == "pert-compare":
            report = xp.run_pert_compare(cfg, threads=args.threads, workers=workers)
            records = []
            fits = {
                "residual_slope": report.residual_slope,
                "entries": [asdict(e) for e in report.entries],
            }
            (out_dir / "pert_compare_curves.json").write_text(
                json.dumps(report.curves) + "\n", encoding="utf-8"
            )
            measure2_to_csv(report.measure2, out_dir / "two_point_measure.csv")
            measure3_to_csv(report.measure3, out_dir / "three_point_measure.csv")
        else:  # single
            record, dist, cfw = xp.run_single(cfg, threads=args.threads, workers=workers)
            records = [record]
            fits = {}
            distribution_to_csv(dist, out_dir / "single_distribution.csv")
            cfw_to_csv(cfw, out_dir / "single_cfw.csv")
    except (xp.ConfigError, DimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (xp.CertificationError, UnitarityError, ProtocolError, ResolutionError, QuadratureError) as exc:
        print(f"numerical certification failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    wall = time.perf_counter() - started
    stem = cfg.scan
    xp.emit_csv(records, out_dir / f"{stem}_records.csv")
    xp.emit_json_summary(cfg, records, fits, out_dir / f"{stem}_summary.json", wall, workers)
    for record in records:
        print(
            f"scan_value={record.scan_value:g} infidelity={record.infidelity:.6e} "
            f"avg_work={record.avg_work:.6e}"
        )
    if fits:
        for key, value in fits.items():
            if isinstance(value, (int, float)):
                print(f"{key}={value:.6g}")
    print(f"wrote {stem}_records.csv and {stem}_summary.json to {out_dir} ({wall:.1f}s)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
