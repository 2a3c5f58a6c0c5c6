"""Command-line front end for config-driven scans.

Exit codes: 0 success, 2 config error, 3 numerical-certification failure.
The output directory comes from the config, the ``--output`` flag, or the
``SPINWORK_OUTPUT_DIR`` environment variable (the only environment override).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import json

from . import experiments as xp
from .drive_dynamics import ProtocolError, UnitarityError
from .perturbative_cfw import measure2_to_csv, measure3_to_csv
from .work_statistics import cfw_to_csv, distribution_to_csv

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinwork",
        description="Work-statistics scans for driven XXZ chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*_SUBCOMMAND_SCAN, "validate-config"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--output", default=None, help="output directory override")
        p.add_argument("--dt", type=float, default=None, help="time step override")
        p.add_argument("--threads", type=int, default=None, help="worker pool size (default: CPU count)")
        p.add_argument("--full-scale", action="store_true", help="run the long N=11 variant")
        p.add_argument(
            "--fidelity-convention",
            choices=["f", "sqrtf"],
            default=None,
            help="infidelity as 1-F (f) or 1-sqrt(F) (sqrtf)",
        )
    return parser


def _load(args) -> xp.RunConfig:
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
    if getattr(args, "full_scale", False):
        cfg.model = xp.SpinChainSpec(11, cfg.model.coupling, cfg.model.boundary)
        if cfg.scan == "size":
            cfg.grid = sorted(set(int(v) for v in cfg.grid) | {10, 11})
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except xp.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate-config":
        print(f"config ok: scan={cfg.scan} N={cfg.model.n_sites} beta={cfg.beta}")
        return EXIT_OK

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        if args.command == "scan-velocity":
            records = xp.run_velocity_scan(cfg, threads=args.threads)
            fits = {}
        elif args.command == "scan-size":
            records = xp.run_size_scan(cfg, threads=args.threads)
            fits = {}
        elif args.command == "scan-lambda":
            report = xp.run_lambda_scaling(cfg, threads=args.threads)
            records = report.records_adiabatic + report.records_quench
            fits = {
                "slope_adiabatic": report.slope_adiabatic,
                "slope_quench": report.slope_quench,
                "intercept_adiabatic": report.intercept_adiabatic,
                "intercept_quench": report.intercept_quench,
                "r_squared_adiabatic": report.r_squared_adiabatic,
                "r_squared_quench": report.r_squared_quench,
            }
        elif args.command == "pert-compare":
            report = xp.run_pert_compare(cfg)
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
            record, dist, cfw = xp.run_single_detailed(cfg)
            records = [record]
            fits = {}
            distribution_to_csv(dist, out_dir / "single_distribution.csv")
            cfw_to_csv(cfw, out_dir / "single_cfw.csv")
    except xp.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (xp.CertificationError, UnitarityError, ProtocolError) as exc:
        print(f"numerical certification failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    wall = time.perf_counter() - started
    stem = cfg.scan
    xp.emit_csv(records, out_dir / f"{stem}_records.csv")
    xp.emit_json_summary(cfg, records, fits, out_dir / f"{stem}_summary.json", wall)
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
