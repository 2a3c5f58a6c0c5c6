"""Config-driven scans: velocity and size sweeps, coupling-scaling fits, and
perturbative-vs-exact comparisons, with CSV/JSON emission.

Scan points run on a bounded thread pool (the heavy dense algebra releases the
GIL); records are gathered and sorted by scan value before emission, so output
is deterministic for a fixed config.  The ``runtime_seconds`` column is wall
time and is excluded from the bit-for-bit reproducibility guarantee.
"""
from __future__ import annotations

import json
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .drive_dynamics import DriveProtocol, evolve_density, propagate
from .perturbative_cfw import (
    first_cumulant,
    lnchi_second_order,
    lnchi_second_order_quadrature,
    third_order_adiabatic_coefficient,
    three_point_measure,
    two_point_measure,
)
from .spectral_core import (
    eigendecompose,
    gibbs_state,
    infidelity,
    log_partition_function,
)
from .spin_model import MAX_SITES, OperatorMatrix, SpinChainSpec, assemble, build_hopping, build_zz
from .work_statistics import (
    WorkDistribution,
    average_work,
    cfw_from_distribution,
    default_u_grid,
    delta_concentration,
    jarzynski_check,
    phase_linearity,
    tpm_distribution,
    write_csv,
)

CSV_COLUMNS = ["scan_value", "infidelity", "avg_work", "jarzynski_deviation", "delta_variance", "runtime_seconds"]
DEFAULT_VELOCITY_GRID = list(np.geomspace(1e-3, 10.0, 12))
DEFAULT_SIZE_GRID = [4, 5, 6, 7, 8, 9]
DEFAULT_LAMBDA_GRID = [0.05, 0.1, 0.2]
CERTIFICATION_SHIFT = 1e-6
IDENTITY_MONITOR = 1e-8
SCAN_KINDS = ("velocity", "size", "lambda_scaling", "pert_compare", "single")
PROPAGATION_METHOD = "suzuki4"


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


class CertificationError(RuntimeError):
    """A numerical certification gate failed (time step or exact identity)."""


@dataclass
class RunConfig:
    model: SpinChainSpec
    beta: float
    lambda1: float
    protocol_kind: str
    velocity: Optional[float]
    t_total: float
    scan: str
    grid: list
    dt: float
    fidelity_convention: str
    seed: int
    output_dir: str

    def validate(self) -> None:
        if self.beta <= 0 or not math.isfinite(self.beta):
            raise ConfigError("beta: must be positive and finite")
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise ConfigError("dt: must be positive and finite")
        if self.scan not in SCAN_KINDS:
            raise ConfigError(f"scan: unknown kind {self.scan!r}")
        if self.protocol_kind not in ("ramp_hold", "quench"):
            raise ConfigError(f"protocol.kind: unknown kind {self.protocol_kind!r}")
        if self.scan != "single" and not self.grid:
            raise ConfigError("grid: must be nonempty for scan kinds")
        if self.fidelity_convention not in ("one_minus_F", "one_minus_sqrtF"):
            raise ConfigError(f"fidelity_convention: unknown value {self.fidelity_convention!r}")
        if self.protocol_kind == "ramp_hold":
            if self.velocity is None and self.scan in ("size", "single"):
                raise ConfigError(f"protocol.velocity: required for a ramp_hold {self.scan} run")
            if self.velocity is not None and not self.velocity > 0:
                raise ConfigError(f"protocol.velocity: {self.velocity:g} must be positive")
        if self.model.n_sites > MAX_SITES:
            raise ConfigError(f"model.n_sites: {self.model.n_sites} exceeds the maximum {MAX_SITES}")
        if self.scan == "size":
            for n in self.grid:
                if not (float(n).is_integer() and 2 <= n <= MAX_SITES):
                    raise ConfigError(f"grid: chain size {n:g} is not a whole number in [2, {MAX_SITES}]")
        if self.scan == "velocity":
            for v in self.grid:
                if not v > 0:
                    raise ConfigError(f"grid: velocity {v:g} must be positive (or inf for the quench)")
        if self.scan in ("lambda_scaling", "pert_compare"):
            for lam in self.grid:
                if not 0 < lam < math.inf:
                    raise ConfigError(f"grid: coupling {lam:g} must be positive and finite")


@dataclass(frozen=True)
class ScanRecord:
    scan_value: float
    infidelity: float
    avg_work: float
    jarzynski_deviation: float
    delta_variance: float
    runtime_seconds: float


_SCHEMA = {
    "model": {"n_sites": int, "coupling": (int, float), "boundary": str},
    "beta": (int, float),
    "lambda1": (int, float),
    "protocol": {"kind": str, "velocity": (int, float, type(None)), "t_total": (int, float)},
    "scan": str,
    "grid": list,
    "dt": (int, float),
    "fidelity_convention": str,
    "seed": int,
    "output_dir": str,
}
_OPTIONAL = {"grid", "fidelity_convention", "seed", "output_dir", "dt"}
_OPTIONAL_NESTED = {"model": {"boundary"}, "protocol": {"velocity"}}
_DEFAULTS = {"grid": [], "fidelity_convention": "one_minus_F", "seed": 0, "output_dir": "out", "dt": 0.01}


def _check_section(data: dict, schema: dict, section: str, optional: set) -> None:
    for key in data:
        if key not in schema:
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"{where}: unknown key")
    for key, expected in schema.items():
        if key not in data:
            if key in optional:
                continue
            where = f"{section}.{key}" if section else key
            raise ConfigError(f"{where}: missing required key")
        if isinstance(expected, dict):
            if not isinstance(data[key], dict):
                raise ConfigError(f"{key}: must be a table of keys")
            _check_section(data[key], expected, key, _OPTIONAL_NESTED.get(key, set()))
        elif not isinstance(data[key], expected) or isinstance(data[key], bool):
            raise ConfigError(f"{section + '.' if section else ''}{key}: wrong type")


def _parse_grid_value(v):
    if isinstance(v, str):
        if v.lower() in ("inf", "quench"):
            return math.inf
        raise ConfigError(f"grid: unrecognized entry {v!r}")
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise ConfigError(f"grid: unrecognized entry {v!r}")


def _default_grid(scan: str) -> list:
    if scan == "velocity":
        return list(DEFAULT_VELOCITY_GRID) + [math.inf]
    if scan == "size":
        return list(DEFAULT_SIZE_GRID)
    if scan in ("lambda_scaling", "pert_compare"):
        return list(DEFAULT_LAMBDA_GRID)
    return []


def config_from_dict(data: dict) -> RunConfig:
    _check_section(data, _SCHEMA, "", _OPTIONAL)
    merged = dict(_DEFAULTS)
    merged.update({k: v for k, v in data.items() if k not in ("model", "protocol")})
    model = data["model"]
    proto = data["protocol"]
    try:
        spec = SpinChainSpec(
            n_sites=model["n_sites"],
            coupling=float(model["coupling"]),
            boundary=model.get("boundary", "open"),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    grid = [_parse_grid_value(v) for v in merged["grid"]]
    if not grid:
        grid = _default_grid(merged["scan"])
    cfg = RunConfig(
        model=spec,
        beta=float(merged["beta"]),
        lambda1=float(merged["lambda1"]),
        protocol_kind=proto["kind"],
        velocity=None if proto.get("velocity") is None else float(proto["velocity"]),
        t_total=float(proto["t_total"]),
        scan=merged["scan"],
        grid=grid,
        dt=float(merged["dt"]),
        fidelity_convention=merged["fidelity_convention"],
        seed=int(merged["seed"]),
        output_dir=str(merged["output_dir"]),
    )
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    """Strict JSON config loader; parse errors carry line/column, schema errors name the key."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    return config_from_dict(data)


def config_to_dict(cfg: RunConfig) -> dict:
    return {
        "model": {
            "n_sites": cfg.model.n_sites,
            "coupling": cfg.model.coupling,
            "boundary": cfg.model.boundary,
        },
        "beta": cfg.beta,
        "lambda1": cfg.lambda1,
        "protocol": {"kind": cfg.protocol_kind, "velocity": cfg.velocity, "t_total": cfg.t_total},
        "scan": cfg.scan,
        "grid": ["inf" if math.isinf(v) else v for v in cfg.grid],
        "dt": cfg.dt,
        "fidelity_convention": cfg.fidelity_convention,
        "seed": cfg.seed,
        "output_dir": cfg.output_dir,
    }


def emit_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Scan pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ModelOps:
    spec: SpinChainSpec
    h0: OperatorMatrix
    h1: OperatorMatrix
    spec0: object

    @classmethod
    def build(cls, spec: SpinChainSpec):
        h0 = build_hopping(spec)
        return cls(spec, h0, build_zz(spec), eigendecompose(h0))


def _protocol_for(kind: str, velocity, lambda1: float, t_total: float) -> DriveProtocol:
    if kind == "quench" or (velocity is not None and math.isinf(velocity)):
        return DriveProtocol(kind="quench", lambda_final=lambda1, t_total=t_total)
    return DriveProtocol(kind="ramp_hold", lambda_final=lambda1, t_total=t_total, velocity=velocity)


def _run_point(
    ops: _ModelOps,
    protocol: DriveProtocol,
    beta: float,
    scan_value: float,
    dt: float,
    fidelity_convention: str,
    certify: bool = True,
) -> tuple[ScanRecord, WorkDistribution]:
    """One scan point: its record and the work distribution the record was built from."""
    start = time.perf_counter()
    spec_f = eigendecompose(assemble(ops.h0, ops.h1, protocol.lambda_final))
    rho0 = gibbs_state(ops.spec0, beta)
    target = gibbs_state(spec_f, beta)

    prop = propagate(ops.h0, ops.h1, protocol, dt, method=PROPAGATION_METHOD)
    evolved = evolve_density(rho0, prop)
    infid = infidelity(evolved, target, fidelity_convention)

    if certify and protocol.ramp_time > 0.0:
        half = propagate(ops.h0, ops.h1, protocol, dt / 2.0, method=PROPAGATION_METHOD)
        shift = abs(infidelity(evolve_density(rho0, half), target, fidelity_convention) - infid)
        if shift > CERTIFICATION_SHIFT:
            raise CertificationError(
                f"dt={dt} not certified at scan value {scan_value}: infidelity shift {shift:.3e}"
            )

    dist = tpm_distribution(ops.spec0, spec_f, prop, beta)
    jz = jarzynski_check(
        dist,
        log_partition_function(ops.spec0, beta),
        log_partition_function(spec_f, beta),
        beta,
    )
    if jz.abs_deviation > IDENTITY_MONITOR:
        raise CertificationError(
            f"exact-identity monitor tripped at scan value {scan_value}: "
            f"Jarzynski deviation {jz.abs_deviation:.3e}"
        )
    epsilon = 1e-6 * (ops.spec0.spectral_range + spec_f.spectral_range)
    delta = delta_concentration(dist, epsilon)
    record = ScanRecord(
        scan_value=scan_value,
        infidelity=infid,
        avg_work=average_work(dist),
        jarzynski_deviation=jz.abs_deviation,
        delta_variance=delta.variance,
        runtime_seconds=time.perf_counter() - start,
    )
    return record, dist


def _pool_map(jobs, threads: Optional[int]):
    if threads is None:
        threads = os.cpu_count() or 1
    if threads <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def run_velocity_scan(cfg: RunConfig, threads: Optional[int] = None, certify: bool = True) -> list[ScanRecord]:
    """Ramp-then-hold infidelity versus ramp velocity, plus the quench sentinel.

    Every protocol shares t_total = lambda1 / min(finite grid velocities), so
    faster ramps hold at full coupling for the remaining time.
    """
    grid = sorted(cfg.grid)
    finite = [v for v in grid if math.isfinite(v)]
    if not finite:
        raise ConfigError("grid: velocity scan needs at least one finite velocity")
    if not any(math.isinf(v) for v in grid):
        grid.append(math.inf)
    t_total = cfg.lambda1 / min(finite) if cfg.lambda1 != 0.0 else cfg.t_total
    ops = _ModelOps.build(cfg.model)

    def job(v):
        protocol = _protocol_for("quench" if math.isinf(v) else "ramp_hold", v, cfg.lambda1, t_total)
        return lambda: _run_point(ops, protocol, cfg.beta, v, cfg.dt, cfg.fidelity_convention, certify)[0]

    records = _pool_map([job(v) for v in grid], threads)
    return sorted(records, key=lambda r: r.scan_value)


def run_size_scan(cfg: RunConfig, threads: Optional[int] = None, certify: bool = True) -> list[ScanRecord]:
    """Infidelity versus chain length at the configured ramp velocity and total time."""
    sizes = sorted(int(v) for v in cfg.grid)
    protocol = _protocol_for(cfg.protocol_kind, cfg.velocity, cfg.lambda1, cfg.t_total)

    def job(n):
        spec = SpinChainSpec(n, cfg.model.coupling, cfg.model.boundary)
        return lambda: _run_point(
            _ModelOps.build(spec), protocol, cfg.beta, float(n), cfg.dt, cfg.fidelity_convention, certify
        )[0]

    records = _pool_map([job(n) for n in sizes], threads)
    return sorted(records, key=lambda r: r.scan_value)


@dataclass(frozen=True)
class ScalingReport:
    slope_adiabatic: float
    slope_quench: float
    intercept_adiabatic: float
    intercept_quench: float
    r_squared_adiabatic: float
    r_squared_quench: float
    records_adiabatic: list[ScanRecord]
    records_quench: list[ScanRecord]


def _loglog_fit(xs, ys):
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def run_lambda_scaling(
    cfg: RunConfig, threads: Optional[int] = None, certify: bool = True, slow_velocity: float = 1e-3
) -> ScalingReport:
    """Log-log fit of infidelity versus coupling for a slow full ramp and a quench.

    The slow ramp ends exactly at t_r = lambda1 / slow_velocity per coupling;
    the quench evolves for the configured t_total (its infidelity is
    hold-time independent).
    """
    lams = sorted(float(v) for v in cfg.grid)
    if len(lams) < 2:
        raise ConfigError("grid: scaling fit needs at least 2 coupling values")
    ops = _ModelOps.build(cfg.model)

    def job(lam, quench):
        if quench:
            protocol = _protocol_for("quench", None, lam, cfg.t_total)
        else:
            protocol = _protocol_for("ramp_hold", slow_velocity, lam, lam / slow_velocity)
        return lambda: _run_point(ops, protocol, cfg.beta, lam, cfg.dt, cfg.fidelity_convention, certify)[0]

    results = _pool_map([job(lam, quench) for quench in (False, True) for lam in lams], threads)
    ramp_records, quench_records = results[: len(lams)], results[len(lams) :]

    def usable(records):
        kept = [(r.scan_value, r.infidelity) for r in records if r.infidelity > 1e-14]
        if len(kept) < len(records):
            warnings.warn("infidelity underflow: some points excluded from the scaling fit")
        if len(kept) < 2:
            raise CertificationError("scaling fit has fewer than 2 usable points")
        return np.array([k[0] for k in kept]), np.array([k[1] for k in kept])

    sa, ia, ra = _loglog_fit(*usable(ramp_records))
    sq, iq, rq = _loglog_fit(*usable(quench_records))
    return ScalingReport(sa, sq, ia, iq, ra, rq, ramp_records, quench_records)


@dataclass(frozen=True)
class PertCompareEntry:
    lambda1: float
    max_abs_residual_2nd: float
    linearity_rel_residual_2nd: float
    w0_fit: float
    third_order_coefficient_re: float
    third_order_coefficient_im: float
    quadrature_max_gap: float


@dataclass(frozen=True)
class PertCompareReport:
    entries: list[PertCompareEntry]
    residual_slope: float
    curves: dict
    measure2: object = None
    measure3: object = None


def run_pert_compare(cfg: RunConfig) -> PertCompareReport:
    """Exact ln chi against the second-order prediction (and the adiabatic
    third-order correction) over the configured coupling grid."""
    lams = sorted(float(v) for v in cfg.grid)
    if not lams:
        raise ConfigError("grid: pert_compare needs coupling values")
    ops = _ModelOps.build(cfg.model)
    u = default_u_grid(cfg.beta)
    m2 = two_point_measure(ops.spec0, ops.h1, cfg.beta)
    first = first_cumulant(ops.spec0, ops.h1, cfg.beta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m3 = three_point_measure(ops.spec0, ops.h1, cfg.beta)
        s = third_order_adiabatic_coefficient(m3)

    entries = []
    curves: dict = {"u": u.tolist()}
    residuals = []
    for lam in lams:
        if cfg.protocol_kind == "quench":
            protocol = _protocol_for("quench", None, lam, cfg.t_total)
        else:
            v = cfg.velocity if cfg.velocity else 1e-3
            protocol = _protocol_for("ramp_hold", v, lam, lam / v)
        spec_f = eigendecompose(assemble(ops.h0, ops.h1, lam))
        prop = propagate(ops.h0, ops.h1, protocol, cfg.dt, method=PROPAGATION_METHOD)
        dist = tpm_distribution(ops.spec0, spec_f, prop, cfg.beta)
        exact = cfw_from_distribution(dist, u)
        pert2 = lnchi_second_order(m2, protocol, first, lam, u)
        quad = lnchi_second_order_quadrature(m2, protocol, first, lam, u)
        residual = float(np.abs(exact.ln_chi - pert2.ln_chi).max())
        residuals.append(residual)
        lin = phase_linearity(pert2)
        entries.append(
            PertCompareEntry(
                lambda1=lam,
                max_abs_residual_2nd=residual,
                linearity_rel_residual_2nd=lin.rel_residual,
                w0_fit=lin.w0_fit,
                third_order_coefficient_re=s.real,
                third_order_coefficient_im=s.imag,
                quadrature_max_gap=float(np.abs(pert2.ln_chi - quad.ln_chi).max()),
            )
        )
        curves[f"lam_{lam}"] = {
            "exact_re": np.real(exact.ln_chi).tolist(),
            "exact_im": np.imag(exact.ln_chi).tolist(),
            "pert2_re": np.real(pert2.ln_chi).tolist(),
            "pert2_im": np.imag(pert2.ln_chi).tolist(),
            "pert3_im": np.imag(1j * u * lam**3 * s).tolist(),
        }
    slope = _loglog_fit(np.array(lams), np.array(residuals))[0] if len(lams) >= 2 else math.nan
    return PertCompareReport(
        entries=entries, residual_slope=slope, curves=curves, measure2=m2, measure3=m3
    )


def run_single(cfg: RunConfig, certify: bool = True) -> ScanRecord:
    """One protocol run with the full diagnostic record."""
    return run_single_detailed(cfg, certify)[0]


def run_single_detailed(cfg: RunConfig, certify: bool = True):
    """Single run returning (record, work distribution, CFW samples)."""
    ops = _ModelOps.build(cfg.model)
    protocol = _protocol_for(cfg.protocol_kind, cfg.velocity, cfg.lambda1, cfg.t_total)
    value = math.inf if cfg.protocol_kind == "quench" else (cfg.velocity or 0.0)
    record, dist = _run_point(ops, protocol, cfg.beta, value, cfg.dt, cfg.fidelity_convention, certify)
    cfw = cfw_from_distribution(dist, default_u_grid(cfg.beta))
    return record, dist, cfw


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def emit_csv(records: list[ScanRecord], path) -> None:
    """Fixed-schema CSV; full repr precision, UTF-8, '.' decimal separator."""
    write_csv(path, CSV_COLUMNS, ([getattr(r, c) for c in CSV_COLUMNS] for r in records))


def emit_json_summary(cfg: RunConfig, records, fits, path, wall_time: float) -> None:
    payload = {
        "config": config_to_dict(cfg),
        "records": [asdict(r) for r in records],
        "fits": fits,
        "tool_version": __version__,
        "wall_time": wall_time,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
