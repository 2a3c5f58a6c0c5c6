"""Config-driven scans: velocity and size sweeps, coupling-scaling fits, and
perturbative-vs-exact comparisons, with CSV/JSON emission.

A scan point is a dt run and, when certified, a check run at 4dt, or at 2dt
or dt/2 for a ramp of two steps or one (``_steps``).  Every subcommand's
stepped runs are scan points, pert-compare's exact run per coupling included.
Each run is one task, ``_run``, on the chain's symmetry-adapted operators
(``_ModelOps``), and one join, ``_run_points``, runs every subcommand's tasks
the same way, BLAS on one thread, on a fork pool or in this process, gates
them and returns them in point order.  So output is bit-identical for a fixed config whatever the
worker count, but for the ``runtime_seconds`` column, a point's wall time.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import multiprocessing as mp
import os
import sys
import time
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .drive_dynamics import DriveProtocol, ProtocolError, _step_count, evolve_density, propagate
from .perturbative_cfw import (
    SpectralMeasure2,
    SpectralMeasure3,
    check_quadrature,
    first_cumulant,
    lnchi_second_order,
    lnchi_second_order_quadrature,
    lnchi_third_order_adiabatic,
    third_order_adiabatic_coefficient,
    three_point_atom_counts,
    three_point_measure,
    two_point_measure,
)
from .spectral_core import (
    eigendecompose,
    gibbs_state,
    infidelity,
    log_partition_function,
)
from .spin_model import (DimensionError, OperatorMatrix, SpinChainSpec, adapted_block_sizes, adapted_chain, assemble,
                         chain_points)
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

# the scan kinds, each with the grid it runs when the config gives none
_DEFAULT_GRIDS = {
    "velocity": [*np.geomspace(1e-3, 10.0, 12), math.inf],
    "size": [4, 5, 6, 7, 8, 9],
    "lambda_scaling": [0.05, 0.1, 0.2],
    "pert_compare": [0.05, 0.1, 0.2],
    "single": [],
}
CERTIFICATION_SHIFT = 1e-6
IDENTITY_MONITOR = 1e-8
SLOW_VELOCITY = 1e-3  # the slow ramp's velocity when the config gives none
MAX_STEPS = np.iinfo(np.int64).max // 3  # a ramp's steps whose substep index (3 a step) fits in int64
# bound on the energy scale |coupling| (N - 1) (1 + |lambda|) times the longest time (1, beta or a t_total),
# which keeps the energies, their sums and differences, and the Boltzmann exponents and phases finite
ENERGY_LIMIT = sys.float_info.max / 100


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


class CertificationError(RuntimeError):
    """A numerical certification gate failed (time step or exact identity)."""


@dataclass(frozen=True)
class ProtocolConfig:
    kind: str
    velocity: Optional[float]
    t_total: float


@dataclass
class RunConfig:
    """A run's config; its fields and their order are those of the config JSON."""

    model: SpinChainSpec
    beta: float
    lambda1: float
    protocol: ProtocolConfig
    scan: str
    grid: list
    dt: float
    fidelity_convention: str
    seed: int
    output_dir: str

    def validate(self) -> int:
        """Check the config; returns the largest step count of its scan points' records."""
        kind, velocity, t_total = self.protocol.kind, self.protocol.velocity, self.protocol.t_total
        if self.beta <= 0 or not math.isfinite(self.beta):
            raise ConfigError("beta: must be positive and finite")
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise ConfigError("dt: must be positive and finite")
        if not math.isfinite(self.lambda1):
            raise ConfigError("lambda1: must be finite")
        if not 0 < t_total < math.inf:
            raise ConfigError("protocol.t_total: must be positive and finite")
        if self.scan not in _DEFAULT_GRIDS:
            raise ConfigError(f"scan: unknown kind {self.scan!r}")
        if kind not in ("ramp_hold", "quench"):
            raise ConfigError(f"protocol.kind: unknown kind {kind!r}")
        if self.scan != "single" and not self.grid:
            raise ConfigError("grid: must be nonempty for scan kinds")
        repeated = [v for k, v in enumerate(self.grid) if v in self.grid[:k]]
        if repeated:
            raise ConfigError(f"grid: repeated entry {repeated[0]:g}")
        if self.fidelity_convention not in ("one_minus_F", "one_minus_sqrtF"):
            raise ConfigError(f"fidelity_convention: unknown value {self.fidelity_convention!r}")
        if kind == "ramp_hold":
            if velocity is not None and not velocity > 0:
                raise ConfigError(f"protocol.velocity: {velocity:g} must be positive")
        if self.scan == "size":
            for n in self.grid:
                if not (float(n).is_integer() and n >= 2):
                    raise ConfigError(f"grid: chain size {n:g} is not a whole number of at least 2")
        if self.scan == "velocity":
            for v in self.grid:
                if not v > 0:
                    raise ConfigError(f"grid: velocity {v:g} must be positive (or inf for the quench)")
            if all(math.isinf(v) for v in self.grid):
                raise ConfigError("grid: velocity scan needs at least one finite velocity")
        if self.scan == "lambda_scaling" and len(self.grid) < 2:
            raise ConfigError("grid: scaling fit needs at least 2 coupling values")
        if self.scan in ("lambda_scaling", "pert_compare"):
            for lam in self.grid:
                if not 0 < lam < math.inf:
                    raise ConfigError(f"grid: coupling {lam:g} must be positive and finite")
            slow_ramp = self.scan == "lambda_scaling" or kind == "ramp_hold"
            if slow_ramp and velocity is not None and not 0 < velocity < math.inf:
                raise ConfigError(f"protocol.velocity: {velocity:g} must be positive and finite for the slow ramp")
        points, keys = _POINTS[self.scan]
        try:
            protocols = [protocol for _, protocol, _ in points(self)]
            steps = max(_step_count(protocol, self.dt) for protocol in protocols)
        except ProtocolError as exc:
            raise ConfigError(f"{keys}: {exc}") from exc
        except OverflowError:  # the ramp time over dt rounds to infinity
            steps = math.inf
        if steps > MAX_STEPS:
            raise ConfigError(f"{keys}, dt: a scan point takes {steps:.3g} steps, more than the {MAX_STEPS:.3g} "
                              "whose substep index fits in int64")
        n = int(max(self.grid)) if self.scan == "size" else self.model.n_sites
        t_max = max(p.t_total for p in protocols)
        try:
            chain_points(n)  # one point at the scan's largest chain fits in memory
            if self.scan == "pert_compare":  # and so do the three-point measure and the quadrature oracle
                three_point_atom_counts(adapted_block_sizes(n))
                # at one frequency: the run checks again at its merged two-point measure's count
                check_quadrature(1, default_u_grid(self.beta), [p.t_total for p in protocols])
        except DimensionError as exc:
            raise ConfigError(str(exc)) from exc
        scale = abs(self.model.coupling) * (n - 1) * (1.0 + max(abs(p.lambda_final) for p in protocols))
        if not scale * max(1.0, self.beta, t_max) <= ENERGY_LIMIT:
            lam_key = "grid" if self.scan in ("lambda_scaling", "pert_compare") else "lambda1"
            raise ConfigError(f"model.coupling, {lam_key}: energy scale {scale:.3g} times the longest time "
                              f"{max(1.0, self.beta, t_max):.3g} (1, beta or a t_total) is over {ENERGY_LIMIT:.3g}")
        return steps


@dataclass(frozen=True)
class ScanRecord:
    scan_value: float
    infidelity: float
    avg_work: float
    jarzynski_deviation: float
    delta_variance: float
    runtime_seconds: float


CSV_COLUMNS = [f.name for f in fields(ScanRecord)]


_REQUIRED = object()
_NUMBER = (int, float)
# Each config key's accepted types and its default (_REQUIRED if it has none);
# a nested table stands for a table of keys of its own.
_KEYS = {
    "model": {"n_sites": (int, _REQUIRED), "coupling": (_NUMBER, _REQUIRED), "boundary": (str, "open")},
    "beta": (_NUMBER, _REQUIRED),
    "lambda1": (_NUMBER, _REQUIRED),
    "protocol": {
        "kind": (str, _REQUIRED), "velocity": ((*_NUMBER, type(None)), None), "t_total": (_NUMBER, _REQUIRED),
    },
    "scan": (str, _REQUIRED),
    "grid": (list, []),
    "dt": (_NUMBER, 0.01),
    "fidelity_convention": (str, "one_minus_F"),
    "seed": (int, 0),
    "output_dir": (str, "out"),
}


def _read(data: dict, keys: dict, section: str = "") -> dict:
    """``data`` checked against ``keys``, with its numbers as floats where a
    float is accepted and the defaults of its missing optional keys."""
    where = f"{section}." if section else ""
    for key in data:
        if key not in keys:
            raise ConfigError(f"{where}{key}: unknown key")
    values = {}
    for key, spec in keys.items():
        nested = isinstance(spec, dict)
        if key not in data:
            if nested or spec[1] is _REQUIRED:
                raise ConfigError(f"{where}{key}: missing required key")
            values[key] = spec[1]
            continue
        value = data[key]
        if nested:
            if not isinstance(value, dict):
                raise ConfigError(f"{where}{key}: must be a table of keys")
            value = _read(value, spec, key)
        elif not isinstance(value, spec[0]) or isinstance(value, bool):
            raise ConfigError(f"{where}{key}: wrong type")
        elif isinstance(value, int) and spec[0] is not int:  # an int where a float is accepted
            value = _parse_number(value, f"{where}{key}")
        values[key] = value
    return values


def _parse_number(v, key: str) -> float:
    """A config number, or a grid's inf or quench, as a float; else a config error naming ``key``."""
    if isinstance(v, str) and v.lower() in ("inf", "quench"):
        return math.inf
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{key}: unrecognized entry {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ConfigError(f"{key}: integer too large for a float") from None


def config_from_dict(data: dict) -> RunConfig:
    values = _read(data, _KEYS)
    try:
        values["model"] = SpinChainSpec(**values["model"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    values["protocol"] = ProtocolConfig(**values["protocol"])
    values["grid"] = [_parse_number(v, "grid") for v in values["grid"]] or list(_DEFAULT_GRIDS.get(values["scan"], []))
    cfg = RunConfig(**values)
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
    return asdict(replace(cfg, grid=["inf" if math.isinf(v) else v for v in cfg.grid]))


# ---------------------------------------------------------------------------
# Scan pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ModelOps:
    h0: OperatorMatrix
    h1: OperatorMatrix
    spec0: object

    @classmethod
    def build(cls, spec: SpinChainSpec):
        h0, h1 = adapted_chain(spec)
        return cls(h0, h1, eigendecompose(h0))


def _protocol_for(kind: str, velocity, lambda1: float, t_total: float) -> DriveProtocol:
    if kind == "quench" or (velocity is not None and math.isinf(velocity)):
        return DriveProtocol(kind="quench", lambda_final=lambda1, t_total=t_total)
    return DriveProtocol(kind="ramp_hold", lambda_final=lambda1, t_total=t_total, velocity=velocity)


def _slow_ramp(cfg: RunConfig, lam: float) -> DriveProtocol:
    """A full ramp to ``lam`` at the config's velocity (SLOW_VELOCITY if none), ending at t_r = lam / v."""
    v = cfg.protocol.velocity or SLOW_VELOCITY
    return _protocol_for("ramp_hold", v, lam, lam / v)


def _velocity_points(cfg: RunConfig) -> list:
    """Ramps at the grid's velocities and the quench sentinel (v = inf), all for
    t_total = |lambda1| / min(finite grid velocities)."""
    grid = sorted(cfg.grid) + [math.inf] * (not any(math.isinf(v) for v in cfg.grid))
    t_total = (abs(cfg.lambda1) / min(v for v in grid if math.isfinite(v)) if cfg.lambda1 != 0.0
               else cfg.protocol.t_total)
    return [(cfg.model, _protocol_for("ramp_hold", v, cfg.lambda1, t_total), v) for v in grid]


def _size_points(cfg: RunConfig) -> list:
    protocol = _protocol_for(cfg.protocol.kind, cfg.protocol.velocity, cfg.lambda1, cfg.protocol.t_total)
    return [(replace(cfg.model, n_sites=n), protocol, float(n)) for n in sorted(int(v) for v in cfg.grid)]


def _single_points(cfg: RunConfig) -> list:
    protocol = _protocol_for(cfg.protocol.kind, cfg.protocol.velocity, cfg.lambda1, cfg.protocol.t_total)
    return [(cfg.model, protocol, math.inf if cfg.protocol.kind == "quench" else (cfg.protocol.velocity or 0.0))]


def _coupling_points(cfg: RunConfig, ramps: bool = True, quenches: bool = True) -> list:
    """The slow ramp at each coupling of the grid, then the quench at each, those asked for."""
    lams = sorted(float(v) for v in cfg.grid)
    return ([(cfg.model, _slow_ramp(cfg, lam), lam) for lam in lams if ramps]
            + [(cfg.model, _protocol_for("quench", None, lam, cfg.protocol.t_total), lam) for lam in lams if quenches])


def _pert_points(cfg: RunConfig) -> list:
    """The exact run at each coupling: the configured quench, else the slow ramp."""
    return _coupling_points(cfg, cfg.protocol.kind != "quench", cfg.protocol.kind == "quench")


# Each scan kind's scan points, (spec, protocol, scan value) triples, and the
# config keys their protocols come from.
_POINTS = {
    "velocity": (_velocity_points, "lambda1, grid"),
    "size": (_size_points, "lambda1, protocol"),
    "lambda_scaling": (_coupling_points, "grid, protocol"),
    "pert_compare": (_pert_points, "grid, protocol"),
    "single": (_single_points, "lambda1, protocol"),
}


def _steps(dt: float, protocol: DriveProtocol, certify: bool) -> tuple:
    """A point's steps: the record's dt and, when the point is certified, the
    check's.  For a fourth-order method a check whose realized step is r times
    the record's shifts by (r^4 - 1) err(dt), err(dt) the record's own error:
    within 1.5% of that at every r from 1.5 to 5, measured on ramps of 2 to 100
    steps.  So the check runs at 4dt where its realized step is at least 3x
    the record's, which holds for every ramp of three steps or more: its shift
    is then at least 80x, and ~255x where the counts quarter exactly, the
    record's error, at a quarter of the record's cost, and the gate of 1e-6
    certifies err(dt) <~ 4e-9.  A ramp of two steps is one step at 4dt as at
    2dt, so it is checked at 2dt (15x).  A ramp of one step at dt is the same
    single step at 2dt, so it is checked in two steps, at min(dt, ramp time) / 2:
    dt/2 unless the ramp is shorter than dt, where dt/2 could be that one step
    again."""
    steps = _step_count(protocol, dt)
    if not certify or steps == 0:
        return (dt,)
    if 3 * _step_count(protocol, 4.0 * dt) <= steps:
        return (dt, 4.0 * dt)
    return (dt, 2.0 * dt) if _step_count(protocol, 2.0 * dt) < steps else (dt, min(dt, protocol.ramp_time) / 2.0)


@dataclass(frozen=True)
class Run:
    """One stepped run: the record at level 0, else the check's infidelity; its
    wall time; and the record's work distribution when the caller keeps it."""

    value: object
    seconds: float
    dist: Optional[WorkDistribution]


def _run(shared: dict, points: list, cfg: RunConfig, certify: bool, keep: bool, i: int, level: int) -> Run:
    """Point ``i``'s run at ``level``, an index into its ``_steps``, with the
    model operators from ``shared`` when its spec is there.

    A run's infidelity is that of the initial Gibbs state evolved at the
    level's step against the final Gibbs state.  The record adds the TPM work
    distribution of the level-0 propagator, whose Jarzynski deviation must be
    within IDENTITY_MONITOR (else :class:`CertificationError`)."""
    spec, protocol, scan_value = points[i]
    start = time.perf_counter()
    ops = shared.get(spec) or _ModelOps.build(spec)
    spec_f = eigendecompose(assemble(ops.h0, ops.h1, protocol.lambda_final))
    prop = propagate(ops.spec0, ops.h1, protocol, _steps(cfg.dt, protocol, certify)[level])
    value = infidelity(evolve_density(gibbs_state(ops.spec0, cfg.beta), prop),
                       gibbs_state(spec_f, cfg.beta), cfg.fidelity_convention)
    if level:
        return Run(value, time.perf_counter() - start, None)
    dist = tpm_distribution(ops.spec0, spec_f, prop, cfg.beta)
    jz = jarzynski_check(dist, log_partition_function(ops.spec0, cfg.beta),
                         log_partition_function(spec_f, cfg.beta), cfg.beta)
    if not jz.rel_deviation <= IDENTITY_MONITOR:
        raise CertificationError(
            f"exact-identity monitor tripped at scan value {scan_value}: "
            f"Jarzynski deviation {jz.rel_deviation:.3e}"
        )
    delta = delta_concentration(dist, 1e-6 * (ops.spec0.spectral_range + spec_f.spectral_range))
    record = ScanRecord(scan_value, value, average_work(dist), jz.rel_deviation, delta.variance, 0.0)
    return Run(record, time.perf_counter() - start, dist if keep else None)


# A pool worker's runner, ``_run`` bound to the run's points, set at the fork.
_worker_run = None


@functools.cache
def _openblas():
    """numpy's bundled scipy-openblas library, or None when numpy links another BLAS."""
    found = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not found:
        return None
    lib = ctypes.CDLL(str(found[0]))
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    return lib


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's bundled OpenBLAS on one thread for the block, restored after it,
    on error too; yields the thread count it then reads (None for another BLAS)."""
    lib = _openblas()
    if lib is None:
        yield None
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield lib.scipy_openblas_get_num_threads64_()
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one
    (taskset and cpusets narrow it), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _init_worker(run) -> None:
    global _worker_run
    _worker_run = run


def _run_task(i: int, level: int) -> Run:
    """One pool task: point ``i``'s run at ``level``."""
    return _worker_run(i, level)


def _run_points(cfg: RunConfig, points: list, threads: Optional[int], certify: bool, workers: Optional[dict],
                shared: Optional[dict] = None, keep: bool = False) -> tuple[list[ScanRecord], list]:
    """Records of ``points``, (spec, protocol, scan value) triples, in their
    order, and, when ``keep``, their work distributions (else Nones).

    The operators of a spec that several points share are built once, here,
    unless the caller passes them in ``shared`` ({spec: _ModelOps}).  Each run
    of a point (its ``_steps``) is a task, one ``_run``, and the tasks run
    longest first, with numpy's OpenBLAS on one thread: on min(threads, tasks
    that step, points the memory limit holds at the largest chain) forked
    processes, which inherit that pin, else, below two, in this process, so a
    run of quenches only never forks.  The first error cancels the pending
    tasks, stops the workers (running tasks included) and is raised once the
    pool has shut down.  The join gates a point's check run against its
    record to CERTIFICATION_SHIFT and sums their wall times.  ``workers``,
    when given, receives the worker count, the start method (None in this
    process) and the BLAS thread count.
    """
    steps = [_steps(cfg.dt, protocol, certify) for _, protocol, _ in points]
    n_steps = {(i, level): _step_count(points[i][1], step)
               for i, point_steps in enumerate(steps) for level, step in enumerate(point_steps)}

    def cost(task):
        """Steps of the task's run plus one (a quench steps nothing)
        times the matmul flops of the distinct adapted blocks, sum b^3."""
        return (n_steps[task] + 1) * sum(b**3 for b in adapted_block_sizes(points[task[0]][0].n_sites))

    tasks = sorted(n_steps, key=cost, reverse=True)
    if shared is None:
        shared = {spec: _ModelOps.build(spec) for spec, n in Counter(p[0] for p in points).items() if n > 1}
    run = functools.partial(_run, shared, points, cfg, certify, keep)
    held = chain_points(max((spec.n_sites for spec, _, _ in points), default=2))
    count = min(_usable_cpus() if threads is None else threads, sum(n > 0 for n in n_steps.values()), held)
    with _one_blas_thread() as blas:
        if count <= 1 or "fork" not in mp.get_all_start_methods():
            count, start_method = 1, None
            runs = {task: run(*task) for task in tasks}
        else:
            # fork: the workers inherit the imported modules, the shared model operators,
            # the runner and the BLAS pin (a spawned worker spends ~0.45 s on imports).
            # Forking is safe while the caller runs no other thread; OpenBLAS stops
            # its own threads before a fork.
            start_method, others = "fork", set(mp.active_children())
            pool = ProcessPoolExecutor(count, mp_context=mp.get_context("fork"),
                                       initializer=_init_worker, initargs=(run,))
            try:
                futures = {pool.submit(_run_task, *task): task for task in tasks}
                runs = {futures[future]: future.result() for future in as_completed(futures)}
            except BaseException:
                # cancel_futures drops only the queued tasks: stop the running ones too
                for worker in set(mp.active_children()) - others:
                    worker.terminate()
                raise
            finally:
                pool.shutdown(cancel_futures=True)
    if workers is not None:
        workers.update(count=count, start_method=start_method, blas_threads=blas)

    records = []
    for i, point_steps in enumerate(steps):
        record = runs[i, 0].value
        for level in range(1, len(point_steps)):
            shift = abs(runs[i, level].value - record.infidelity)
            if not shift <= CERTIFICATION_SHIFT:
                raise CertificationError(
                    f"dt={point_steps[0]} not certified at scan value {record.scan_value} "
                    f"against dt={point_steps[level]}: infidelity shift {shift:.3e}"
                )
        seconds = sum(runs[i, level].seconds for level in range(len(point_steps)))
        records.append(replace(record, runtime_seconds=seconds))
    return records, [runs[i, 0].dist for i in range(len(points))]


def run_velocity_scan(
    cfg: RunConfig, threads: Optional[int] = None, certify: bool = True, workers: Optional[dict] = None
) -> list[ScanRecord]:
    """Ramp-then-hold infidelity versus ramp velocity, plus the quench sentinel.

    Every protocol shares t_total = |lambda1| / min(finite grid velocities), so
    faster ramps hold at full coupling for the remaining time.  ``threads`` and
    ``workers`` are as in ``_run_points``.
    """
    return _run_points(cfg, _velocity_points(cfg), threads, certify, workers)[0]


def run_size_scan(
    cfg: RunConfig, threads: Optional[int] = None, certify: bool = True, workers: Optional[dict] = None
) -> list[ScanRecord]:
    """Infidelity versus chain length at the configured ramp velocity and total
    time.  Each run builds its point's model where it runs; ``threads`` and
    ``workers`` are as in ``_run_points``."""
    return _run_points(cfg, _size_points(cfg), threads, certify, workers)[0]


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
    cfg: RunConfig, threads: Optional[int] = None, certify: bool = True, workers: Optional[dict] = None,
) -> ScalingReport:
    """Log-log fit of infidelity versus coupling for a slow full ramp and a quench.

    The slow ramp runs at the config's protocol.velocity v (SLOW_VELOCITY if
    none) and ends exactly at t_r = lambda1 / v per coupling; the quench has
    the identity U, whatever the configured t_total.  ``threads`` and
    ``workers`` are as in ``_run_points``.
    """
    results = _run_points(cfg, _coupling_points(cfg), threads, certify, workers)[0]
    ramp_records, quench_records = results[: len(cfg.grid)], results[len(cfg.grid) :]

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
    measure2: SpectralMeasure2
    measure3: SpectralMeasure3


def run_pert_compare(cfg: RunConfig, threads: Optional[int] = None,
                     workers: Optional[dict] = None) -> PertCompareReport:
    """Exact ln chi against the second-order prediction (and the adiabatic
    third-order correction) over the configured coupling grid.  The exact
    runs are certified scan points, one per coupling, whose distributions
    the runner returns; ``threads`` and ``workers`` are as in ``_run_points``."""
    points = _pert_points(cfg)
    lams = [lam for _, _, lam in points]
    protocols = [protocol for _, protocol, _ in points]
    ops = _ModelOps.build(cfg.model)
    u = default_u_grid(cfg.beta)
    m2 = two_point_measure(ops.spec0, ops.h1, cfg.beta)
    check_quadrature(m2.omegas.size, u, [p.t_total for p in protocols])
    first = first_cumulant(ops.spec0, ops.h1, cfg.beta)
    quads = lnchi_second_order_quadrature(m2, list(zip(protocols, lams)), first, u)
    # before the three-point measure, so that a pool forks from a process without it
    dists = _run_points(cfg, points, threads, True, workers, {cfg.model: ops}, keep=True)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m3 = three_point_measure(ops.spec0, ops.h1, cfg.beta)
        s = third_order_adiabatic_coefficient(m3)

    entries = []
    curves: dict = {"u": u.tolist()}
    for lam, protocol, quad, dist in zip(lams, protocols, quads, dists):
        exact = cfw_from_distribution(dist, u)
        pert2 = lnchi_second_order(m2, protocol, first, lam, u)
        residual = float(np.abs(exact.ln_chi - pert2.ln_chi).max())
        lin = phase_linearity(pert2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pert3 = lnchi_third_order_adiabatic(m3, lam, u)
        quad_gap = float(np.abs(pert2.ln_chi - quad.ln_chi).max())
        entries.append(PertCompareEntry(lam, residual, lin.rel_residual, lin.w0_fit, s.real, s.imag, quad_gap))
        curves[f"lam_{lam}"] = {
            "exact_re": np.real(exact.ln_chi).tolist(),
            "exact_im": np.imag(exact.ln_chi).tolist(),
            "pert2_re": np.real(pert2.ln_chi).tolist(),
            "pert2_im": np.imag(pert2.ln_chi).tolist(),
            "pert3_im": np.imag(pert3.ln_chi).tolist(),
        }
    residuals = np.array([e.max_abs_residual_2nd for e in entries])
    slope = _loglog_fit(np.array(lams), residuals)[0] if len(lams) >= 2 else math.nan
    return PertCompareReport(entries=entries, residual_slope=slope, curves=curves, measure2=m2, measure3=m3)


def run_single(cfg: RunConfig, threads: Optional[int] = None, workers: Optional[dict] = None):
    """One protocol run: its record, work distribution and CFW samples.
    ``threads`` and ``workers`` are as in ``_run_points``."""
    (record,), (dist,) = _run_points(cfg, _single_points(cfg), threads, True, workers, keep=True)
    cfw = cfw_from_distribution(dist, default_u_grid(cfg.beta))
    return record, dist, cfw


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def emit_csv(records: list[ScanRecord], path) -> None:
    """Fixed-schema CSV; full repr precision, UTF-8, '.' decimal separator."""
    write_csv(path, CSV_COLUMNS, [[getattr(r, c) for r in records] for c in CSV_COLUMNS])


def emit_json_summary(cfg: RunConfig, records, fits, path, wall_time: float, workers: dict) -> None:
    """The run's config, records, fits, wall time and worker setup
    ({count, start_method, blas_threads}, as ``_run_points`` reports it)."""
    payload = {
        "config": config_to_dict(cfg),
        "records": [asdict(r) for r in records],
        "fits": fits,
        "tool_version": __version__,
        "wall_time": wall_time,
        "workers": workers,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
