"""Span tracing of spinwork's public functions from outside the package.

Each traced function is replaced by a wrapper in every spinwork module
namespace that holds it, because ``experiments`` and ``cli`` import functions
by name: patching only the defining module would miss those calls.  Spans are
kept in memory and written out when the run ends.  Nothing under ``src/``
changes.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

SPINWORK_MODULES = (
    "spinwork",
    "spinwork.spin_model",
    "spinwork.spectral_core",
    "spinwork.drive_dynamics",
    "spinwork.work_statistics",
    "spinwork.perturbative_cfw",
    "spinwork.experiments",
    "spinwork.cli",
)

LAYERS = (
    "spin_model",
    "spectral_core",
    "drive_dynamics",
    "work_statistics",
    "perturbative_cfw",
    "experiments",
    "cli",
)

# (defining module, function name, layer).  The writers count as the cli
# layer's output stage wherever they are defined.
TRACED = (
    ("spin_model", "build_hopping", "spin_model"),
    ("spin_model", "build_zz", "spin_model"),
    ("spin_model", "magnetization_sectors", "spin_model"),
    ("spectral_core", "eigendecompose", "spectral_core"),
    ("spectral_core", "gibbs_state", "spectral_core"),
    ("spectral_core", "infidelity", "spectral_core"),
    ("spectral_core", "log_partition_function", "spectral_core"),
    ("drive_dynamics", "propagate", "drive_dynamics"),
    ("drive_dynamics", "evolve_density", "drive_dynamics"),
    ("work_statistics", "tpm_distribution", "work_statistics"),
    ("work_statistics", "cfw_from_distribution", "work_statistics"),
    ("work_statistics", "jarzynski_check", "work_statistics"),
    ("work_statistics", "delta_concentration", "work_statistics"),
    ("work_statistics", "phase_linearity", "work_statistics"),
    ("perturbative_cfw", "two_point_measure", "perturbative_cfw"),
    ("perturbative_cfw", "three_point_measure", "perturbative_cfw"),
    ("perturbative_cfw", "first_cumulant", "perturbative_cfw"),
    ("perturbative_cfw", "lnchi_second_order", "perturbative_cfw"),
    ("perturbative_cfw", "lnchi_second_order_quadrature", "perturbative_cfw"),
    ("perturbative_cfw", "lnchi_third_order_adiabatic", "perturbative_cfw"),
    ("experiments", "run_velocity_scan", "experiments"),
    ("experiments", "run_size_scan", "experiments"),
    ("experiments", "run_pert_compare", "experiments"),
    ("experiments", "emit_csv", "cli"),
    ("experiments", "emit_json_summary", "cli"),
    ("perturbative_cfw", "measure2_to_csv", "cli"),
    ("perturbative_cfw", "measure3_to_csv", "cli"),
    ("cli", "main", "cli"),
)

WRITERS = {
    "experiments.emit_csv",
    "experiments.emit_json_summary",
    "perturbative_cfw.measure2_to_csv",
    "perturbative_cfw.measure3_to_csv",
}
SCANS = {"experiments.run_velocity_scan", "experiments.run_size_scan", "experiments.run_pert_compare"}


def _propagate_attrs(bound, result):
    return {"dt": float(bound.arguments["dt"]), "ramp_time": float(bound.arguments["p"].ramp_time)}


def _tpm_attrs(bound, result):
    return {"atoms": int(result.works.size), "d": int(bound.arguments["spec_i"].dimension)}


def _three_point_attrs(bound, result):
    return {"atoms": int(result.weights.size), "d": int(bound.arguments["h0_spec"].dimension)}


def _records_attrs(bound, result):
    records = result.entries if hasattr(result, "entries") else result
    return {"points": len(records)}


ANNOTATE = {
    "drive_dynamics.propagate": _propagate_attrs,
    "work_statistics.tpm_distribution": _tpm_attrs,
    "perturbative_cfw.three_point_measure": _three_point_attrs,
    "experiments.run_velocity_scan": _records_attrs,
    "experiments.run_size_scan": _records_attrs,
    "experiments.run_pert_compare": _records_attrs,
}
ALLOC_TRACED = {"perturbative_cfw.three_point_measure"}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: str
    thread_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds the spans of one run and the patches that produce them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, layer: str, fn):
        signature = inspect.signature(fn)
        annotate = ANNOTATE.get(qualname)
        alloc = qualname in ALLOC_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                span = Span(qualname, layer, 0.0, 0.0, stack[-1] if stack else None,
                            self.run_id, threading.get_ident())
                self.spans.append(span)
            stack.append(index)
            if alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if alloc:
                    span.attrs["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            if annotate is not None:
                span.attrs.update(annotate(signature.bind(*args, **kwargs), result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in SPINWORK_MODULES]
        for module_name, func, layer in TRACED:
            original = getattr(importlib.import_module(f"spinwork.{module_name}"), func)
            wrapper = self._wrap(f"{module_name}.{func}", layer, original)
            for module in modules:
                if getattr(module, func, None) is original:
                    self._patches.append((module, func, original))
                    setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._patches):
            setattr(module, func, original)
        self._patches.clear()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def spans_from_json(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _covered(children.get(i, [])) for i, s in enumerate(spans)]


def layer_metrics(spans: list[Span], dt: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, in seconds, counts and ratios."""
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return sum(s.duration for s in named(*names))

    def ratio(num, den):
        return num / den if den else 0.0

    propagates = named("drive_dynamics.propagate")
    propagate_s = total("drive_dynamics.propagate")
    steps = sum(s.attrs["ramp_time"] / s.attrs["dt"] for s in propagates)
    tpm = named("work_statistics.tpm_distribution")
    tpm_atoms = sum(s.attrs["atoms"] for s in tpm)
    three = named("perturbative_cfw.three_point_measure")
    three_atoms = sum(s.attrs["atoms"] for s in three)
    build = [s for s in spans if s.layer == "spin_model"]

    metrics = {
        "spin_model.build_s": sum(s.duration for s in build),
        "spin_model.build_calls": len(build),
        "spectral_core.eigendecompose_s": total("spectral_core.eigendecompose"),
        "spectral_core.eigendecompose_calls": len(named("spectral_core.eigendecompose")),
        "spectral_core.fidelity_s": total("spectral_core.infidelity"),
        "spectral_core.fidelity_calls": len(named("spectral_core.infidelity")),
        "spectral_core.gibbs_s": total("spectral_core.gibbs_state"),
        "drive_dynamics.propagate_s": propagate_s,
        "drive_dynamics.propagate_calls": len(propagates),
        "drive_dynamics.certify_propagate_s": sum(
            s.duration for s in propagates if math.isclose(s.attrs["dt"], dt / 2.0, rel_tol=1e-12)
        ),
        "drive_dynamics.steps": steps,
        "drive_dynamics.steps_per_s": ratio(steps, propagate_s),
        "drive_dynamics.evolve_s": total("drive_dynamics.evolve_density"),
        "work_statistics.tpm_s": total("work_statistics.tpm_distribution"),
        "work_statistics.tpm_atoms": tpm_atoms,
        "work_statistics.tpm_merge_ratio": ratio(tpm_atoms, sum(s.attrs["d"] ** 2 for s in tpm)),
        "work_statistics.cfw_s": total("work_statistics.cfw_from_distribution"),
        "perturbative_cfw.two_point_s": total("perturbative_cfw.two_point_measure"),
        "perturbative_cfw.three_point_s": total("perturbative_cfw.three_point_measure"),
        "perturbative_cfw.three_point_atoms": three_atoms,
        "perturbative_cfw.three_point_merge_ratio": ratio(
            three_atoms, sum(s.attrs["d"] ** 3 + 3 * s.attrs["d"] ** 2 + 1 for s in three)
        ),
        "perturbative_cfw.three_point_alloc_peak_mb": max(
            (s.attrs["alloc_peak_bytes"] / 2**20 for s in three), default=0.0
        ),
        "perturbative_cfw.second_order_s": total("perturbative_cfw.lnchi_second_order"),
        "perturbative_cfw.quadrature_s": total("perturbative_cfw.lnchi_second_order_quadrature"),
        "perturbative_cfw.third_order_s": total("perturbative_cfw.lnchi_third_order_adiabatic"),
        "experiments.scan_s": total(*SCANS),
        "experiments.points": sum(s.attrs["points"] for s in named(*SCANS)),
        "cli.emit_s": total(*WRITERS),
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if s.layer == layer)
    return metrics
