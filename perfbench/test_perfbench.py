"""Tests of the benchmark itself.

Run from the repository root:
    PYTHONPATH=src python -m pytest -q perfbench

Every check must fail on a perturbed output, self time must be exact on
nested spans, and a traced round must reach the functions that ``experiments``
and ``cli`` import by name.  The workloads run here at small N (the checks and
the wrappers do not depend on N) so the tests take seconds.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
from workloads import WORKLOADS, config_for

HERE = Path(__file__).resolve().parent
SMALL = {
    "velocity-n9": {"n_sites": 5},
    "size-fast": {"grid": [4, 6, 7]},
    "pert-quench": {"n_sites": 5},
}


def small_config(name: str, out_dir: Path) -> dict:
    cfg = config_for(WORKLOADS[name], 7, str(out_dir))
    if "n_sites" in SMALL[name]:
        cfg["model"]["n_sites"] = SMALL[name]["n_sites"]
    cfg["grid"] = SMALL[name].get("grid", cfg["grid"])
    return cfg


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def scan(request, tmp_path_factory):
    """(workload, config, outputs, reference) of one small CLI run."""
    from spinwork import cli

    workload = WORKLOADS[request.param]
    tmp = tmp_path_factory.mktemp(request.param)
    cfg = small_config(request.param, tmp / "out")
    path = tmp / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main([workload.subcommand, "--config", str(path), "--threads", "1"]) == 0
    outputs = checks.load_outputs(workload.scan, tmp / "out")
    return workload, cfg, outputs, checks.REFERENCES[workload.scan](cfg)


def failures_after(scan, perturb) -> list[str]:
    workload, cfg, outputs, ref = scan
    changed = copy.deepcopy(outputs)
    perturb(changed, cfg)
    return checks.CHECKS[workload.scan](cfg, changed, ref)


def by_value(outputs, value):
    return next(r for r in outputs["records"] if r["scan_value"] == value)


def test_unperturbed_outputs_pass(scan):
    assert failures_after(scan, lambda out, cfg: None) == []


def perturbations(name):
    def quench(out, key, delta):
        by_value(out, float("inf"))[key] += delta

    def swap_ramps(out, cfg):
        ramps = sorted(out["records"], key=lambda r: r["scan_value"])[:2]
        ramps[0]["infidelity"], ramps[1]["infidelity"] = ramps[1]["infidelity"], ramps[0]["infidelity"]

    def slowest_above_quench(out, cfg):
        slowest = min(out["records"], key=lambda r: r["scan_value"])
        slowest["infidelity"] = by_value(out, float("inf"))["infidelity"] * (1 + 1e-12)

    def jarzynski(out, cfg):
        out["records"][0]["jarzynski_deviation"] = 2e-8

    def size_record(n, key, value=None, delta=0.0):
        def perturb(out, cfg):
            record = by_value(out, float(n))
            record[key] = record[key] + delta if value is None else value
        return perturb

    def flip_two_point(out, cfg):
        row = max(out["two_point"], key=lambda r: abs(r["re_weight"]) if r["omega"] > 1e-6 else 0.0)
        row["re_weight"] = -row["re_weight"]

    def three_point(out, cfg):
        out["three_point"][0]["im_weight"] += 1e-8

    def fits(key, value):
        def perturb(out, cfg):
            if key == "residual_slope":
                out["summary"]["fits"][key] = value
            else:
                out["summary"]["fits"]["entries"][1][key] = value
        return perturb

    def swap_pair(out, cfg):
        rows = {r["omega"]: r for r in out["two_point"]}
        row = max(out["two_point"], key=lambda r: abs(r["re_weight"]) if r["omega"] > 1e-6 else 0.0)
        mirror = rows[-row["omega"]]
        row["re_weight"], mirror["re_weight"] = mirror["re_weight"], row["re_weight"]

    # label: (perturbation, fragment of the failure it must raise)
    return {
        "velocity-n9": {
            "quench infidelity off by 1e-6": (lambda out, cfg: quench(out, "infidelity", 1e-6), "Gibbs-to-Gibbs"),
            "quench avg_work off by 1e-9": (lambda out, cfg: quench(out, "avg_work", 1e-9), "<H1>_0"),
            "velocity series not monotone": (swap_ramps, "nondecreasing"),
            "slowest ramp above the quench": (slowest_above_quench, "slowest ramp"),
            "Jarzynski deviation 2e-8": (jarzynski, "Jarzynski"),
            "a scan point missing": (lambda out, cfg: out["records"].pop(1), "differ from the grid"),
        },
        "size-fast": {
            "N=4 infidelity off by 1e-8": (size_record(4, "infidelity", delta=1e-8), "N=4 infidelity off"),
            "N=6 avg_work off by 1e-8": (size_record(6, "avg_work", delta=1e-8), "N=6 avg_work off"),
            "N=7 infidelity above 1": (size_record(7, "infidelity", value=1.5), "outside (0, 1)"),
            "N=7 infidelity zero": (size_record(7, "infidelity", value=0.0), "outside (0, 1)"),
            "Jarzynski deviation 2e-8": (jarzynski, "Jarzynski"),
        },
        "pert-quench": {
            "two-point weight flipped": (flip_two_point, "-Var(H1)"),
            "two-point weights of +-omega swapped": (swap_pair, "detailed balance"),
            "three-point weight off by 1e-8": (three_point, "kappa3"),
            "quadrature gap 1e-5": (fits("quadrature_max_gap", 1e-5), "quadrature_max_gap"),
            "residual slope 2.4": (fits("residual_slope", 2.4), "residual_slope"),
            "residual slope 3.6": (fits("residual_slope", 3.6), "residual_slope"),
        },
    }[name]


def test_every_check_fails_on_perturbed_output(scan):
    workload = scan[0]
    for label, (perturb, fragment) in perturbations(workload.name).items():
        failures = failures_after(scan, perturb)
        assert any(fragment in f for f in failures), f"{workload.name}: {label} gave {failures}"


def test_independent_chain_matches_program_build():
    from spinwork import SpinChainSpec, build_hopping, build_zz

    spec = SpinChainSpec(5, 1.7)
    h0, h1 = checks.chain(5, 1.7)
    assert abs(build_hopping(spec).matrix - h0).max() == 0.0
    assert abs(build_zz(spec).matrix - h1).max() == 0.0


def span(name, start, end, parent=None, layer="experiments", **attrs):
    return tracing.Span(name, layer, start, end, parent, "r", 1, attrs)


def test_self_time_is_exact_on_nested_spans():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0, layer="spectral_core"),
        span("c", 3.0, 6.5, parent=0, layer="spectral_core"),  # overlaps b: another thread
        span("d", 2.0, 3.0, parent=1, layer="spin_model"),
        span("e", 8.0, 9.5, parent=0, layer="spin_model"),
    ]
    assert tracing.self_times(spans) == [10.0 - 5.5 - 1.5, 2.0, 3.5, 1.0, 1.5]
    metrics = tracing.layer_metrics(spans, dt=0.01, output_bytes=0)
    assert metrics["experiments.self_s"] == 3.0
    assert metrics["spectral_core.self_s"] == 5.5
    assert metrics["spin_model.self_s"] == 2.5


def test_step_count_and_certify_split():
    spans = [
        span("drive_dynamics.propagate", 0.0, 2.0, layer="drive_dynamics", dt=0.01, ramp_time=0.5),
        span("drive_dynamics.propagate", 2.0, 6.0, layer="drive_dynamics", dt=0.005, ramp_time=0.5),
        span("drive_dynamics.propagate", 6.0, 6.5, layer="drive_dynamics", dt=0.01, ramp_time=0.0),
    ]
    metrics = tracing.layer_metrics(spans, dt=0.01, output_bytes=0)
    assert metrics["drive_dynamics.propagate_calls"] == 3
    assert metrics["drive_dynamics.propagate_s"] == 6.5
    assert metrics["drive_dynamics.certify_propagate_s"] == 4.0
    assert metrics["drive_dynamics.steps"] == pytest.approx(150.0, rel=1e-12)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_reaches_every_namespace(name, tmp_path):
    """A traced child round records a propagate span for each scan point at
    the configured dt, under the scan span, together with the writers that
    cli imports by name."""
    workload = WORKLOADS[name]
    cfg = small_config(name, tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    result = run.Runner(workload, path, tmp_path).launch("trace", 1)
    assert result["ok"], (tmp_path / "trace1.log").read_text()
    spans = tracing.spans_from_json(result["spans"])
    scan_index = next(i for i, s in enumerate(spans) if s.name in tracing.SCANS)

    def under_scan(i):
        while spans[i].parent is not None:
            i = spans[i].parent
            if i == scan_index:
                return True
        return False

    propagates = [i for i, s in enumerate(spans) if s.name == "drive_dynamics.propagate"
                  and s.attrs["dt"] == cfg["dt"]]
    assert len(propagates) == len(cfg["grid"])
    assert all(under_scan(i) for i in propagates)
    names = {s.name for s in spans}
    assert {"cli.main", "experiments.emit_csv", "experiments.emit_json_summary",
            "spin_model.build_hopping", "spectral_core.eigendecompose",
            "work_statistics.tpm_distribution"} <= names
    if name == "pert-quench":
        assert {"perturbative_cfw.measure2_to_csv", "perturbative_cfw.measure3_to_csv",
                "perturbative_cfw.three_point_measure"} <= names
    else:
        assert {"spectral_core.infidelity", "drive_dynamics.evolve_density"} <= names


def test_refuses_to_run_without_the_sources(tmp_path):
    copy_dir = tmp_path / "perfbench"
    shutil.copytree(HERE, copy_dir, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy_dir / "run.py"), "--workload", "pert-quench", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reported_metrics_match_the_benchmark_definition():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = set(tracing.layer_metrics([], dt=0.01, output_bytes=0))
    reported |= set(run.pool_figures({"records": [], "wall_time": 1.0}, 2))
    assert set(declared) == reported
    for m in bench["per_layer"] + bench["end_to_end"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]
