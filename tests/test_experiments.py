import contextlib
import copy
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import spinwork.experiments as xp
from spinwork import drive_dynamics, perturbative_cfw, spin_model
from spinwork.spin_model import DimensionError, once_per_copy, zz_diagonal
from spinwork import (
    OperatorMatrix,
    SpinChainSpec,
    assemble,
    build_hopping,
    build_zz,
    cli,
    eigendecompose,
    gibbs_state,
    infidelity,
)
from spinwork.experiments import (
    CSV_COLUMNS,
    ConfigError,
    ScanRecord,
    config_from_dict,
    config_to_dict,
    emit_csv,
    emit_json_summary,
    load_config,
    run_lambda_scaling,
    run_pert_compare,
    run_single,
    run_size_scan,
    run_velocity_scan,
    _ModelOps,
)
from spinwork.work_statistics import JarzynskiReport
from spinwork.perturbative_cfw import (
    lnchi_third_order_adiabatic,
    third_order_adiabatic_coefficient,
    three_point_measure,
)

from conftest import symmetry_adapted

REPO = Path(__file__).resolve().parents[1]
SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted((REPO / "configs").glob("*.json"))}


def tiny_config(**overrides):
    data = {
        "model": {"n_sites": 3, "coupling": 2.0},
        "beta": 1.0,
        "lambda1": 0.1,
        "protocol": {"kind": "ramp_hold", "velocity": 0.05, "t_total": 4.0},
        "scan": "velocity",
        "grid": [0.05, 0.5],
        "dt": 0.02,
        "seed": 0,
    }
    data.update(overrides)
    return data


class TestConfigLoading:
    def test_missing_beta_names_the_key(self, tmp_path):
        data = tiny_config()
        del data["beta"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="beta"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        data = tiny_config(extra_knob=1)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="extra_knob"):
            load_config(path)

    def test_nested_unknown_key_rejected(self):
        data = tiny_config()
        data["model"]["rings"] = 3
        with pytest.raises(ConfigError, match="model.rings"):
            config_from_dict(data)

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{\n  "model": ,\n}')
        with pytest.raises(ConfigError, match=r"line 2, column"):
            load_config(path)

    def test_round_trip(self, tmp_path):
        cfg = config_from_dict(tiny_config(grid=[0.05, "inf"]))
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        again = load_config(path)
        assert config_to_dict(again) == config_to_dict(cfg)

    @pytest.mark.parametrize("name", sorted(p.name for p in (REPO / "configs").glob("*.json")))
    def test_shipped_config_round_trips(self, name):
        cfg = load_config(REPO / "configs" / name)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_quench_sentinel_strings(self):
        for sentinel in ("inf", "quench", "Quench"):
            assert math.isinf(config_from_dict(tiny_config(grid=[0.1, sentinel])).grid[-1])
        # both spellings parse to the one quench entry
        with pytest.raises(ConfigError, match="grid: repeated entry inf"):
            config_from_dict(tiny_config(grid=[0.1, "inf", "quench"]))

    @pytest.mark.parametrize(
        "scan, grid",
        [("velocity", [0.05, 0.5, 0.05]), ("size", [3, 3.0]), ("lambda_scaling", [0.1, 0.1]),
         ("pert_compare", [0.2, 0.1, 0.2]), ("single", [1, 1])],
    )
    def test_repeated_grid_entry_rejected(self, scan, grid):
        with pytest.raises(ConfigError, match=f"grid: repeated entry {grid[0]:g}$"):
            config_from_dict(tiny_config(scan=scan, grid=grid))

    def test_bad_scan_kind(self):
        with pytest.raises(ConfigError, match="scan"):
            config_from_dict(tiny_config(scan="sweep"))

    def test_bad_protocol_kind(self):
        with pytest.raises(ConfigError, match="protocol.kind"):
            config_from_dict(tiny_config(protocol={"kind": "linear", "t_total": 4.0}))

    def test_reference_configs_parse(self):
        full = load_config(REPO / "configs" / "velocity_scan_full.json")
        assert full.model.n_sites == 11
        assert full.model.coupling == 2.0
        assert full.lambda1 == 0.1
        assert math.isinf(full.grid[-1])


class TestEmission:
    def records(self):
        return [
            ScanRecord(0.1, 1e-3, 0.2, 1e-12, 1e-4, 0.5),
            ScanRecord(math.inf, 2e-3, 0.3, 2e-12, 2e-4, 0.1),
        ]

    def test_csv_schema_and_sentinel(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(self.records(), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "scan_value,infidelity,avg_work,jarzynski_deviation,delta_variance,runtime_seconds"
        assert lines[2].startswith("inf,")

    def test_csv_full_precision(self, tmp_path):
        path = tmp_path / "r.csv"
        value = 0.1234567890123456789
        emit_csv([ScanRecord(value, value, value, value, value, 0.0)], path)
        row = path.read_text().strip().split("\n")[1].split(",")
        assert float(row[0]) == value

    def test_json_summary_embeds_config(self, tmp_path):
        cfg = config_from_dict(tiny_config())
        path = tmp_path / "s.json"
        workers = {"count": 2, "start_method": "fork", "blas_threads": 1}
        emit_json_summary(cfg, self.records(), {"slope": 2.0}, path, 1.25, workers)
        payload = json.loads(path.read_text())
        assert payload["config"]["model"]["n_sites"] == 3
        assert payload["fits"]["slope"] == 2.0
        assert payload["tool_version"]
        assert len(payload["records"]) == 2
        assert payload["workers"] == workers


class TestScans:
    def test_velocity_scan_structure(self):
        cfg = config_from_dict(tiny_config())
        records = run_velocity_scan(cfg, threads=1)
        # the quench sentinel is appended automatically
        assert math.isinf(records[-1].scan_value)
        values = [r.scan_value for r in records[:-1]]
        assert values == sorted(values)
        for r in records:
            assert r.jarzynski_deviation < 1e-8
            assert 0.0 <= r.infidelity <= 1.0
            assert r.delta_variance >= 0.0
        # the records come back in scan-value order, the quench last, from a grid that lists it first,
        # in this process and from a pool
        unsorted = config_from_dict(tiny_config(grid=[0.5, "inf", 0.05]))
        for threads in (1, 2):
            assert [r.scan_value for r in run_velocity_scan(unsorted, threads=threads)] == [0.05, 0.5, math.inf]

    def test_velocity_scan_zero_coupling_has_zero_infidelity(self):
        cfg = config_from_dict(tiny_config(lambda1=0.0))
        records = run_velocity_scan(cfg, threads=1)
        assert all(r.infidelity < 1e-10 for r in records)

    def test_size_scan_runs_and_sorts(self):
        cfg = config_from_dict(tiny_config(scan="size", grid=[3, 2]))
        records = run_size_scan(cfg, threads=1)
        assert [r.scan_value for r in records] == [2.0, 3.0]

    def test_quench_size_scan_needs_no_velocity(self):
        cfg = config_from_dict(tiny_config(scan="size", grid=[3, 2], protocol={"kind": "quench", "t_total": 2.0}))
        assert [r.scan_value for r in run_size_scan(cfg, threads=1)] == [2.0, 3.0]

    def test_size_scan_infidelity_grows_with_chain_length(self):
        cfg = config_from_dict(
            {
                "model": {"n_sites": 8, "coupling": 2.0},
                "beta": 1.0,
                "lambda1": 0.1,
                "protocol": {"kind": "ramp_hold", "velocity": 0.2, "t_total": 100.0},
                "scan": "size",
                "grid": [2, 4, 6, 8],
                "dt": 0.01,
                "seed": 0,
            }
        )
        records = run_size_scan(cfg, threads=1, certify=False)
        infids = [r.infidelity for r in records]
        assert all(b > a for a, b in zip(infids, infids[1:]))

    def test_lambda_scaling_fit(self):
        cfg = config_from_dict(
            tiny_config(
                scan="lambda_scaling",
                grid=[0.1, 0.2],
                protocol={"kind": "ramp_hold", "velocity": 0.02, "t_total": 4.0},
            )
        )
        report = run_lambda_scaling(cfg, threads=1)
        assert np.isfinite(report.slope_adiabatic)
        assert np.isfinite(report.slope_quench)
        assert 0.0 <= report.r_squared_quench <= 1.0

    def test_lambda_scaling_needs_two_points(self):
        with pytest.raises(ConfigError, match="grid"):
            config_from_dict(tiny_config(scan="lambda_scaling", grid=[0.1]))

    def test_single_run_quench(self):
        cfg = config_from_dict(
            tiny_config(scan="single", grid=[], protocol={"kind": "quench", "t_total": 5.0})
        )
        record = run_single(cfg)[0]
        assert math.isinf(record.scan_value)
        assert record.jarzynski_deviation < 1e-8

    def test_pert_compare_report(self):
        cfg = config_from_dict(
            tiny_config(
                model={"n_sites": 3, "coupling": 2.0},
                scan="pert_compare",
                grid=[0.05, 0.1],
                protocol={"kind": "quench", "t_total": 1.0},
            )
        )
        report = run_pert_compare(cfg)
        assert len(report.entries) == 2
        for entry in report.entries:
            assert entry.quadrature_max_gap < 1e-6
        assert np.isfinite(report.residual_slope)

    def test_pert_compare_third_order_coefficient_is_exact(self):
        # at N = 4 a coefficient recovered from one ln chi sample by division
        # lands an ulp off; the report must carry the coefficient itself
        cfg = config_from_dict(
            tiny_config(
                model={"n_sites": 4, "coupling": 2.0},
                scan="pert_compare",
                grid=[0.05, 0.1],
                protocol={"kind": "quench", "t_total": 1.0},
            )
        )
        report = run_pert_compare(cfg)
        ops = _ModelOps.build(cfg.model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m3 = three_point_measure(ops.spec0, ops.h1, cfg.beta)
            s = third_order_adiabatic_coefficient(m3)
            for entry in report.entries:
                assert entry.third_order_coefficient_re == s.real
                assert entry.third_order_coefficient_im == s.imag
                pert3 = lnchi_third_order_adiabatic(m3, entry.lambda1, report.curves["u"])
                assert report.curves[f"lam_{entry.lambda1}"]["pert3_im"] == np.imag(pert3.ln_chi).tolist()

    @staticmethod
    def assert_same_records_apart_from_runtime(a, b, tmp_path):
        emit_csv(a, tmp_path / "a.csv")
        emit_csv(b, tmp_path / "b.csv")
        def stripped(path):
            rows = (tmp_path / path).read_text().strip().split("\n")
            return [",".join(r.split(",")[:-1]) for r in rows]
        assert stripped("a.csv") == stripped("b.csv")

    def test_determinism_modulo_runtime(self, tmp_path):
        cfg = config_from_dict(tiny_config())
        a = run_velocity_scan(cfg, threads=2)
        b = run_velocity_scan(cfg, threads=1)
        self.assert_same_records_apart_from_runtime(a, b, tmp_path)
        assert not multiprocessing.active_children()

    def test_size_scan_determinism_modulo_runtime(self, tmp_path):
        cfg = config_from_dict(tiny_config(scan="size", grid=[2, 3, 4]))
        a = run_size_scan(cfg, threads=2)
        b = run_size_scan(cfg, threads=1)
        self.assert_same_records_apart_from_runtime(a, b, tmp_path)

    def test_lambda_scaling_determinism_modulo_runtime(self, tmp_path):
        cfg = config_from_dict(
            tiny_config(
                scan="lambda_scaling",
                grid=[0.1, 0.2],
                protocol={"kind": "ramp_hold", "velocity": 0.02, "t_total": 4.0},
            )
        )
        a = run_lambda_scaling(cfg, threads=2)
        b = run_lambda_scaling(cfg, threads=1)
        self.assert_same_records_apart_from_runtime(
            a.records_adiabatic + a.records_quench, b.records_adiabatic + b.records_quench, tmp_path
        )
        assert (a.slope_adiabatic, a.slope_quench) == (b.slope_adiabatic, b.slope_quench)

    def test_pool_and_in_process_worker_setup(self):
        cfg = config_from_dict(tiny_config())
        pooled, in_process = {}, {}
        run_velocity_scan(cfg, threads=2, workers=pooled)
        run_velocity_scan(cfg, threads=1, workers=in_process)
        # a worker pins its BLAS to one thread whatever the parent runs on
        assert pooled == {"count": 2, "start_method": "fork", "blas_threads": 1}
        assert in_process["count"] == 1 and in_process["start_method"] is None
        # a scan's runs send back no distribution, in this process or from a pool
        for threads in (1, 2):
            assert xp._run_points(cfg, xp._velocity_points(cfg), threads, True, None)[1] == [None] * 3
        # single's dt run and 4dt check run side by side, and the pool sends the record's distribution back
        ramp = config_from_dict(tiny_config(scan="single", grid=[]))
        pooled, in_process = {}, {}
        (record, dist, cfw), (record1, dist1, cfw1) = (run_single(ramp, threads=2, workers=pooled),
                                                       run_single(ramp, threads=1, workers=in_process))
        assert pooled == {"count": 2, "start_method": "fork", "blas_threads": 1} and in_process["count"] == 1
        assert replace(record, runtime_seconds=0.0) == replace(record1, runtime_seconds=0.0)
        assert dist.merge_tolerance == dist1.merge_tolerance
        for a, b in ((dist.works, dist1.works), (dist.probabilities, dist1.probabilities), (cfw.chi, cfw1.chi),
                     (cfw.ln_chi, cfw1.ln_chi)):
            assert np.array_equal(a, b)
        # a quench steps nothing, so pert-compare's quench points run in this process whatever threads says
        quench = config_from_dict(tiny_config(scan="pert_compare", grid=[0.05, 0.1],
                                              protocol={"kind": "quench", "t_total": 1.0}))
        workers = {}
        run_pert_compare(quench, threads=2, workers=workers)
        assert workers["count"] == 1 and workers["start_method"] is None

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_runs_on_one_thread_and_is_restored(self, monkeypatch, threads):
        """A run pins numpy's OpenBLAS to one thread in whichever process runs a task,
        this one or a forked worker, and gives this process back its own count
        afterwards, also when a task fails its gate."""
        lib = xp._openblas()
        if lib is None:
            pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
        propagate = xp.propagate

        def pinned_propagate(*args):
            assert lib.scipy_openblas_get_num_threads64_() == 1
            return propagate(*args)

        monkeypatch.setattr(xp, "propagate", pinned_propagate)
        cfg, before = config_from_dict(tiny_config()), lib.scipy_openblas_get_num_threads64_()
        try:
            lib.scipy_openblas_set_num_threads64_(2)
            workers = {}
            run_velocity_scan(cfg, threads=threads, workers=workers)
            assert workers["blas_threads"] == 1 and workers["count"] == threads
            assert lib.scipy_openblas_get_num_threads64_() == 2
            monkeypatch.setattr(xp, "IDENTITY_MONITOR", -1.0)
            with pytest.raises(xp.CertificationError, match="Jarzynski deviation"):
                run_velocity_scan(cfg, threads=threads)
            assert lib.scipy_openblas_get_num_threads64_() == 2
        finally:
            lib.scipy_openblas_set_num_threads64_(before)

    def test_default_pool_size_follows_cpu_affinity(self, monkeypatch):
        """Without ``threads`` the pool has as many workers as CPUs this process may
        run on, not as many as the machine has."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        workers = {}
        run_velocity_scan(config_from_dict(tiny_config()), workers=workers)
        assert workers["count"] == 1 and workers["start_method"] is None

    def test_pool_holds_no_more_points_than_the_memory_limit(self, monkeypatch):
        """A memory limit that holds one point of the chain runs the scan in this
        process, with the records of a pool of two."""
        cfg, pooled, capped = config_from_dict(tiny_config()), {}, {}
        expected = run_velocity_scan(cfg, threads=2, workers=pooled)
        # the chain of 3 sites has distinct adapted blocks 1, 2, 1: 6 entries
        one_point = spin_model.POINT_BYTES_PER_ENTRY * 6 + spin_model.POINT_BYTES_FIXED
        monkeypatch.setattr(spin_model, "_memory_limit", lambda: 2 * one_point - 1)
        records = run_velocity_scan(cfg, threads=2, workers=capped)
        assert pooled["count"] == 2 and capped["count"] == 1 and capped["start_method"] is None
        assert [replace(r, runtime_seconds=0.0) for r in records] == [replace(r, runtime_seconds=0.0) for r in expected]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pool_record_runtime_sums_its_tasks(self, monkeypatch, threads):
        # each clock reading advances one second, so every run measures 1 s,
        # in a pool task or in this process: the two ramps run at dt and at
        # 4dt, the quench at dt only
        ticks = itertools.count()
        monkeypatch.setattr(xp.time, "perf_counter", lambda: float(next(ticks)))
        records = run_velocity_scan(config_from_dict(tiny_config()), threads=threads)
        assert [r.runtime_seconds for r in records] == [2.0, 2.0, 1.0]

    @pytest.mark.parametrize(
        "protocol, certify, steps",
        [
            # ramps over 3, 1.25 and 0.75 at dt = 0.25: 12, 5 and 3 steps at dt; 3, 1 and 1 at 4dt
            (xp._protocol_for("ramp_hold", 1.0, 3.0, 4.0), True, (0.25, 1.0)),
            (xp._protocol_for("ramp_hold", 1.0, 1.25, 4.0), True, (0.25, 1.0)),
            (xp._protocol_for("ramp_hold", 1.0, 0.75, 4.0), True, (0.25, 1.0)),
            # over 0.5: 2 steps at dt, and 1 at 4dt would be the 2dt run, so the check runs at 2dt
            (xp._protocol_for("ramp_hold", 1.0, 0.5, 4.0), True, (0.25, 0.5)),
            # over 0.25: 1 step at dt and at 2dt, the same run, so it is checked at dt/2
            (xp._protocol_for("ramp_hold", 1.0, 0.25, 4.0), True, (0.25, 0.125)),
            # a ramp over 0.1 is one step at dt/2 too, so it is checked at half its length
            (xp._protocol_for("ramp_hold", 1.0, 0.1, 4.0), True, (0.25, 0.05)),
            # over 0.2, dt/2 and half its length are the same two steps
            (xp._protocol_for("ramp_hold", 1.0, 0.2, 4.0), True, (0.25, 0.1)),
            (xp._protocol_for("ramp_hold", 1.0, 0.75, 4.0), False, (0.25,)),
            (xp._protocol_for("quench", None, 0.75, 4.0), True, (0.25,)),
            (xp._protocol_for("ramp_hold", 1.0, 0.0, 4.0), True, (0.25,)),
        ],
    )
    def test_steps_check_at_four_dt_unless_under_three_steps(self, protocol, certify, steps):
        assert xp._steps(0.25, protocol, certify) == steps
        if len(steps) == 2:  # a check that repeats the record's schedule would shift by exactly 0
            counts = [drive_dynamics._step_count(protocol, step) for step in steps]
            assert counts[1] != counts[0]
            if steps[1] == 1.0:  # a 4dt check's realized step is at least 3x the record's
                assert counts[0] >= 3 * counts[1]

    @staticmethod
    def infidelities(cfg, velocity, dts):
        """The uncertified infidelity of ``cfg``'s ramp at ``velocity`` at each dt of ``dts``."""
        protocol = xp._protocol_for("ramp_hold", velocity, cfg.lambda1, abs(cfg.lambda1) / velocity)
        point, shared = (cfg.model, protocol, velocity), {cfg.model: _ModelOps.build(cfg.model)}
        return {dt: xp._run(shared, [point], replace(cfg, dt=dt), False, False, 0, 0).value.infidelity for dt in dts}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_gate_shift_is_the_four_dt_shift(self, monkeypatch, threads):
        # the v = 0.5 ramp runs over t_total = 0.2: 10 steps at dt = 0.02, 2 at 4dt
        cfg = config_from_dict(tiny_config(grid=[0.5]))
        infid = self.infidelities(cfg, 0.5, (0.01, 0.02, 0.08))
        shift = abs(infid[0.02] - infid[0.08])
        # for a fourth-order error a check whose realized step is at least 3x the record's shifts by at
        # least (3^4 - 1) = 80x the dt run's error (here 5x, ~624x), the dt/2 run by ~15/16 of it
        assert shift > 80.0 * abs(infid[0.02] - infid[0.01])
        monkeypatch.setattr(xp, "CERTIFICATION_SHIFT", shift)
        assert run_velocity_scan(cfg, threads=threads)[0].infidelity == infid[0.02]
        monkeypatch.setattr(xp, "CERTIFICATION_SHIFT", np.nextafter(shift, 0.0))
        with pytest.raises(xp.CertificationError, match=f"against dt=0.08: infidelity shift {shift:.3e}$"):
            run_velocity_scan(cfg, threads=threads)
        assert not multiprocessing.active_children()

    def test_four_dt_shift_is_at_least_15x_the_twice_dt_shift(self):
        # the size-scan protocol (v = 0.2, lambda1 = 0.1, dt = 0.01): 50 steps at dt, 25 at 2dt and 12 at
        # 4dt, so for a fourth-order error the shifts are ~(4.17^4 - 1) and (2^4 - 1) times the dt run's
        cfg = config_from_dict(tiny_config(model={"n_sites": 4, "coupling": 2.0}, grid=[0.2], dt=0.01))
        infid = self.infidelities(cfg, 0.2, (0.01, 0.02, 0.04))
        assert xp._steps(cfg.dt, xp._velocity_points(cfg)[0][1], True) == (0.01, 0.04)
        assert abs(infid[0.04] - infid[0.01]) >= 15.0 * abs(infid[0.02] - infid[0.01])

    @pytest.mark.parametrize("between", [False, True], ids=["under-2dt-shift", "between-shifts"])
    def test_dt_the_twice_dt_check_rejects_is_still_rejected(self, monkeypatch, between):
        # a gate just under the 2dt shift rejects the dt at 2dt, and one between the 2dt and 4dt
        # shifts would pass it there: the 4dt check rejects it at both
        cfg = config_from_dict(tiny_config(grid=[0.1]))
        infid = self.infidelities(cfg, 0.1, (0.02, 0.04, 0.08))
        shift2, shift4 = (abs(infid[dt] - infid[0.02]) for dt in (0.04, 0.08))
        assert shift4 > shift2 > 0.0
        gate = np.sqrt(shift2 * shift4) if between else np.nextafter(shift2, 0.0)
        monkeypatch.setattr(xp, "CERTIFICATION_SHIFT", gate)
        with pytest.raises(xp.CertificationError, match=f"against dt=0.08: infidelity shift {shift4:.3e}$"):
            run_velocity_scan(cfg, threads=1)

    def test_plateau_under_longer_hold(self):
        # the ramp ends at t = 2; doubling the hold leaves the infidelity fixed
        records = []
        for t_total in (4.0, 8.0):
            cfg = config_from_dict(
                tiny_config(
                    scan="single",
                    grid=[],
                    protocol={"kind": "ramp_hold", "velocity": 0.05, "t_total": t_total},
                )
            )
            records.append(run_single(cfg)[0])
        assert abs(records[0].infidelity - records[1].infidelity) < 1e-9

    def test_held_and_trimmed_ramps_give_the_same_u_bit_for_bit(self):
        # the v = 0.5 ramp ends at t = 0.2 of the scan's t_total = 2; propagate stops there, so
        # the same ramp trimmed to its ramp end, or held to t = 4, has the same U
        cfg = config_from_dict(tiny_config())
        ops = _ModelOps.build(cfg.model)
        held = {v: protocol for _, protocol, v in xp._velocity_points(cfg)}[0.5]
        assert held.t_total == 2.0 and held.ramp_time < 2.0
        u, *others = (drive_dynamics.propagate(ops.spec0, ops.h1, p, cfg.dt).unitary
                      for p in (held, replace(held, t_total=held.ramp_time), replace(held, t_total=4.0)))
        for other in others:
            assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(u.blocks, other.blocks))

    def test_quench_record_is_the_gibbs_to_gibbs_infidelity(self):
        # a quench's U is the identity: its record compares the initial and final Gibbs states as they are
        cfg = load_config(REPO / "configs" / "single_quench.json")
        record = run_single(cfg)[0]
        ops = _ModelOps.build(cfg.model)
        spec_f = eigendecompose(assemble(ops.h0, ops.h1, cfg.lambda1))
        assert record.infidelity == infidelity(gibbs_state(ops.spec0, cfg.beta), gibbs_state(spec_f, cfg.beta),
                                               cfg.fidelity_convention)


class TestBlockedOperators:
    def test_each_distinct_adapted_block_is_diagonalized_and_stepped_once(self, monkeypatch):
        """A velocity scan at N = 9 builds its shared model on 18 adapted blocks, of
        which 9 are distinct (a spin-flip pair of sectors shares its arrays): the
        build runs 9 eigh, and each propagate call steps the distinct blocks' 256
        rows once (no flip copy's), through _propagate_block, and runs no eigh: it
        steps from the build's eigendecomposition of H0."""
        eighs, stepped, builds, propagates = [], [], [], []
        eigh, propagate_block, build, propagate = (
            np.linalg.eigh, drive_dynamics._propagate_block, xp._ModelOps.build, xp.propagate)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a) or eigh(a))
        monkeypatch.setattr(drive_dynamics, "_propagate_block",
                            lambda *args: stepped.append(args[1].shape[0]) or propagate_block(*args))

        def counted_build(spec):
            before = len(eighs)
            builds.append((build(spec), len(eighs) - before))
            return builds[-1][0]

        def counted_propagate(*args):
            before = sum(stepped), len(eighs)
            result = propagate(*args)
            propagates.append((sum(stepped) - before[0], len(eighs) - before[1]))
            return result

        monkeypatch.setattr(xp._ModelOps, "build", staticmethod(counted_build))
        monkeypatch.setattr(xp, "propagate", counted_propagate)
        # a one-step ramp (its record and its dt/2 check) and the quench
        cfg = config_from_dict(tiny_config(model={"n_sites": 9, "coupling": 2.0}, grid=[10.0, "inf"], dt=0.01))
        run_velocity_scan(cfg, threads=1)
        ((ops, build_eighs),) = builds
        assert len(ops.h0.blocks) == 18
        assert build_eighs == 9
        assert propagates == [(256, 0)] * 3

    @pytest.mark.parametrize("n_sites, blocks, config", [
        (7, 14, {"scan": "pert_compare", "grid": [0.05, 0.1, 0.2], "protocol": {"kind": "quench", "t_total": 2.0}}),
        (9, 18, {"grid": [0.2, "inf"], "dt": 0.02}),
    ], ids=["pert-quench-n7", "ramp-n9"])
    def test_each_flip_pair_is_one_block_of_multiplicity_two(self, monkeypatch, n_sites, blocks, config):
        """After the build a flip copy is its partner counted twice: in every run, the
        unitarity defect, the evolution and the TPM kernel each take one product with a
        U block, and the fidelity one SVD, per distinct block (half of them).  The runs:
        the pert-quench workload's three quenches at N = 7, and at N = 9 a 25-step ramp,
        its 4dt check and the quench."""
        products, svds = [], []

        class CountedU(np.ndarray):
            """A U block that logs each matmul it enters and hands out plain arrays."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products.append(ufunc)
                return getattr(ufunc, method)(*(x.view(np.ndarray) if isinstance(x, CountedU) else x
                                                for x in inputs), **kwargs)

        propagate_block, svd = drive_dynamics._propagate_block, np.linalg.svd
        monkeypatch.setattr(drive_dynamics, "_propagate_block", lambda *a: propagate_block(*a).view(CountedU))
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: svds.append(a) or svd(a, **kw))
        counts = {}
        for name in ("propagate", "evolve_density", "infidelity", "tpm_distribution"):
            def counted(*args, _fn=getattr(xp, name), _name=name):
                before = len(products), len(svds)
                result = _fn(*args)
                counts.setdefault(_name, []).append((len(products) - before[0], len(svds) - before[1]))
                return result

            monkeypatch.setattr(xp, name, counted)
        cfg = config_from_dict(tiny_config(model={"n_sites": n_sites, "coupling": 2.0}, **config))
        ops = _ModelOps.build(cfg.model)
        assert len(ops.h0.blocks) == blocks
        points = xp._POINTS[cfg.scan][0](cfg)
        xp._run_points(cfg, points, 1, True, None, {cfg.model: ops})
        assert len(counts["propagate"]) == 3 and len(counts["tpm_distribution"]) == len(points)
        assert counts["propagate"] == counts["evolve_density"] == [(blocks // 2, 0)] * 3
        assert counts["infidelity"] == [(0, blocks // 2)] * 3
        assert counts["tpm_distribution"] == [(blocks // 2, 0)] * len(points)

    def test_flip_copies_counted_twice_match_every_block_computed(self):
        """The chain at N = 7 with each block an array of its own (no copies) runs every
        stage on all 14 blocks; records, TPM atoms and both measures match the run on
        7 blocks of multiplicity 2 up to summation order, with the same atom counts."""
        spec = SpinChainSpec(7, 2.0)
        shared = _ModelOps.build(spec)
        h0, h1 = (OperatorMatrix(tuple((r, c, a.copy()) for r, c, a in op.blocks)) for op in (shared.h0, shared.h1))
        apart = _ModelOps(h0, h1, eigendecompose(h0))
        assert len(set(map(id, (a for _, _, a in shared.spec0.blocks)))) == 7
        assert len(set(map(id, (a for _, _, a in apart.spec0.blocks)))) == 14
        cfg = config_from_dict(tiny_config(model={"n_sites": 7, "coupling": 2.0}, dt=0.05))
        for protocol in (xp._protocol_for("ramp_hold", 0.2, 0.1, 0.5), xp._protocol_for("quench", None, 0.1, 2.0)):
            levels = range(len(xp._steps(cfg.dt, protocol, True)))
            runs1, runs2 = ([xp._run({spec: ops}, [(spec, protocol, 0.2)], cfg, True, True, 0, level)
                             for level in levels] for ops in (shared, apart))
            d1, d2 = runs1[0].dist, runs2[0].dist
            for column in CSV_COLUMNS[:-1]:
                assert abs(getattr(runs1[0].value, column) - getattr(runs2[0].value, column)) <= 1e-14, column
            for level in levels[1:]:
                assert abs(runs1[level].value - runs2[level].value) <= 1e-14
            assert d1.works.size == d2.works.size
            assert np.abs(d1.works - d2.works).max() <= 1e-13
            assert np.abs(d1.probabilities - d2.probabilities).max() <= 1e-15
        for measure in (perturbative_cfw.two_point_measure, three_point_measure):
            m1, m2 = (measure(ops.spec0, ops.h1, 1.0) for ops in (shared, apart))
            assert m1.weights.size == m2.weights.size
            assert np.abs(m1.weights - m2.weights).max() <= 1e-13 * np.abs(m2.weights).max()
        assert abs(perturbative_cfw.first_cumulant(shared.spec0, shared.h1, 1.0)
                   - perturbative_cfw.first_cumulant(apart.spec0, apart.h1, 1.0)) <= 1e-14

    @pytest.mark.parametrize("n", range(4, 9))
    def test_validate_estimates_the_three_point_measure_the_run_builds(self, monkeypatch, n):
        """``RunConfig.validate`` asks the memory guard about the atoms that ``three_point_measure``
        builds on the symmetry-adapted model, not about the magnetization sectors'."""
        calls = []
        monkeypatch.setattr(perturbative_cfw, "check_memory", lambda what, estimate: calls.append((what, estimate)))
        cfg = config_from_dict(dict(SHIPPED["pert_compare"], model={"n_sites": n, "coupling": 2.0}))
        calls.clear()  # config_from_dict validated once already
        cfg.validate()
        ops = _ModelOps.build(cfg.model)
        three_point_measure(ops.spec0, ops.h1, cfg.beta)
        validated, built = [call for call in calls if call[0].startswith("three-point measure")]
        assert validated == built

    def test_dense_input_gives_the_same_records_and_atoms(self):
        """The orbit build, and the reference adapter on from_dense of the sector blocks' dense views,
        run the same pipeline: H0 bit for bit, H1 exactly ``zz_diagonal`` at each orbit where the
        reference's projection rounds it, and records and atoms within 1e-14."""
        spec = SpinChainSpec(6, 2.0)
        built = _ModelOps.build(spec)
        h0, h1, isometries = symmetry_adapted(*(OperatorMatrix.from_dense(op(spec).matrix)
                                                for op in (build_hopping, build_zz)))
        dense = _ModelOps(h0, h1, eigendecompose(h0))
        zz = zz_diagonal(spec)
        for (_, _, a0), (_, _, a1), (_, _, b0), (_, _, b1), (rows, _, s) in zip(
                built.h0.blocks, built.h1.blocks, h0.blocks, h1.blocks, isometries, strict=True):
            assert np.array_equal(a0, b0)
            assert np.array_equal(a1, np.diag(zz[rows[np.abs(s).argmax(axis=0)]]))
            assert np.abs(a1 - b1).max() <= 4 * np.finfo(float).eps * np.abs(zz).max()
        cfg = config_from_dict(tiny_config(dt=0.01))
        for protocol in (xp._protocol_for("ramp_hold", 0.2, 0.1, 3.0), xp._protocol_for("quench", None, 0.1, 3.0)):
            levels = range(len(xp._steps(cfg.dt, protocol, True)))
            runs1, runs2 = ([xp._run({spec: ops}, [(spec, protocol, 0.2)], cfg, True, True, 0, level)
                             for level in levels] for ops in (built, dense))
            (r1, d1), (r2, d2) = (runs1[0].value, runs1[0].dist), (runs2[0].value, runs2[0].dist)
            for column in CSV_COLUMNS[:-1]:
                assert abs(getattr(r1, column) - getattr(r2, column)) <= 1e-14, column
            for level in levels[1:]:
                assert abs(runs1[level].value - runs2[level].value) <= 1e-14
            assert d1.works.shape == d2.works.shape
            assert np.abs(d1.works - d2.works).max() <= 1e-14
            assert np.abs(d1.probabilities - d2.probabilities).max() <= 1e-14

    def test_complex_blocks_give_the_same_records_and_atoms(self):
        """The built adapted blocks cast to complex128 (a flip copy still its partner's array) run the
        complex path of every stage (complex eigh and Gibbs factors), which no CLI run reaches since the
        chain is built in float64; records and atoms match."""
        spec = SpinChainSpec(6, 2.0)
        built = _ModelOps.build(spec)
        h0, h1 = (OperatorMatrix(tuple((r, c, a) for (r, c, _), a in zip(
            op.blocks, once_per_copy(lambda a: a.astype(complex), [a for _, _, a in op.blocks]))))
            for op in (built.h0, built.h1))
        cast = _ModelOps(h0, h1, eigendecompose(h0))
        assert all(v.dtype == np.complex128 for _, _, v in cast.spec0.blocks)
        cfg = config_from_dict(tiny_config(dt=0.01))
        for protocol in (xp._protocol_for("ramp_hold", 0.2, 0.1, 3.0), xp._protocol_for("quench", None, 0.1, 3.0)):
            levels = range(len(xp._steps(cfg.dt, protocol, True)))
            runs1, runs2 = ([xp._run({spec: ops}, [(spec, protocol, 0.2)], cfg, True, True, 0, level)
                             for level in levels] for ops in (built, cast))
            (r1, d1), (r2, d2) = (runs1[0].value, runs1[0].dist), (runs2[0].value, runs2[0].dist)
            for column in CSV_COLUMNS[:-1]:
                assert abs(getattr(r1, column) - getattr(r2, column)) <= 1e-11, column
            for level in levels[1:]:
                assert abs(runs1[level].value - runs2[level].value) <= 1e-11
            assert d1.works.shape == d2.works.shape
            assert np.abs(d1.works - d2.works).max() <= 1e-11
            assert np.abs(d1.probabilities - d2.probabilities).max() <= 1e-11

    def test_no_dense_array_at_ten_sites(self):
        """tracemalloc peaks in units of one d x d complex array (16 d^2 bytes) at N = 10:
        0.12 for the model build (0.29 with dense parity projections) and 0.39-0.54 for a size-fast
        scan point on the symmetry-adapted blocks (0.27 and 1.5 on the sector blocks; 0.53 and 1.6-1.9
        when those were complex), against 4.0 and 9.0 when every operator was a dense array."""
        spec = SpinChainSpec(10, 2.0)
        dense_bytes = 16 * spec.dimension**2
        protocol = xp._protocol_for("ramp_hold", 0.2, 0.1, 100.0)
        cfg = config_from_dict(tiny_config(dt=0.01))
        tracemalloc.start()
        try:
            ops = _ModelOps.build(spec)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for level in (0, 1):
                xp._run({spec: ops}, [(spec, protocol, 10.0)], cfg, True, False, 0, level)
            point_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"peaks in 16 d^2: build {build_peak / dense_bytes:.2f}, point {point_peak / dense_bytes:.2f}")
        assert build_peak <= 0.4 * dense_bytes
        assert point_peak <= 1.7 * dense_bytes


class TestCli:
    def run_cli(self, *argv):
        return cli.main(list(argv))

    def test_validate_config_ok(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config()))
        assert self.run_cli("validate-config", "--config", str(path)) == 0

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(beta=-1.0)))
        assert self.run_cli("validate-config", "--config", str(path)) == 2

    @pytest.mark.parametrize("command", ["validate-config", "scan-size"])
    @pytest.mark.parametrize("size", [1, "inf", 15, 4.5])
    def test_bad_size_grid_exit_code(self, tmp_path, monkeypatch, command, size):
        monkeypatch.setattr(spin_model, "_memory_limit", lambda: 8 * 10**9)  # holds a point on 14 sites, not 15
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(scan="size", grid=[size], output_dir=str(tmp_path / "out"))))
        assert self.run_cli(command, "--config", str(path), "--threads", "1") == 2

    @pytest.mark.parametrize(
        "scan, command, grid",
        [
            ("velocity", "validate-config", [0.05, 0]),
            ("velocity", "scan-velocity", [0.05, 0]),
            ("velocity", "validate-config", [0.05, -0.05]),
            ("velocity", "scan-velocity", [0.05, -0.05]),
            ("lambda_scaling", "validate-config", [0.05, 0]),
            ("lambda_scaling", "scan-lambda", [0.05, 0]),
            ("lambda_scaling", "validate-config", [0.05, -0.1]),
            ("lambda_scaling", "scan-lambda", [0.05, -0.1]),
            ("lambda_scaling", "validate-config", [0.05, "inf"]),
            ("lambda_scaling", "scan-lambda", [0.05, "inf"]),
            ("pert_compare", "validate-config", [0.05, 0]),
            ("pert_compare", "pert-compare", [0.05, 0]),
            ("pert_compare", "pert-compare", [0.05, -0.1]),
        ],
    )
    def test_bad_velocity_or_coupling_grid_exit_code(self, tmp_path, scan, command, grid):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(scan=scan, grid=grid, output_dir=str(tmp_path / "out"))))
        assert self.run_cli(command, "--config", str(path), "--threads", "1") == 2

    @pytest.mark.parametrize(
        "scan, command, kind, velocity",
        [
            ("lambda_scaling", "validate-config", "ramp_hold", math.inf),
            ("lambda_scaling", "scan-lambda", "ramp_hold", math.inf),
            ("lambda_scaling", "scan-lambda", "quench", -0.05),
            ("pert_compare", "validate-config", "ramp_hold", math.inf),
            ("pert_compare", "pert-compare", "ramp_hold", math.inf),
        ],
    )
    def test_slow_ramp_velocity_not_positive_and_finite_exit_code(self, tmp_path, scan, command, kind, velocity):
        # the slow ramp ends at t_r = lambda1 / velocity, so it needs 0 < velocity < inf
        cfg = tiny_config(
            scan=scan, grid=[0.05, 0.1], protocol={"kind": kind, "velocity": velocity, "t_total": 4.0},
            output_dir=str(tmp_path / "out"),
        )
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli(command, "--config", str(path), "--threads", "1") == 2

    @pytest.mark.parametrize(
        "key, value",
        [("lambda1", math.nan), ("lambda1", math.inf), ("lambda1", -math.inf)]
        + [("t_total", t) for t in (-1.0, math.nan, math.inf)]
        # JSON integers too large for a float
        + [pytest.param("beta", 10**400, id="beta-10**400"), pytest.param("grid", [10**400], id="grid-10**400")],
    )
    @pytest.mark.parametrize(
        "scan, command",
        [
            ("single", "validate-config"),
            ("single", "single"),
            ("size", "validate-config"),
            ("size", "scan-size"),
            ("pert_compare", "validate-config"),
            ("pert_compare", "pert-compare"),
        ],
    )
    def test_non_finite_coupling_or_bad_total_time_exit_code(self, tmp_path, scan, command, key, value):
        # json.dumps writes NaN and Infinity, which json.loads accepts
        grid = {"single": [], "size": [3], "pert_compare": [0.05, 0.1]}[scan]
        kind = "ramp_hold" if scan == "size" else "quench"
        cfg = tiny_config(
            scan=scan, grid=grid, protocol={"kind": kind, "velocity": 0.05, "t_total": 4.0},
            output_dir=str(tmp_path / "out"),
        )
        if key == "t_total":
            cfg["protocol"]["t_total"] = value
        else:
            cfg[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli(command, "--config", str(path), "--threads", "1") == 2

    @pytest.mark.parametrize("command", ["validate-config", "scan-size", "single"])
    @pytest.mark.parametrize("velocity", [-0.1, 0])
    def test_non_positive_ramp_velocity_exit_code(self, tmp_path, command, velocity):
        scan = "single" if command == "single" else "size"
        path = tmp_path / "c.json"
        cfg = tiny_config(
            scan=scan, grid=[3] if scan == "size" else [], output_dir=str(tmp_path / "out"),
            protocol={"kind": "ramp_hold", "velocity": velocity, "t_total": 4.0},
        )
        path.write_text(json.dumps(cfg))
        assert self.run_cli(command, "--config", str(path), "--threads", "1") == 2

    @pytest.mark.parametrize(
        "scan, command, grid, protocol, n_sites",
        [
            ("single", "single", [], {"kind": "ramp_hold", "velocity": 0.001, "t_total": 10.0}, 3),
            ("size", "scan-size", [2, 3], {"kind": "ramp_hold", "velocity": 0.001, "t_total": 10.0}, 3),
            ("velocity", "scan-velocity", ["inf"], {"kind": "ramp_hold", "velocity": 0.05, "t_total": 4.0}, 3),
            ("lambda_scaling", "scan-lambda", [0.1], {"kind": "ramp_hold", "velocity": 0.05, "t_total": 4.0}, 3),
            ("size", "scan-size", [2, 3], {"kind": "ramp_hold", "t_total": 10.0}, 3),
            ("pert_compare", "pert-compare", [0.1, 0.1], {"kind": "quench", "t_total": 2.0}, 3),
            ("lambda_scaling", "scan-lambda", [0.1, 0.1], {"kind": "ramp_hold", "velocity": 0.05, "t_total": 4.0}, 3),
            ("single", "single", [], {"kind": "quench", "t_total": 2.0}, 1000000),
            ("size", "scan-size", [3, 1e300], {"kind": "ramp_hold", "velocity": 0.05, "t_total": 4.0}, 3),
        ],
        ids=["single-short-ramp", "size-short-ramp", "velocity-quench-only", "scaling-one-coupling", "size-no-velocity",
             "pert-compare-repeated-coupling", "scaling-repeated-coupling", "single-million-sites", "size-grid-1e300"],
    )
    def test_validate_config_rejects_what_the_run_rejects(self, tmp_path, capsys, scan, command, grid, protocol,
                                                          n_sites):
        # a ramp that cannot reach lambda1 = 0.1 within t_total, a velocity grid
        # of the quench alone, a scaling fit over one coupling, a ramp without a
        # velocity, a coupling grid that repeats an entry, a chain no memory holds
        # (estimated without the block sizes of the huge N, so rejected at once)
        cfg = tiny_config(model={"n_sites": n_sites, "coupling": 2.0}, scan=scan, grid=grid, protocol=protocol,
                          output_dir=str(tmp_path / "out"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        errors = []
        for argv in (["validate-config"], [command, "--threads", "1"]):
            started = time.perf_counter()
            assert self.run_cli(*argv, "--config", str(path)) == 2
            assert time.perf_counter() - started < 1.0
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].startswith("config error: ")

    @pytest.mark.parametrize("command", ["validate-config", "single"])
    def test_too_many_sites_exit_code(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(spin_model, "_memory_limit", lambda: 8 * 10**9)  # holds a point on 14 sites, not 15
        path = tmp_path / "c.json"
        cfg = tiny_config(
            model={"n_sites": 15, "coupling": 2.0}, scan="single", grid=[],
            protocol={"kind": "quench", "t_total": 2.0}, output_dir=str(tmp_path / "out"),
        )
        path.write_text(json.dumps(cfg))
        assert self.run_cli(command, "--config", str(path)) == 2

    def test_unknown_command_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self.run_cli("bogus", "--config", str(REPO / "configs" / "single_quench.json"))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: spinwork ") and "invalid choice: 'bogus'" in err

    def test_shipped_pert_compare_runs_without_numpy_unique(self, tmp_path, monkeypatch):
        """The distinct |u| come from one sort (``distinct_spans``), not from np.unique,
        whose first call imports numpy.ma."""

        def unique(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", unique)
        path = str(REPO / "configs" / "pert_compare.json")
        assert self.run_cli("validate-config", "--config", path) == 0
        assert self.run_cli("pert-compare", "--config", path, "--output", str(tmp_path)) == 0

    @pytest.mark.parametrize("command", ["validate-config", "scan-velocity"])
    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_exit_code(self, tmp_path, capsys, command, threads):
        out = tmp_path / "out"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(output_dir=str(out))))
        with pytest.raises(SystemExit) as exc:
            self.run_cli(command, "--config", str(path), "--threads", threads)
        assert exc.value.code == 2
        assert "--threads: must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_shipped_config_validates(self, path):
        assert load_config(path).beta == 1.0
        assert self.run_cli("validate-config", "--config", str(path)) == 0

    def test_negative_coupling_velocity_scan(self, tmp_path):
        # every protocol runs for |lambda1| / min(grid); the quench record is
        # the Gibbs-to-Gibbs infidelity, since U = exp(-i H_f t) leaves the
        # target Gibbs state of H_f fixed
        out = tmp_path / "out"
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(tiny_config(model={"n_sites": 4, "coupling": 2.0}, lambda1=-0.1, output_dir=str(out)))
        )
        assert self.run_cli("scan-velocity", "--config", str(path), "--threads", "1") == 0
        rows = (out / "velocity_records.csv").read_text().strip().split("\n")[1:]
        quench = [float(r.split(",")[1]) for r in rows if math.isinf(float(r.split(",")[0]))]
        spec = SpinChainSpec(4, 2.0)
        h0, h1 = build_hopping(spec), build_zz(spec)
        expected = infidelity(
            gibbs_state(eigendecompose(h0), 1.0), gibbs_state(eigendecompose(assemble(h0, h1, -0.1)), 1.0)
        )
        assert len(quench) == 1 and expected > 1e-4
        assert abs(quench[0] - expected) < 1e-8

    def test_scan_subcommand_mismatch(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(scan="size")))
        assert self.run_cli("scan-velocity", "--config", str(path)) == 2

    def test_velocity_scan_writes_outputs(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(output_dir=str(tmp_path / "out"))))
        assert self.run_cli("scan-velocity", "--config", str(path), "--threads", "1") == 0
        csv_path = tmp_path / "out" / "velocity_records.csv"
        summary_path = tmp_path / "out" / "velocity_summary.json"
        assert csv_path.exists() and summary_path.exists()
        header = csv_path.read_text().split("\n")[0]
        assert header == ",".join(CSV_COLUMNS)
        payload = json.loads(summary_path.read_text())
        assert payload["config"]["scan"] == "velocity"

    def test_output_dir_environment_override(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(scan="single", grid=[], protocol={"kind": "quench", "t_total": 2.0})))
        monkeypatch.setenv("SPINWORK_OUTPUT_DIR", str(tmp_path / "env_out"))
        assert self.run_cli("single", "--config", str(path)) == 0
        assert (tmp_path / "env_out" / "single_records.csv").exists()

    CERTIFIED_RUNS = [
        ("scan-velocity", "1"), ("scan-velocity", "2"), ("scan-size", "1"), ("scan-size", "2"),
        ("scan-lambda", "1"), ("scan-lambda", "2"), ("pert-compare", "1"), ("single", "1"),
    ]

    def failed_certification(self, tmp_path, monkeypatch, capsys, command, threads, velocity):
        """stderr of ``command`` on ramps at ``velocity`` (a velocity scan adds one
        10x faster; the coupling scans ramp to 0.05 and 0.1) with the gate lowered
        to 1e-30: it exits 3, no worker left."""
        scan = cli._SUBCOMMAND_SCAN[command]
        couplings = [0.05, 0.1]
        grid = {"velocity": [velocity, 10 * velocity], "size": [2, 3], "lambda_scaling": couplings,
                "pert_compare": couplings, "single": []}[scan]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(
            scan=scan, grid=grid, output_dir=str(tmp_path / "out"),
            protocol={"kind": "ramp_hold", "velocity": velocity, "t_total": 4.0},
        )))
        monkeypatch.setattr(xp, "CERTIFICATION_SHIFT", 1e-30)
        assert self.run_cli(command, "--config", str(path), "--threads", threads) == 3
        assert not multiprocessing.active_children()
        err = capsys.readouterr().err
        assert "numerical certification failure: dt=0.02 not certified at scan value" in err
        return err

    @pytest.mark.parametrize("command, threads", CERTIFIED_RUNS)
    def test_certification_failure_exit_code(self, tmp_path, monkeypatch, capsys, command, threads):
        # one gate, in the parent, joins a point's dt and 4dt runs on every path
        err = self.failed_certification(tmp_path, monkeypatch, capsys, command, threads, 0.05)
        assert "against dt=0.08:" in err

    @pytest.mark.parametrize("command, threads", CERTIFIED_RUNS)
    def test_one_step_ramp_certification_failure_exit_code(self, tmp_path, monkeypatch, capsys, command, threads):
        # a ramp over dt = 0.02 is one step at dt and at 2dt, the same run, so its gate joins the dt/2 run;
        # the coupling scans' first ramp, over 0.01, is one step at dt/2 too, so its gate joins a run at 0.005
        err = self.failed_certification(tmp_path, monkeypatch, capsys, command, threads, 5.0)
        assert ("against dt=0.005:" if command in ("scan-lambda", "pert-compare") else "against dt=0.01:") in err

    def test_pert_compare_quadrature_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(
            scan="pert_compare", grid=[0.05, 0.1], output_dir=str(tmp_path / "out"),
            protocol={"kind": "quench", "t_total": 1.0},
        )))
        monkeypatch.setattr(perturbative_cfw, "QUADRATURE_DRIFT", -1.0)
        assert self.run_cli("pert-compare", "--config", str(path)) == 3
        err = capsys.readouterr().err
        assert "numerical certification failure: quadrature moved by" in err
        assert "Traceback" not in err

    def test_pert_compare_identity_monitor_exit_code(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(
            scan="pert_compare", grid=[0.05, 0.1], output_dir=str(tmp_path / "out"),
            protocol={"kind": "quench", "t_total": 1.0},
        )))
        monkeypatch.setattr(xp, "IDENTITY_MONITOR", -1.0)
        assert self.run_cli("pert-compare", "--config", str(path)) == 3
        assert "Jarzynski deviation" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("gate", ["identity", "shift"])
    def test_nan_fails_the_scan_gates(self, tmp_path, monkeypatch, capsys, gate, threads):
        # a NaN Jarzynski deviation or infidelity shift is not within its bound
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(output_dir=str(tmp_path / "out"))))
        if gate == "identity":
            monkeypatch.setattr(xp, "jarzynski_check", lambda *args: JarzynskiReport(math.nan, 0.0, math.nan))
        else:
            monkeypatch.setattr(xp, "infidelity", lambda *args: math.nan)
        assert self.run_cli("scan-velocity", "--config", str(path), "--threads", threads) == 3
        err = capsys.readouterr().err
        assert {"identity": "Jarzynski deviation nan", "shift": "infidelity shift nan"}[gate] in err
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_worker_unitarity_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # the forked workers inherit the lowered guard
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config()))
        monkeypatch.setattr(drive_dynamics, "UNITARITY_ABORT", -1.0)
        assert self.run_cli("scan-velocity", "--config", str(path), "--threads", "2") == 3
        assert "unitarity defect" in capsys.readouterr().err
        assert not multiprocessing.active_children()

    def test_worker_dimension_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def too_large(*args, **kwargs):
            raise DimensionError("distribution too large")

        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(scan="size", grid=[2, 3, 4])))
        monkeypatch.setattr(xp, "tpm_distribution", too_large)
        assert self.run_cli("scan-size", "--config", str(path), "--threads", "2") == 2
        assert "config error: distribution too large" in capsys.readouterr().err
        assert not multiprocessing.active_children()

    def test_first_failure_stops_running_tasks(self, tmp_path, monkeypatch, capsys):
        # the 4dt check task runs long and marks its end; the dt tasks fail once it has started
        started, finished = tmp_path / "started", tmp_path / "finished"

        def stepping(h0, h1, protocol, dt):
            if dt == 0.08:
                started.touch()
                time.sleep(20.0)
                finished.touch()
            for _ in range(1000):
                if started.exists():
                    break
                time.sleep(0.01)
            raise xp.CertificationError("failing task")

        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(grid=[0.05, "inf"])))
        monkeypatch.setattr(xp, "propagate", stepping)
        assert self.run_cli("scan-velocity", "--config", str(path), "--threads", "2") == 3
        assert "numerical certification failure: failing task" in capsys.readouterr().err
        assert not multiprocessing.active_children()
        assert started.exists() and not finished.exists()

    def test_runtime_imports_no_scipy(self):
        # numpy is the one runtime dependency; scipy serves the tests only
        code = (
            "import sys; import spinwork.cli; "
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "print(scipy()); code = spinwork.cli.main(['validate-config', '--config', sys.argv[1]]); "
            "print(scipy()); sys.exit(code)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", code, str(REPO / "configs" / "single_quench.json")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert lines[0] == "[]" and lines[-1] == "[]" and lines[1].startswith("config ok")

    def test_summary_records_worker_setup(self, tmp_path):
        path = tmp_path / "c.json"
        out = tmp_path / "out"
        path.write_text(json.dumps(tiny_config(output_dir=str(out))))
        assert self.run_cli("scan-velocity", "--config", str(path), "--threads", "2") == 0
        payload = json.loads((out / "velocity_summary.json").read_text())
        assert list(payload) == ["config", "records", "fits", "tool_version", "wall_time", "workers"]
        assert payload["workers"] == {"count": 2, "start_method": "fork", "blas_threads": 1}
        assert (out / "velocity_records.csv").read_text().split("\n")[0] == ",".join(CSV_COLUMNS)

    def test_unpinned_runs_match_pinned_serial_run(self, tmp_path):
        # a run pins BLAS to one thread, in the CLI process and so in the pool's workers, so a pool and an
        # in-process run with BLAS unpinned give the records (runtime_seconds aside) of an in-process run
        # with BLAS pinned
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(model={"n_sites": 6, "coupling": 2.0}, grid=[0.05, 0.2, "inf"])))
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
        pinned = dict(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        outputs = {}
        runs = (("unpinned", "2", env), ("unpinned_serial", "1", env), ("pinned", "1", pinned))
        for name, threads, run_env in runs:
            out = tmp_path / name
            run = subprocess.run(
                [sys.executable, "-m", "spinwork.cli", "scan-velocity", "--config", str(path),
                 "--output", str(out), "--threads", threads],
                env=run_env, capture_output=True, text=True, timeout=300,
            )
            assert run.returncode == 0, run.stderr
            rows = (out / "velocity_records.csv").read_text().split("\n")
            outputs[name] = [row.rpartition(",")[0] for row in rows]
            outputs[name + "_workers"] = json.loads((out / "velocity_summary.json").read_text())["workers"]
        assert outputs["unpinned"] == outputs["unpinned_serial"] == outputs["pinned"]
        assert outputs["unpinned_workers"] == {"count": 2, "start_method": "fork", "blas_threads": 1}
        assert outputs["unpinned_serial_workers"] == outputs["pinned_workers"] == {
            "count": 1, "start_method": None, "blas_threads": 1}

    def test_single_emits_distribution_and_cfw(self, tmp_path):
        path = tmp_path / "c.json"
        out = tmp_path / "out_single"
        path.write_text(
            json.dumps(
                tiny_config(
                    scan="single", grid=[], output_dir=str(out),
                    protocol={"kind": "quench", "t_total": 2.0},
                )
            )
        )
        assert self.run_cli("single", "--config", str(path)) == 0
        dist_lines = (out / "single_distribution.csv").read_text().strip().split("\n")
        assert dist_lines[0] == "w,p"
        assert sum(float(r.split(",")[1]) for r in dist_lines[1:]) == pytest.approx(1.0)
        cfw_lines = (out / "single_cfw.csv").read_text().strip().split("\n")
        assert cfw_lines[0] == "u,re_chi,im_chi,re_ln_chi,im_ln_chi"

    def test_pert_compare_emits_measures(self, tmp_path):
        path = tmp_path / "c.json"
        out = tmp_path / "out_pert"
        path.write_text(
            json.dumps(
                tiny_config(
                    scan="pert_compare", grid=[0.05, 0.1], output_dir=str(out),
                    protocol={"kind": "quench", "t_total": 1.0},
                )
            )
        )
        assert self.run_cli("pert-compare", "--config", str(path)) == 0
        m2_lines = (out / "two_point_measure.csv").read_text().strip().split("\n")
        assert m2_lines[0] == "omega,re_weight,im_weight"
        m3_lines = (out / "three_point_measure.csv").read_text().strip().split("\n")
        assert m3_lines[0] == "omega,omega2,re_weight,im_weight"
        assert (out / "pert_compare_curves.json").exists()

    def test_measure_and_single_csvs_hold_plain_floats_with_lf(self, tmp_path):
        out = tmp_path / "out"
        runs = {
            "single": tiny_config(scan="single", grid=[], protocol={"kind": "quench", "t_total": 2.0}),
            "pert-compare": tiny_config(
                scan="pert_compare", grid=[0.05, 0.1], protocol={"kind": "quench", "t_total": 1.0}
            ),
        }
        for command, cfg in runs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(dict(cfg, output_dir=str(out))))
            assert self.run_cli(command, "--config", str(path), "--threads", "1") == 0
        for name in ("single_distribution.csv", "single_cfw.csv", "two_point_measure.csv", "three_point_measure.csv"):
            data = (out / name).read_bytes()
            assert b"\r" not in data and data.endswith(b"\n"), name
            rows = data.decode("utf-8").split("\n")[1:-1]
            assert rows, name
            for row in rows:
                [float(cell) for cell in row.split(",")]

    @pytest.mark.parametrize(
        "command, shipped", [("single", "single_quench.json"), ("pert-compare", "pert_compare.json")]
    )
    def test_under_resolved_u_grid_exits_3_without_traceback(self, tmp_path, command, shipped):
        # at coupling 10 the default u grid's spacing 0.05 cannot resolve max |w| ~ 72
        cfg = json.loads((REPO / "configs" / shipped).read_text())
        cfg["model"]["coupling"] = 10.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-m", "spinwork.cli", command, "--config", str(path), "--output", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 3, run.stderr
        assert "numerical certification failure: u grid spacing 0.05 under-resolves" in run.stderr
        assert "Traceback" not in run.stderr

    @staticmethod
    def run_in_3gb_address_space(cfg: dict, path: Path, command: str):
        """The CLI on ``cfg`` in a child that lowers its own soft RLIMIT_AS to 3,000,000 KiB before numpy loads."""
        path.write_text(json.dumps(cfg))
        child = (
            "import resource, runpy, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "soft = 3_000_000 * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (soft if hard == resource.RLIM_INFINITY else min(soft, hard), hard))\n"
            "sys.argv = ['spinwork', sys.argv[2], '--config', sys.argv[1], '--threads', '1']\n"
            "runpy.run_module('spinwork.cli', run_name='__main__')\n"
        )
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]),
        )
        return subprocess.run(
            [sys.executable, "-c", child, str(path), command], env=env, capture_output=True, text=True, timeout=300
        )

    @pytest.mark.parametrize("command", ["pert-compare", "validate-config"])
    @pytest.mark.parametrize("n_sites, exit_code", [(10, 0), (11, 2)])
    def test_pert_compare_under_address_space_limit(self, tmp_path, n_sites, exit_code, command):
        # N = 10 fits in 3 GB (3974973 three-point atoms, ~0.51 GB); at N = 11 the three-point
        # measure's estimate (35394977 atoms, ~4.53 GB) does not, and the run must stop with a
        # named config error instead of an allocation failure, which validate-config reports as
        # the run would.
        cfg = tiny_config(
            model={"n_sites": n_sites, "coupling": 2.0}, scan="pert_compare", grid=[0.05, 0.1, 0.2],
            protocol={"kind": "quench", "t_total": 2.0}, output_dir=str(tmp_path / "out"),
        )
        run = self.run_in_3gb_address_space(cfg, tmp_path / "c.json", command)
        assert run.returncode == exit_code, run.stderr
        if exit_code == 0:
            assert (tmp_path / "out" / "three_point_measure.csv").exists() == (command == "pert-compare")
        else:
            assert re.search(r"config error: three-point measure needs \d+ atoms, an estimated [\d.]+ GB", run.stderr)
            assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("command", ["single", "validate-config"])
    def test_chain_over_address_space_limit_exits_2(self, tmp_path, command):
        # a point at N = 14 is estimated at ~3.37 GB, over a 3 GB address space on any machine,
        # so the run stops with a named config error before it builds an operator
        cfg = tiny_config(
            model={"n_sites": 14, "coupling": 2.0}, scan="single", grid=[],
            protocol={"kind": "quench", "t_total": 2.0}, output_dir=str(tmp_path / "out"),
        )
        run = self.run_in_3gb_address_space(cfg, tmp_path / "c.json", command)
        assert run.returncode == 2, run.stderr
        assert re.search(r"^config error: a scan point on 14 sites needs 10034104 adapted-block entries, "
                         r"an estimated [\d.]+ GB, over the [\d.]+ GB memory limit$", run.stderr, re.M)
        assert "Traceback" not in run.stderr and not (tmp_path / "out").exists()

    def test_fidelity_convention_flag(self, tmp_path):
        path = tmp_path / "c.json"
        out = tmp_path / "out_sqrt"
        path.write_text(
            json.dumps(tiny_config(scan="single", grid=[], protocol={"kind": "quench", "t_total": 2.0}))
        )
        assert (
            self.run_cli(
                "single", "--config", str(path), "--output", str(out), "--fidelity-convention", "sqrtf"
            )
            == 0
        )
        payload = json.loads((out / "single_summary.json").read_text())
        assert payload["config"]["fidelity_convention"] == "one_minus_sqrtF"

    @pytest.mark.parametrize(
        "changes, exit_codes",
        [({"model": {"n_sites": 3, "coupling": 1e300}}, (0, 3)), ({"lambda1": 1e300}, (2,)),
         ({"lambda1": 1e300, "grid": [1], "dt": 1e-12}, (2,))],
        ids=["coupling-1e300", "lambda1-1e300", "ramp-over-dt-inf"],
    )
    def test_overflowing_config_ends_without_traceback(self, tmp_path, changes, exit_codes):
        # an energy scale whose square overflows a float ran into an OverflowError in the
        # delta diagnostic, and a step count past a C long, or infinite, into one in the stepping
        cfg = {**SHIPPED["velocity_scan_desk"], "model": {"n_sites": 3, "coupling": 2.0}, "grid": [0.05, 1],
               **changes, "output_dir": str(tmp_path / "out")}
        run = self.run_in_3gb_address_space(cfg, tmp_path / "c.json", "scan-velocity")
        assert run.returncode in exit_codes, run.stderr
        assert "Traceback" not in run.stderr
        if exit_codes == (2,):
            assert re.search(r"^config error: lambda1, grid, dt: a scan point takes ([\d.e+]+|inf) steps", run.stderr,
                             re.M)

    @pytest.mark.parametrize(
        "name, changes, message",
        [
            ("single_quench", {"model": {"n_sites": 3, "coupling": 1e300}, "lambda1": 1e300},
             r"model.coupling, lambda1: energy scale inf"),
            ("single_quench", {"model": {"n_sites": 3, "coupling": 1e300}, "protocol": {"kind": "quench", "t_total": 1e300}},
             r"model.coupling, lambda1: energy scale 2.2e\+300 times the longest time 1e\+300"),
            ("pert_compare", {"model": {"n_sites": 3, "coupling": 2.0}, "protocol": {"kind": "quench", "t_total": 1e300}},
             r"the quadrature oracle needs 1.6e\+301 table entries"),
            ("pert_compare", {"model": {"n_sites": 3, "coupling": 2.0}, "beta": 1e300},
             r"the quadrature oracle needs 8e\+301 table entries"),
        ],
        ids=["energy-times-coupling", "phase", "quadrature-t_total", "quadrature-beta"],
    )
    def test_validate_config_rejects_overflowing_scales(self, tmp_path, capsys, name, changes, message):
        # an energy that overflows, a phase E t that does, and quadrature tables no memory holds
        # used to end in NaN eigensystems and a failed SVD, or in numpy's array size limit
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**SHIPPED[name], **changes, "output_dir": str(tmp_path / "out")}))
        command = {scan: command for command, scan in cli._SUBCOMMAND_SCAN.items()}[SHIPPED[name]["scan"]]
        errors = []
        for argv in (["validate-config"], [command, "--threads", "1"]):
            assert self.run_cli(*argv, "--config", str(path)) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and re.match(f"config error: {message}", errors[0])

    def test_slow_ramp_pert_compare_validates_at_eight_sites(self, tmp_path, capsys, monkeypatch):
        # couplings up to 0.2 at the default velocity 1e-3 ramp for t = 200; the oracle's tables at
        # the merged measure's 155 frequencies take an estimated 0.025 GB, so a 3 GB limit holds them
        monkeypatch.setattr(spin_model, "_memory_limit", lambda: 3 * 10**9)
        cfg = dict(SHIPPED["pert_compare"], model={"n_sites": 8, "coupling": 2.0},
                   protocol={"kind": "ramp_hold", "t_total": 2.0}, output_dir=str(tmp_path / "out"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("validate-config", "--config", str(path)) == 0
        assert capsys.readouterr().out.endswith(" steps=20000\n")

    def test_pert_compare_checks_quadrature_tables_at_the_measure_size(self, tmp_path, capsys, monkeypatch):
        # a table entry so large that one frequency fits and two do not: validate-config passes,
        # and the run stops at its two-point measure's frequency count with a config error
        # per frequency at the refined rule: 80 shared panels on [0, 5], 8 nodes on each of the partial
        # panels of the 101 distinct |u| and the 3 runs
        nodes = 16 * 5 + 8 * (101 + 3)
        monkeypatch.setattr(spin_model, "_memory_limit", lambda: 8 * 10**9)
        monkeypatch.setattr(perturbative_cfw, "QUADRATURE_BYTES_PER_ENTRY", 6 * 10**9 // nodes)
        cfg = dict(SHIPPED["pert_compare"], model={"n_sites": 3, "coupling": 2.0}, output_dir=str(tmp_path / "out"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("validate-config", "--config", str(path)) == 0
        capsys.readouterr()
        assert self.run_cli("pert-compare", "--threads", "1", "--config", str(path)) == 2
        match = re.match(r"config error: the quadrature oracle needs (\d+) table entries", capsys.readouterr().err)
        assert match and int(match[1]) > nodes and int(match[1]) % nodes == 0

    def test_validate_config_reports_the_largest_step_count(self, tmp_path, capsys):
        # dt = 1e-12 used to fail in a 5.46 TiB schedule allocation; with the
        # schedule built a chunk at a time it is a valid run of 2.5e11 steps
        cfg = dict(SHIPPED["size_scan"], grid=[3], dt=1e-12)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert self.run_cli("validate-config", "--config", str(path)) == 0
        assert capsys.readouterr().out.endswith(" steps=500000000000\n")
        assert self.run_cli("validate-config", "--config", str(REPO / "configs" / "velocity_scan_desk.json")) == 0
        assert capsys.readouterr().out.endswith(" steps=10000\n")

    # each mutable key and the values it takes: extremes, edge cases and ordinary values
    NUMBERS = [1e300, -1e300, 1e100, 1e4, 1e3, 1e-12, -1e-12, 0, -1, 0.05, 1, 3]
    MUTATIONS = {
        ("model", "n_sites"): st.integers(-1, 4),
        ("model", "coupling"): st.sampled_from(NUMBERS),
        ("beta",): st.sampled_from(NUMBERS),
        ("lambda1",): st.sampled_from(NUMBERS),
        ("protocol", "kind"): st.sampled_from(["quench", "ramp_hold"]),
        ("protocol", "velocity"): st.sampled_from([*NUMBERS, None]),
        ("protocol", "t_total"): st.sampled_from(NUMBERS),
        ("grid",): st.lists(st.sampled_from([*NUMBERS, "inf"]), max_size=3),
        ("dt",): st.sampled_from(NUMBERS),
    }
    RUN_STEP_BOUND = 2000  # an accepted config runs when its largest scan point takes at most this many steps

    @staticmethod
    @st.composite
    def mutated_config(draw):
        """A shipped config at N <= 4, with one to three keys mutated."""
        cfg = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
        cfg["model"]["n_sites"] = draw(st.integers(2, 4))
        if cfg["scan"] == "size":
            cfg["grid"] = [2, 4]
        for key in draw(st.lists(st.sampled_from(list(TestCli.MUTATIONS)), min_size=1, max_size=3, unique=True)):
            (cfg[key[0]] if len(key) == 2 else cfg)[key[-1]] = draw(TestCli.MUTATIONS[key])
        return cfg

    def cli_outcome(self, *argv):
        """Exit code, stdout and stderr of an in-process CLI run; an uncaught exception fails the test."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = self.run_cli(*argv)
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=mutated_config())
    @example(cfg={**SHIPPED["velocity_scan_desk"], "model": {"n_sites": 3, "coupling": 1e300}, "grid": [0.05, 1]})
    @example(cfg={**SHIPPED["velocity_scan_desk"], "model": {"n_sites": 3, "coupling": 2.0}, "lambda1": 1e300})
    @example(cfg={**SHIPPED["size_scan"], "model": {"n_sites": 3, "coupling": 2.0}, "grid": [3], "dt": 1e-12})
    @example(cfg={**SHIPPED["pert_compare"], "model": {"n_sites": 2, "coupling": 2.0}, "beta": 1000})
    # these two wrote NaN Jarzynski deviations and exited 0: exp(-beta w) overflowed
    @example(cfg={**SHIPPED["lambda_scaling"], "model": {"n_sites": 3, "coupling": 2.0}, "beta": 1000,
                  "protocol": {"kind": "ramp_hold", "velocity": 0.01, "t_total": 100.0}})
    @example(cfg={**SHIPPED["size_scan"], "grid": [2, 3], "beta": 1e4})
    def test_mutated_config_runs_or_is_a_config_error(self, cfg):
        # validate-config exits 0 or 2; where it says 2, so does the subcommand, and an
        # accepted config that is quick to run runs to exit 0, with no NaN in its CSVs, or
        # to exit 3; none raises
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(cfg))
            code, out, err = self.cli_outcome("validate-config", "--config", str(path))
            assert code in (0, 2), err
            command = {scan: command for command, scan in cli._SUBCOMMAND_SCAN.items()}.get(cfg["scan"])
            if command is None:
                assert code == 2
                return
            argv = [command, "--config", str(path), "--threads", "1", "--output", str(Path(tmp) / "out")]
            if code == 2:
                assert err.startswith("config error: ")
                assert self.cli_outcome(*argv)[::2] == (2, err)
            elif int(re.search(r" steps=(\d+)$", out).group(1)) <= self.RUN_STEP_BOUND:
                code, _, err = self.cli_outcome(*argv)
                assert code in (0, 3), err
                cells = [cell for csv in (Path(tmp) / "out").glob("*.csv")
                         for line in csv.read_text().splitlines()[1:] for cell in line.split(",")]
                assert code == 3 or not any(math.isnan(float(cell)) for cell in cells)
