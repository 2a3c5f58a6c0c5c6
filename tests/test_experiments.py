import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import spinwork.experiments as xp
from spinwork import cli
from spinwork.experiments import (
    CSV_COLUMNS,
    ConfigError,
    ScanRecord,
    config_from_dict,
    config_to_dict,
    emit_config,
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
from spinwork.perturbative_cfw import (
    lnchi_third_order_adiabatic,
    third_order_adiabatic_coefficient,
    three_point_measure,
)

REPO = Path(__file__).resolve().parents[1]


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
        emit_config(cfg, path)
        again = load_config(path)
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_quench_sentinel_strings(self):
        cfg = config_from_dict(tiny_config(grid=[0.1, "inf", "quench"]))
        assert sum(math.isinf(v) for v in cfg.grid) == 2

    def test_bad_scan_kind(self):
        with pytest.raises(ConfigError, match="scan"):
            config_from_dict(tiny_config(scan="sweep"))

    def test_bad_protocol_kind(self):
        with pytest.raises(ConfigError, match="protocol.kind"):
            config_from_dict(tiny_config(protocol={"kind": "linear", "t_total": 4.0}))

    def test_reference_configs_parse(self):
        for name in (
            "velocity_scan_full.json",
            "velocity_scan_desk.json",
            "size_scan.json",
            "lambda_scaling.json",
            "pert_compare.json",
            "single_quench.json",
        ):
            cfg = load_config(REPO / "configs" / name)
            assert cfg.beta == 1.0
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
        assert lines[0] == ",".join(CSV_COLUMNS)
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
        emit_json_summary(cfg, self.records(), {"slope": 2.0}, path, 1.25)
        payload = json.loads(path.read_text())
        assert payload["config"]["model"]["n_sites"] == 3
        assert payload["fits"]["slope"] == 2.0
        assert payload["tool_version"]
        assert len(payload["records"]) == 2


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
                protocol={"kind": "ramp_hold", "velocity": 0.001, "t_total": 4.0},
            )
        )
        report = run_lambda_scaling(cfg, threads=1, slow_velocity=0.02)
        assert np.isfinite(report.slope_adiabatic)
        assert np.isfinite(report.slope_quench)
        assert 0.0 <= report.r_squared_quench <= 1.0

    def test_lambda_scaling_needs_two_points(self):
        cfg = config_from_dict(tiny_config(scan="lambda_scaling", grid=[0.1]))
        with pytest.raises(ConfigError, match="grid"):
            run_lambda_scaling(cfg, threads=1)

    def test_single_run_quench(self):
        cfg = config_from_dict(
            tiny_config(scan="single", grid=[], protocol={"kind": "quench", "t_total": 5.0})
        )
        record = run_single(cfg)
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

    def test_determinism_modulo_runtime(self, tmp_path):
        cfg = config_from_dict(tiny_config())
        a = run_velocity_scan(cfg, threads=2)
        b = run_velocity_scan(cfg, threads=1)
        emit_csv(a, tmp_path / "a.csv")
        emit_csv(b, tmp_path / "b.csv")
        def stripped(path):
            rows = (tmp_path / path).read_text().strip().split("\n")
            return ["," .join(r.split(",")[:-1]) for r in rows]
        assert stripped("a.csv") == stripped("b.csv")

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
            records.append(run_single(cfg))
        assert abs(records[0].infidelity - records[1].infidelity) < 1e-9


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
    def test_bad_size_grid_exit_code(self, tmp_path, command, size):
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

    @pytest.mark.parametrize("command", ["validate-config", "single"])
    def test_too_many_sites_exit_code(self, tmp_path, command):
        path = tmp_path / "c.json"
        cfg = tiny_config(
            model={"n_sites": 15, "coupling": 2.0}, scan="single", grid=[],
            protocol={"kind": "quench", "t_total": 2.0}, output_dir=str(tmp_path / "out"),
        )
        path.write_text(json.dumps(cfg))
        assert self.run_cli(command, "--config", str(path)) == 2

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

    def test_certification_failure_exit_code(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config()))
        monkeypatch.setattr(xp, "CERTIFICATION_SHIFT", 1e-30)
        assert self.run_cli("scan-velocity", "--config", str(path), "--threads", "1") == 3

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
