"""Acceptance suite: every criterion at its stated tolerance, one line per check.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy desk-scale scans
(N = 9 velocity sweep, N = 8 coupling-scaling fits, both repeated at half time
step) are shared through session fixtures; the whole module runs in a few
minutes on two cores.
"""
import math
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spinwork import (
    DriveProtocol,
    OperatorMatrix,
    SpinChainSpec,
    build_hopping,
    build_zz,
    cfw_from_distribution,
    cfw_trace,
    phase_linearity,
    default_u_grid,
    delta_concentration,
    eigendecompose,
    evolve_density,
    first_cumulant,
    gibbs_state,
    infidelity,
    jarzynski_check,
    mean_energy_change,
    lnchi_second_order,
    lnchi_second_order_quadrature,
    log_partition_function,
    propagate,
    average_work,
    three_point_measure,
    tpm_distribution,
    two_point_measure,
    uhlmann_fidelity,
)
from spinwork.experiments import config_from_dict, emit_csv, load_config, run_lambda_scaling, run_velocity_scan

from conftest import two_site_operators
from test_perturbative_cfw import brute_force_measure2, brute_force_measure3, without_first_order
from test_reference import LAMBDA_SCALING_TOL, REFERENCE, VELOCITY_SCAN_DESK_TOL, file_mismatches
from test_work_statistics import brute_force_quench_atoms

REPO = Path(__file__).resolve().parent.parent


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def velocity_config(dt: float) -> dict:
    return {
        "model": {"n_sites": 9, "coupling": 2.0},
        "beta": 1.0,
        "lambda1": 0.1,
        "protocol": {"kind": "ramp_hold", "velocity": 0.001, "t_total": 100.0},
        "scan": "velocity",
        "grid": [],
        "dt": dt,
        "seed": 0,
    }


def scaling_config(dt: float) -> dict:
    return {
        "model": {"n_sites": 8, "coupling": 2.0},
        "beta": 1.0,
        "lambda1": 0.1,
        "protocol": {"kind": "ramp_hold", "velocity": 0.001, "t_total": 100.0},
        "scan": "lambda_scaling",
        "grid": [0.05, 0.1, 0.2],
        "dt": dt,
        "seed": 0,
    }


def commutant_floor(spec: SpinChainSpec, beta: float, lambda1):
    """Slow-ramp infidelity floor (beta^2/4) lambda1^2 Var_p(block-diag H1).

    Var_p is read from spectral data alone, as minus the zero-frequency weight
    g0 of the two-point measure: the interaction's commutant keeps its initial
    populations however slowly the coupling is ramped.
    """
    h0, h1 = build_hopping(spec), build_zz(spec)
    g0 = two_point_measure(eigendecompose(h0), h1, beta).zero_frequency_weight
    return -0.25 * beta**2 * np.asarray(lambda1) ** 2 * g0


@pytest.fixture(scope="session")
def velocity_records():
    out = {}
    for dt in (0.01, 0.005):
        cfg = config_from_dict(velocity_config(dt))
        start = time.perf_counter()
        out[dt] = run_velocity_scan(cfg, certify=False)
        elapsed = time.perf_counter() - start
        report(f"velocity scan N=9 dt={dt}: {elapsed:.0f}s")
        if dt == 0.01:
            assert elapsed < 1800.0  # stated runtime budget
    return out


@pytest.fixture(scope="session")
def scaling_reports():
    out = {}
    for dt in (0.01, 0.005):
        cfg = config_from_dict(scaling_config(dt))
        start = time.perf_counter()
        out[dt] = run_lambda_scaling(cfg, certify=False)
        elapsed = time.perf_counter() - start
        report(f"scaling scan N=8 dt={dt}: {elapsed:.0f}s")
        if dt == 0.01:
            assert elapsed < 2700.0  # stated runtime budget
    return out


class TestCriterion1ExactIdentities:
    def test_randomized_identity_suite(self):
        rng = np.random.default_rng(20240811)
        worst = {"jarzynski": 0.0, "energy_balance": 0.0, "routes": 0.0, "unitarity": 0.0}
        start = time.perf_counter()
        cases = 0
        for n in (2, 3, 4, 5, 6):
            for beta in (0.5, 1.0, 2.0):
                spec = SpinChainSpec(n, 2.0)
                h0, h1 = build_hopping(spec), build_zz(spec)
                spec_i = eigendecompose(h0)
                lam1 = float(rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0]))
                kind = rng.choice(["ramp_hold", "quench", "sampled"])
                if kind == "quench":
                    protocol = DriveProtocol(kind="quench", lambda_final=lam1, t_total=float(rng.uniform(1, 8)))
                elif kind == "ramp_hold":
                    v = float(rng.uniform(0.05, 2.0))
                    t_r = abs(lam1) / v
                    protocol = DriveProtocol(
                        kind="ramp_hold", lambda_final=lam1, t_total=t_r * float(rng.uniform(1.0, 2.0)),
                        velocity=v,
                    )
                else:
                    t_total = float(rng.uniform(2, 6))
                    ts = np.linspace(0, t_total, 9)
                    shape = np.linspace(0, 1, 9) ** float(rng.uniform(0.5, 2.0))
                    protocol = DriveProtocol(
                        kind="sampled", lambda_final=lam1, t_total=t_total,
                        samples=np.column_stack([ts, lam1 * shape]),
                    )
                prop = propagate(spec_i, h1, protocol, 0.05)
                worst["unitarity"] = max(worst["unitarity"], prop.unitarity_defect)
                spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + lam1 * h1.matrix))
                dist = tpm_distribution(spec_i, spec_f, prop, beta)
                jz = jarzynski_check(
                    dist,
                    log_partition_function(spec_i, beta),
                    log_partition_function(spec_f, beta),
                    beta,
                )
                worst["jarzynski"] = max(worst["jarzynski"], jz.rel_deviation)
                rho0 = gibbs_state(spec_i, beta)
                balance_gap = abs(
                    average_work(dist)
                    - mean_energy_change(
                        evolve_density(rho0, prop),
                        OperatorMatrix.from_dense(h0.matrix + lam1 * h1.matrix),
                        rho0,
                        h0,
                    )
                )
                worst["energy_balance"] = max(worst["energy_balance"], balance_gap)
                u = default_u_grid(beta)
                route_gap = float(
                    np.abs(
                        cfw_from_distribution(dist, u).chi - cfw_trace(prop, spec_i, spec_f, beta, u).chi
                    ).max()
                )
                worst["routes"] = max(worst["routes"], route_gap)
                cases += 1
        elapsed = time.perf_counter() - start
        line = (
            f"criterion 1: {cases} randomized cases in {elapsed:.0f}s; "
            f"jarzynski {worst['jarzynski']:.2e} (<1e-8), energy balance {worst['energy_balance']:.2e} (<1e-8), "
            f"routes {worst['routes']:.2e} (<1e-9), unitarity {worst['unitarity']:.2e} (<1e-8)"
        )
        ok = (
            worst["jarzynski"] < 1e-8
            and worst["energy_balance"] < 1e-8
            and worst["routes"] < 1e-9
            and worst["unitarity"] < 1e-8
            and elapsed < 120.0
        )
        report(line + (" PASS" if ok else " FAIL"))
        assert worst["jarzynski"] < 1e-8
        assert worst["energy_balance"] < 1e-8
        assert worst["routes"] < 1e-9
        assert worst["unitarity"] < 1e-8
        assert elapsed < 120.0


class TestCriterion2TrivialDelta:
    def test_time_independent_protocol(self):
        spec = SpinChainSpec(5, 2.0)
        h0, h1 = build_hopping(spec), build_zz(spec)
        spec0 = eigendecompose(h0)
        protocol = DriveProtocol(kind="ramp_hold", lambda_final=0.0, t_total=5.0, velocity=0.0)
        prop = propagate(spec0, h1, protocol, 0.01)
        dist = tpm_distribution(spec0, spec0, prop, 1.0)
        rep = delta_concentration(dist, 1e-6 * 2 * spec0.spectral_range)
        rho_f = evolve_density(gibbs_state(spec0, 1.0), prop)
        infid = 1.0 - uhlmann_fidelity(rho_f, gibbs_state(spec0, 1.0))
        line = (
            f"criterion 2: is_delta={rep.is_delta}, variance={rep.variance:.2e} (<1e-20), "
            f"infidelity={infid:.2e} (<1e-10)"
        )
        ok = rep.is_delta and rep.variance < 1e-20 and infid < 1e-10
        report(line + (" PASS" if ok else " FAIL"))
        assert rep.is_delta
        assert rep.variance < 1e-20
        assert infid < 1e-10


class TestCriterion3BruteForceOracles:
    def test_two_site_quench_against_enumerations(self):
        beta, lam1, t = 1.0, 0.1, 5.0
        spec = SpinChainSpec(2, 2.0)
        h0, h1 = build_hopping(spec), build_zz(spec)
        spec_i = eigendecompose(h0)
        spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + lam1 * h1.matrix))
        prop = propagate(spec_i, h1, DriveProtocol(kind="quench", lambda_final=lam1, t_total=t), 0.01)
        dist = tpm_distribution(spec_i, spec_f, prop, beta)
        works_ref, probs_ref = brute_force_quench_atoms(J=2.0, lam1=lam1, beta=beta, t=t)
        got = {}
        for w, p in zip(dist.works, dist.probabilities):
            got[round(w, 9)] = got.get(round(w, 9), 0.0) + p
        # between-sector outcomes have probability exactly 0: the oracle lists them, the package does not
        ref = {round(w, 9): p for w, p in zip(works_ref, probs_ref)}
        dist_gap = max(abs(got.get(k, 0.0) - ref.get(k, 0.0)) for k in set(got) | set(ref))

        h0_ref, h1_ref, _ = two_site_operators(2.0)
        m2 = two_point_measure(spec_i, h1, beta)
        exp2 = brute_force_measure2(h0_ref, h1_ref, beta)
        got2 = {round(o, 9): w for o, w in zip(m2.omegas, m2.weights)}
        ref2 = {round(k, 9): v for k, v in exp2.items()}
        gap2 = max(abs(got2.get(k, 0.0) - ref2.get(k, 0.0)) for k in set(got2) | set(ref2))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m3 = three_point_measure(spec_i, h1, beta)
        exp3 = brute_force_measure3(h0_ref, h1_ref, beta)
        got3 = {(round(a, 9), round(b, 9)): w for a, b, w in zip(m3.omega1, m3.omega2, m3.weights)}
        keys = set(exp3) | set(got3)
        gap3 = max(abs(got3.get(k, 0.0) - exp3.get(k, 0.0)) for k in keys)

        line = (
            f"criterion 3: distribution gap {dist_gap:.2e}, two-point gap {gap2:.2e}, "
            f"three-point gap {gap3:.2e} (all <1e-10)"
        )
        ok = dist_gap < 1e-10 and gap2 < 1e-10 and gap3 < 1e-10
        report(line + (" PASS" if ok else " FAIL"))
        assert dist_gap < 1e-10
        assert gap2 < 1e-10
        assert gap3 < 1e-10


class TestCriterion4VelocityTrend:
    def test_monotone_nondecreasing_in_velocity(self, velocity_records):
        records = velocity_records[0.01]
        values = [r.infidelity for r in records]
        diffs = np.diff(values)
        monotone = bool(np.all(diffs >= -1e-10))
        line = f"criterion 4a: infidelity monotone over velocity grid incl. quench = {monotone}"
        report(line + (" PASS" if monotone else " FAIL"))
        assert monotone

    def test_quench_to_adiabatic_infidelity_ratio(self, velocity_records):
        records = velocity_records[0.01]
        slow, quench = records[0].infidelity, records[-1].infidelity
        cfg = config_from_dict(velocity_config(0.01))
        h0, h1 = build_hopping(cfg.model), build_zz(cfg.model)
        spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + cfg.lambda1 * h1.matrix))
        gibbs_gap = infidelity(gibbs_state(eigendecompose(h0), cfg.beta), gibbs_state(spec_f, cfg.beta))
        predicted = gibbs_gap / float(commutant_floor(cfg.model, cfg.beta, cfg.lambda1))
        quench_gap = abs(quench - gibbs_gap)
        line = (
            f"criterion 4b: |quench - Gibbs-to-Gibbs infidelity| = {quench_gap:.2e} (<1e-8), "
            f"slow={slow:.3e} < quench={quench:.3e}; ratio {quench / slow:.3f} "
            f"(leading-order prediction {predicted:.3f})"
        )
        ok = math.isinf(records[-1].scan_value) and quench_gap < 1e-8 and slow < quench
        report(line + (" PASS" if ok else " FAIL"))
        # a quench only dephases rho_beta(H0) under H_f, so it keeps the whole Gibbs-to-Gibbs gap
        assert math.isinf(records[-1].scan_value)
        assert quench_gap < 1e-8
        assert slow < quench

    def test_scan_identity_monitors(self, velocity_records):
        for records in velocity_records.values():
            for r in records:
                assert r.jarzynski_deviation < 1e-8


class TestCriterion5ScalingExponents:
    def test_quench_slope(self, scaling_reports):
        slope = scaling_reports[0.01].slope_quench
        ok = 1.7 <= slope <= 2.3
        report(f"criterion 5b: quench infidelity slope = {slope:.3f} (required [1.7, 2.3])"
               + (" PASS" if ok else " FAIL"))
        assert 1.7 <= slope <= 2.3

    def test_adiabatic_slope(self, scaling_reports):
        rep = scaling_reports[0.01]
        cfg = config_from_dict(scaling_config(0.01))
        lams = np.array([r.scan_value for r in rep.records_adiabatic])
        slow = np.array([r.infidelity for r in rep.records_adiabatic])
        excess = slow - commutant_floor(cfg.model, cfg.beta, lams)
        one_signed = bool(np.all(excess > 0) or np.all(excess < 0))
        slope = float(np.polyfit(np.log(lams), np.log(np.abs(excess)), 1)[0])
        ok = one_signed and 2.6 <= slope <= 3.4
        report(f"criterion 5a: slope of |slow-ramp infidelity - floor| = {slope:.3f} (required [2.6, 3.4]), "
               f"one-signed = {one_signed}; raw slow-ramp slope = {rep.slope_adiabatic:.3f}"
               + (" PASS" if ok else " FAIL"))
        # the lam^2 commutant floor is known exactly from spectra; the cubic law is in what remains
        assert one_signed
        assert 2.6 <= slope <= 3.4


class TestCriterion6PerturbativeAccuracy:
    def test_residual_scaling_and_quadrature_agreement(self):
        start = time.perf_counter()
        beta = 1.0
        spec = SpinChainSpec(6, 2.0)
        h0, h1 = build_hopping(spec), build_zz(spec)
        spec0 = eigendecompose(h0)
        m2 = two_point_measure(spec0, h1, beta)
        fc = first_cumulant(spec0, h1, beta)
        u = default_u_grid(beta)
        lams = [0.05, 0.1, 0.2]
        residuals = []
        worst_gap = 0.0
        protocols = [DriveProtocol(kind="quench", lambda_final=lam, t_total=2.0) for lam in lams]
        quads = lnchi_second_order_quadrature(m2, list(zip(protocols, lams)), fc, u)
        for lam, protocol, quad in zip(lams, protocols, quads):
            spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + lam * h1.matrix))
            prop = propagate(spec0, h1, protocol, 0.01)
            exact = cfw_from_distribution(tpm_distribution(spec0, spec_f, prop, beta), u)
            pert2 = lnchi_second_order(m2, protocol, fc, lam, u)
            residuals.append(float(np.abs(exact.ln_chi - pert2.ln_chi).max()))
            worst_gap = max(worst_gap, float(np.abs(pert2.ln_chi - quad.ln_chi).max()))
        slope = float(np.polyfit(np.log(lams), np.log(residuals), 1)[0])
        elapsed = time.perf_counter() - start
        line = (
            f"criterion 6: residual slope = {slope:.3f} (required 3 +- 0.5), "
            f"spectral-vs-quadrature gap = {worst_gap:.2e} (<1e-6), {elapsed:.0f}s"
        )
        ok = 2.5 <= slope <= 3.5 and worst_gap < 1e-6
        report(line + (" PASS" if ok else " FAIL"))
        assert 2.5 <= slope <= 3.5
        assert worst_gap < 1e-6
        assert elapsed < 600.0


class TestCriterion7LinearityDiagnostic:
    def test_slow_ramp_linear_quench_not(self):
        beta, lam1 = 1.0, 0.1
        spec = SpinChainSpec(6, 2.0)
        h0, h1 = build_hopping(spec), build_zz(spec)
        spec0 = eigendecompose(h0)
        m2 = two_point_measure(spec0, h1, beta)
        fc = first_cumulant(spec0, h1, beta)
        u = default_u_grid(beta)
        ramp = DriveProtocol(kind="ramp_hold", lambda_final=lam1, t_total=100.0, velocity=1e-3)
        quench = DriveProtocol(kind="quench", lambda_final=lam1, t_total=2.0)
        rep_ramp, rep_quench = (
            phase_linearity(without_first_order(lnchi_second_order(m2, p, fc, lam1, u), lam1, fc))
            for p in (ramp, quench)
        )
        line = (
            f"criterion 7: slow-ramp rel residual = {rep_ramp.rel_residual:.2e} (<1e-3), "
            f"quench rel residual = {rep_quench.rel_residual:.2e} (required >1e-2)"
        )
        ok = rep_ramp.rel_residual < 1e-3 and rep_quench.rel_residual > 1e-2
        report(line + (" PASS" if ok else " FAIL"))
        # net of the shared, exactly linear first-order shift, so the residual is not diluted by it
        assert rep_ramp.rel_residual < 1e-3
        assert rep_quench.rel_residual > 1e-2


class TestCriterion8TimeStepCertification:
    def test_velocity_scan_dt_stability(self, velocity_records):
        base, half = velocity_records[0.01], velocity_records[0.005]
        rel = max(
            abs(a.infidelity - b.infidelity) / max(abs(b.infidelity), 1e-300)
            for a, b in zip(base, half)
        )
        ok = rel < 1e-6
        report(f"criterion 8a: velocity-scan max relative infidelity shift = {rel:.2e} (<1e-6)"
               + (" PASS" if ok else " FAIL"))
        assert rel < 1e-6

    def test_scaling_scan_dt_stability(self, scaling_reports):
        base, half = scaling_reports[0.01], scaling_reports[0.005]
        pairs = list(zip(base.records_adiabatic, half.records_adiabatic))
        pairs += list(zip(base.records_quench, half.records_quench))
        rel = max(
            abs(a.infidelity - b.infidelity) / max(abs(b.infidelity), 1e-300) for a, b in pairs
        )
        ok = rel < 1e-6
        report(f"criterion 8b: scaling-scan max relative infidelity shift = {rel:.2e} (<1e-6)"
               + (" PASS" if ok else " FAIL"))
        assert rel < 1e-6


class TestReferenceRecords:
    """The fixtures' dt = 0.01 records are the shipped desk and scaling configs'
    records (certification leaves a record unchanged), so they are compared
    with the committed reference at no extra run."""

    @pytest.mark.parametrize("stem, config", [("velocity_scan_desk", velocity_config),
                                              ("lambda_scaling", scaling_config)])
    def test_fixture_runs_the_shipped_config(self, stem, config):
        shipped = load_config(REPO / "configs" / f"{stem}.json")
        assert replace(config_from_dict(config(0.01)), output_dir=shipped.output_dir) == shipped

    def test_velocity_records_match_reference(self, velocity_records, tmp_path):
        emit_csv(velocity_records[0.01], tmp_path / "velocity_records.csv")
        want = REFERENCE / "velocity_scan_desk" / "velocity_records.csv"
        assert file_mismatches(tmp_path / "velocity_records.csv", want, VELOCITY_SCAN_DESK_TOL) == []

    def test_scaling_records_match_reference(self, scaling_reports, tmp_path):
        rep = scaling_reports[0.01]
        emit_csv(rep.records_adiabatic + rep.records_quench, tmp_path / "lambda_scaling_records.csv")
        want = REFERENCE / "lambda_scaling" / "lambda_scaling_records.csv"
        assert file_mismatches(tmp_path / "lambda_scaling_records.csv", want, LAMBDA_SCALING_TOL) == []
