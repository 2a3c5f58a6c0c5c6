"""Independent correctness checks of the spinwork CLI outputs.

Nothing here imports spinwork.  The chain is rebuilt from Pauli Kronecker
products, Gibbs states come from ``scipy.linalg.expm``, fidelities from
``scipy.linalg.sqrtm``, and ramps are propagated by a fine exponential
midpoint product.  Each workload has a ``reference`` (computed once per run
from the seeded config) and a ``check`` that compares one round's outputs to
it and returns the failures as messages.
"""
from __future__ import annotations

import csv
import json
import math
from functools import reduce
from pathlib import Path

import numpy as np
from scipy.linalg import expm, sqrtm

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

JARZYNSKI_BOUND = 1e-8
QUENCH_INFIDELITY_TOL = 1e-8
QUENCH_WORK_TOL = 1e-10
# The ramp oracle is Richardson-extrapolated from ORACLE_STEPS and twice as
# many midpoint steps, which leaves it within ~5e-11 of the exact ramp on
# N <= 6; the program's Suzuki-4 records at dt = 0.01 sit within 2e-10 of it
# (README, "Size-scan tolerance").
ORACLE_STEPS = 200
ORACLE_MAX_SITES = 6
RAMP_TOL = 1e-9
SUM_RULE_TOL = 1e-10
DETAILED_BALANCE_TOL = 1e-8
WEIGHT_FLOOR = 1e-12
QUADRATURE_GAP_BOUND = 1e-6
RESIDUAL_SLOPE_BAND = (2.5, 3.5)


def chain(n_sites: int, coupling: float) -> tuple[np.ndarray, np.ndarray]:
    """(H0, H1) of the open XXZ chain: H0 = J/2 sum (XX + YY), H1 = J sum ZZ.

    Site 0 is the leftmost Kronecker factor (most significant bit) and
    Z = +1 on bit 0, the program's conventions.
    """

    def bond(op):
        total = 0
        for i in range(n_sites - 1):
            factors = [op if k in (i, i + 1) else np.eye(2) for k in range(n_sites)]
            total = total + reduce(np.kron, factors)
        return total

    return 0.5 * coupling * (bond(_X) + bond(_Y)), coupling * bond(_Z)


def gibbs(h: np.ndarray, beta: float) -> np.ndarray:
    shift = np.min(np.real(np.diag(h)))
    rho = expm(-beta * (h - shift * np.eye(h.shape[0])))
    return rho / np.trace(rho)


def infidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """1 - F with F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    root = sqrtm(rho)
    return 1.0 - float(np.real(np.trace(sqrtm(root @ sigma @ root)))) ** 2


def expectation(rho: np.ndarray, op: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ op)))


def ramp_hold_state(h0, h1, rho0, velocity, lambda1, t_total, steps):
    """State after the ramp lambda = v t (exponential midpoint product) and the hold."""
    t_ramp = lambda1 / velocity
    h = t_ramp / steps
    u = np.eye(h0.shape[0], dtype=complex)
    for k in range(steps):
        u = expm(-1j * h * (h0 + velocity * (k + 0.5) * h * h1)) @ u
    u = expm(-1j * (t_total - t_ramp) * (h0 + lambda1 * h1)) @ u
    return u @ rho0 @ u.conj().T


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def load_outputs(scan: str, out_dir: Path) -> dict:
    out_dir = Path(out_dir)
    outputs = {
        "records": _read_csv(out_dir / f"{scan}_records.csv"),
        "summary": json.loads((out_dir / f"{scan}_summary.json").read_text(encoding="utf-8")),
    }
    if scan == "pert_compare":
        outputs["two_point"] = _read_csv(out_dir / "two_point_measure.csv")
        outputs["three_point"] = _read_csv(out_dir / "three_point_measure.csv")
    return outputs


def _parse_grid(grid) -> list[float]:
    return sorted(math.inf if isinstance(v, str) else float(v) for v in grid)


# ---------------------------------------------------------------------------
# velocity
# ---------------------------------------------------------------------------


def reference_velocity(cfg: dict) -> dict:
    beta, lam = cfg["beta"], cfg["lambda1"]
    h0, h1 = chain(cfg["model"]["n_sites"], cfg["model"]["coupling"])
    rho0 = gibbs(h0, beta)
    return {
        "quench_infidelity": infidelity(rho0, gibbs(h0 + lam * h1, beta)),
        "quench_avg_work": lam * expectation(rho0, h1),
    }


def check_velocity(cfg: dict, outputs: dict, ref: dict) -> list[str]:
    records = sorted(outputs["records"], key=lambda r: r["scan_value"])
    values = [r["scan_value"] for r in records]
    failures = []
    if values != _parse_grid(cfg["grid"]):
        return [f"velocity: scan values {values} differ from the grid"]
    quench = records[-1]
    gap = abs(quench["infidelity"] - ref["quench_infidelity"])
    if not gap <= QUENCH_INFIDELITY_TOL:
        failures.append(f"velocity: quench infidelity off the Gibbs-to-Gibbs value by {gap:.3e}")
    gap = abs(quench["avg_work"] - ref["quench_avg_work"])
    if not gap <= QUENCH_WORK_TOL:
        failures.append(f"velocity: quench avg_work off lambda1 <H1>_0 by {gap:.3e}")
    infid = [r["infidelity"] for r in records]
    if any(not b >= a for a, b in zip(infid, infid[1:])):
        failures.append(f"velocity: infidelity not nondecreasing in velocity: {infid}")
    if not infid[0] < infid[-1]:
        failures.append("velocity: the slowest ramp is not below the quench")
    failures += _jarzynski(records, "velocity")
    return failures


def _jarzynski(records: list[dict], scan: str) -> list[str]:
    worst = max(abs(r["jarzynski_deviation"]) for r in records)
    return [] if worst < JARZYNSKI_BOUND else [f"{scan}: Jarzynski deviation {worst:.3e}"]


# ---------------------------------------------------------------------------
# size
# ---------------------------------------------------------------------------


def _ramp_observables(cfg: dict, n_sites: int, steps: int) -> tuple[float, float]:
    beta, lam, proto = cfg["beta"], cfg["lambda1"], cfg["protocol"]
    h0, h1 = chain(n_sites, cfg["model"]["coupling"])
    hf = h0 + lam * h1
    rho0 = gibbs(h0, beta)
    rho = ramp_hold_state(h0, h1, rho0, proto["velocity"], lam, proto["t_total"], steps)
    return infidelity(rho, gibbs(hf, beta)), expectation(rho, hf) - expectation(rho0, h0)


def reference_size(cfg: dict) -> dict:
    """Ramp oracle per N <= 6: Richardson extrapolation of the O(h^2) midpoint product."""
    ref = {}
    for n in sorted(int(v) for v in cfg["grid"]):
        if n > ORACLE_MAX_SITES:
            continue
        coarse = _ramp_observables(cfg, n, ORACLE_STEPS)
        fine = _ramp_observables(cfg, n, 2 * ORACLE_STEPS)
        ref[n] = {
            "infidelity": (4.0 * fine[0] - coarse[0]) / 3.0,
            "avg_work": (4.0 * fine[1] - coarse[1]) / 3.0,
        }
    return ref


def check_size(cfg: dict, outputs: dict, ref: dict) -> list[str]:
    records = sorted(outputs["records"], key=lambda r: r["scan_value"])
    values = [r["scan_value"] for r in records]
    if values != _parse_grid(cfg["grid"]):
        return [f"size: scan values {values} differ from the grid"]
    failures = []
    for r in records:
        n = int(r["scan_value"])
        if not 0.0 < r["infidelity"] < 1.0:
            failures.append(f"size: N={n} infidelity {r['infidelity']} outside (0, 1)")
        if n in ref:
            for key in ("infidelity", "avg_work"):
                gap = abs(r[key] - ref[n][key])
                if not gap <= RAMP_TOL:
                    failures.append(f"size: N={n} {key} off the ramp oracle by {gap:.3e}")
    failures += _jarzynski(records, "size")
    return failures


# ---------------------------------------------------------------------------
# pert_compare
# ---------------------------------------------------------------------------


def reference_pert(cfg: dict) -> dict:
    h0, h1 = chain(cfg["model"]["n_sites"], cfg["model"]["coupling"])
    rho0 = gibbs(h0, cfg["beta"])
    m1, m2, m3 = (expectation(rho0, np.linalg.matrix_power(h1, k)) for k in (1, 2, 3))
    return {"variance": m2 - m1**2, "kappa3": m3 - 3.0 * m2 * m1 + 2.0 * m1**3}


def check_pert(cfg: dict, outputs: dict, ref: dict) -> list[str]:
    failures = []
    fits = outputs["summary"]["fits"]
    lams = sorted(e["lambda1"] for e in fits["entries"])
    if lams != _parse_grid(cfg["grid"]):
        return [f"pert: couplings {lams} differ from the grid"]

    two = outputs["two_point"]
    total2 = complex(sum(r["re_weight"] for r in two), sum(r["im_weight"] for r in two))
    gap = abs(total2 + ref["variance"])
    if not gap <= SUM_RULE_TOL * max(1.0, ref["variance"]):
        failures.append(f"pert: two-point weights sum off -Var(H1) by {gap:.3e}")
    three = outputs["three_point"]
    total3 = complex(sum(r["re_weight"] for r in three), sum(r["im_weight"] for r in three))
    gap = abs(total3 - 1j * ref["kappa3"])
    if not gap <= SUM_RULE_TOL * max(1.0, abs(ref["kappa3"])):
        failures.append(f"pert: three-point weights sum off i kappa3(H1) by {gap:.3e}")

    failures += _detailed_balance(two, cfg["beta"])
    worst = max(e["quadrature_max_gap"] for e in fits["entries"])
    if not worst < QUADRATURE_GAP_BOUND:
        failures.append(f"pert: quadrature_max_gap {worst:.3e}")
    lo, hi = RESIDUAL_SLOPE_BAND
    if not lo <= fits["residual_slope"] <= hi:
        failures.append(f"pert: residual_slope {fits['residual_slope']} outside [{lo}, {hi}]")
    return failures


def _detailed_balance(two: list[dict], beta: float) -> list[str]:
    """weight(-omega) / weight(omega) = exp(-beta omega) on every +-omega pair.

    Atoms within 1e-9 of the frequency scale are taken together: the
    program's 1e-12 merge can split a near-degenerate pair (3e-14 apart at
    seed 10, N = 7) differently at +omega and -omega.  Atoms below 1e-12 of
    the largest weight are rounding residue of matrix elements that vanish by
    symmetry (seen at 1e-31) and carry no ratio.
    """
    omegas = np.array([r["omega"] for r in two])
    weights = np.array([r["re_weight"] for r in two])
    tol = 1e-9 * float(np.abs(omegas).max())
    floor = WEIGHT_FLOOR * float(np.abs(weights).max())
    order = np.argsort(omegas)
    omegas, weights = omegas[order], weights[order]

    def near(target):
        return slice(np.searchsorted(omegas, target - tol), np.searchsorted(omegas, target + tol, side="right"))

    failures, pairs = [], 0
    for omega, weight in zip(omegas, weights):
        if omega <= tol or abs(weight) <= floor:
            continue
        plus, minus = near(omega), near(-omega)
        if weights[minus].size == 0:
            continue
        pairs += 1
        expected = float(np.sum(weights[plus] * np.exp(-beta * omegas[plus])))
        if not abs(weights[minus].sum() - expected) <= DETAILED_BALANCE_TOL * abs(expected):
            failures.append(f"pert: detailed balance fails at omega={omega:.6g}")
    if pairs == 0:
        failures.append("pert: no +-omega pairs in the two-point measure")
    return failures


REFERENCES = {"velocity": reference_velocity, "size": reference_size, "pert_compare": reference_pert}
CHECKS = {"velocity": check_velocity, "size": check_size, "pert_compare": check_pert}
