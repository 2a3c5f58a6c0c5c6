"""Weak-coupling expansion of ln chi(u) from exact spectral data.

The expansion is organized through connected correlation functions of the
interaction part in the interaction picture, represented as discrete measures
over Bohr frequencies.  Normalization conventions (shared by every evaluator
and checked against the time-domain quadrature oracle):

  * Frequency integrals int domega/2pi over the measures are plain sums over
    atoms; the 1/2pi is absorbed into the atom weights at construction time.
  * The (-i)^n prefactor of the n-point connected function lives inside the
    stored weights, never in the evaluators.
  * Inverse transforms use exp(-i omega s) per frequency argument, so the
    two-point weights satisfy weight(-omega)/weight(omega) = exp(-beta omega)
    on nondegenerate pairs.

Frequency-denominator handling: atoms within ``default_omega_floor`` of a singular
denominator are excluded from the singular sums; their exact contribution is
restored analytically (a real u^2/2 * A(0) term at second order, a 1/omega1^2
counterterm at third order; both derived from the expansion of the exact
evolution and confirmed by the quadrature oracle, which needs no denominators
at all).  Quasi-degenerate atoms just above the floor are reported via
:class:`DegenerateAtomWarning`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .drive_dynamics import DriveProtocol, lambda_at, spectral_response
from .spectral_core import SpectralDecomposition, boltzmann_weights, thermal_expectation
from .spin_model import OperatorMatrix
from .work_statistics import CfwSamples, write_csv

WEIGHT_FLOOR = 1e-12
QUASI_DEGENERATE_BAND = 1e3


class DegenerateAtomWarning(UserWarning):
    """Atoms at or near a singular frequency were treated specially."""


class QuadratureError(RuntimeError):
    """Time-domain quadrature failed its step-halving convergence check."""


@dataclass(frozen=True)
class SpectralMeasure2:
    """Two-point connected measure: atoms (omega, weight), weights real."""

    omegas: np.ndarray
    weights: np.ndarray
    connected: bool = True

    @property
    def frequency_scale(self) -> float:
        return float(np.abs(self.omegas).max())

    def inverse_transform(self, s: float) -> complex:
        return complex(np.sum(self.weights * np.exp(-1j * self.omegas * s)))


@dataclass(frozen=True)
class SpectralMeasure3:
    """Three-point connected measure: atoms ((omega1, omega2), weight), weights complex."""

    omega1: np.ndarray
    omega2: np.ndarray
    weights: np.ndarray

    @property
    def frequency_scale(self) -> float:
        return float(max(np.abs(self.omega1).max(), np.abs(self.omega2).max()))

    def inverse_transform(self, s1: float, s2: float) -> complex:
        return complex(
            np.sum(self.weights * np.exp(-1j * (self.omega1 * s1 + self.omega2 * s2)))
        )


def default_omega_floor(frequency_scale: float) -> float:
    return 1e-9 * max(frequency_scale, 1.0)


def first_cumulant(h0_spec: SpectralDecomposition, h1: OperatorMatrix, beta: float) -> float:
    """Thermal average of the interaction part in the unperturbed Gibbs state."""
    return thermal_expectation(h0_spec, beta, h1)


def _interaction_eigenbasis(h0_spec: SpectralDecomposition, h1: OperatorMatrix) -> np.ndarray:
    v = h0_spec.eigenvectors
    return v.conj().T @ h1.matrix @ v


def _merge_keyed(coords: np.ndarray, weights: np.ndarray, tol: float = 1e-12):
    """Merge atoms whose frequency coordinates round to the same multiples of ``tol``.

    ``coords`` is (n, k), one row of k frequencies per atom.  Returns the mean
    coordinates (m, k) and the summed weights (m,) of the m distinct keys, in
    lexicographic key order.  Columns are accumulated one at a time, because a
    single 2-d scatter-add is an order of magnitude slower at d^3 atoms.
    """
    keys = np.round(coords / tol).astype(np.int64)
    # lexsort takes its primary key last; a key starts a group where it differs
    # from its sorted predecessor
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    m = int(starts.sum())
    counts = np.bincount(inverse, minlength=m)
    means = np.empty((m, coords.shape[1]))
    for j in range(coords.shape[1]):
        means[:, j] = np.bincount(inverse, coords[:, j], m) / counts
    merged_w = np.zeros(m, dtype=weights.dtype)
    np.add.at(merged_w, inverse, weights)
    return means, merged_w


def two_point_measure(
    h0_spec: SpectralDecomposition, h1: OperatorMatrix, beta: float
) -> SpectralMeasure2:
    """Spectral measure of the two-point connected function.

    Atom at omega = E_m - E_n with weight -p_n |<n|H1|m>|^2 (the (-i)^2
    prefactor); the connected subtraction adds +<H1>_0^2 to the omega = 0
    atom.  Atoms within 1e-12 in frequency are merged.
    """
    a = _interaction_eigenbasis(h0_spec, h1)
    p = boltzmann_weights(h0_spec, beta)
    e = h0_spec.eigenvalues
    omegas = np.subtract.outer(e, e).T.reshape(-1, 1)  # omega[n, m] = E_m - E_n, flattened
    weights = -(p[:, None] * np.abs(a) ** 2).ravel()
    omegas, weights = _merge_keyed(omegas, weights)
    omegas = omegas[:, 0]
    # the n = m terms sit at omega = 0 exactly, so the key-0 atom always exists
    mean = float(np.real(p @ np.diag(a)))
    weights[np.argmin(np.abs(omegas))] += mean**2
    return SpectralMeasure2(omegas, weights)


def three_point_measure(
    h0_spec: SpectralDecomposition, h1: OperatorMatrix, beta: float
) -> SpectralMeasure3:
    """Spectral measure of the three-point connected function.

    The raw term contributes at (omega1, omega2) = (E_m - E_n, E_k - E_m)
    with weight p_n <n|H1|m><m|H1|k><k|H1|n>; the full connected subtraction
    (<ABC> - <AB><C> - <AC><B> - <BC><A> + 2<A><B><C>) is applied atom by
    atom, and the overall (-i)^3 prefactor is folded into the weights.
    """
    a = _interaction_eigenbasis(h0_spec, h1)
    p = boltzmann_weights(h0_spec, beta)
    e = h0_spec.eigenvalues
    d = e.shape[0]
    mean = float(np.real(p @ np.diag(a)))

    gap = np.subtract.outer(e, e)  # gap[i, j] = E_i - E_j
    n_raw, n_pair = d**3, d * d
    # rows: the d^3 raw atoms (n, m, k), then the three pair subtractions
    # <AB><C>, <AC><B>, <BC><A> over (n, m), then the 2<A><B><C> atom at the origin
    coords = np.zeros((n_raw + 3 * n_pair + 1, 2))
    raw = coords[:n_raw].reshape(d, d, d, 2)
    raw[..., 0] = -gap[:, :, None]  # E_m - E_n
    raw[..., 1] = gap.T[None, :, :]  # gap.T[m, k] = E_k - E_m
    sub = coords[n_raw:-1].reshape(3, n_pair, 2)
    sub[0, :, 0] = sub[1, :, 0] = -gap.ravel()
    sub[0, :, 1] = gap.ravel()
    sub[2, :, 1] = -gap.ravel()

    pair = p[:, None] * np.abs(a) ** 2  # pair[n, m]
    weights = np.concatenate(
        [np.einsum("n,nm,mk,kn->nmk", p, a, a, a).ravel()]
        + [-mean * pair.ravel()] * 3
        + [np.array([2 * mean**3])]
    )

    coords, merged_w = _merge_keyed(coords, weights)
    keep = np.abs(merged_w) > 0.0
    return SpectralMeasure3(coords[keep, 0], coords[keep, 1], (-1j) ** 3 * merged_w[keep])


@dataclass(frozen=True)
class SecondOrderReport:
    zero_frequency_weight: float
    quasi_degenerate_mass: float
    omega_floor: float


def lnchi_second_order(
    measure: SpectralMeasure2,
    protocol: DriveProtocol,
    first_cum: float,
    lambda1: float,
    u_grid: np.ndarray,
    return_report: bool = False,
):
    """Second-order cumulant approximation of ln chi(u).

    Evaluates i u lam <H1>_c + i u lam^2 sum' g/omega
    + sum' (1 - e^{i omega u}) / omega^2 * A(omega) * g, with atoms below
    the frequency floor excluded from the primed sums and restored through their
    exact shape-independent limit (u^2/2) lam^2 g0 (real, since the
    zero-frequency weight is real).
    """
    u = np.asarray(u_grid, dtype=float)
    omega_floor = default_omega_floor(measure.frequency_scale)
    reg = np.abs(measure.omegas) > omega_floor
    o, g = measure.omegas[reg], measure.weights[reg]
    g0 = float(measure.weights[~reg].sum())

    hazard = reg & (np.abs(measure.omegas) < QUASI_DEGENERATE_BAND * omega_floor)
    hazard_mass = float(np.abs(measure.weights[hazard]).sum())
    if hazard_mass > WEIGHT_FLOOR:
        warnings.warn(
            "quasi-degenerate atoms just above the frequency floor enter the "
            "singular sums; their mass is reported in the evaluation report",
            DegenerateAtomWarning,
            stacklevel=2,
        )

    a_of_o = np.asarray(spectral_response(protocol, o), dtype=float)
    ln = (
        1j * u * lambda1 * first_cum
        + 1j * u * lambda1**2 * float(np.sum(g / o))
        + np.sum(
            (1.0 - np.exp(1j * np.outer(u, o))) / o[None, :] ** 2 * (a_of_o * g)[None, :],
            axis=1,
        )
        + 0.5 * u**2 * lambda1**2 * g0
    )
    samples = CfwSamples(u, np.exp(ln), ln)
    if return_report:
        return samples, SecondOrderReport(g0, hazard_mass, omega_floor)
    return samples


# ---------------------------------------------------------------------------
# Time-domain quadrature oracle
# ---------------------------------------------------------------------------


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _gl_leg(a: float, b: float, points_per_unit: float, refine: int = 1):
    """Composite 8-point Gauss-Legendre nodes/weights on the oriented interval [a, b]."""
    span = b - a
    n_panels = refine * max(2, int(np.ceil(points_per_unit * abs(span))))
    edges = np.linspace(a, b, n_panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _second_order_time_domain(
    omegas: np.ndarray,
    coeffs: np.ndarray,
    protocol: DriveProtocol,
    lambda1: float,
    u_grid: np.ndarray,
    points_per_unit: float,
    refine: int = 1,
) -> np.ndarray:
    """Second-order double time integrals of the exact expansion of ln chi.

    Expanding U, e^{iuH_f} and e^{-iuH_i} of the trace formula to second order
    in the coupling leaves six double integrals of the connected correlator
    over the legs [0, t] and [t, t+u].  They are evaluated with composite
    Gauss-Legendre weights; the quadrature sums are factorized per atom of the
    correlator (finite-sum algebra only; no frequency denominators appear).
    """
    t = protocol.t_total
    s_nodes, s_w = _gl_leg(0.0, t, points_per_unit, refine=refine)
    lam_s = np.array([lambda_at(protocol, s) for s in s_nodes]) * s_w
    # F(omega) = sum_s lam(s) ds e^{i omega s}
    f = np.exp(1j * np.outer(omegas, s_nodes)) @ lam_s
    t_ab = -np.sum(coeffs * np.abs(f) ** 2)

    out = np.empty(len(u_grid), dtype=complex)
    for iu, u in enumerate(np.asarray(u_grid, dtype=float)):
        phase = np.exp(-1j * omegas * u)
        t_e = np.sum(coeffs * phase * np.abs(f) ** 2)
        if abs(u) > 1e-14:
            r_nodes, r_w = _gl_leg(t, t + u, points_per_unit, refine=refine)
            g = np.exp(1j * np.outer(omegas, r_nodes)) @ r_w
            # tent-kernel reduction of the ordered double integral over [t, t+u]^2
            tau_nodes, tau_w = _gl_leg(0.0, u, points_per_unit, refine=refine)
            tent = (u - tau_nodes) * tau_w
            h = np.exp(-1j * np.outer(omegas, tau_nodes)) @ tent
            t_c = -(lambda1**2) * np.sum(coeffs * h)
            t_d = -lambda1 * np.sum(coeffs * f * np.conj(g))
            t_f = lambda1 * np.sum(coeffs * phase * g * np.conj(f))
        else:
            t_c = t_d = t_f = 0.0
        out[iu] = t_ab + t_c + t_d + t_e + t_f
    return out


def lnchi_second_order_quadrature(
    h0_spec: SpectralDecomposition,
    h1: OperatorMatrix,
    beta: float,
    protocol: DriveProtocol,
    lambda1: float,
    u_grid: np.ndarray,
    points_per_unit: float = 8.0,
) -> CfwSamples:
    """Oracle route for the second-order ln chi, by time-domain quadrature.

    Serves as the arbiter for the frequency-floor conventions of
    :func:`lnchi_second_order`; raises :class:`QuadratureError` when halving
    the quadrature step still moves the result by more than 1e-7.
    """
    u = np.asarray(u_grid, dtype=float)
    # atoms (omega, a) of c(s) = <H1^I(s) H1^I(0)>_0 - <H1>_0^2 = sum a exp(i omega s):
    # the two-point measure with frequency and sign flipped
    m2 = two_point_measure(h0_spec, h1, beta)
    omegas, coeffs = -m2.omegas[::-1], -m2.weights[::-1]
    first = first_cumulant(h0_spec, h1, beta)
    coarse = _second_order_time_domain(omegas, coeffs, protocol, lambda1, u, points_per_unit)
    second = _second_order_time_domain(omegas, coeffs, protocol, lambda1, u, points_per_unit, refine=2)
    drift = float(np.abs(coarse - second).max())
    if drift > 1e-7:
        raise QuadratureError(f"quadrature moved by {drift:.3e} under step halving; raise points_per_unit")
    ln = 1j * u * lambda1 * first + second
    return CfwSamples(u, np.exp(ln), ln)


def third_order_adiabatic_coefficient(
    m3: SpectralMeasure3,
    return_report: bool = False,
):
    """Coefficient S of the adiabatic third-order term i u lam^3 S.

    Regular atoms contribute w / (i omega1 (omega1 + omega2)).  Atoms with
    omega1 + omega2 inside the floor but omega1 outside carry the secular
    counterterm i w / omega1^2 (the degenerate-continuation limit); atoms with
    omega1 inside the floor contribute nothing in the adiabatic limit.
    """
    omega_floor = default_omega_floor(m3.frequency_scale)
    o1, sig, w = m3.omega1, m3.omega1 + m3.omega2, m3.weights
    small1 = np.abs(o1) <= omega_floor
    small_sig = np.abs(sig) <= omega_floor
    regular = ~small1 & ~small_sig
    secular = ~small1 & small_sig
    s = complex(
        np.sum(w[regular] / (1j * o1[regular] * sig[regular]))
        + np.sum(1j * w[secular] / o1[secular] ** 2)
    )
    dropped = float(np.abs(w[small1]).sum())
    if dropped > WEIGHT_FLOOR:
        warnings.warn(
            "zero-frequency atoms excluded from the third-order sum; their "
            "adiabatic-limit contribution vanishes by construction",
            DegenerateAtomWarning,
            stacklevel=2,
        )
    if return_report:
        return s, dropped
    return s


def lnchi_third_order_adiabatic(
    m3: SpectralMeasure3,
    lambda1: float,
    u_grid: np.ndarray,
) -> CfwSamples:
    """Adiabatic third-order term of ln chi: linear in u with a generally
    complex coefficient (the signature that slow driving still misses the
    target thermal state at this order)."""
    u = np.asarray(u_grid, dtype=float)
    s = third_order_adiabatic_coefficient(m3)
    ln = 1j * u * lambda1**3 * s
    return CfwSamples(u, np.exp(ln), ln)


def measure2_to_csv(m: SpectralMeasure2, path) -> None:
    write_csv(path, ["omega", "re_weight", "im_weight"], zip(m.omegas, m.weights.real, m.weights.imag))


def measure3_to_csv(m: SpectralMeasure3, path) -> None:
    write_csv(
        path,
        ["omega", "omega2", "re_weight", "im_weight"],
        zip(m.omega1, m.omega2, m.weights.real, m.weights.imag),
    )
