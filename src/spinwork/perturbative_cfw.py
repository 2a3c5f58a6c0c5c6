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
  * Atoms are merged by :func:`~spinwork.work_statistics.merge_atoms`, the
    chain merge of the work distribution, at ``MERGE_TOLERANCE``: frequencies
    that chain together within it, coordinate by coordinate, are one atom, so
    the atom set does not depend on where the spectrum falls on a grid.

Frequency-denominator handling: atoms within ``default_omega_floor`` of a singular
denominator are excluded from the singular sums; their exact contribution is
restored analytically (a real u^2/2 * A(0) term at second order, a 1/omega1^2
counterterm at third order; both derived from the expansion of the exact
evolution and confirmed by the quadrature oracle, which needs no denominators
at all).  Quasi-degenerate atoms just above the floor are reported via
:class:`DegenerateAtomWarning`.

Cost: H1 in the H0 eigenbasis is block diagonal over its invariant blocks
(the magnetization sectors for the XXZ chain), so the three-point measure
builds its raw atoms per block, sum_b b^3 of them instead of d^3, and checks
their estimated memory against the machine's limit before allocating.  The
quadrature oracle sums each leg over factored panels and derives u < 0 from
|u| by conjugation; its terms are products over the atoms for the whole u grid.
"""
from __future__ import annotations

import os
import resource
import warnings
from dataclasses import dataclass

import numpy as np

from .drive_dynamics import DriveProtocol, lambda_at, spectral_response
from .spectral_core import SpectralDecomposition, boltzmann_weights, invariant_blocks, thermal_expectation
from .spin_model import DimensionError, OperatorMatrix
from .work_statistics import CfwSamples, merge_atoms, write_csv

WEIGHT_FLOOR = 1e-12
# frequencies of the measures that chain together within this are one atom
MERGE_TOLERANCE = 1e-12
QUASI_DEGENERATE_BAND = 1e3
# bytes per atom in three_point_measure's memory estimate: its tracemalloc peak is
# ~78 B per atom at N = 7..9, and the rest is headroom for the process around it
THREE_POINT_BYTES_PER_ATOM = 128


class DegenerateAtomWarning(UserWarning):
    """Atoms at or near a singular frequency were treated specially."""


class QuadratureError(RuntimeError):
    """Time-domain quadrature failed its step-halving convergence check."""


@dataclass(frozen=True)
class SpectralMeasure2:
    """Two-point connected measure: atoms (omega, weight), weights real."""

    omegas: np.ndarray
    weights: np.ndarray

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


def two_point_measure(
    h0_spec: SpectralDecomposition, h1: OperatorMatrix, beta: float
) -> SpectralMeasure2:
    """Spectral measure of the two-point connected function.

    Atom at omega = E_m - E_n with weight -p_n |<n|H1|m>|^2 (the (-i)^2
    prefactor); the connected subtraction adds +<H1>_0^2 to the omega = 0
    atom.  Chains of frequencies with gaps within ``MERGE_TOLERANCE`` are one
    atom (:func:`merge_atoms`), so every atom at omega has one at -omega.
    """
    a = _interaction_eigenbasis(h0_spec, h1)
    p = boltzmann_weights(h0_spec, beta)
    e = h0_spec.eigenvalues
    omegas = np.subtract.outer(e, e).T.reshape(-1, 1)  # omega[n, m] = E_m - E_n, flattened
    weights = -(p[:, None] * np.abs(a) ** 2).ravel()
    omegas, weights = merge_atoms(omegas, weights, MERGE_TOLERANCE)
    omegas = omegas[:, 0]
    # the n = m terms sit at omega = 0 exactly, so an atom at omega ~ 0 always exists
    mean = float(np.real(p @ np.diag(a)))
    weights[np.argmin(np.abs(omegas))] += mean**2
    return SpectralMeasure2(omegas, weights)


def _memory_limit() -> int:
    """Bytes one computation may allocate: physical memory, or a lower soft RLIMIT_AS."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    return limit


def three_point_measure(
    h0_spec: SpectralDecomposition, h1: OperatorMatrix, beta: float
) -> SpectralMeasure3:
    """Spectral measure of the three-point connected function.

    The raw term contributes at (omega1, omega2) = (E_m - E_n, E_k - E_m)
    with weight p_n <n|H1|m><m|H1|k><k|H1|n>; the full connected subtraction
    (<ABC> - <AB><C> - <AC><B> - <BC><A> + 2<A><B><C>) is applied atom by
    atom, and the overall (-i)^3 prefactor is folded into the weights.

    a = V_0^dag H1 V_0 is block diagonal over its invariant blocks (the
    magnetization sectors for the XXZ chain, one block for an H1 that couples
    them), and a raw weight vanishes exactly unless n, m and k share a block,
    so raw atoms and pair subtractions are built per block: sum_b (b^3 + 3 b^2)
    + 1 atoms instead of d^3 + 3 d^2 + 1.  Raises :class:`DimensionError`
    before allocating when their estimated memory exceeds :func:`_memory_limit`.
    """
    a = _interaction_eigenbasis(h0_spec, h1)
    p = boltzmann_weights(h0_spec, beta)
    e = h0_spec.eigenvalues
    mean = float(np.real(p @ np.diag(a)))
    blocks = invariant_blocks(a)

    n_raw = sum(cols.size**3 for cols in blocks)
    n_pair = sum(cols.size**2 for cols in blocks)
    n_atoms = n_raw + 3 * n_pair + 1
    estimate, limit = n_atoms * THREE_POINT_BYTES_PER_ATOM, _memory_limit()
    if estimate > limit:
        raise DimensionError(
            f"three-point measure needs {n_atoms} atoms, an estimated {estimate / 1e9:.2f} GB, "
            f"over the {limit / 1e9:.2f} GB memory limit"
        )

    # rows: the raw atoms (n, m, k), then the three pair subtractions
    # <AB><C>, <AC><B>, <BC><A> over (n, m), then the 2<A><B><C> atom at the origin
    coords = np.zeros((n_atoms, 2))
    weights = np.empty(n_atoms, dtype=complex)
    sub = coords[n_raw:-1].reshape(3, n_pair, 2)
    sub_w = weights[n_raw:-1].reshape(3, n_pair)
    raw_at = pair_at = 0
    for cols in blocks:
        b = cols.size
        gap = np.subtract.outer(e[cols], e[cols])  # gap[i, j] = E_i - E_j
        ab = a[np.ix_(cols, cols)]
        raw = coords[raw_at : raw_at + b**3].reshape(b, b, b, 2)
        raw[..., 0] = -gap[:, :, None]  # E_m - E_n
        raw[..., 1] = gap.T[None, :, :]  # gap.T[m, k] = E_k - E_m
        raw_w = weights[raw_at : raw_at + b**3].reshape(b, b, b)
        np.einsum("n,nm,mk,kn->nmk", p[cols], ab, ab, ab, out=raw_w)
        pairs = slice(pair_at, pair_at + b * b)
        sub[0, pairs, 0] = sub[1, pairs, 0] = -gap.ravel()
        sub[0, pairs, 1] = gap.ravel()
        sub[2, pairs, 1] = -gap.ravel()
        sub_w[:, pairs] = -mean * (p[cols, None] * np.abs(ab) ** 2).ravel()
        raw_at += b**3
        pair_at += b * b
    weights[-1] = 2 * mean**3

    coords, merged_w = merge_atoms(coords, weights, MERGE_TOLERANCE)
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


def _gl_panels(a: float, b: float, points_per_unit: float, refine: int = 1):
    """Midpoints and half-widths of the composite rule's panels on the oriented interval [a, b]."""
    n_panels = refine * max(2, int(np.ceil(points_per_unit * abs(b - a))))
    edges = np.linspace(a, b, n_panels + 1)
    return (edges[:-1] + edges[1:]) / 2.0, (edges[1:] - edges[:-1]) / 2.0


def _gl_leg(a: float, b: float, points_per_unit: float, refine: int = 1):
    """Composite 8-point Gauss-Legendre nodes/weights on the oriented interval [a, b]."""
    mid, half = _gl_panels(a, b, points_per_unit, refine=refine)
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _legs(omegas: np.ndarray, u_grid: np.ndarray, points_per_unit: float, refine: int = 1):
    """Leg sums of the composite rule on [0, u] (:func:`_gl_leg`) for every u of the grid.

    Returns g[:, j] = sum_k e^{i omega tau_k} w_k and the tent-kernel sum
    h[:, j] = sum_k e^{-i omega tau_k} (u_j - tau_k) w_k, one row per omega.
    The rule on [0, -u] is the exact negation of the rule on [0, u], so only
    the distinct |u| are summed and u < 0 follows by conjugation.  Each panel
    factors as e^{i omega (mid_j + half x_k)} = e^{i omega mid_j} e^{i omega half x_k},
    so a leg takes one exponential per panel and per Gauss node, not per node
    of every panel; the panel sums themselves are summed term by term.
    """
    u = np.asarray(u_grid, dtype=float)
    spans, where = np.unique(np.abs(u), return_inverse=True)
    g = np.zeros((omegas.size, spans.size), dtype=complex)
    h = np.zeros_like(g)
    for j, span in enumerate(spans):
        if span <= 1e-14:
            continue
        mid, half = _gl_panels(0.0, span, points_per_unit, refine=refine)
        # the panels have one width up to roundoff, so one row of in-panel factors serves all
        rule = np.exp(1j * np.outer(omegas, half[0] * _GL_NODES))
        e_w, e_xw = rule @ _GL_WEIGHTS, rule @ (_GL_NODES * _GL_WEIGHTS)
        panels = np.exp(1j * np.outer(omegas, mid))
        g[:, j] = e_w * (panels @ half)
        h[:, j] = np.conj(e_w * (panels @ (half * (span - mid))) - half[0] * e_xw * (panels @ half))
    g, h = g[:, where], h[:, where]
    mirror = u < 0
    g[:, mirror] = -np.conj(g[:, mirror])
    h[:, mirror] = np.conj(h[:, mirror])
    return g, h


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
    The leg on [t, t+u] is e^{i omega t} times the leg on [0, u], and the
    ordered double integral over [t, t+u]^2 reduces to the tent kernel on
    [0, u] (:func:`_legs`); each term is then one product over the atoms for
    the whole u grid.
    """
    t = protocol.t_total
    u = np.asarray(u_grid, dtype=float)
    s_nodes, s_w = _gl_leg(0.0, t, points_per_unit, refine=refine)
    lam_s = np.array([lambda_at(protocol, s) for s in s_nodes]) * s_w
    # F(omega) = sum_s lam(s) ds e^{i omega s}
    f = np.exp(1j * np.outer(omegas, s_nodes)) @ lam_s
    t_ab = -np.sum(coeffs * np.abs(f) ** 2)

    g, h = _legs(omegas, u, points_per_unit, refine=refine)
    phase = np.exp(-1j * np.outer(omegas, u))
    at_t = np.exp(1j * omegas * t)
    t_e = (coeffs * np.abs(f) ** 2) @ phase
    t_c = -(lambda1**2) * (coeffs @ h)
    t_d = -lambda1 * ((coeffs * f * np.conj(at_t)) @ np.conj(g))
    t_f = lambda1 * ((coeffs * np.conj(f) * at_t) @ (phase * g))
    return t_ab + t_c + t_d + t_e + t_f


def lnchi_second_order_quadrature(
    measure: SpectralMeasure2,
    protocol: DriveProtocol,
    first_cum: float,
    lambda1: float,
    u_grid: np.ndarray,
    points_per_unit: float = 8.0,
) -> CfwSamples:
    """Oracle route for the second-order ln chi, by time-domain quadrature.

    Takes the same two-point measure and first cumulant as
    :func:`lnchi_second_order` and serves as the arbiter for its
    frequency-floor conventions; raises :class:`QuadratureError` when halving
    the quadrature step still moves the result by more than 1e-7.
    """
    u = np.asarray(u_grid, dtype=float)
    # atoms (omega, a) of c(s) = <H1^I(s) H1^I(0)>_0 - <H1>_0^2 = sum a exp(i omega s):
    # the two-point measure with frequency and sign flipped
    omegas, coeffs = -measure.omegas[::-1], -measure.weights[::-1]
    coarse = _second_order_time_domain(omegas, coeffs, protocol, lambda1, u, points_per_unit)
    second = _second_order_time_domain(omegas, coeffs, protocol, lambda1, u, points_per_unit, refine=2)
    drift = float(np.abs(coarse - second).max())
    if drift > 1e-7:
        raise QuadratureError(f"quadrature moved by {drift:.3e} under step halving; raise points_per_unit")
    ln = 1j * u * lambda1 * first_cum + second
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
