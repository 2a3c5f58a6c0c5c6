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

Cost: H1 in the H0 eigenbasis is block diagonal over the blocks common to
both (the chain's symmetry-adapted blocks in the pipeline), so both measures
build their atoms per block: the three-point measure sum_b b^3 raw atoms
instead of d^3, after a memory check.  A spin-flip copy's atoms are its
partner's bit for bit (``spin_model.copies``), so each pair's atoms are built
once at doubled weight and the sums run over the distinct blocks only.
The quadrature oracle lays one grid of panels from 0 per rule level and shares it
across every leg of a call: a leg [0, s] is a prefix sum over its whole panels
plus one partial panel, so a rule level takes one exponential per (frequency,
panel) and 8 per (frequency, partial panel), and u < 0 follows from |u| by
conjugation.  The u legs and the e^{-i omega u} phase table do not depend on the
coupling, so one oracle call builds them once for a whole coupling grid, and
each run's terms are then products over the atoms for the whole u grid.
"""
from __future__ import annotations

import warnings
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .drive_dynamics import DriveProtocol, lambda_at, spectral_response
from .spectral_core import SpectralDecomposition, boltzmann_weights, thermal_expectation
from .spin_model import OperatorMatrix, check_memory, common_blocks, copies
from .work_statistics import CfwSamples, distinct_spans, merge_atoms, write_csv

WEIGHT_FLOOR = 1e-12
# frequencies of the measures that chain together within this are one atom
MERGE_TOLERANCE = 1e-12
QUASI_DEGENERATE_BAND = 1e3
# bytes per atom in three_point_measure's memory estimate: its tracemalloc peak is
# 74-75 B per atom at N = 7..9, and the rest is headroom for the process around it
THREE_POINT_BYTES_PER_ATOM = 128
# the quadrature oracle's gate: the most halving its time step may move ln chi
QUADRATURE_DRIFT = 1e-7
QUADRATURE_POINTS_PER_UNIT = 8.0
# bytes per entry of the oracle's tables, a frequency by a shared panel or a partial panel's
# node: 16 for the exponential, written in place, and the rest for the leg sums, the phase
# table and the products beside it (one call at N = 7 peaks at 0.70 of the estimate)
QUADRATURE_BYTES_PER_ENTRY = 40


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

    @property
    def zero_frequency_weight(self) -> float:
        """g0, the weight of the atoms within ``default_omega_floor`` of omega = 0."""
        return float(self.weights[~(np.abs(self.omegas) > default_omega_floor(self.frequency_scale))].sum())


@dataclass(frozen=True)
class SpectralMeasure3:
    """Three-point connected measure: atoms ((omega1, omega2), weight), weights complex."""

    omega1: np.ndarray
    omega2: np.ndarray
    weights: np.ndarray

    @property
    def frequency_scale(self) -> float:
        return float(max(np.abs(self.omega1).max(initial=0.0), np.abs(self.omega2).max(initial=0.0)))


def default_omega_floor(frequency_scale: float) -> float:
    return 1e-9 * max(frequency_scale, 1.0)


def first_cumulant(h0_spec: SpectralDecomposition, h1: OperatorMatrix, beta: float) -> float:
    """Thermal average of the interaction part in the unperturbed Gibbs state."""
    return thermal_expectation(h0_spec, beta, h1)


def _interaction_blocks(h0_spec: SpectralDecomposition, h1: OperatorMatrix, p: np.ndarray):
    """a = V_0^dag H1 V_0 as (eigen-columns, block, multiplicity) triples, one per group of
    ``spin_model.copies`` among the blocks common to V_0 and H1 (a flip copy, whose
    eigenvalues and weights p are its partner's, counts as its partner), and
    <H1>_0 = sum_n p_n a_nn."""
    e = h0_spec.eigenvalues
    common = [(cols, v, h) for _, ((cols, v), (_, h)) in common_blocks(h0_spec.blocks, h1.blocks)]
    blocks = []
    for i, count in Counter(copies(*zip(*((v, h, e[cols], p[cols]) for cols, v, h in common)))).items():
        cols, v, h = common[i]
        blocks.append((cols, v.conj().T @ h @ v, count))
    return blocks, float(sum(count * np.real(p[cols] @ np.diag(ab)) for cols, ab, count in blocks))


def two_point_measure(
    h0_spec: SpectralDecomposition, h1: OperatorMatrix, beta: float
) -> SpectralMeasure2:
    """Spectral measure of the two-point connected function.

    Atom at omega = E_m - E_n with weight -p_n |<n|H1|m>|^2 (the (-i)^2
    prefactor); the connected subtraction adds +<H1>_0^2 to the omega = 0
    atom.  Chains of frequencies with gaps within ``MERGE_TOLERANCE`` are one
    atom (:func:`merge_atoms`), and every atom at omega has one at exactly -omega.
    """
    p = boltzmann_weights(h0_spec, beta)
    blocks, mean = _interaction_blocks(h0_spec, h1, p)
    e = h0_spec.eigenvalues
    # omega[n, m] = E_m - E_n within each block, flattened; a vanishes between blocks
    omegas = np.concatenate([np.subtract.outer(e[cols], e[cols]).T.ravel() for cols, _, _ in blocks])
    weights = np.concatenate([-(count * p[cols, None] * np.abs(ab) ** 2).ravel() for cols, ab, count in blocks])
    omegas, weights = merge_atoms(omegas[:, None], weights, MERGE_TOLERANCE)
    # the raw frequencies come in exact +-pairs, so chain k mirrors chain -1-k: their
    # means' half-difference places each atom at the exact negation of its mirror's
    omegas = (omegas[:, 0] - omegas[::-1, 0]) / 2.0
    # the n = m terms sit at omega = 0 exactly, so an atom at omega ~ 0 always exists
    weights[np.argmin(np.abs(omegas))] += mean * mean
    return SpectralMeasure2(omegas, weights)


def three_point_atom_counts(sizes) -> tuple[int, int, int]:
    """The raw, pair and total atom counts, sum b^3, sum b^2 and sum_b (b^3 + 3 b^2) + 1, of a
    three-point measure over blocks of ``sizes``; raises ``DimensionError`` when the total at
    THREE_POINT_BYTES_PER_ATOM exceeds the memory limit (``spin_model.check_memory``)."""
    n_raw, n_pair = sum(b**3 for b in sizes), sum(b**2 for b in sizes)
    n_atoms = n_raw + 3 * n_pair + 1
    check_memory(f"three-point measure needs {n_atoms} atoms", n_atoms * THREE_POINT_BYTES_PER_ATOM)
    return n_raw, n_pair, n_atoms


def three_point_measure(
    h0_spec: SpectralDecomposition, h1: OperatorMatrix, beta: float
) -> SpectralMeasure3:
    """Spectral measure of the three-point connected function.

    The raw term contributes at (omega1, omega2) = (E_m - E_n, E_k - E_m)
    with weight p_n <n|H1|m><m|H1|k><k|H1|n>; the full connected subtraction
    (<ABC> - <AB><C> - <AC><B> - <BC><A> + 2<A><B><C>) is applied atom by
    atom, and the overall (-i)^3 prefactor is folded into the weights.

    a = V_0^dag H1 V_0 is block diagonal over the blocks common to V_0 and H1,
    and a raw weight vanishes exactly unless n, m and k share a block, so raw
    atoms and pair subtractions are built per block, a flip pair's once at doubled
    weight: sum_b (b^3 + 3 b^2) + 1 atoms over the distinct blocks instead of
    d^3 + 3 d^2 + 1, checked against the memory limit before allocating
    (:func:`three_point_atom_counts`).
    """
    p = boltzmann_weights(h0_spec, beta)
    blocks, mean = _interaction_blocks(h0_spec, h1, p)
    e = h0_spec.eigenvalues

    n_raw, n_pair, n_atoms = three_point_atom_counts([cols.size for cols, _, _ in blocks])

    # rows: the raw atoms (n, m, k), then the three pair subtractions
    # <AB><C>, <AC><B>, <BC><A> over (n, m), then the 2<A><B><C> atom at the origin
    coords = np.zeros((n_atoms, 2))
    weights = np.empty(n_atoms, dtype=complex)
    sub = coords[n_raw:-1].reshape(3, n_pair, 2)
    sub_w = weights[n_raw:-1].reshape(3, n_pair)
    raw_at = pair_at = 0
    for cols, ab, count in blocks:
        b, pw = cols.size, count * p[cols]
        gap = np.subtract.outer(e[cols], e[cols])  # gap[i, j] = E_i - E_j
        raw = coords[raw_at : raw_at + b**3].reshape(b, b, b, 2)
        raw[..., 0] = -gap[:, :, None]  # E_m - E_n
        raw[..., 1] = gap.T[None, :, :]  # gap.T[m, k] = E_k - E_m
        raw_w = weights[raw_at : raw_at + b**3].reshape(b, b, b)
        np.einsum("n,nm,mk,kn->nmk", pw, ab, ab, ab, out=raw_w)
        pairs = slice(pair_at, pair_at + b * b)
        sub[0, pairs, 0] = sub[1, pairs, 0] = -gap.ravel()
        sub[0, pairs, 1] = gap.ravel()
        sub[2, pairs, 1] = -gap.ravel()
        sub_w[:, pairs] = -mean * (pw[:, None] * np.abs(ab) ** 2).ravel()
        raw_at += b**3
        pair_at += b * b
    weights[-1] = 2 * (mean * mean * mean)

    coords, merged_w = merge_atoms(coords, weights, MERGE_TOLERANCE)
    keep = np.abs(merged_w) > 0.0
    return SpectralMeasure3(coords[keep, 0], coords[keep, 1], (-1j) ** 3 * merged_w[keep])


def lnchi_second_order(
    measure: SpectralMeasure2,
    protocol: DriveProtocol,
    first_cum: float,
    lambda1: float,
    u_grid: np.ndarray,
) -> CfwSamples:
    """Second-order cumulant approximation of ln chi(u).

    Evaluates i u lam <H1>_c + i u lam^2 sum' g/omega
    + sum' (1 - e^{i omega u}) / omega^2 * A(omega) * g, with atoms below
    the frequency floor excluded from the primed sums and restored through their
    exact shape-independent limit (u^2/2) lam^2 g0 (real, since the
    zero-frequency weight is real).  A(omega) and g are real, so the oscillating
    sum is summed in real arithmetic at the distinct |u| only and u < 0 is filled
    by conjugation.
    """
    u = np.asarray(u_grid, dtype=float)
    omega_floor = default_omega_floor(measure.frequency_scale)
    reg = np.abs(measure.omegas) > omega_floor
    o, g, g0 = measure.omegas[reg], measure.weights[reg], measure.zero_frequency_weight

    hazard = reg & (np.abs(measure.omegas) < QUASI_DEGENERATE_BAND * omega_floor)
    hazard_mass = float(np.abs(measure.weights[hazard]).sum())
    if hazard_mass > WEIGHT_FLOOR:
        warnings.warn(
            f"quasi-degenerate atoms of mass {hazard_mass:.3g} just above the frequency floor "
            "enter the singular sums",
            DegenerateAtomWarning,
            stacklevel=2,
        )

    a_of_o = np.asarray(spectral_response(protocol, o), dtype=float)
    spans, where = distinct_spans(u)
    theta, c = np.outer(spans, o), a_of_o * g / o**2
    oscillating = ((1.0 - np.cos(theta)) @ c - 1j * (np.sin(theta) @ c))[where]
    oscillating[u < 0] = np.conj(oscillating[u < 0])
    ln = (
        1j * u * lambda1 * first_cum
        + 1j * u * (lambda1 * lambda1) * float(np.sum(g / o))
        + oscillating
        + 0.5 * u**2 * (lambda1 * lambda1) * g0
    )
    return CfwSamples(u, np.exp(ln), ln)


# ---------------------------------------------------------------------------
# Time-domain quadrature oracle
# ---------------------------------------------------------------------------


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class _Panels:
    """One rule level's shared panels [k width, (k + 1) width] on [0, length]: ``at_mid[:, k]`` is
    e^{i omega mid_k} and ``in_panel[:, j]`` is e^{i omega (width / 2) x_j} for the Gauss nodes x_j."""

    width: float
    at_mid: np.ndarray
    in_panel: np.ndarray


def _panel_width(length: float, points_per_unit: float) -> float:
    """The coarse rule's panel width 1 / max(points_per_unit, 2 / length): at least two panels on the
    longest leg [0, length]."""
    return min(1.0 / points_per_unit, length / 2.0) if length > 0 else 1.0 / points_per_unit


def _partial_panels(spans: np.ndarray, width: float):
    """The whole panels floor(s / width) of each span s, and the 8-point rule's nodes and weights,
    one row per span, on its partial panel [floor(s / width) width, s]."""
    whole = np.floor(spans / width)
    lo = whole * width
    mid, half = (lo + spans) / 2.0, (spans - lo) / 2.0
    return whole.astype(int), mid[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS


def _layout(span: float, width: float):
    """Nodes and weights, one row per panel, of the rule on [0, span]: its whole shared panels and then
    the partial one (a span shorter than one panel is the partial panel alone)."""
    (whole,), nodes, weights = _partial_panels(np.array([float(span)]), width)
    mid = (np.arange(whole) + 0.5) * width
    return (np.vstack([mid[:, None] + (width / 2.0) * _GL_NODES, nodes]),
            np.vstack([np.tile((width / 2.0) * _GL_WEIGHTS, (whole, 1)), weights]))


def check_quadrature(n_freqs: int, u_grid: np.ndarray, t_totals: Sequence[float]) -> None:
    """Raise ``DimensionError`` when the oracle's tables at its refined rule exceed the memory limit
    at QUADRATURE_BYTES_PER_ENTRY (``spin_model.check_memory``): per frequency, one entry per shared
    panel on the longest leg and one per node of each partial panel, one per distinct |u| and one per
    run of ``t_totals``."""
    spans = np.abs(np.asarray(u_grid, dtype=float))
    length = max(spans.max(initial=0.0), *t_totals)
    panels = np.floor(2.0 * length / _panel_width(length, QUADRATURE_POINTS_PER_UNIT))
    entries = n_freqs * (panels + _GL_NODES.size * (distinct_spans(spans)[0].size + len(t_totals)))
    check_memory(f"the quadrature oracle needs {entries:.6g} table entries", entries * QUADRATURE_BYTES_PER_ENTRY)


def _legs(omegas: np.ndarray, u_grid: np.ndarray, length: float, points_per_unit: float, refine: int = 1):
    """Leg sums on [0, u] for every u of the grid, and the shared panels they are summed over.

    One rule level lays panels of width w = :func:`_panel_width` / ``refine`` from 0 over
    [0, length]; the rule on [0, s] is 8-point Gauss-Legendre on each whole panel below s and on the
    partial panel [floor(s / w) w, s], so a span shorter than the refined width is one partial panel
    at both levels.  Returns g[:, j] = sum_k e^{i omega tau_k} w_k, the tent-kernel sum
    h[:, j] = sum_k e^{-i omega tau_k} (u_j - tau_k) w_k, one row per omega, and the
    :class:`_Panels`.  A whole panel's node factors as e^{i omega mid} e^{i omega (w/2) x_k}, so
    the whole panels of every span are prefix sums of one exponential per (omega, panel) and the 8
    in-panel ones; each partial panel takes 8 exponentials per omega.  The rule on [0, -u] is the
    exact negation of the rule on [0, u], so only the distinct |u| are summed and u < 0 follows by
    conjugation.
    """
    u = np.asarray(u_grid, dtype=float)
    spans, where = distinct_spans(u)
    width = _panel_width(length, points_per_unit) / refine
    mid = (np.arange(int(np.floor(length / width))) + 0.5) * width
    half = width / 2.0
    panels = _Panels(width, np.exp(1j * np.outer(omegas, mid)), np.exp(1j * np.outer(omegas, half * _GL_NODES)))
    whole, nodes, weights = _partial_panels(spans, width)

    # e^{i omega tau} at the partial panels' nodes, written in place: one (omega, span, node) table,
    # freed before the whole panels' terms
    part = np.zeros((omegas.size,) + nodes.shape, dtype=complex)
    np.multiply.outer(omegas, nodes, out=part.imag)
    np.exp(part, out=part)
    g = np.einsum("fsj,sj->fs", part, weights)
    h = np.einsum("fsj,sj->fs", part, (spans[:, None] - nodes) * weights)
    del part

    # prefix sums over the whole panels: sum_{k < n} e^{i omega mid_k} and the same weighted by mid_k
    prefix = np.zeros((2, omegas.size, mid.size + 1), dtype=complex)
    np.cumsum(panels.at_mid, axis=1, out=prefix[0, :, 1:])
    np.cumsum(panels.at_mid * mid, axis=1, out=prefix[1, :, 1:])
    p, m = prefix[:, :, whole]
    del prefix
    e_w = (panels.in_panel @ (half * _GL_WEIGHTS))[:, None]
    e_xw = (panels.in_panel @ (half * _GL_NODES * _GL_WEIGHTS))[:, None]
    g += e_w * p
    h = np.conj(h + e_w * (spans * p - m) - half * e_xw * p)
    g, h = g[:, where], h[:, where]
    mirror = u < 0
    g[:, mirror] = -np.conj(g[:, mirror])
    h[:, mirror] = np.conj(h[:, mirror])
    return g, h, panels


def _second_order_time_domain(
    omegas: np.ndarray,
    coeffs: np.ndarray,
    protocol: DriveProtocol,
    lambda1: float,
    phase: np.ndarray,
    legs: tuple[np.ndarray, np.ndarray, _Panels],
) -> np.ndarray:
    """Second-order double time integrals of the exact expansion of ln chi.

    Expanding U, e^{iuH_f} and e^{-iuH_i} of the trace formula to second order
    in the coupling leaves six double integrals of the connected correlator
    over the legs [0, t] and [t, t+u].  They are evaluated with composite
    Gauss-Legendre weights; the quadrature sums are factorized per atom of the
    correlator (finite-sum algebra only; no frequency denominators appear).
    The leg on [t, t+u] is e^{i omega t} times the leg on [0, u], and the
    ordered double integral over [t, t+u]^2 reduces to the tent kernel on
    [0, u]: ``legs`` is :func:`_legs` at one rule level and ``phase`` is
    e^{-i omega u}, neither of which depends on the protocol, so each term is
    one product over the atoms for the whole u grid.  The protocol leg
    F(omega) = sum_s lambda(s) w_s e^{i omega s} on [0, t] reads the same panels: its
    lambda(s) w_s on the whole panels form a real (panels, 8) table, and only its
    partial panel takes exponentials of its own.
    """
    t = protocol.t_total
    g, h, panels = legs
    nodes, w = _layout(t, panels.width)
    lam_w = lambda_at(protocol, nodes) * w
    n = lam_w.shape[0] - 1
    f = (np.sum((panels.at_mid[:, :n] @ lam_w[:n]) * panels.in_panel, axis=1)
         + np.exp(1j * np.outer(omegas, nodes[n])) @ lam_w[n])
    t_ab = -np.sum(coeffs * np.abs(f) ** 2)

    at_t = np.exp(1j * omegas * t)
    t_e = (coeffs * np.abs(f) ** 2) @ phase
    t_c = -(lambda1 * lambda1) * (coeffs @ h)
    t_d = -lambda1 * ((coeffs * f * np.conj(at_t)) @ np.conj(g))
    t_f = lambda1 * ((coeffs * np.conj(f) * at_t) @ (phase * g))
    return t_ab + t_c + t_d + t_e + t_f


def lnchi_second_order_quadrature(
    measure: SpectralMeasure2,
    runs: Sequence[tuple[DriveProtocol, float]],
    first_cum: float,
    u_grid: np.ndarray,
    points_per_unit: float = QUADRATURE_POINTS_PER_UNIT,
) -> list[CfwSamples]:
    """Oracle route for the second-order ln chi, by time-domain quadrature.

    Takes the same two-point measure and first cumulant as
    :func:`lnchi_second_order` and serves as the arbiter for its
    frequency-floor conventions.  ``runs`` is a sequence of
    ``(protocol, lambda1)`` pairs and one :class:`CfwSamples` is returned per
    pair.  Each rule level's panels are laid once over the longest leg L (the
    largest |u| and every run's t_total) and shared by the u legs and every
    run's protocol leg; the u leg sums at both rule levels and the phase table
    do not depend on the protocol, so they are built once for the whole
    sequence.  Raises :class:`QuadratureError` when halving the quadrature
    step moves any run's result by more than QUADRATURE_DRIFT.
    """
    u = np.asarray(u_grid, dtype=float)
    # atoms (omega, a) of c(s) = <H1^I(s) H1^I(0)>_0 - <H1>_0^2 = sum a exp(i omega s):
    # the two-point measure with frequency and sign flipped
    omegas, coeffs = -measure.omegas[::-1], -measure.weights[::-1]
    length = max(np.abs(u).max(initial=0.0), *(protocol.t_total for protocol, _ in runs))
    legs = {refine: _legs(omegas, u, length, points_per_unit, refine=refine) for refine in (1, 2)}
    phase = np.exp(-1j * np.outer(omegas, u))
    out = []
    for protocol, lambda1 in runs:
        coarse, second = (
            _second_order_time_domain(omegas, coeffs, protocol, lambda1, phase, legs[refine]) for refine in (1, 2)
        )
        drift = float(np.abs(coarse - second).max())
        if not drift <= QUADRATURE_DRIFT:
            raise QuadratureError(
                f"quadrature moved by {drift:.3e} under step halving at lambda1 = {lambda1:g}; "
                "raise points_per_unit"
            )
        ln = 1j * u * lambda1 * first_cum + second
        out.append(CfwSamples(u, np.exp(ln), ln))
    return out


def third_order_adiabatic_coefficient(m3: SpectralMeasure3) -> complex:
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
    ln = 1j * u * (lambda1 * lambda1 * lambda1) * s
    return CfwSamples(u, np.exp(ln), ln)


def measure2_to_csv(m: SpectralMeasure2, path) -> None:
    write_csv(path, ["omega", "re_weight", "im_weight"], [m.omegas, m.weights.real, m.weights.imag])


def measure3_to_csv(m: SpectralMeasure3, path) -> None:
    write_csv(
        path,
        ["omega", "omega2", "re_weight", "im_weight"],
        [m.omega1, m.omega2, m.weights.real, m.weights.imag],
    )
