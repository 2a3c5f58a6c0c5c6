"""Driving protocols lambda(t), time-ordered propagators, and the protocol response A(omega).

Propagation conventions (hbar = 1, time in inverse energy units):
  * Stepping covers only the interval where lambda(t) actually varies; any
    trailing segment with constant coupling (the hold part of ramp-then-hold,
    or the whole quench) is applied as a single exact exponential of the
    constant Hamiltonian.  The cap lambda = lambda_final is therefore honored
    exactly without splitting a straddling step.
  * The varying segment is divided uniformly so the step lands exactly on the
    segment end; the realized step (within rounding of the requested dt) is
    reported as ``dt_used``.
  * Coupling is sampled at substep midpoints for every method.
  * Each invariant block (connected component of the joint nonzero pattern of
    H0 and H1, found on every call by ``spectral_core.invariant_blocks``; the
    magnetization sectors for the XXZ chain) is propagated on its own with one
    substep schedule shared by all.  The result records the blocks, and
    ``evolve_density`` works on them.
  * Of the spin flip and the site reflection (``spin_model.spin_symmetries``),
    those under which H0 and H1 are exactly invariant reduce the stepping.
    A block that a symmetry maps onto another block is stepped once and the
    image is its permuted copy (the flip pairs sector k with sector N - k).
    A block stepped is split by the real isometries onto the joint +-1
    eigenspaces of the symmetries that map it onto itself (the reflection,
    and the flip on the middle sector at even N); H1 stays diagonal in them,
    since each orbit of basis states shares one diagonal value.  For the XXZ
    chain this cuts the counted flops per substep 7.9x at N = 9.  Without
    such symmetries a block is stepped as it is.

Methods: ``strang`` (second order, requires the interaction part diagonal in
the computational basis), ``suzuki4`` (fourth-order triple-jump composition of
Strang substeps, same requirement; the default for production scans because it
keeps dt=0.01 results converged at the 1e-8 level), and ``midpoint_exact``
(rediagonalizes H0 + lambda(t_mid) H1 every step for any Hermitian H1; the
cross-method oracle).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spin_model import DimensionError, OperatorMatrix, spin_symmetries
from .spectral_core import (
    DensityMatrix,
    StateFactors,
    common_blocks,
    invariant_blocks,
    whole_space,
)

#: Triple-jump composition coefficients for the fourth-order method.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1

UNITARITY_ABORT = 1e-6


class ProtocolError(ValueError):
    """Invalid drive protocol or evaluation outside its domain."""


class UnitarityError(RuntimeError):
    """Propagator failed the unitarity guard."""


@dataclass(frozen=True)
class DriveProtocol:
    """Coupling schedule lambda(t) on [0, t_total].

    kinds:
      * ``ramp_hold``: lambda(t) = min(velocity * t, lambda_final), then held.
      * ``quench``: lambda jumps from 0 to lambda_final at t = 0+.
      * ``sampled``: piecewise-linear interpolation of (t, lambda) samples.
    """

    kind: str
    lambda_final: float
    t_total: float
    velocity: Optional[float] = None
    samples: Optional[np.ndarray] = None
    allow_partial: bool = False

    def __post_init__(self):
        if self.kind not in ("ramp_hold", "quench", "sampled"):
            raise ProtocolError(f"unknown protocol kind {self.kind!r}")
        if not np.isfinite(self.t_total) or self.t_total <= 0:
            raise ProtocolError(f"t_total must be positive, got {self.t_total}")
        if self.kind == "ramp_hold":
            if self.velocity is None or self.velocity < 0:
                raise ProtocolError("ramp_hold requires velocity >= 0")
            if self.lambda_final != 0.0 and not self.allow_partial:
                if self.velocity * self.t_total < abs(self.lambda_final) * (1 - 1e-12):
                    raise ProtocolError(
                        "ramp does not reach lambda_final within t_total; "
                        "set allow_partial to permit an incomplete ramp"
                    )
        if self.kind == "sampled":
            s = np.asarray(self.samples, dtype=float)
            if s.ndim != 2 or s.shape[1] != 2 or s.shape[0] < 2:
                raise ProtocolError("sampled protocol needs an (M, 2) array of (t, lambda)")
            if np.any(np.diff(s[:, 0]) <= 0):
                raise ProtocolError("sample times must be strictly increasing")
            if abs(s[0, 0]) > 1e-12 or abs(s[-1, 0] - self.t_total) > 1e-9:
                raise ProtocolError("samples must span [0, t_total]")
            if abs(s[0, 1]) > 1e-12:
                raise ProtocolError("the coupling must start at lambda(0) = 0")
            object.__setattr__(self, "samples", s)

    @property
    def ramp_time(self) -> float:
        """End of the varying segment (time after which lambda is constant)."""
        if self.kind == "quench":
            return 0.0
        if self.kind == "ramp_hold":
            if self.lambda_final == 0.0 or self.velocity == 0.0:
                return 0.0
            return min(abs(self.lambda_final) / self.velocity, self.t_total)
        s = self.samples
        last = s[-1, 1]
        t_flat = s[-1, 0]
        for k in range(s.shape[0] - 2, -1, -1):
            if abs(s[k, 1] - last) > 1e-12:
                break
            t_flat = s[k, 0]
        return float(t_flat)

    @property
    def completed(self) -> bool:
        """True when lambda(t_total) equals lambda_final."""
        return abs(lambda_at(self, self.t_total) - self.lambda_final) <= 1e-12 * max(
            1.0, abs(self.lambda_final)
        )


def lambda_at(p: DriveProtocol, t: float) -> float:
    """Schedule value at time t; quench evaluates the post-jump value only for t > 0."""
    if t < -1e-12 or t > p.t_total * (1 + 1e-12):
        raise ProtocolError(f"t={t} outside [0, {p.t_total}]")
    t = min(max(t, 0.0), p.t_total)
    if t == 0.0:
        return 0.0
    if p.kind == "quench":
        return p.lambda_final
    if p.kind == "ramp_hold":
        if p.lambda_final >= 0:
            return min(p.velocity * t, p.lambda_final)
        return max(-p.velocity * t, p.lambda_final)
    return float(np.interp(t, p.samples[:, 0], p.samples[:, 1]))


def spectral_response(p: DriveProtocol, omega) -> np.ndarray | float:
    """A(omega) = |int_0^t ds lambda_dot(s) exp(i omega s)|^2 for a completed protocol.

    Closed forms: quench gives lambda_final^2 everywhere; a full ramp gives
    4 v^2 sin^2(omega t_r / 2) / omega^2 with t_r = lambda_final / v.  Sampled
    schedules use the exact per-segment transform of the piecewise-constant
    derivative.  A(0) = lambda_final^2 always.
    """
    if not p.completed:
        raise ProtocolError("spectral_response requires a completed protocol")
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    lam1 = p.lambda_final
    if p.kind == "quench" or p.ramp_time == 0.0:
        out = np.full_like(w, lam1 * lam1)
    elif p.kind == "ramp_hold":
        t_r = p.ramp_time
        v = p.velocity
        out = np.empty_like(w)
        small = np.abs(w) * t_r < 1e-8
        out[small] = lam1 * lam1
        ws = w[~small]
        out[~small] = 4.0 * v * v * np.sin(ws * t_r / 2.0) ** 2 / ws**2
    else:
        s = p.samples
        t0, t1 = s[:-1, 0], s[1:, 0]
        rates = np.diff(s[:, 1]) / np.diff(s[:, 0])
        out = np.empty_like(w)
        small = np.abs(w) * p.t_total < 1e-8
        out[small] = lam1 * lam1
        ws = w[~small][:, None]
        ft = np.sum(rates[None, :] * (np.exp(1j * ws * t1) - np.exp(1j * ws * t0)), axis=1) / (
            1j * w[~small]
        )
        out[~small] = np.abs(ft) ** 2
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class PropagatorResult:
    """U(t_total) with one (rows, rows) pair per invariant block it was stepped
    on; U is exactly zero between blocks.  Left empty, the whole space is one block."""

    unitary: OperatorMatrix
    dt_used: float
    method: str
    unitarity_defect: float
    blocks: tuple = ()

    def __post_init__(self):
        if not self.blocks:
            object.__setattr__(self, "blocks", whole_space(self.unitary.dimension))


def _expi(eig: tuple[np.ndarray, np.ndarray], tau: float) -> np.ndarray:
    """exp(-i tau H) from ``np.linalg.eigh(H)``."""
    evals, v = eig
    return (v * np.exp(-1j * evals * tau)) @ v.conj().T


def _substep_schedule(p: DriveProtocol, dt: float, method: str):
    """Step h, substep widths and midpoint couplings over [0, ramp_time], with
    the distinct merged H0 gaps between diagonal kicks and each gap's index."""
    t_var = p.ramp_time
    nsteps = max(1, int(round(t_var / dt)))
    h = t_var / nsteps
    unit = np.array([_W1, _W0, _W1] if method == "suzuki4" else [1.0])
    widths = np.tile(unit * h, nsteps)
    starts = np.concatenate(([0.0], np.cumsum(widths)[:-1]))
    lam_mid = np.array([lambda_at(p, t) for t in starts + widths / 2.0])
    # Adjacent H0 half-factors between diagonal kicks merge into one factor;
    # only a few distinct widths occur, so each exponential is built once.
    merged = np.concatenate(([widths[0] / 2.0], (widths[:-1] + widths[1:]) / 2.0, [widths[-1] / 2.0]))
    gaps, gap_index = np.unique(np.round(merged, 15), return_inverse=True)
    return h, widths, lam_mid, gaps, gap_index


def _propagate_block(
    h0: np.ndarray,
    h1: np.ndarray,
    p: DriveProtocol,
    schedule: Optional[tuple],
    method: str,
) -> np.ndarray:
    """Propagator of one invariant block: the stepped varying segment, then the hold."""
    u = None
    if schedule is not None:
        _, widths, lam_mid, gaps, gap_index = schedule
        if method == "midpoint_exact":
            u = np.eye(h0.shape[0], dtype=complex)
            for lam, w in zip(lam_mid, widths):
                u = _expi(np.linalg.eigh(h0 + lam * h1), w) @ u
        else:
            eig0 = np.linalg.eigh(h0)
            h1_diag = np.real(np.diag(h1))
            factors = [_expi(eig0, g) for g in gaps]
            u = factors[gap_index[0]].copy()
            for lam, w, g in zip(lam_mid, widths, gap_index[1:]):
                u = np.exp(-1j * lam * h1_diag * w)[:, None] * u
                u = factors[g] @ u

    t_hold = p.t_total - p.ramp_time
    if t_hold > 1e-15 * p.t_total:
        hold = _expi(np.linalg.eigh(h0 + lambda_at(p, p.t_total) * h1), t_hold)
        u = hold if u is None else hold @ u
    return u


def _symmetries(*matrices: np.ndarray) -> list[np.ndarray]:
    """Those of the spin flip and the site reflection under which every matrix is exactly invariant."""
    n_sites = matrices[0].shape[0].bit_length() - 1
    return [
        g
        for g in spin_symmetries(n_sites)
        if all(np.array_equal(m[np.ix_(g, g)], m) for m in matrices)
    ]


def _parity_isometries(rows: np.ndarray, symmetries: list[np.ndarray]) -> list[np.ndarray]:
    """Real orthonormal isometries of the block ``rows`` onto the joint +-1
    eigenspaces of those commuting involutions that map it onto itself.

    Each column is the signed, normalized sum over one orbit of basis states;
    without such a symmetry the block is one identity isometry.
    """
    n = rows.size
    local = [
        np.searchsorted(rows, g[rows]) for g in symmetries if np.array_equal(np.sort(g[rows]), rows)
    ]
    # the group they generate: each element's permutation with the generators it uses
    elements = [(np.arange(n), ())]
    for k, q in enumerate(local):
        elements += [(q[perm], used + (k,)) for perm, used in elements]
    orbit_first = np.flatnonzero(np.min([perm for perm, _ in elements], axis=0) == np.arange(n))
    columns = np.arange(orbit_first.size)
    isometries = []
    for signs in itertools.product((1.0, -1.0), repeat=len(local)):
        s = np.zeros((n, orbit_first.size))
        for perm, used in elements:
            np.add.at(s, (perm[orbit_first], columns), np.prod([signs[k] for k in used]))
        norms = np.linalg.norm(s, axis=0)
        live = norms > 0.5
        if live.any():
            isometries.append(s[:, live] / norms[live])
    return isometries


def propagate(
    h0: OperatorMatrix,
    h1: OperatorMatrix,
    p: DriveProtocol,
    dt: float,
    method: str = "strang",
) -> PropagatorResult:
    """Time-ordered propagator U(t_total) for H(t) = H0 + lambda(t) H1.

    Each invariant block of H0 and H1 is stepped on its own, reduced by the
    spin-flip and reflection symmetries the two share (see the module notes).
    ``midpoint_exact`` takes any Hermitian H1; ``strang`` and ``suzuki4``
    need H1 diagonal in the computational basis.
    """
    if h0.dimension != h1.dimension:
        raise DimensionError(f"dimension mismatch: {h0.dimension} vs {h1.dimension}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if method not in ("strang", "suzuki4", "midpoint_exact"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("strang", "suzuki4"):
        h1_diag = np.real(np.diag(h1.matrix))
        offdiag = np.abs(h1.matrix - np.diag(np.diag(h1.matrix))).max()
        if offdiag > 1e-12 * max(np.abs(h1_diag).max(), 1.0):
            raise ValueError(f"{method} requires the interaction part diagonal in the computational basis")

    schedule = _substep_schedule(p, dt, method) if p.ramp_time > 0.0 else None
    d = h0.dimension
    u = np.zeros((d, d), dtype=complex)
    blocks = invariant_blocks(h0.matrix, h1.matrix)
    symmetries = _symmetries(h0.matrix, h1.matrix)
    label = np.empty(d, dtype=np.intp)
    for k, idx in enumerate(blocks):
        label[idx] = k
    done = np.zeros(len(blocks), dtype=bool)
    squared_defect = 0.0
    for k, idx in enumerate(blocks):
        if done[k]:
            continue
        done[k] = True
        h0b, h1b = h0.matrix[np.ix_(idx, idx)], h1.matrix[np.ix_(idx, idx)]
        ub = np.zeros((idx.size, idx.size), dtype=complex)
        for s in _parity_isometries(idx, symmetries):
            ub += s @ _propagate_block(s.T @ h0b @ s, s.T @ h1b @ s, p, schedule, method) @ s.T
        assembled = [(idx, ub)]
        # U commutes with each symmetry, so the block it maps this one onto is a copy
        for g in symmetries:
            image = label[g[idx[0]]]
            if not done[image]:
                done[image] = True
                order = np.argsort(g[idx])
                assembled.append((blocks[image], ub[np.ix_(order, order)]))
        for rows, ur in assembled:
            u[np.ix_(rows, rows)] = ur
            squared_defect += np.linalg.norm(ur.conj().T @ ur - np.eye(rows.size)) ** 2

    # U^dag U - 1 vanishes between blocks, so the blocks' Frobenius defects add up
    defect = float(np.sqrt(squared_defect))
    if defect > UNITARITY_ABORT:
        raise UnitarityError(f"unitarity defect {defect:.3e} exceeds {UNITARITY_ABORT}")
    return PropagatorResult(
        unitary=OperatorMatrix(u, hermitian=False),
        dt_used=p.t_total if schedule is None else schedule[0],
        method=method,
        unitarity_defect=defect,
        blocks=tuple((idx, idx) for idx in blocks),
    )


def evolve_density(rho0: DensityMatrix, u: PropagatorResult) -> DensityMatrix:
    """rho -> U rho U^dag per block, with the factors mapped X -> U X."""
    m = u.unitary.matrix
    if rho0.dimension != m.shape[0]:
        raise DimensionError(f"dimension mismatch: {rho0.dimension} vs {m.shape[0]}")
    f = rho0.factorize()
    vectors = np.zeros(f.vectors.shape, dtype=complex)
    matrix = np.zeros(m.shape, dtype=complex)
    blocks = []
    for rows, (_, cols) in common_blocks(m.shape[0], u.blocks, f.blocks):
        ub = m[np.ix_(rows, rows)]
        vectors[np.ix_(rows, cols)] = ub @ f.vectors[np.ix_(rows, cols)]
        matrix[np.ix_(rows, rows)] = ub @ rho0.matrix[np.ix_(rows, rows)] @ ub.conj().T
        blocks.append((rows, cols))
    return DensityMatrix(matrix, StateFactors(vectors, f.weights, tuple(blocks)))
