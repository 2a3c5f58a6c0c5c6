"""Driving protocols lambda(t), time-ordered propagators, and the protocol response A(omega).

A protocol is its (t, lambda) knots, built once per protocol whatever its kind:
``lambda_at``, ``ramp_time`` and ``spectral_response`` read lambda(t) from them.

Propagation conventions (hbar = 1, time in inverse energy units):
  * ``propagate`` returns U over the varying segment [0, ramp_time] only.  The
    constant tail after it, exp(-i H_f (t_total - ramp_time)), commutes with the
    final Gibbs state and with the eigenprojectors of H_f, so neither a fidelity
    nor a TPM probability sees it: it is never applied, and a quench (all tail)
    has the identity U.
  * The varying segment is divided uniformly so the step lands exactly on the
    segment end; the realized step (within rounding of the requested dt) is
    reported as ``dt_used``, 0.0 when nothing is stepped.
  * Coupling is sampled at substep midpoints.  Substep k is substep k % 3 of step
    k // 3, so the schedule is closed-form (``_WIDTHS``, ``_MIDS``, ``_GAPS``) and is
    built ``KICK_CHUNK`` substeps at a time: no allocation grows with the step count.
  * Each block common to H1 and the caller's eigendecomposition of H0 (not
    recomputed here) is propagated on its own with one substep schedule shared
    by all, and U is an operator on the same blocks.  On the chain's
    symmetry-adapted blocks (``spin_model.adapted_chain``) a spin-flip pair of
    sectors is one pair of arrays, stepped once in reflection parity blocks (7.9x
    fewer counted flops per substep at N = 9 than stepping every sector); the
    copy's U block is its partner's array, its unitarity defect is counted twice,
    and ``evolve_density`` evolves the pair once.  A stepped U, its kicks and its
    H0 factors are complex; the identity U of a quench is real.

Stepping is fourth-order Suzuki: each step is the triple-jump composition of
three Strang substeps (half H0, diagonal H1 kick, half H0), which keeps
dt = 0.01 results converged at the 1e-8 level.  The kick needs the interaction
part diagonal on its blocks.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .spin_model import OperatorMatrix, common_blocks, copies, once_per_copy
from .spectral_core import DensityMatrix, SpectralDecomposition

#: Triple-jump composition coefficients of a Suzuki-4 step.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
#: A step's substep widths and midpoints in units of the step h, and its merged H0 factor
#: widths: W1/2 at either end of the ramp, (W1 + W0)/2 inside a step and W1 between steps.
_WIDTHS = np.array([_W1, _W0, _W1])
_MIDS = np.array([_W1 / 2.0, _W1 + _W0 / 2.0, 1.0 - _W1 / 2.0])
_GAPS = (_W1 / 2.0, (_W1 + _W0) / 2.0, _W1)

UNITARITY_ABORT = 1e-6
#: Substeps whose diagonal kicks are exponentiated together (bounds that table's memory).
KICK_CHUNK = 256


class ProtocolError(ValueError):
    """Invalid drive protocol or evaluation outside its domain."""


class UnitarityError(RuntimeError):
    """Propagator failed the unitarity guard."""


@dataclass(frozen=True)
class DriveProtocol:
    """Coupling schedule lambda(t) on [0, t_total]: the piecewise-linear interpolation of
    its (t, lambda) knots, with lambda(0) = 0 (so a first knot off zero is a jump at 0+).

    kinds, and the knots ``__post_init__`` builds for them:
      * ``ramp_hold``: lambda(t) = min(velocity * t, lambda_final), then held; knots (0, 0),
        (t_r, lambda_final) with t_r = min(|lambda_final| / velocity, t_total), and
        (t_total, lambda_final) when t_r < t_total.
      * ``quench``: lambda jumps from 0 to lambda_final at t = 0+; knots (0, lambda_final),
        (t_total, lambda_final).
      * ``sampled``: the (t, lambda) samples are the knots.
    """

    kind: str
    lambda_final: float
    t_total: float
    velocity: Optional[float] = None
    samples: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("ramp_hold", "quench", "sampled"):
            raise ProtocolError(f"unknown protocol kind {self.kind!r}")
        if not np.isfinite(self.t_total) or self.t_total <= 0:
            raise ProtocolError(f"t_total must be positive, got {self.t_total}")
        if not np.isfinite(self.lambda_final):
            raise ProtocolError(f"lambda_final must be finite, got {self.lambda_final}")
        if self.kind == "ramp_hold":
            if self.velocity is None or not 0 <= self.velocity < np.inf:
                raise ProtocolError(f"ramp_hold requires a finite velocity >= 0, got {self.velocity}")
            if self.velocity * self.t_total < abs(self.lambda_final) * (1 - 1e-12):
                raise ProtocolError("ramp does not reach lambda_final within t_total")
        if self.kind == "sampled":
            s = np.asarray(self.samples, dtype=float)
            if s.ndim != 2 or s.shape[1] != 2 or s.shape[0] < 2:
                raise ProtocolError("sampled protocol needs an (M, 2) array of (t, lambda)")
            if not np.isfinite(s).all():
                raise ProtocolError("samples must be finite")
            if np.any(np.diff(s[:, 0]) <= 0):
                raise ProtocolError("sample times must be strictly increasing")
            if abs(s[0, 0]) > 1e-12 or abs(s[-1, 0] - self.t_total) > 1e-9:
                raise ProtocolError("samples must span [0, t_total]")
            if abs(s[0, 1]) > 1e-12:
                raise ProtocolError("the coupling must start at lambda(0) = 0")
            object.__setattr__(self, "samples", s)
            knots = s
        else:
            lam, t = float(self.lambda_final), float(self.t_total)
            t_r = float(min(abs(lam) / self.velocity, t)) if self.kind == "ramp_hold" and lam else 0.0
            knots = np.array([(0.0, 0.0)] * (t_r > 0) + [(t_r, lam)] + [(t, lam)] * (t_r < t))
        # not a field: protocols compare and hash by their parameters
        object.__setattr__(self, "_knots", knots)

    @property
    def ramp_time(self) -> float:
        """End of the varying segment: the first of the trailing knots at the final value."""
        t, lam = self._knots.T
        varying = np.flatnonzero(lam != lam[-1])
        return float(t[varying[-1] + 1 if varying.size else 0])

    @property
    def completed(self) -> bool:
        """True when lambda(t_total) equals lambda_final."""
        return abs(lambda_at(self, self.t_total) - self.lambda_final) <= 1e-12 * max(
            1.0, abs(self.lambda_final)
        )


def lambda_at(p: DriveProtocol, t):
    """Schedule value at time t, or at each of an array of times; a jump at t = 0 is post-jump only for t > 0."""
    ts = np.asarray(t, dtype=float)
    outside = (ts < -1e-12) | (ts > p.t_total * (1 + 1e-12))
    if outside.any():
        raise ProtocolError(f"t={ts[outside].flat[0]} outside [0, {p.t_total}]")
    lam = np.interp(ts, p._knots[:, 0], p._knots[:, 1])
    lam = np.where(ts <= 0.0, 0.0, lam)
    return float(lam) if lam.ndim == 0 else lam


def spectral_response(p: DriveProtocol, omega) -> np.ndarray | float:
    """A(omega) = |int_0^t ds lambda_dot(s) exp(i omega s)|^2 for a completed protocol.

    lambda_dot is the jump lambda(0+) at s = 0 plus a constant rate on each knot
    segment [t0, t1], so the integral is lambda(0+) plus, per segment rising by
    d lambda, d lambda e^{i omega m} sin(omega h) / (omega h) with m and h its
    midpoint and half-width.  A(0) = lambda_final^2.
    """
    if not p.completed:
        raise ProtocolError("spectral_response requires a completed protocol")
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    t, lam = p._knots.T
    out = np.full_like(w, p.lambda_final * p.lambda_final)
    moving = np.abs(w) * p.t_total >= 1e-8
    ws = w[moving][:, None]
    x = ws * (np.diff(t) / 2.0)
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    out[moving] = np.abs(lam[0] + (np.exp(1j * ws * ((t[:-1] + t[1:]) / 2.0)) * sinc) @ np.diff(lam)) ** 2
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class PropagatorResult:
    """U of the varying segment [0, ramp_time], an operator on the blocks it was stepped on."""

    unitary: OperatorMatrix
    dt_used: float
    unitarity_defect: float


def _expi(evals: np.ndarray, v: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i tau H) from the eigenpairs of H."""
    return (v * np.exp(-1j * evals * tau)) @ v.conj().T


def _step_count(p: DriveProtocol, dt: float) -> int:
    """Steps of size ~dt over the varying segment [0, ramp_time]; 0 when it is empty."""
    return max(1, int(round(p.ramp_time / dt))) if p.ramp_time > 0.0 else 0


def _propagate_block(evals: np.ndarray, v: np.ndarray, h1: np.ndarray, p: DriveProtocol, nsteps: int) -> np.ndarray:
    """Propagator of one invariant block over the varying segment, ``nsteps`` Suzuki-4 steps
    from the eigenpairs (evals, v) of its H0: the identity when ``nsteps`` is 0."""
    if not nsteps:
        return np.eye(v.shape[0])
    h = p.ramp_time / nsteps
    h1_diag = np.real(np.diag(h1))
    factors = [_expi(evals, v, g * h) for g in _GAPS]
    u = factors[0].copy()
    kicked = np.empty_like(u)
    # the diagonal kicks of a chunk of substeps k in one exp, each applied
    # and followed by its H0 factor in place in two buffers
    for start in range(0, 3 * nsteps, KICK_CHUNK):
        step, sub = np.divmod(np.arange(start, min(start + KICK_CHUNK, 3 * nsteps)), 3)
        lam = lambda_at(p, (step + _MIDS[sub]) * h)
        kicks = np.exp((-1j * lam)[:, None] * h1_diag * (_WIDTHS[sub] * h)[:, None])
        gaps = np.where(sub == 2, 2, 1)  # the H0 factor after each kick: 0 after the ramp's last
        if start + KICK_CHUNK >= 3 * nsteps:
            gaps[-1] = 0
        for kick, g in zip(kicks, gaps):
            np.multiply(kick[:, None], u, out=kicked)
            np.matmul(factors[g], kicked, out=u)
    return u


def propagate(spec0: SpectralDecomposition, h1: OperatorMatrix, p: DriveProtocol, dt: float) -> PropagatorResult:
    """Time-ordered propagator over [0, ramp_time] for H(t) = H0 + lambda(t) H1, in Suzuki-4
    steps of ~dt from ``spec0``, the eigendecomposition of H0.

    Each block common to ``spec0`` and H1 is stepped on its own, once per group of
    ``spin_model.copies`` (see the module notes); H1 must be diagonal on its blocks."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    blocks = common_blocks(spec0.blocks, h1.blocks)
    parts = [(spec0.eigenvalues[cols], v, h1b) for _, ((cols, v), (_, h1b)) in blocks]
    first = copies(*zip(*parts))
    distinct = Counter(first)  # {position: multiplicity}
    h1_blocks = [parts[i][2] for i in distinct]
    scale = max(max(np.abs(np.diag(b)).max() for b in h1_blocks), 1.0)
    if any(np.abs(b - np.diag(np.diag(b))).max() > 1e-12 * scale for b in h1_blocks):
        raise ValueError("propagate requires the interaction part diagonal on its blocks")

    nsteps = _step_count(p, dt)
    stepped = {i: _propagate_block(*parts[i], p, nsteps) for i in distinct}

    # U^dag U - 1 vanishes between blocks, so the blocks' Frobenius defects add up
    defect = float(np.sqrt(sum(distinct[i] * np.linalg.norm(ub.conj().T @ ub - np.eye(ub.shape[0])) ** 2
                               for i, ub in stepped.items())))
    if not defect <= UNITARITY_ABORT:
        raise UnitarityError(f"unitarity defect {defect:.3e} exceeds {UNITARITY_ABORT}")
    return PropagatorResult(
        unitary=OperatorMatrix(tuple((idx, idx, stepped[i]) for (idx, _), i in zip(blocks, first)), hermitian=False),
        dt_used=p.ramp_time / nsteps if nsteps else 0.0,
        unitarity_defect=defect,
    )


def evolve_density(rho0: DensityMatrix, u: PropagatorResult) -> DensityMatrix:
    """U rho U^dag as factors: X -> U X on each block common to U and rho, once per group of
    ``spin_model.copies``: a flip copy's evolved factor is its partner's array."""
    blocks = common_blocks(u.unitary.blocks, rho0.blocks)
    evolved = once_per_copy(np.matmul, *zip(*((m, x) for _, ((_, m), (_, x)) in blocks)))
    return replace(rho0, blocks=tuple((rows, cols, ux) for (rows, (_, (cols, _))), ux in zip(blocks, evolved)))
