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
    and ``evolve_density`` evolves the pair once.  A stepped U and its kicks are
    complex; the identity U of a quench is real.
  * Every hop of H0 moves an up spin between an even and an odd site, so on a
    block whose basis vectors have a definite sublattice parity
    Pi = (-1)^(up spins on odd sites) the gauge D = diag(1 where Pi = +1, -i
    where Pi = -1) makes D^-1 exp(-i H0 tau) D real orthogonal, and D commutes
    with the diagonal kicks.  Such a block (a real one whose exact nonzeros
    ``spin_model.sublattice_parities`` 2-colours, carried by the eigendecomposition)
    is stepped in the gauge: its H0 factors are real, each substep is one real
    GEMM on the complex iterate's float view (half ``zgemm``'s multiply-adds), and
    U = D U_gauged D^-1 comes out.  On the chain's adapted blocks that is every
    block at odd N, since the reflection keeps Pi there; at even N it maps
    Pi to (-1)^k Pi, so the sectors of even k only (the flip on the middle sector
    maps Q -> N/2 - Q, keeping Pi at N = 0 mod 4): 0.70, 0.54, 0.41 and 0.61 of the
    distinct sum b^3 at N = 4, 6, 8 and 10.  Any other block (a complex one, even
    with the same zero pattern) steps in the same loop with complex factors.
  * Each H0 factor takes one Newton polar step, F <- (F + F^-dag) / 2, before the
    loop reuses it at every step: its roundoff would otherwise add up coherently
    in U's unitarity defect.
  * A GEMM of a few rows costs its call overhead whatever its size, so the distinct
    blocks of one gauge class (gauged, or not) are stepped smallest first in bundles
    of at most ``BUNDLE_ROWS`` rows, each bundle one block-diagonal block through the
    same loop, and U is sliced back into the blocks before the unitarity defect; a
    larger block steps alone.  Between the bundled blocks every entry of the
    eigenvectors, the H0 factors and their polar step, the kicks and each iterate is
    an exact zero, so U moves by BLAS summation order only (at most 2.1e-14 at N = 9
    over 351 steps).  Measured with BLAS on one thread: a gauged substep (kick and
    real GEMM) takes 1.6-3.4 us at 1-20 rows, 4.1 us at 26, 5.1 us at 32 and 10 us
    at 46, so the N = 9 blocks of 1, 4, 5 and 16 rows step as one block of 26 and the
    one of 20 alone: those five blocks take 27 ms for 1000 steps instead of 42 ms
    apart, where one bundle of 46 rows takes 35 ms.

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
from .spectral_core import DensityMatrix, SpectralDecomposition, real_left

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
#: Largest row count of a bundle of small blocks stepped as one block-diagonal block (module notes).
BUNDLE_ROWS = 32


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


def _h0_factor(evals: np.ndarray, v: np.ndarray, d: Optional[np.ndarray], tau: float) -> np.ndarray:
    """exp(-i tau H0) from the eigenpairs of H0, in the sublattice gauge of diagonal ``d`` when the
    block has one: D^-1 exp(-i tau H0) D, real orthogonal, is the real part of the gauged product (its
    imaginary part vanishes in exact arithmetic).  Then one Newton polar step, F <- (F + F^-dag) / 2,
    takes the factor's roundoff off the unitary group, since the loop reuses it at every step."""
    f = _expi(evals, v, tau)
    if d is not None:
        f = (d.conj()[:, None] * f * d).real
    return (f + np.linalg.inv(f).conj().T) / 2.0


def _step_count(p: DriveProtocol, dt: float) -> int:
    """Steps of size ~dt over the varying segment [0, ramp_time]; 0 when it is empty."""
    return max(1, int(round(p.ramp_time / dt))) if p.ramp_time > 0.0 else 0


def _propagate_block(evals: np.ndarray, v: np.ndarray, odd: Optional[np.ndarray], h1: np.ndarray,
                     p: DriveProtocol, nsteps: int) -> np.ndarray:
    """Propagator of one invariant block over the varying segment, ``nsteps`` Suzuki-4 steps
    from the eigenpairs (evals, v) of its H0 and its sublattice parity ``odd`` (see the module
    notes): the identity when ``nsteps`` is 0."""
    if not nsteps:
        return np.eye(v.shape[0])
    h = p.ramp_time / nsteps
    h1_diag = np.real(np.diag(h1))
    d = None if odd is None else np.where(odd, -1j, 1.0)  # the gauge D = diag(1, -i on odd vectors)
    factors = [_h0_factor(evals, v, d, g * h) for g in _GAPS]
    u = factors[0].astype(complex)
    kicked = np.empty_like(u)
    # a real (gauged) factor multiplies the complex iterate as one real GEMM on its float view
    into, out = (kicked, u) if d is None else (kicked.view(np.float64), u.view(np.float64))
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
            np.matmul(factors[g], into, out=out)
    if d is not None:  # U = D U_gauged D^-1
        u *= d[:, None]
        u *= d.conj()
    return u


def _bundles(blocks: dict) -> list:
    """The keys of ``blocks`` ({key: (evals, v, odd, h1)}) in bundles: one gauge class (``odd``
    given or None) to a bundle, smallest first, each block joining the last bundle while that keeps
    it within ``BUNDLE_ROWS`` rows, so that a larger block is a bundle of its own."""
    bundles, rows, last = [], 0, None
    for key in sorted(blocks, key=lambda k: (blocks[k][2] is None, blocks[k][1].shape[0])):
        gauged, size = blocks[key][2] is not None, blocks[key][1].shape[0]
        if bundles and gauged == last and rows + size <= BUNDLE_ROWS:
            bundles[-1].append(key)
            rows += size
        else:
            bundles.append([key])
            rows, last = size, gauged
    return bundles


def _propagate_bundle(blocks: list, p: DriveProtocol, nsteps: int) -> list:
    """The propagators of blocks (evals, v, odd, h1) of one gauge class, stepped as one block-diagonal
    block and sliced apart (see the module notes); a bundle of one block steps as it is."""
    if len(blocks) == 1:
        return [_propagate_block(*blocks[0], p, nsteps)]
    starts = np.cumsum([0] + [v.shape[0] for _, v, _, _ in blocks])
    spans = list(zip(starts, starts[1:]))
    v = np.zeros((starts[-1],) * 2, np.result_type(*(vb for _, vb, _, _ in blocks)))
    for (_, vb, _, _), (a, b) in zip(blocks, spans):
        v[a:b, a:b] = vb
    evals = np.concatenate([e for e, _, _, _ in blocks])
    odd = None if blocks[0][2] is None else np.concatenate([o for _, _, o, _ in blocks])
    h1 = np.diag(np.concatenate([np.diag(h) for _, _, _, h in blocks]))
    u = _propagate_block(evals, v, odd, h1, p, nsteps)
    return [u[a:b, a:b].copy() for a, b in spans]


def propagate(spec0: SpectralDecomposition, h1: OperatorMatrix, p: DriveProtocol, dt: float) -> PropagatorResult:
    """Time-ordered propagator over [0, ramp_time] for H(t) = H0 + lambda(t) H1, in Suzuki-4
    steps of ~dt from ``spec0``, the eigendecomposition of H0.

    Each block common to ``spec0`` and H1 is stepped once per group of
    ``spin_model.copies``, the small ones in bundles (see the module notes); H1 must
    be diagonal on its blocks."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    blocks = common_blocks(spec0.blocks, h1.blocks)
    parts = [(spec0.eigenvalues[cols], v, h1b) for _, ((cols, v), (_, h1b)) in blocks]
    # a block's gauge holds where it is one of spec0's blocks (not the whole space of inputs blocked apart)
    odds = [odd if np.array_equal(rows, own) else None
            for (rows, _), (own, _, _), odd in zip(blocks, spec0.blocks, spec0.parities)]
    first = copies(*zip(*parts))
    distinct = Counter(first)  # {position: multiplicity}
    h1_blocks = [parts[i][2] for i in distinct]
    scale = max(max(np.abs(np.diag(b)).max() for b in h1_blocks), 1.0)
    if any(np.abs(b - np.diag(np.diag(b))).max() > 1e-12 * scale for b in h1_blocks):
        raise ValueError("propagate requires the interaction part diagonal on its blocks")

    nsteps = _step_count(p, dt)
    own = {i: (*parts[i][:2], odds[i], parts[i][2]) for i in distinct}
    stepped = {}
    for bundle in _bundles(own):
        stepped.update(zip(bundle, _propagate_bundle([own[i] for i in bundle], p, nsteps)))

    # U^dag U - 1 vanishes between blocks, so the blocks' Frobenius defects add up
    defect = float(np.sqrt(sum(distinct[i] * np.linalg.norm(ub.conj().T @ ub - np.eye(ub.shape[0])) ** 2
                               for i, ub in sorted(stepped.items()))))
    if not defect <= UNITARITY_ABORT:
        raise UnitarityError(f"unitarity defect {defect:.3e} exceeds {UNITARITY_ABORT}")
    return PropagatorResult(
        unitary=OperatorMatrix(tuple((idx, idx, stepped[i]) for (idx, _), i in zip(blocks, first)), hermitian=False),
        dt_used=p.ramp_time / nsteps if nsteps else 0.0,
        unitarity_defect=defect,
    )


def evolve_density(rho0: DensityMatrix, u: PropagatorResult) -> DensityMatrix:
    """U rho U^dag as factors: X -> U X on each block common to U and rho, once per group of
    ``spin_model.copies``: a flip copy's evolved factor is its partner's array.  A real X
    multiplies a complex U as one real GEMM, U X = (X^T U^T)^T (``real_left``)."""
    blocks = common_blocks(u.unitary.blocks, rho0.blocks)
    evolved = once_per_copy(lambda m, x: real_left(x.T, m.T).T, *zip(*((m, x) for _, ((_, m), (_, x)) in blocks)))
    return replace(rho0, blocks=tuple((rows, cols, ux) for (rows, (_, (cols, _))), ux in zip(blocks, evolved)))
