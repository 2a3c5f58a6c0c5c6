"""Two-point-measurement work distributions and the characteristic function of work.

The characteristic function chi(u) is computed by two independent routes: a
Fourier sum over the measured work atoms, and a trace formula evaluated in the
initial/final eigenbases.  Both share one branch convention for ln chi:
continuous phase unwrapping along the u grid, anchored so ln chi(0) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drive_dynamics import PropagatorResult
from .spectral_core import DensityMatrix, SpectralDecomposition, boltzmann_weights, common_blocks
from .spin_model import DimensionError, OperatorMatrix

NORMALIZATION_TOLERANCE = 1e-8


class ResolutionError(ValueError):
    """u grid too coarse for continuous phase unwrapping."""


@dataclass(frozen=True)
class WorkDistribution:
    """Discrete work atoms (w_k, p_k), sorted by w: the chains of raw works with gaps
    <= merge_tolerance, merged by :func:`merge_atoms` at their probability-weighted mean."""

    works: np.ndarray
    probabilities: np.ndarray
    merge_tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "works", np.asarray(self.works, dtype=float))
        object.__setattr__(self, "probabilities", np.asarray(self.probabilities, dtype=float))
        if self.works.shape != self.probabilities.shape or self.works.ndim != 1:
            raise ValueError("works and probabilities must be matching 1-d arrays")
        if self.probabilities.min(initial=0.0) < -1e-14:
            raise ValueError("negative probability atom")
        drift = abs(self.probabilities.sum() - 1.0)
        if drift > NORMALIZATION_TOLERANCE:
            raise ValueError(f"normalization drift {drift:.3e}")

    @property
    def n_atoms(self) -> int:
        return self.works.shape[0]


@dataclass(frozen=True)
class CfwSamples:
    """chi(u) on a real u grid with the continuously unwrapped logarithm."""

    u_grid: np.ndarray
    chi: np.ndarray
    ln_chi: np.ndarray


def default_merge_tolerance(spec_i: SpectralDecomposition, spec_f: SpectralDecomposition) -> float:
    """1e-9 times the summed spectral ranges; keeps degenerate gaps as single atoms."""
    return 1e-9 * (spec_i.spectral_range + spec_f.spectral_range)


def merge_atoms(coords: np.ndarray, weights: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Merge atoms, one row of ``coords`` (n, k) each, that chain together within ``tol``.

    Column by column, each group found so far is sorted by that column and
    split wherever the column jumps by more than ``tol``, so no rounding grid
    can split a degenerate atom.  Returns each group's |weight|-weighted mean
    position (the plain mean for a group without weight) and summed weight,
    ordered by the first column's chains, then the second's, and so on.
    """
    n, k = coords.shape
    label = np.zeros(n, dtype=np.intp)
    for j in range(k):
        order = np.argsort(coords[:, j])
        if j:
            # sort by group first and by column j inside each group, through the column's rank
            key = np.empty(n, dtype=np.intp)
            key[order] = np.arange(n)
            key += label * n
            order = np.argsort(key)
            del key
        starts = np.diff(coords[order, j], prepend=-np.inf) > tol
        if j:
            starts[1:] |= np.diff(label[order]) != 0
        label[order] = np.cumsum(starts) - 1
    m = int(label.max(initial=-1)) + 1
    size = np.abs(weights)
    size = np.where(np.bincount(label, size, m)[label] > 0, size, 1.0)
    total = np.bincount(label, size, m)
    positions = np.stack([np.bincount(label, size * coords[:, j], m) / total for j in range(k)], axis=1)
    merged = np.bincount(label, weights.real, m)
    if np.iscomplexobj(weights):
        merged = merged + 1j * np.bincount(label, weights.imag, m)
    return positions, merged


def _transition_kernel(
    spec_i: SpectralDecomposition, spec_f: SpectralDecomposition, u: PropagatorResult
) -> np.ndarray:
    """M = |V_f^dag U V_i|^2 elementwise, evaluated per common block of the three
    inputs; transitions between blocks get probability exactly 0."""
    m = u.unitary.matrix
    d = m.shape[0]
    if spec_i.dimension != d or spec_f.dimension != d:
        raise DimensionError("propagator and spectral data dimensions differ")
    kernel = np.zeros((d, d))
    for rows, (_, ci, cf) in common_blocks(d, u.blocks, spec_i.blocks, spec_f.blocks):
        w = spec_f.eigenvectors[np.ix_(rows, cf)].conj().T @ m[np.ix_(rows, rows)]
        kernel[np.ix_(cf, ci)] = np.abs(w @ spec_i.eigenvectors[np.ix_(rows, ci)]) ** 2
    return kernel


def tpm_distribution(
    spec_i: SpectralDecomposition,
    spec_f: SpectralDecomposition,
    u: PropagatorResult,
    beta: float,
) -> WorkDistribution:
    """Two-point-measurement work distribution.

    Transition kernel M = |V_f^dag U V_i|^2 elementwise; the atom at
    w = E^f_m - E^i_n carries M_mn p_n with p the initial Boltzmann weights.
    The full d x d work grid is kept, so atoms between blocks are present with
    probability exactly 0.  Chains of works with gaps within the merge
    tolerance are merged (:func:`merge_atoms`) at the probability-weighted mean
    work; with a zero tolerance (both spectra flat) exact ties still merge.
    """
    kernel = _transition_kernel(spec_i, spec_f, u)
    merge_tolerance = default_merge_tolerance(spec_i, spec_f)
    p = boltzmann_weights(spec_i, beta)
    works = np.subtract.outer(spec_f.eigenvalues, spec_i.eigenvalues).ravel()
    probs = (kernel * p[None, :]).ravel()
    works, probs = merge_atoms(works[:, None], probs, merge_tolerance)
    return WorkDistribution(works[:, 0], probs, merge_tolerance)


def _unwrapped_log(u_grid: np.ndarray, chi: np.ndarray, max_rate: float) -> np.ndarray:
    # a-priori aliasing bound: the phase can advance by up to max|w| per unit u
    du = float(np.abs(np.diff(u_grid)).max(initial=0.0))
    if du * max_rate >= np.pi:
        raise ResolutionError(
            f"u grid spacing {du:g} under-resolves the work support "
            f"(max |w| = {max_rate:g}); refine the u grid"
        )
    phase = np.angle(chi)
    steps = np.abs(np.diff(phase))
    # steps near pi are ambiguous after wrapping (chi passing near zero)
    if np.any(np.minimum(steps, 2 * np.pi - steps) > np.pi * (1 - 1e-9)):
        raise ResolutionError("phase advances by >= pi per grid step; refine the u grid")
    unwrapped = np.unwrap(phase)
    anchor = int(np.argmin(np.abs(u_grid)))
    unwrapped -= unwrapped[anchor] - phase[anchor]
    return np.log(np.abs(chi)) + 1j * unwrapped


def default_u_grid(beta: float) -> np.ndarray:
    """201-point symmetric grid on [-5 beta, 5 beta]; the odd count places a node at u = 0."""
    return np.linspace(-5.0 * beta, 5.0 * beta, 201)


def cfw_from_distribution(d: WorkDistribution, u_grid: np.ndarray) -> CfwSamples:
    """chi(u) = sum_k p_k exp(i u w_k), with ln chi unwrapped from u = 0."""
    u = np.asarray(u_grid, dtype=float)
    chi = np.exp(1j * np.outer(u, d.works)) @ d.probabilities.astype(complex)
    rate = float(np.abs(d.works).max(initial=0.0))
    return CfwSamples(u, chi, _unwrapped_log(u, chi, rate))


def cfw_trace(
    u_prop: PropagatorResult,
    spec_i: SpectralDecomposition,
    spec_f: SpectralDecomposition,
    beta: float,
    u_grid: np.ndarray,
) -> CfwSamples:
    """chi(u) = tr[U^dag e^{iuH_f} U e^{-(iu+beta)H_i}] / Z_i, evaluated in eigenbases."""
    kernel = _transition_kernel(spec_i, spec_f, u_prop)
    u = np.asarray(u_grid, dtype=float)
    p = boltzmann_weights(spec_i, beta)
    right = p[None, :] * np.exp(-1j * np.outer(u, spec_i.eigenvalues))  # (u, n)
    left = np.exp(1j * np.outer(u, spec_f.eigenvalues))  # (u, m)
    chi = np.einsum("um,mn,un->u", left, kernel, right)
    rate = max(
        spec_f.eigenvalues[-1] - spec_i.eigenvalues[0],
        spec_i.eigenvalues[-1] - spec_f.eigenvalues[0],
    )
    return CfwSamples(u, chi, _unwrapped_log(u, chi, float(rate)))


@dataclass(frozen=True)
class JarzynskiReport:
    lhs: float
    rhs: float
    abs_deviation: float


def jarzynski_check(d: WorkDistribution, ln_z_i: float, ln_z_f: float, beta: float) -> JarzynskiReport:
    """<exp(-beta w)> against Z_f / Z_i; exact for the measurement scheme, so the
    deviation bounds numerical error only."""
    lhs = float(d.probabilities @ np.exp(-beta * d.works))
    rhs = float(np.exp(ln_z_f - ln_z_i))
    return JarzynskiReport(lhs=lhs, rhs=rhs, abs_deviation=abs(lhs - rhs))


def average_work(d: WorkDistribution) -> float:
    return float(d.probabilities @ d.works)


def mean_energy_change(
    rho_f: DensityMatrix, h_f: OperatorMatrix, rho_i: DensityMatrix, h_i: OperatorMatrix
) -> float:
    """tr[rho_f H_f] - tr[rho_i H_i]; equals the mean measured work for unitary evolution."""
    if rho_f.dimension != h_f.dimension or rho_i.dimension != h_i.dimension:
        raise DimensionError("state/operator dimension mismatch")
    final = float(np.real(np.trace(rho_f.matrix @ h_f.matrix)))
    initial = float(np.real(np.trace(rho_i.matrix @ h_i.matrix)))
    return final - initial


@dataclass(frozen=True)
class DeltaReport:
    variance: float
    mass_within_epsilon_of_mean: float
    is_delta: bool


def delta_concentration(d: WorkDistribution, epsilon: float) -> DeltaReport:
    """Concentration diagnostic: the distribution is a point mass iff the final
    state is the target thermal state (necessary-condition monitor)."""
    mean = average_work(d)
    variance = float(d.probabilities @ (d.works - mean) ** 2)
    mass = float(d.probabilities[np.abs(d.works - mean) <= epsilon].sum())
    return DeltaReport(
        variance=variance,
        mass_within_epsilon_of_mean=mass,
        is_delta=bool(variance < epsilon**2 and mass >= 1.0 - 1e-10),
    )


@dataclass(frozen=True)
class LinearityReport:
    w0_fit: float
    max_abs_residual: float
    rel_residual: float
    max_abs_re: float


def phase_linearity(c: CfwSamples) -> LinearityReport:
    """Least-squares fit of Im ln chi = w0 u through the origin.

    The residual measures departure from the pure-shift form ln chi = i u w0
    that characterizes Gibbs-to-Gibbs evolutions; |Re ln chi| is reported
    separately (it vanishes only in that case).
    """
    u = c.u_grid
    y = np.imag(c.ln_chi)
    denom = float(u @ u)
    w0 = float(u @ y / denom) if denom > 0 else 0.0
    resid = float(np.abs(y - w0 * u).max())
    scale = abs(w0) * float(np.abs(u).max())
    rel = resid / scale if scale > 0 else np.inf if resid > 0 else 0.0
    return LinearityReport(
        w0_fit=w0,
        max_abs_residual=resid,
        rel_residual=rel,
        max_abs_re=float(np.abs(np.real(c.ln_chi)).max()),
    )


def write_csv(path, header, rows) -> None:
    """UTF-8 CSV with LF line ends; every cell is written as repr(float(x))."""
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(x)) for x in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def distribution_to_csv(d: WorkDistribution, path) -> None:
    write_csv(path, ["w", "p"], zip(d.works, d.probabilities))


def cfw_to_csv(c: CfwSamples, path) -> None:
    write_csv(
        path,
        ["u", "re_chi", "im_chi", "re_ln_chi", "im_ln_chi"],
        zip(c.u_grid, c.chi.real, c.chi.imag, c.ln_chi.real, c.ln_chi.imag),
    )
