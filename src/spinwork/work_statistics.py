"""Two-point-measurement work distributions and the characteristic function of work.

The characteristic function chi(u) is computed by two independent routes: a
Fourier sum over the measured work atoms, and a trace formula evaluated in the
initial/final eigenbases.  Both share one branch convention for ln chi:
continuous phase unwrapping along the u grid, anchored so ln chi(0) = 0.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .drive_dynamics import PropagatorResult
from .spectral_core import DensityMatrix, SpectralDecomposition, boltzmann_weights, expectation
from .spin_model import OperatorMatrix, common_blocks, copies, once_per_copy

NORMALIZATION_TOLERANCE = 1e-8
# atoms per term of the chi(u) sum: 201 u values x 4096 atoms is a 13 MB array
CHI_CHUNK = 4096


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
        if not self.probabilities.min(initial=0.0) >= -1e-14:
            raise ValueError("negative or NaN probability atom")
        drift = abs(self.probabilities.sum() - 1.0)
        if not drift <= NORMALIZATION_TOLERANCE:
            raise ValueError(f"normalization drift {drift:.3e}")


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
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """M = |V_f^dag U V_i|^2 as (final columns, initial columns, block) triples, one
    per block common to the three inputs; M vanishes between them.  A flip copy's
    block is its partner's array (``spin_model.once_per_copy``)."""
    blocks = common_blocks(u.unitary.blocks, spec_i.blocks, spec_f.blocks)
    kernel = once_per_copy(lambda m, vi, vf: np.abs((vf.conj().T @ m) @ vi) ** 2,
                           *zip(*((m, vi, vf) for _, ((_, m), (_, vi), (_, vf)) in blocks)))
    return [(cf, ci, k) for (_, (_, (ci, _), (cf, _))), k in zip(blocks, kernel)]


def _counted_kernel(spec_i: SpectralDecomposition, spec_f: SpectralDecomposition, u: PropagatorResult):
    """The transition kernel's (final columns, initial columns, block, multiplicity) once per
    group of ``spin_model.copies``: a flip copy's raw atoms (its block and both blocks'
    eigenvalues) are its partner's bit for bit, so they count as the partner's at multiplicity 2."""
    kernel = _transition_kernel(spec_i, spec_f, u)
    e_i, e_f = spec_i.eigenvalues, spec_f.eigenvalues
    first = copies([k for _, _, k in kernel], [e_i[ci] for _, ci, _ in kernel], [e_f[cf] for cf, _, _ in kernel])
    return [(*kernel[i], count) for i, count in Counter(first).items()]


def tpm_distribution(
    spec_i: SpectralDecomposition,
    spec_f: SpectralDecomposition,
    u: PropagatorResult,
    beta: float,
) -> WorkDistribution:
    """Two-point-measurement work distribution.

    Transition kernel M = |V_f^dag U V_i|^2 elementwise; the atom at
    w = E^f_m - E^i_n carries M_mn p_n with p the initial Boltzmann weights.
    Raw atoms are built only inside the blocks common to U and both
    eigenbases, since a transition between blocks has probability exactly 0,
    and a flip copy's atoms enter once, as its partner's at doubled
    probability: sum_b b_i b_f over the distinct blocks, for the XXZ chain
    sum b^2 of ``spin_model.adapted_block_sizes`` (12190 at N = 9).  Chains of works
    with gaps within the merge tolerance are merged (:func:`merge_atoms`) at
    the probability-weighted mean work; with a zero tolerance (both spectra
    flat) exact ties still merge.
    """
    kernel = _counted_kernel(spec_i, spec_f, u)
    merge_tolerance = default_merge_tolerance(spec_i, spec_f)
    p = boltzmann_weights(spec_i, beta)
    e_i, e_f = spec_i.eigenvalues, spec_f.eigenvalues
    works = np.concatenate([np.subtract.outer(e_f[cf], e_i[ci]).ravel() for cf, ci, _, _ in kernel])
    probs = np.concatenate([(k * (count * p[ci])).ravel() for _, ci, k, count in kernel])
    # atoms in (final, initial) eigen-index order, so the merged sums do not depend on the blocking
    order = np.argsort(np.concatenate([np.add.outer(cf * spec_i.dimension, ci).ravel() for cf, ci, _, _ in kernel]))
    works, probs = merge_atoms(works[order, None], probs[order], merge_tolerance)
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
    """201-point grid on [-5 beta, 5 beta] with a node at u = 0 and each node u < 0 the
    exact negation of one u > 0, so a chi(u) sum runs over 101 distinct |u|, each
    bitwise j s_1 for the first nonzero one s_1 (the lattice of ``cfw_from_distribution``)."""
    return 5.0 * beta / 100 * np.arange(-100, 101)


def distinct_spans(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |u| of a grid, ascending, and each node's index among them: what
    ``np.unique(np.abs(u), return_inverse=True)`` gives, by one sort and without the
    ``numpy.ma`` import that the first ``np.unique`` call makes."""
    a = np.abs(np.ravel(u))
    order = np.argsort(a, kind="stable")
    s = a[order]
    new = np.ones(s.size, dtype=bool)
    new[1:] = s[1:] != s[:-1]
    where = np.empty(s.size, dtype=np.intp)
    where[order] = np.cumsum(new) - 1
    return s[new], where


def cfw_from_distribution(d: WorkDistribution, u_grid: np.ndarray) -> CfwSamples:
    """chi(u) = sum_k p_k exp(i u w_k), with ln chi unwrapped from u = 0.

    The weights are real, so chi(-u) = conj(chi(u)): the sum runs only at the
    distinct |u| of the grid and u < 0 is filled by conjugation.  It runs over
    CHI_CHUNK atoms at a time, so no (u x atoms) array is formed.  When the distinct
    |u| are bitwise s_j = j s_1, j < n (``default_u_grid``), e^{i s_j w} is
    e^{i s_{qa} w} e^{i s_b w} for j = q a + b and q = ceil(sqrt n): 2 sqrt(n)
    exponentials per atom and one complex GEMM per chunk.  Any other grid is summed
    in real arithmetic, cos(u w) @ p + i sin(u w) @ p."""
    u = np.asarray(u_grid, dtype=float)
    spans, where = distinct_spans(u)
    n = spans.size
    lattice = n > 1 and np.array_equal(spans, np.arange(n) * spans[1])
    q = math.ceil(math.sqrt(n))
    chi_at = np.zeros(n, dtype=complex)
    for start in range(0, d.works.size, CHI_CHUNK):
        atoms = slice(start, start + CHI_CHUNK)
        w, p = d.works[atoms], d.probabilities[atoms]
        if lattice:
            outer = np.exp(1j * np.outer(spans[::q], w)) * p  # e^{i s_{qa} w} p, (a, atom)
            chi_at += (outer @ np.exp(1j * np.outer(spans[:q], w)).T).ravel()[:n]
        else:
            theta = np.outer(spans, w)
            chi_at += np.cos(theta) @ p + 1j * (np.sin(theta) @ p)
    chi = chi_at[where]
    mirror = u < 0
    chi[mirror] = np.conj(chi[mirror])
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
    u = np.asarray(u_grid, dtype=float)
    p = boltzmann_weights(spec_i, beta)
    right = p[None, :] * np.exp(-1j * np.outer(u, spec_i.eigenvalues))  # (u, n)
    left = np.exp(1j * np.outer(u, spec_f.eigenvalues))  # (u, m)
    chi = sum(
        count * np.einsum("um,mn,un->u", left[:, cf], k, right[:, ci])
        for cf, ci, k, count in _counted_kernel(spec_i, spec_f, u_prop)
    )
    rate = max(
        spec_f.eigenvalues[-1] - spec_i.eigenvalues[0],
        spec_i.eigenvalues[-1] - spec_f.eigenvalues[0],
    )
    return CfwSamples(u, chi, _unwrapped_log(u, chi, float(rate)))


@dataclass(frozen=True)
class JarzynskiReport:
    ln_lhs: float
    ln_rhs: float
    rel_deviation: float


def jarzynski_check(d: WorkDistribution, ln_z_i: float, ln_z_f: float, beta: float) -> JarzynskiReport:
    """ln <exp(-beta w)> against ln Z_f - ln Z_i, the former a log-sum-exp over the
    atoms with p > 0, so neither side overflows at large beta.  The identity is
    exact for the measurement scheme, so the relative deviation
    |<exp(-beta w)> Z_i / Z_f - 1| = |expm1(ln_lhs - ln_rhs)| bounds numerical error:
    roundoff, and at large beta the atoms of initial states whose Boltzmann weight
    underflowed to 0, which exp(-beta w) would have weighted up."""
    kept = d.probabilities > 0
    x = np.log(d.probabilities[kept]) - beta * d.works[kept]
    top = x.max()
    ln_lhs = float(top + np.log(np.exp(x - top).sum()))
    ln_rhs = float(ln_z_f - ln_z_i)
    return JarzynskiReport(ln_lhs=ln_lhs, ln_rhs=ln_rhs, rel_deviation=abs(float(np.expm1(ln_lhs - ln_rhs))))


def average_work(d: WorkDistribution) -> float:
    return float(d.probabilities @ d.works)


def mean_energy_change(
    rho_f: DensityMatrix, h_f: OperatorMatrix, rho_i: DensityMatrix, h_i: OperatorMatrix
) -> float:
    """tr[rho_f H_f] - tr[rho_i H_i]; equals the mean measured work for unitary evolution."""
    return expectation(rho_f, h_f) - expectation(rho_i, h_i)


@dataclass(frozen=True)
class DeltaReport:
    variance: float
    mass_within_epsilon_of_mean: float
    is_delta: bool


def delta_concentration(d: WorkDistribution, epsilon: float) -> DeltaReport:
    """Concentration diagnostic: the distribution is a point mass iff the final
    state is the target thermal state (necessary-condition monitor)."""
    mean = average_work(d)
    # an atom of probability 0 adds 0, also where its square overflows (0 * inf is NaN)
    variance = float(d.probabilities @ np.where(d.probabilities != 0.0, (d.works - mean) ** 2, 0.0))
    mass = float(d.probabilities[np.abs(d.works - mean) <= epsilon].sum())
    return DeltaReport(
        variance=variance,
        mass_within_epsilon_of_mean=mass,
        is_delta=bool(variance < epsilon * epsilon and mass >= 1.0 - 1e-10),
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


def write_csv(path, header, columns) -> None:
    """UTF-8 CSV with LF line ends, one column per entry of ``columns``; every cell is
    written as the repr of the Python float its column's ``.tolist()`` gives."""
    cells = [list(map(repr, np.asarray(c, dtype=float).tolist())) for c in columns]
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def distribution_to_csv(d: WorkDistribution, path) -> None:
    write_csv(path, ["w", "p"], [d.works, d.probabilities])


def cfw_to_csv(c: CfwSamples, path) -> None:
    write_csv(
        path,
        ["u", "re_chi", "im_chi", "re_ln_chi", "im_ln_chi"],
        [c.u_grid, c.chi.real, c.chi.imag, c.ln_chi.real, c.ln_chi.imag],
    )
