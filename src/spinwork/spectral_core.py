"""Eigendecompositions, Gibbs states, partition functions and mixed-state fidelity.

Every object here is held block by block, on the blocks its operator came
with: in the pipeline the chain's symmetry-adapted blocks
(``spin_model.adapted_chain``), else the magnetization sectors, or one
whole-space block for a dense input that couples them.  ``eigendecompose``
runs ``eigh`` once per distinct block and merges the eigenvalues in ascending
order, keeping each block's eigenvectors as one (rows, cols, array) triple;
a real operator gives real eigenvectors and Gibbs factors, which turn complex
only under evolution.  A state (``DensityMatrix``) is its exact factors
rho = X diag(p) X^dag: a Gibbs state is the eigenvector blocks and the
Boltzmann weights, evolution maps X -> U X, and no d x d array of a state or
an operator is formed in the pipeline.  ``DensityMatrix.from_matrix``
factorizes a finite, Hermitian, unit-trace PSD matrix.  Where two inputs are
blocked differently, the work runs on one whole-space block (``common_blocks``).

Boltzmann weights take the minimum-eigenvalue shift, so large beta never
overflows, and ln Z is a numpy log-sum-exp with the shift and tie count of
scipy's ``logsumexp`` (bit-identical to scipy 1.17's); no scipy is imported at
run time.  Fidelity is the squared-trace Uhlmann convention
F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, evaluated as
F = ||sqrt(sigma) sqrt(rho)||_1^2 (Jozsa 1994) from the factors: with
sigma = Y diag(q) Y^dag, F is the squared sum over blocks of the singular
values of diag(sqrt q) Y^dag X diag(sqrt p), so no matrix square root of
roundoff-level eigenvalues enters.  Callers expose the ``one_minus_sqrtF``
infidelity convention as a flag.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .spin_model import OperatorMatrix, common_blocks, copies, dense_view, once_per_copy, sublattice_parities

PSD_TOLERANCE = 1e-12
TRACE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian operator.

    ``blocks`` holds one (rows, eigen-columns, vectors) triple per invariant
    block; each eigenvector is exactly zero outside its block's rows.
    ``parities`` holds each block's 2-colouring (``spin_model.sublattice_parities``, None where
    it has none), the gauge in which ``drive_dynamics.propagate`` steps the block in real arithmetic.
    """

    eigenvalues: np.ndarray
    blocks: tuple
    parities: tuple

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    @property
    def eigenvectors(self) -> np.ndarray:
        """The eigenvectors as d x d columns (a view for tests; the pipeline reads the blocks)."""
        return dense_view(self.dimension, self.blocks)


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite state, held as its exact spectral factors.

    rho = X diag(p) X^dag with weights p >= 0 and orthonormal columns X, one
    (rows, columns, vectors) triple per block, X being exactly zero outside it.
    """

    weights: np.ndarray
    blocks: tuple

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "DensityMatrix":
        """The factors of a Hermitian matrix by per-block ``eigh``; rejects a matrix that
        is not finite, not Hermitian, not of unit trace or not PSD."""
        spec = eigendecompose(OperatorMatrix.from_dense(matrix))
        trace = spec.eigenvalues.sum()
        if abs(trace - 1.0) > TRACE_TOLERANCE:
            raise ValueError(f"matrix trace is {trace!r}, not 1")
        if spec.eigenvalues[0] < -PSD_TOLERANCE:
            raise ValueError(f"matrix is not PSD: min eigenvalue {spec.eigenvalues[0]:.3e}")
        return cls(np.clip(spec.eigenvalues, 0.0, None), spec.blocks)

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """rho as a d x d array, formed block by block from the factors (a view for tests)."""
        blocks = ((rows, rows, (x * self.weights[cols]) @ x.conj().T) for rows, cols, x in self.blocks)
        return dense_view(self.dimension, blocks)


def eigendecompose(h: OperatorMatrix) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator, block by block, eigenvalues
    ascending (a stable merge of the blocks' eigenvalues), with each block's sublattice
    parity; a flip copy (``copies``) shares its partner's ``eigh``, so its eigenvectors
    are the same array."""
    if not h.hermitian:
        raise ValueError("eigendecompose requires an operator built with hermitian=True")
    arrays = [a for _, _, a in h.blocks]
    eighs, first = once_per_copy(np.linalg.eigh, arrays), copies(arrays)
    distinct = list(dict.fromkeys(first))
    odds = dict(zip(distinct, sublattice_parities([arrays[i] for i in distinct])))
    parts = [(rows, *eig) for (rows, _, _), eig in zip(h.blocks, eighs)]
    evals = np.concatenate([e for _, e, _ in parts])
    order = np.argsort(evals, kind="stable")
    rank = np.empty(evals.size, dtype=np.intp)
    rank[order] = np.arange(evals.size)
    cols = np.split(rank, np.cumsum([e.size for _, e, _ in parts])[:-1])
    return SpectralDecomposition(evals[order], tuple((rows, c, v) for (rows, _, v), c in zip(parts, cols)),
                                 tuple(odds[i] for i in first))


def real_left(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z, where a real ``a`` times a complex ``z`` runs as one real GEMM on z's float view
    (numpy would cast ``a`` to complex, for twice the multiply-adds)."""
    if a.dtype != np.float64 or z.dtype != np.complex128:
        return a @ z
    return (a @ (z if z.flags.c_contiguous else z.copy()).view(np.float64)).view(np.complex128)


def boltzmann_weights(spec: SpectralDecomposition, beta: float) -> np.ndarray:
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    w = np.exp(-beta * (spec.eigenvalues - spec.eigenvalues[0]))
    return w / w.sum()


def gibbs_state(spec: SpectralDecomposition, beta: float) -> DensityMatrix:
    """Thermal state exp(-beta H)/Z as its factors: the eigenvector blocks and
    the Boltzmann weights."""
    return DensityMatrix(boltzmann_weights(spec, beta), spec.blocks)


def log_partition_function(spec: SpectralDecomposition, beta: float) -> float:
    """ln Z = ln tr exp(-beta H), evaluated by log-sum-exp.

    The steps are scipy's ``logsumexp`` (1.17): the top exponent and its tie
    count are taken out of the sum, which runs over the full-length array so
    that its pairwise order, and hence every bit of ln Z, is scipy's.
    """
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    x = -beta * spec.eigenvalues
    top = x.max()
    at_top = x == top
    count = at_top.sum()
    rest = np.exp(np.where(at_top, -np.inf, x) - top).sum() / count
    return float(np.log1p(rest) + np.log(count) + top)


def expectation(rho: DensityMatrix, a: OperatorMatrix) -> float:
    """tr[rho a] = sum_c p_c (X^dag a X)_cc over the blocks common to the state and a, a flip
    copy's term counted at its partner's (``copies``)."""
    blocks = [(x, ab, rho.weights[cols]) for _, ((cols, x), (_, ab)) in common_blocks(rho.blocks, a.blocks)]
    total = 0.0
    for i, count in Counter(copies(*zip(*blocks))).items():
        x, ab, p = blocks[i]
        total += count * float(np.real(p @ np.einsum("in,in->n", x.conj(), ab @ x)))
    return total


def thermal_expectation(h_spec: SpectralDecomposition, beta: float, a: OperatorMatrix) -> float:
    """tr[rho_G a] for the Gibbs state of the decomposed Hamiltonian."""
    return expectation(gibbs_state(h_spec, beta), a)


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F = ||sqrt(sigma) sqrt(rho)||_1^2, clipped to [0, 1].

    Read from the two states' factors rho = X diag(p) X^dag and
    sigma = Y diag(q) Y^dag: F is the square of the summed singular values of
    diag(sqrt q) Y^dag X diag(sqrt p) over the blocks common to both, a flip copy's
    sum counted at its partner's (``copies``).
    """
    blocks = [(x, y, rho.weights[cx], sigma.weights[cy])
              for _, ((cx, x), (cy, y)) in common_blocks(rho.blocks, sigma.blocks)]
    root = 0.0
    for i, count in Counter(copies(*zip(*blocks))).items():
        x, y, p, q = blocks[i]
        overlap = real_left((y * np.sqrt(q)).conj().T, x * np.sqrt(p))
        root += count * float(np.linalg.svd(overlap, compute_uv=False).sum())
    return float(min(root * root, 1.0))


def infidelity(rho: DensityMatrix, sigma: DensityMatrix, convention: str = "one_minus_F") -> float:
    """1 - F or 1 - sqrt(F); the figure-of-merit used throughout the scan pipelines."""
    f = uhlmann_fidelity(rho, sigma)
    if convention == "one_minus_F":
        return 1.0 - f
    if convention == "one_minus_sqrtF":
        return 1.0 - float(np.sqrt(f))
    raise ValueError(f"unknown fidelity convention {convention!r}")
