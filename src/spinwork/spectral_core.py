"""Eigendecompositions, Gibbs states, partition functions and mixed-state fidelity.

Every operator of the pipeline is block diagonal over its invariant blocks:
the connected components of its nonzero pattern (:func:`invariant_blocks`;
the magnetization sectors for the XXZ chain).  ``eigendecompose`` runs
``eigh`` on each block and merges the eigenvalues in ascending order, so
every eigenvector is exactly zero outside its block.  A state
(``DensityMatrix``) is its exact factors rho = X diag(p) X^dag with their
blocks: a Gibbs state is the eigenvectors X and the Boltzmann weights p,
and evolution maps X -> U X, so no d x d matrix of a state is formed in the
pipeline.  A state given as a matrix is factorized by
``DensityMatrix.from_matrix`` (per-block ``eigh``; it accepts only a
Hermitian, unit-trace PSD matrix).  Where two inputs are blocked
differently, the work runs on the coarsest partition that both
refine, found by the same finder.

Boltzmann weights are always computed with the minimum-eigenvalue shift
(log-sum-exp convention), so large beta never overflows.  Fidelity is the
squared-trace Uhlmann convention F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2,
evaluated as F = ||sqrt(sigma) sqrt(rho)||_1^2 (Jozsa 1994) from the factors:
with sigma = Y diag(q) Y^dag, F is the squared sum over blocks of the
singular values of diag(sqrt q) Y^dag X diag(sqrt p).  No matrix square root
of roundoff-level eigenvalues enters.  The ``one_minus_sqrtF`` infidelity
convention is exposed by callers as a flag.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .spin_model import DimensionError, OperatorMatrix

PSD_TOLERANCE = 1e-12
HERMITIAN_TOLERANCE = 1e-12
TRACE_TOLERANCE = 1e-10


def invariant_blocks(*matrices: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the joint nonzero pattern of square matrices.

    Every matrix given is block diagonal over them.  Components are listed by
    their smallest index, each sorted ascending.
    """
    pattern = np.zeros(matrices[0].shape, dtype=bool)
    for m in matrices:
        pattern |= m != 0
    pattern |= pattern.T
    unseen = np.ones(pattern.shape[0], dtype=bool)
    blocks = []
    while unseen.any():
        frontier = np.zeros_like(unseen)
        frontier[np.argmax(unseen)] = True
        member = frontier.copy()
        while frontier.any():
            unseen &= ~frontier
            frontier = pattern[frontier].any(axis=0) & unseen
            member |= frontier
        blocks.append(np.flatnonzero(member))
    return blocks


def common_blocks(d: int, *partitions) -> list[tuple[np.ndarray, tuple]]:
    """Blocks of the coarsest partition of range(d) that every given partition refines.

    A partition is a sequence of (rows, cols) pairs: disjoint basis rows that
    cover range(d), and the columns (eigenvectors, factors) living on them.
    Returns one (rows, (cols of each partition)) pair per common block.
    """
    row_sets = [[rows for rows, _ in part] for part in partitions]
    coarse = row_sets[0]
    same = all(
        len(r) == len(coarse) and all(np.array_equal(a, b) for a, b in zip(r, coarse))
        for r in row_sets[1:]
    )
    if not same:
        patterns = []
        for r in row_sets:
            label = np.empty(d, dtype=np.intp)
            for k, rows in enumerate(r):
                label[rows] = k
            patterns.append(label[:, None] == label[None, :])
        coarse = invariant_blocks(*patterns)
    label = np.empty(d, dtype=np.intp)
    for k, rows in enumerate(coarse):
        label[rows] = k
    cols = []
    for part in partitions:
        grouped = [[] for _ in coarse]
        for rows, c in part:
            grouped[label[rows[0]]].append(c)
        cols.append([np.concatenate(g) for g in grouped])
    return [(rows, tuple(c[k] for c in cols)) for k, rows in enumerate(coarse)]


def _blocked_eigh(matrix: np.ndarray):
    """``eigh`` per invariant block: ascending eigenvalues (stable merge), eigenvectors
    exactly zero outside their block, and each block's (rows, eigen-columns)."""
    d = matrix.shape[0]
    rows_list = invariant_blocks(matrix)
    parts = [np.linalg.eigh(matrix[np.ix_(rows, rows)]) for rows in rows_list]
    evals = np.concatenate([e for e, _ in parts])
    order = np.argsort(evals, kind="stable")
    rank = np.empty(d, dtype=np.intp)
    rank[order] = np.arange(d)
    vectors = np.zeros((d, d), dtype=complex)
    blocks = []
    start = 0
    for rows, (e, v) in zip(rows_list, parts):
        cols = rank[start : start + e.size]
        start += e.size
        vectors[np.ix_(rows, cols)] = v
        blocks.append((rows, cols))
    return evals[order], vectors, tuple(blocks)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns of a Hermitian operator.

    ``blocks`` holds one (rows, eigen-columns) pair per invariant block; each
    eigenvector is exactly zero outside its block's rows.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    blocks: tuple

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive semidefinite state, held as its exact spectral factors.

    rho = X diag(p) X^dag with orthonormal columns X (``vectors``), weights
    p >= 0, and one (rows, columns) pair per block, X being exactly zero
    outside it.
    """

    vectors: np.ndarray
    weights: np.ndarray
    blocks: tuple

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "DensityMatrix":
        """The factors of a Hermitian matrix by per-block ``eigh``; rejects a matrix that
        is not Hermitian, not of unit trace or not PSD."""
        defect = np.abs(matrix - matrix.conj().T).max()
        if defect > HERMITIAN_TOLERANCE:
            raise ValueError(f"matrix is not Hermitian: |m - m^dag| = {defect:.3e}")
        trace = np.trace(matrix).real
        if abs(trace - 1.0) > TRACE_TOLERANCE:
            raise ValueError(f"matrix trace is {trace!r}, not 1")
        evals, vectors, blocks = _blocked_eigh(matrix)
        if evals[0] < -PSD_TOLERANCE:
            raise ValueError(f"matrix is not PSD: min eigenvalue {evals[0]:.3e}")
        return cls(vectors, np.clip(evals, 0.0, None), blocks)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """rho as a d x d array, formed block by block from the factors."""
        m = np.zeros((self.dimension, self.dimension), dtype=complex)
        for rows, cols in self.blocks:
            x = self.vectors[np.ix_(rows, cols)]
            m[np.ix_(rows, rows)] = (x * self.weights[cols]) @ x.conj().T
        return m


def eigendecompose(h: OperatorMatrix) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator, block by block, eigenvalues ascending."""
    if not h.hermitian:
        raise ValueError("eigendecompose requires an operator built with hermitian=True")
    return SpectralDecomposition(*_blocked_eigh(h.matrix))


def boltzmann_weights(spec: SpectralDecomposition, beta: float) -> np.ndarray:
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    w = np.exp(-beta * (spec.eigenvalues - spec.eigenvalues[0]))
    return w / w.sum()


def gibbs_state(spec: SpectralDecomposition, beta: float) -> DensityMatrix:
    """Thermal state exp(-beta H)/Z as its factors: the eigenvectors, their
    blocks and the Boltzmann weights.  No d x d matrix is formed."""
    return DensityMatrix(spec.eigenvectors, boltzmann_weights(spec, beta), spec.blocks)


def log_partition_function(spec: SpectralDecomposition, beta: float) -> float:
    """ln Z = ln tr exp(-beta H), evaluated by log-sum-exp."""
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return float(logsumexp(-beta * spec.eigenvalues))


def thermal_expectation(h_spec: SpectralDecomposition, beta: float, a: OperatorMatrix) -> float:
    """tr[rho_G a] for the Gibbs state of the decomposed Hamiltonian."""
    if h_spec.dimension != a.dimension:
        raise DimensionError(
            f"dimension mismatch: {h_spec.dimension} vs {a.dimension}"
        )
    p = boltzmann_weights(h_spec, beta)
    v = h_spec.eigenvectors
    diag = np.einsum("in,in->n", v.conj(), a.matrix @ v)
    return float(np.real(p @ diag))


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F = ||sqrt(sigma) sqrt(rho)||_1^2, clipped to [0, 1].

    Read from the two states' factors rho = X diag(p) X^dag and
    sigma = Y diag(q) Y^dag: F is the square of the summed singular values of
    diag(sqrt q) Y^dag X diag(sqrt p) over the blocks common to both.
    """
    if rho.dimension != sigma.dimension:
        raise DimensionError(
            f"dimension mismatch: {rho.dimension} vs {sigma.dimension}"
        )
    root = 0.0
    for rows, (cx, cy) in common_blocks(rho.dimension, rho.blocks, sigma.blocks):
        a = rho.vectors[np.ix_(rows, cx)] * np.sqrt(rho.weights[cx])
        b = sigma.vectors[np.ix_(rows, cy)] * np.sqrt(sigma.weights[cy])
        root += float(np.linalg.svd(b.conj().T @ a, compute_uv=False).sum())
    return float(min(root * root, 1.0))


def infidelity(rho: DensityMatrix, sigma: DensityMatrix, convention: str = "one_minus_F") -> float:
    """1 - F or 1 - sqrt(F); the figure-of-merit used throughout the scan pipelines."""
    f = uhlmann_fidelity(rho, sigma)
    if convention == "one_minus_F":
        return 1.0 - f
    if convention == "one_minus_sqrtF":
        return 1.0 - float(np.sqrt(f))
    raise ValueError(f"unknown fidelity convention {convention!r}")
