"""Eigendecompositions, Gibbs states, partition functions and mixed-state fidelity.

Every operator of the pipeline is block diagonal over its invariant blocks:
the connected components of its nonzero pattern (:func:`invariant_blocks`;
the magnetization sectors for the XXZ chain).  ``eigendecompose`` runs
``eigh`` on each block and merges the eigenvalues in ascending order, so
every eigenvector is exactly zero outside its block.  Gibbs states carry
their exact factors rho = X diag(p) X^dag (eigenvectors X, Boltzmann
weights p), and evolution maps X -> U X.  Where two inputs are blocked
differently, the work runs on the coarsest partition that both refine,
found by the same finder.

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
from typing import Callable, Optional

import numpy as np
from scipy.special import logsumexp

from .spin_model import DimensionError, OperatorMatrix

PSD_TOLERANCE = 1e-12


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


def whole_space(d: int) -> tuple:
    """The one-block partition: every basis row with every column."""
    every = np.arange(d)
    return ((every, every),)


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
    eigenvector is exactly zero outside its block's rows.  Left empty, the
    whole space is one block.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    blocks: tuple = ()

    def __post_init__(self):
        if not self.blocks:
            object.__setattr__(self, "blocks", whole_space(self.eigenvalues.shape[0]))

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@dataclass(frozen=True)
class StateFactors:
    """rho = X diag(p) X^dag: orthonormal columns X (``vectors``), weights p >= 0,
    and one (rows, columns) pair per block, X being exactly zero outside it."""

    vectors: np.ndarray
    weights: np.ndarray
    blocks: tuple


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace state.

    ``factors`` are its exact spectral factors where the state was built from
    them (Gibbs states and their unitary evolutions); a state given only as a
    matrix is factorized on demand.
    """

    matrix: np.ndarray
    factors: Optional[StateFactors] = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> None:
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        if np.linalg.eigvalsh(self.matrix).min() < -PSD_TOLERANCE:
            raise ValueError("state has eigenvalues below the PSD tolerance")

    def factorize(self) -> StateFactors:
        """The carried factors, or those of a per-block ``eigh`` of the matrix (PSD-checked)."""
        if self.factors is not None:
            return self.factors
        evals, vectors, blocks = _blocked_eigh(self.matrix)
        if evals[0] < -PSD_TOLERANCE:
            raise ValueError(f"matrix is not PSD: min eigenvalue {evals[0]:.3e}")
        return StateFactors(vectors, np.clip(evals, 0.0, None), blocks)


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
    """Thermal state exp(-beta H)/Z from spectral data, built block by block and
    carrying its factors (the eigenvectors and the Boltzmann weights)."""
    p = boltzmann_weights(spec, beta)
    v = spec.eigenvectors
    matrix = np.zeros((spec.dimension, spec.dimension), dtype=complex)
    for rows, cols in spec.blocks:
        x = v[np.ix_(rows, cols)]
        matrix[np.ix_(rows, rows)] = (x * p[cols]) @ x.conj().T
    return DensityMatrix(matrix, StateFactors(v, p, spec.blocks))


def log_partition_function(spec: SpectralDecomposition, beta: float) -> float:
    """ln Z = ln tr exp(-beta H), evaluated by log-sum-exp."""
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return float(logsumexp(-beta * spec.eigenvalues))


def matrix_function(spec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray]) -> OperatorMatrix:
    """Apply a scalar function to the spectrum: V f(Lambda) V^dag."""
    fe = np.asarray(f(spec.eigenvalues), dtype=complex)
    if not np.all(np.isfinite(fe)):
        raise OverflowError("scalar function is not finite on the spectrum")
    v = spec.eigenvectors
    return OperatorMatrix((v * fe) @ v.conj().T, hermitian=False)


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
    """Uhlmann fidelity F = ||sqrt(sigma) sqrt(rho)||_1^2 from exact factors, clipped to [0, 1].

    With rho = X diag(p) X^dag and sigma = Y diag(q) Y^dag, F is the square of
    the summed singular values of diag(sqrt q) Y^dag X diag(sqrt p) over the
    blocks common to both factorizations.
    """
    if rho.dimension != sigma.dimension:
        raise DimensionError(
            f"dimension mismatch: {rho.dimension} vs {sigma.dimension}"
        )
    x, y = rho.factorize(), sigma.factorize()
    root = 0.0
    for rows, (cx, cy) in common_blocks(rho.dimension, x.blocks, y.blocks):
        a = x.vectors[np.ix_(rows, cx)] * np.sqrt(x.weights[cx])
        b = y.vectors[np.ix_(rows, cy)] * np.sqrt(y.weights[cy])
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
