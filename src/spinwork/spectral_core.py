"""Eigendecompositions, Gibbs states, partition functions and mixed-state fidelity.

Boltzmann weights are always computed with the minimum-eigenvalue shift
(log-sum-exp convention), so large beta never overflows.  Fidelity is the
squared-trace Uhlmann convention F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2;
the ``one_minus_sqrtF`` infidelity convention is exposed by callers as a flag.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from .spin_model import DimensionError, OperatorMatrix

PSD_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns of a Hermitian operator."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

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
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace state."""

    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> None:
        tr = np.trace(self.matrix)
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        if np.linalg.eigvalsh(self.matrix).min() < -PSD_TOLERANCE:
            raise ValueError("state has eigenvalues below the PSD tolerance")


def eigendecompose(h: OperatorMatrix) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator, eigenvalues ascending."""
    if not h.hermitian:
        raise ValueError("eigendecompose requires an operator built with hermitian=True")
    evals, evecs = np.linalg.eigh(h.matrix)
    return SpectralDecomposition(evals, evecs)


def boltzmann_weights(spec: SpectralDecomposition, beta: float) -> np.ndarray:
    if not np.isfinite(beta) or beta <= 0:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    w = np.exp(-beta * (spec.eigenvalues - spec.eigenvalues[0]))
    return w / w.sum()


def gibbs_state(spec: SpectralDecomposition, beta: float) -> DensityMatrix:
    """Thermal state exp(-beta H)/Z from spectral data."""
    p = boltzmann_weights(spec, beta)
    v = spec.eigenvectors
    return DensityMatrix((v * p) @ v.conj().T)


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
    diag = np.einsum("in,ij,jn->n", v.conj(), a.matrix, v)
    return float(np.real(p @ diag))


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(matrix)
    if evals.min() < -PSD_TOLERANCE:
        raise ValueError(f"matrix is not PSD: min eigenvalue {evals.min():.3e}")
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped to [0, 1]."""
    if rho.dimension != sigma.dimension:
        raise DimensionError(
            f"dimension mismatch: {rho.dimension} vs {sigma.dimension}"
        )
    sq = _psd_sqrt(rho.matrix)
    inner = sq @ sigma.matrix @ sq
    evals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    if evals.min() < -PSD_TOLERANCE:
        raise ValueError(f"fidelity kernel not PSD: min eigenvalue {evals.min():.3e}")
    root = np.sum(np.sqrt(np.clip(evals, 0.0, None)))
    return float(min(root * root, 1.0))


def infidelity(rho: DensityMatrix, sigma: DensityMatrix, convention: str = "one_minus_F") -> float:
    """1 - F or 1 - sqrt(F); the figure-of-merit used throughout the scan pipelines."""
    f = uhlmann_fidelity(rho, sigma)
    if convention == "one_minus_F":
        return 1.0 - f
    if convention == "one_minus_sqrtF":
        return 1.0 - float(np.sqrt(f))
    raise ValueError(f"unknown fidelity convention {convention!r}")
