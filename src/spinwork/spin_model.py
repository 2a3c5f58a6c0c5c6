"""XXZ chain operators: hopping part, zz part, and magnetization-sector bookkeeping.

Conventions (fixed so tests are bit-exact):
  * sigma^+ = (sigma^x + i sigma^y)/2, sigma^- its adjoint, so the flip
    amplitude between up-down and down-up neighbours is exactly J per bond.
  * Computational basis with site 0 as the most significant bit; bit 0 means
    spin up (sigma^z eigenvalue +1).  Every operator is read off one table of
    these sigma^z values: H0 links b to b ^ (0b11 << (N-2-i)) wherever the
    spins of sites i and i+1 differ.
  * Open boundary conditions: bond sums run over sites 0..N-2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_SITES = 14


class DimensionError(ValueError):
    """Operator dimensions incompatible or beyond the configured maximum."""


@dataclass(frozen=True)
class SpinChainSpec:
    """Open XXZ chain of ``n_sites`` spins with energy scale ``coupling``."""

    n_sites: int
    coupling: float
    boundary: str = "open"

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if not np.isfinite(self.coupling):
            raise ValueError(f"coupling must be finite, got {self.coupling}")
        if self.boundary != "open":
            raise ValueError(f"only open boundaries are supported, got {self.boundary!r}")

    @property
    def dimension(self) -> int:
        return 2 ** self.n_sites


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator on the 2^N spin Hilbert space."""

    matrix: np.ndarray
    hermitian: bool = True

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"operator must be square, got shape {m.shape}")
        n = m.shape[0]
        if n & (n - 1):
            raise DimensionError(f"dimension {n} is not a power of two")
        if self.hermitian:
            scale = max(np.abs(m).max(), 1.0)
            defect = np.abs(m - m.conj().T).max()
            if defect > 1e-12 * scale:
                raise ValueError(f"matrix marked hermitian but |H - H^dag| = {defect:.3e}")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _check_sites(n_sites: int) -> None:
    if n_sites > MAX_SITES:
        raise DimensionError(
            f"n_sites={n_sites} exceeds the dense-storage maximum {MAX_SITES}"
        )


def _spins(n_sites: int) -> np.ndarray:
    """(2^N, N) integer table of sigma^z eigenvalues (+1 up, -1 down) per basis state and site."""
    _check_sites(n_sites)
    b = np.arange(2**n_sites)
    return 1 - 2 * ((b[:, None] >> (n_sites - 1 - np.arange(n_sites))[None, :]) & 1)


def spin_symmetries(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis permutations of the global spin flip and of the site reflection i -> N-1-i.

    Entry b of each is the index of the image of basis state b.  Both are
    commuting involutions; the flip is b -> b ^ (2^N - 1), i.e. d - 1 - b.
    """
    z = _spins(n_sites)
    place = 2 ** (n_sites - 1 - np.arange(n_sites))
    return ((1 + z) // 2) @ place, ((1 - z[:, ::-1]) // 2) @ place


def build_hopping(spec: SpinChainSpec) -> OperatorMatrix:
    """Hopping part H0 = J sum_i (sigma+_i sigma-_{i+1} + h.c.)."""
    n = spec.n_sites
    z = _spins(n)
    h = np.zeros((spec.dimension, spec.dimension), dtype=complex)
    for i in range(n - 1):
        b = np.flatnonzero(z[:, i] != z[:, i + 1])
        h[b, b ^ (0b11 << (n - 2 - i))] = 1.0
    return OperatorMatrix(spec.coupling * h)


def zz_diagonal(spec: SpinChainSpec) -> np.ndarray:
    """Diagonal of the zz part: entry for basis state b is J * sum_i z_i(b) z_{i+1}(b)."""
    z = _spins(spec.n_sites)
    return spec.coupling * np.sum(z[:, :-1] * z[:, 1:], axis=1).astype(float)


def build_zz(spec: SpinChainSpec) -> OperatorMatrix:
    """Interaction part H1 = J sum_i sigma^z_i sigma^z_{i+1}, diagonal in the computational basis."""
    return OperatorMatrix(np.diag(zz_diagonal(spec)).astype(complex))


def assemble(h0: OperatorMatrix, h1: OperatorMatrix, lam: float) -> OperatorMatrix:
    """Full Hamiltonian H = H0 + lam * H1."""
    if h0.dimension != h1.dimension:
        raise DimensionError(
            f"dimension mismatch: {h0.dimension} vs {h1.dimension}"
        )
    return OperatorMatrix(h0.matrix + lam * h1.matrix)


def magnetization_sectors(n_sites: int) -> list[np.ndarray]:
    """Partition of basis indices by Hamming weight (total sigma^z eigenvalue).

    Both chain parts commute with total magnetization, so every H(t) is block
    diagonal over these index groups.  ``propagate`` finds its blocks from the
    operators themselves; this closed form names the expected partition.
    """
    if n_sites < 2:
        raise ValueError(f"n_sites must be >= 2, got {n_sites}")
    down = (n_sites - _spins(n_sites).sum(axis=1)) // 2
    return [np.flatnonzero(down == k) for k in range(n_sites + 1)]


def total_magnetization(n_sites: int) -> OperatorMatrix:
    """Total sigma^z operator (diagonal), for symmetry checks."""
    return OperatorMatrix(np.diag(_spins(n_sites).sum(axis=1)).astype(complex))
