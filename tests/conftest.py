import itertools

import numpy as np
import pytest

from spinwork import OperatorMatrix, SpinChainSpec, build_hopping, build_zz, eigendecompose
from spinwork.spin_model import _spins, common_blocks, spin_symmetries


@pytest.fixture(scope="session")
def chain4():
    spec = SpinChainSpec(4, 2.0)
    h0 = build_hopping(spec)
    h1 = build_zz(spec)
    return spec, h0, h1, eigendecompose(h0)


def two_site_operators(J=2.0):
    """Independent 4x4 construction of the two-site chain, by explicit kron."""
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = sp.conj().T
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    hop = np.kron(sp, sm) + np.kron(sm, sp)
    h0 = J * hop
    h1 = J * np.kron(sz, sz)
    return h0, h1, eye


def kron_chain_operators(n_sites, J):
    """Independent construction of the open N-site chain, by explicit sigma+-/sigma^z kron products."""
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = sp.conj().T
    sz = np.diag([1.0, -1.0]).astype(complex)

    def bond(a, b, i):
        return np.kron(np.kron(np.eye(2**i), np.kron(a, b)), np.eye(2 ** (n_sites - 2 - i)))

    h0 = sum(bond(sp, sm, i) + bond(sm, sp, i) for i in range(n_sites - 1))
    h1 = sum(bond(sz, sz, i) for i in range(n_sites - 1))
    return J * h0, J * h1


def matrix_function(spec, f):
    """Apply a scalar function to the spectrum: V f(Lambda) V^dag."""
    fe = np.asarray(f(spec.eigenvalues), dtype=complex)
    if not np.all(np.isfinite(fe)):
        raise OverflowError("scalar function is not finite on the spectrum")
    v = spec.eigenvectors
    return OperatorMatrix.from_dense((v * fe) @ v.conj().T, hermitian=False)


def reconstruct(spec):
    """V Lambda V^dag of a spectral decomposition."""
    v = spec.eigenvectors
    return (v * spec.eigenvalues) @ v.conj().T


def total_magnetization(n_sites):
    """Total sigma^z operator (diagonal), for symmetry checks."""
    return OperatorMatrix.from_dense(np.diag(_spins(n_sites).sum(axis=1)).astype(complex))


def measure2_inverse_transform(m, s):
    """Two-point measure in the time domain: sum of weight * exp(-i omega s)."""
    return complex(np.sum(m.weights * np.exp(-1j * m.omegas * s)))


def measure3_inverse_transform(m, s1, s2):
    """Three-point measure in the time domain: sum of weight * exp(-i (omega1 s1 + omega2 s2))."""
    return complex(
        np.sum(m.weights * np.exp(-1j * (m.omega1 * s1 + m.omega2 * s2)))
    )


def _symmetries(blocks: list) -> list[np.ndarray]:
    """Those of the spin flip and the site reflection under which operators given on
    common blocks (``common_blocks``) are exactly invariant: each block maps onto
    a block, and each of its arrays onto that block's."""
    first = {rows[0]: k for k, (rows, _) in enumerate(blocks)}

    def invariant(g, rows, arrays):
        if g[rows].min() not in first:
            return False
        target, images = blocks[first[g[rows].min()]]
        at = np.searchsorted(target, g[rows])
        return np.array_equal(np.sort(g[rows]), target) and all(
            np.array_equal(b[at][:, at], a) for (_, a), (_, b) in zip(arrays, images)
        )

    n_sites = sum(rows.size for rows, _ in blocks).bit_length() - 1
    return [g for g in spin_symmetries(n_sites) if all(invariant(g, *block) for block in blocks)]


def _parity_isometries(rows: np.ndarray, symmetries: list[np.ndarray]) -> list[np.ndarray]:
    """Real orthonormal isometries of the block ``rows`` onto the joint +-1
    eigenspaces of those commuting involutions that map it onto itself.

    Each column is the signed, normalized sum over one orbit of basis states;
    without such a symmetry the block is one identity isometry.
    """
    n = rows.size
    local = [np.searchsorted(rows, g[rows]) for g in symmetries if np.array_equal(np.sort(g[rows]), rows)]
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
            s[perm[orbit_first], columns] += np.prod([signs[k] for k in used])  # one entry per column
        norms = np.linalg.norm(s, axis=0)
        live = norms > 0.5
        if live.any():
            isometries.append(s[:, live] / norms[live])
    return isometries


def symmetry_adapted(h0: OperatorMatrix, h1: OperatorMatrix) -> tuple[OperatorMatrix, OperatorMatrix, tuple]:
    """(H0, H1) on their symmetry-adapted blocks (see the module notes), and the isometries onto them.

    Of the flip and the reflection, those that leave both exactly invariant (``_symmetries``) are
    kept.  A common block that a kept g maps onto an earlier one takes the g-image of that one's
    basis, and so its arrays; any other is split by ``_parity_isometries`` s into the blocks s^T H s
    (a diagonal H1 stays diagonal).  The isometries are (rows, adapted columns, s) triples, the
    adapted columns consecutive: ``dense_view(d, isometries)`` is the orthogonal S with H = S H_adapted S^T.
    """
    blocks = common_blocks(h0.blocks, h1.blocks)
    symmetries = _symmetries(blocks)
    first = {rows[0]: k for k, (rows, _) in enumerate(blocks)}
    parts = []  # per common block, (rows, s, s^T H0 s, s^T H1 s) of each of its adapted blocks
    for k, (rows, ((_, a0), (_, a1))) in enumerate(blocks):
        image = [(first[g[rows].min()], g) for g in symmetries if first[g[rows].min()] < k]
        if image:
            j, g = image[0]
            parts.append([(g[r], s, b0, b1) for r, s, b0, b1 in parts[j]])
        else:
            parts.append([(rows, s, s.T @ a0 @ s, s.T @ a1 @ s) for s in _parity_isometries(rows, symmetries)])
    rows, isometries, b0, b1 = zip(*(part for block in parts for part in block))
    cols = np.split(np.arange(h0.dimension), np.cumsum([s.shape[1] for s in isometries])[:-1])
    return (OperatorMatrix(tuple(zip(cols, cols, b0)), h0.hermitian),
            OperatorMatrix(tuple(zip(cols, cols, b1)), h1.hermitian), tuple(zip(rows, cols, isometries)))
