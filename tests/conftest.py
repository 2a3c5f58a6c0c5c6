import numpy as np
import pytest

from spinwork import OperatorMatrix, SpinChainSpec, build_hopping, build_zz, eigendecompose
from spinwork.spin_model import _spins


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
