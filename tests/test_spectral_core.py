import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from spinwork import (
    DensityMatrix,
    DriveProtocol,
    OperatorMatrix,
    PropagatorResult,
    SpinChainSpec,
    assemble,
    build_hopping,
    build_zz,
    eigendecompose,
    evolve_density,
    gibbs_state,
    infidelity,
    log_partition_function,
    magnetization_sectors,
    propagate,
    thermal_expectation,
    uhlmann_fidelity,
)
from spinwork.spectral_core import SpectralDecomposition
from spinwork.spin_model import common_blocks
from spinwork.work_statistics import _transition_kernel

from conftest import matrix_function, reconstruct, two_site_operators


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_gibbs(h, beta):
    e, v = np.linalg.eigh(h)
    w = np.exp(-beta * (e - e[0]))
    return (v * (w / w.sum())) @ v.conj().T


def sqrt_fidelity(rho, sigma):
    """The dense square-root formula (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    e, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.clip(e, 0.0, None))) @ v.conj().T
    inner = sq @ sigma @ sq
    return np.sum(np.sqrt(np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None))) ** 2


class TestFromDenseBlocks:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_chain_is_blocked_by_magnetization_sector(self, n):
        spec = SpinChainSpec(n, 2.0)
        op = OperatorMatrix.from_dense(build_hopping(spec).matrix + 0.3 * build_zz(spec).matrix)
        expected = magnetization_sectors(n)
        assert len(op.blocks) == n + 1
        assert all(np.array_equal(rows, e) and cols is rows for (rows, cols, _), e in zip(op.blocks, expected))

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_diagonal_pairs_with_built_operator_on_the_shared_blocks(self, n):
        """A diagonal input gets the N + 1 sectors, not 2^N singletons, so
        ``common_blocks`` lines it up with ``build_hopping`` block by block."""
        spec = SpinChainSpec(n, 2.0)
        h0, zz = build_hopping(spec), OperatorMatrix.from_dense(build_zz(spec).matrix)
        assert len(zz.blocks) == n + 1
        common = common_blocks(h0.blocks, zz.blocks)
        assert len(common) == n + 1
        for (rows, ((_, a), (_, b))), (r0, _, a0), (_, _, b0) in zip(common, h0.blocks, zz.blocks):
            assert rows is r0 and a is a0 and b is b0

    def test_sector_coupling_input_is_one_block(self):
        n = 4
        spec = SpinChainSpec(n, 2.0)
        flip0 = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2 ** (n - 1)))  # sigma^x on site 0
        h = build_hopping(spec).matrix + 0.3 * build_zz(spec).matrix + 0.7 * flip0
        op = OperatorMatrix.from_dense(h)
        assert len(op.blocks) == 1
        assert np.array_equal(op.blocks[0][0], np.arange(2**n)) and np.array_equal(op.matrix, h)
        got = eigendecompose(op)
        scale = np.abs(h).max()
        assert np.abs(got.eigenvalues - np.linalg.eigvalsh(h)).max() < 1e-12 * scale
        assert np.linalg.norm(reconstruct(got) - h) < 1e-12 * scale

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("coupled", [False, True], ids=["sectors", "whole"])
    def test_real_input_gives_float64_blocks(self, dtype, coupled):
        """A real array, or a complex one whose imaginary part is exactly zero."""
        spec = SpinChainSpec(4, 2.0)
        h = build_hopping(spec).matrix + 0.3 * build_zz(spec).matrix
        if coupled:
            h = h + 0.7 * np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(8))
        op = OperatorMatrix.from_dense(h.astype(dtype))
        assert len(op.blocks) == (1 if coupled else 5)
        assert all(a.dtype == np.float64 for _, _, a in op.blocks)
        assert np.array_equal(op.matrix, h)

    @pytest.mark.parametrize("coupled", [False, True], ids=["sectors", "whole"])
    def test_complex_hermitian_input_keeps_complex_blocks(self, coupled):
        spec = SpinChainSpec(3, 2.0)
        h = build_hopping(spec).matrix.astype(complex)
        # basis states 1 and 2 share sector 1; states 0 and 1 sit in sectors 0 and 1
        i, j = (0, 1) if coupled else (1, 2)
        h[i, j] += 0.5j
        h[j, i] -= 0.5j
        op = OperatorMatrix.from_dense(h)
        assert len(op.blocks) == (1 if coupled else 4)
        assert all(a.dtype == np.complex128 for _, _, a in op.blocks)
        assert np.array_equal(op.matrix, h)
        got = eigendecompose(op)
        assert all(v.dtype == np.complex128 for _, _, v in got.blocks)
        assert np.abs(reconstruct(got) - h).max() < 1e-12 * np.abs(h).max()

    def test_whole_block_does_not_alias_the_input(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        op = OperatorMatrix.from_dense(m)
        m[0, 1] = 5.0
        assert op.blocks[0][2][0, 1] == 1.0


class TestEigendecompose:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_blocked_matches_dense_eigh(self, n):
        spec = SpinChainSpec(n, 2.0)
        h = build_hopping(spec).matrix + 0.3 * build_zz(spec).matrix
        d = h.shape[0]
        got = eigendecompose(OperatorMatrix.from_dense(h))
        scale = np.abs(h).max()
        assert np.abs(got.eigenvalues - np.linalg.eigvalsh(h)).max() < 1e-12 * scale
        assert np.all(np.diff(got.eigenvalues) >= 0)
        assert np.abs(reconstruct(got) - h).max() < 1e-12 * scale
        v = got.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-12
        assert sorted(tuple(rows) for rows, *_ in got.blocks) == sorted(map(tuple, magnetization_sectors(n)))
        assert np.array_equal(np.sort(np.concatenate([cols for _, cols, _ in got.blocks])), np.arange(d))
        for rows, cols, _ in got.blocks:
            outside = np.ones(d, dtype=bool)
            outside[rows] = False
            assert np.all(v[np.ix_(outside, cols)] == 0)

    def test_real_operator_gives_float64_eigenvectors(self):
        spec = SpinChainSpec(6, 2.0)
        got = eigendecompose(assemble(build_hopping(spec), build_zz(spec), 0.3))
        assert all(v.dtype == np.float64 for _, _, v in got.blocks)
        assert all(x.dtype == np.float64 for _, _, x in gibbs_state(got, 1.0).blocks)

    def test_identity(self):
        spec = eigendecompose(OperatorMatrix.from_dense(np.eye(4, dtype=complex)))
        assert np.allclose(spec.eigenvalues, 1.0)

    def test_two_site_hopping(self):
        spec = eigendecompose(build_hopping(SpinChainSpec(2, 2.0)))
        assert np.allclose(spec.eigenvalues, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_diagonal_input_sorted(self):
        spec = eigendecompose(OperatorMatrix.from_dense(np.diag([3.0, -1.0, 2.0, 0.0]).astype(complex)))
        assert np.allclose(spec.eigenvalues, [-1.0, 0.0, 2.0, 3.0])

    def test_rejects_non_hermitian(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            eigendecompose(OperatorMatrix.from_dense(m, hermitian=False))

    def test_reconstruction_and_orthonormality(self, chain4):
        _, h0, h1, _ = chain4
        h = h0.matrix + 0.3 * h1.matrix
        spec = eigendecompose(OperatorMatrix.from_dense(h))
        scale = np.abs(h).max()
        assert np.linalg.norm(reconstruct(spec) - h) < 1e-10 * scale
        v = spec.eigenvectors
        assert np.linalg.norm(v.conj().T @ v - np.eye(spec.dimension)) < 1e-10


class TestGibbsState:
    def test_low_temperature_limit_projects_on_ground_state(self):
        spec = eigendecompose(OperatorMatrix.from_dense(np.diag([-1.0, 0.3, 0.8, 2.0]).astype(complex)))
        rho = gibbs_state(spec, 200.0)
        ground = np.zeros((4, 4), dtype=complex)
        ground[0, 0] = 1.0
        assert uhlmann_fidelity(rho, DensityMatrix.from_matrix(ground)) > 1 - 1e-8

    def test_zero_hamiltonian_is_maximally_mixed(self):
        spec = eigendecompose(OperatorMatrix.from_dense(np.zeros((8, 8), dtype=complex)))
        rho = gibbs_state(spec, 3.7)
        assert np.abs(rho.matrix - np.eye(8) / 8).max() < 1e-14

    def test_two_site_boltzmann_populations(self):
        spec = eigendecompose(build_hopping(SpinChainSpec(2, 2.0)))
        rho = gibbs_state(spec, 1.0)
        pops = np.real(
            np.einsum("in,ij,jn->n", spec.eigenvectors.conj(), rho.matrix, spec.eigenvectors)
        )
        expected = np.array([np.e**2, 1.0, 1.0, np.e**-2])
        expected /= expected.sum()
        assert np.allclose(pops, expected, atol=1e-13)

    def test_populations_monotone_in_energy(self, chain4):
        _, h0, h1, _ = chain4
        spec = eigendecompose(OperatorMatrix.from_dense(h0.matrix + 0.2 * h1.matrix))
        rho = gibbs_state(spec, 2.0)
        pops = np.real(
            np.einsum("in,ij,jn->n", spec.eigenvectors.conj(), rho.matrix, spec.eigenvectors)
        )
        assert np.all(np.diff(pops) <= 1e-14)

    def test_rejects_bad_beta(self, chain4):
        *_, spec0 = chain4
        for beta in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                gibbs_state(spec0, beta)


class TestStateStorage:
    """A state is its factors: building a Gibbs state allocates no d x d
    array, and evolving one allocates about one (the evolved factors)."""

    def test_gibbs_and_evolution_form_no_dense_state(self):
        spec = SpinChainSpec(9, 2.0)
        h0, h1 = build_hopping(spec), build_zz(spec)
        spec0 = eigendecompose(h0)
        prop = propagate(spec0, h1, DriveProtocol(kind="quench", lambda_final=0.1, t_total=2.0), 0.01)
        dense = 16 * spec0.dimension**2
        tracemalloc.start()
        try:
            rho = gibbs_state(spec0, 1.0)
            held, gibbs_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            evolved = evolve_density(rho, prop)
            evolve_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert evolved.dimension == 512
        assert gibbs_peak < 0.1 * dense
        assert evolve_peak < 1.5 * dense


class TestLogPartitionFunction:
    def test_zero_hamiltonian(self):
        spec = eigendecompose(OperatorMatrix.from_dense(np.zeros((8, 8), dtype=complex)))
        assert abs(log_partition_function(spec, 1.0) - np.log(8)) < 1e-14
        assert abs(log_partition_function(spec, 2.0) - np.log(8)) < 1e-14

    def test_two_site_closed_form(self):
        spec = eigendecompose(build_hopping(SpinChainSpec(2, 2.0)))
        expected = np.log(np.e**2 + 2.0 + np.e**-2)
        assert abs(log_partition_function(spec, 1.0) - expected) < 1e-13

    def test_no_overflow_at_large_beta(self, chain4):
        *_, spec0 = chain4
        assert np.isfinite(log_partition_function(spec0, 1e4))

    @pytest.mark.parametrize("beta", [1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0, 1e2, 1e3, 1e4])
    def test_matches_scipy_logsumexp(self, beta):
        spectra = [SpectralDecomposition(np.array([0.7]), ())]  # one level
        spectra.append(eigendecompose(OperatorMatrix.from_dense(np.diag([-1.5, -1.5, -1.5, 0.25, 0.25, 2.0, 3.0, 3.0]))))
        for n in range(2, 8):
            spec = SpinChainSpec(n, 2.0)
            spectra += [eigendecompose(assemble(build_hopping(spec), build_zz(spec), lam)) for lam in (0.0, 0.1, 1.0)]
        assert sum(np.sum(s.eigenvalues == s.eigenvalues[0]) > 1 for s in spectra) >= 4  # degenerate ground states
        for s in spectra:
            np.testing.assert_array_max_ulp(log_partition_function(s, beta), logsumexp(-beta * s.eigenvalues), maxulp=2)


class TestMatrixFunction:
    def test_identity_map_reconstructs(self, chain4):
        _, h0, _, spec0 = chain4
        out = matrix_function(spec0, lambda x: x)
        assert np.abs(out.matrix - h0.matrix).max() < 1e-12

    def test_zero_time_evolution_is_identity(self, chain4):
        *_, spec0 = chain4
        out = matrix_function(spec0, lambda x: np.exp(-1j * x * 0.0))
        assert np.abs(out.matrix - np.eye(spec0.dimension)).max() < 1e-12

    def test_boltzmann_trace_matches_partition_function(self, chain4):
        *_, spec0 = chain4
        beta = 1.3
        out = matrix_function(spec0, lambda x: np.exp(-beta * x))
        assert np.isclose(
            np.real(np.trace(out.matrix)), np.exp(log_partition_function(spec0, beta))
        )

    def test_unit_circle_gives_unitary(self, chain4):
        *_, spec0 = chain4
        u = matrix_function(spec0, lambda x: np.exp(-1j * x * 0.7)).matrix
        assert np.linalg.norm(u.conj().T @ u - np.eye(spec0.dimension)) < 1e-10

    def test_overflow_guard(self, chain4):
        *_, spec0 = chain4
        with np.errstate(over="ignore"), pytest.raises(OverflowError):
            matrix_function(spec0, lambda x: np.exp(x * 1e6))


class TestThermalExpectation:
    def test_identity_operator(self, chain4):
        *_, spec0 = chain4
        one = OperatorMatrix.from_dense(np.eye(spec0.dimension, dtype=complex))
        assert abs(thermal_expectation(spec0, 1.0, one) - 1.0) < 1e-13

    def test_energy_matches_beta_derivative_of_log_z(self, chain4):
        _, h0, _, spec0 = chain4
        beta, step = 1.0, 1e-5
        energy = thermal_expectation(spec0, beta, h0)
        deriv = -(
            log_partition_function(spec0, beta + step) - log_partition_function(spec0, beta - step)
        ) / (2 * step)
        assert abs(energy - deriv) < 1e-6 * max(abs(deriv), 1.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_trace_with_gibbs_matrix(self, n):
        spec = SpinChainSpec(n, 1.5)
        h0, h1 = build_hopping(spec), build_zz(spec)
        spec0 = eigendecompose(h0)
        for beta, a in ((0.7, h1), (2.0, h0), (1.0, assemble(h0, h1, 0.3))):
            expected = np.real(np.trace(gibbs_state(spec0, beta).matrix @ a.matrix))
            assert abs(thermal_expectation(spec0, beta, a) - expected) < 1e-12

    def test_two_site_brute_force(self):
        h0_ref, h1_ref, _ = two_site_operators(J=2.0)
        evals, evecs = np.linalg.eigh(h0_ref)
        beta = 1.0
        w = np.exp(-beta * (evals - evals.min()))
        w /= w.sum()
        expected = sum(
            w[n] * np.real(np.vdot(evecs[:, n], h1_ref @ evecs[:, n])) for n in range(4)
        )
        spec0 = eigendecompose(build_hopping(SpinChainSpec(2, 2.0)))
        got = thermal_expectation(spec0, beta, build_zz(SpinChainSpec(2, 2.0)))
        assert abs(got - expected) < 1e-12


class TestUhlmannFidelity:
    def test_self_fidelity_is_one(self, chain4):
        *_, spec0 = chain4
        rho = gibbs_state(spec0, 1.0)
        assert abs(uhlmann_fidelity(rho, rho) - 1.0) < 1e-12

    def test_orthogonal_pure_states(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 0] = 1.0
        b = np.zeros((2, 2), dtype=complex)
        b[1, 1] = 1.0
        assert uhlmann_fidelity(DensityMatrix.from_matrix(a), DensityMatrix.from_matrix(b)) < 1e-14

    def test_commuting_mixtures_closed_form(self):
        rho = DensityMatrix.from_matrix(np.diag([0.7, 0.3]).astype(complex))
        sigma = DensityMatrix.from_matrix(np.diag([0.5, 0.5]).astype(complex))
        expected = (np.sqrt(0.35) + np.sqrt(0.15)) ** 2
        assert abs(uhlmann_fidelity(rho, sigma) - expected) < 1e-12

    def test_symmetry(self, chain4):
        _, h0, h1, spec0 = chain4
        rho = gibbs_state(spec0, 1.0)
        sigma = gibbs_state(eigendecompose(OperatorMatrix.from_dense(h0.matrix + 0.3 * h1.matrix)), 1.0)
        assert abs(uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(sigma, rho)) < 1e-10

    def test_invariance_under_commuting_unitary(self, chain4):
        _, h0, _, spec0 = chain4
        rho = gibbs_state(spec0, 1.0)
        u = matrix_function(spec0, lambda x: np.exp(-1j * x * 2.3)).matrix
        rotated = DensityMatrix.from_matrix(u @ rho.matrix @ u.conj().T)
        assert abs(uhlmann_fidelity(rho, rotated) - 1.0) < 1e-10

    def test_joint_unitary_invariance(self, chain4):
        _, h0, h1, spec0 = chain4
        rng = np.random.default_rng(7)
        rho = gibbs_state(spec0, 1.0)
        sigma = gibbs_state(eigendecompose(OperatorMatrix.from_dense(h0.matrix + 0.3 * h1.matrix)), 1.0)
        u = haar_unitary(rho.dimension, rng)
        f0 = uhlmann_fidelity(rho, sigma)
        f1 = uhlmann_fidelity(
            DensityMatrix.from_matrix(u @ rho.matrix @ u.conj().T),
            DensityMatrix.from_matrix(u @ sigma.matrix @ u.conj().T),
        )
        assert abs(f0 - f1) < 1e-10

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            DensityMatrix.from_matrix(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            # the fidelity clips to 1, so 2·I/4 against I/4 would read 1.0
            (2 * np.eye(4) / 4, "trace"),
            (np.eye(4) / 8, "trace"),
            (np.eye(2) / 2 + 1j * np.eye(2) * 1e-3, "Hermitian"),
            # eigh reads one triangle, so this unit-trace matrix would factor as I/2
            (np.array([[0.5, 0.9], [0.0, 0.5]]), "Hermitian"),
        ],
        ids=["trace-2", "trace-half", "complex-diagonal", "one-triangle"],
    )
    def test_rejects_wrong_trace_or_non_hermitian(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            DensityMatrix.from_matrix(matrix.astype(complex))

    def test_infidelity_conventions(self):
        rho = DensityMatrix.from_matrix(np.diag([0.7, 0.3]).astype(complex))
        sigma = DensityMatrix.from_matrix(np.diag([0.5, 0.5]).astype(complex))
        f = uhlmann_fidelity(rho, sigma)
        assert np.isclose(infidelity(rho, sigma), 1 - f)
        assert np.isclose(infidelity(rho, sigma, "one_minus_sqrtF"), 1 - np.sqrt(f))
        with pytest.raises(ValueError):
            infidelity(rho, sigma, "other")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("build", [OperatorMatrix.from_dense, DensityMatrix.from_matrix], ids=["operator", "state"])
def test_non_finite_dense_input_rejected(build, value):
    m = np.eye(4, dtype=complex) / 4
    m[1, 1] = value
    with pytest.raises(ValueError, match="non-finite"):
        build(m)


class TestMismatchedPartitions:
    """Inputs blocked differently are handled on one whole-space block and
    give the dense answer."""

    @staticmethod
    def case(kind):
        rng = np.random.default_rng(3)
        d, beta = 8, 0.5
        h_i = np.diag(rng.normal(size=d)).astype(complex)
        if kind == "dense":
            # diagonal H_i, dense random H_f and a Haar U: one common block
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h_f = (z + z.conj().T) / 2
            return h_i, h_f, haar_unitary(d, rng), ((np.arange(d),) * 2,), 1, beta
        # H_i, H_f and U each in a different pairing, all relabelled by a
        # permutation: each couples magnetization sectors, so U is one block
        # and so is the common partition
        def paired(pairs, make):
            m = np.zeros((d, d), dtype=complex)
            for pair in pairs:
                m[np.ix_(pair, pair)] = make()
            return m

        def hermitian():
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            return (z + z.conj().T) / 2

        h_i = paired([[0, 1], [2, 3], [4, 5], [6, 7]], hermitian)
        h_f = paired([[1, 2], [0, 3], [5, 6], [4, 7]], hermitian)
        u_pairs = [[0, 2], [1, 3], [4, 6], [5, 7]]
        u = paired(u_pairs, lambda: haar_unitary(2, rng))
        perm = rng.permutation(d)
        sub = np.ix_(perm, perm)
        return h_i[sub], h_f[sub], u[sub], ((np.arange(d),) * 2,), 1, beta

    @pytest.mark.parametrize("kind", ["dense", "coarsened"])
    def test_kernel_and_fidelity_equal_dense_formulas(self, kind):
        h_i, h_f, u, blocks, n_common, beta = self.case(kind)
        spec_i, spec_f = eigendecompose(OperatorMatrix.from_dense(h_i)), eigendecompose(OperatorMatrix.from_dense(h_f))
        prop = PropagatorResult(OperatorMatrix.from_dense(u, hermitian=False), 0.0, 0.0)
        assert sorted(tuple(r) for r, *_ in prop.unitary.blocks) == sorted(tuple(r) for r, _ in blocks)
        assert len(common_blocks(prop.unitary.blocks, spec_i.blocks, spec_f.blocks)) == n_common

        _, v_i = np.linalg.eigh(h_i)
        _, v_f = np.linalg.eigh(h_f)
        dense_kernel = np.abs(v_f.conj().T @ u @ v_i) ** 2
        kernel = np.zeros((8, 8))
        for cf, ci, k in _transition_kernel(spec_i, spec_f, prop):
            kernel[np.ix_(cf, ci)] = k
        assert np.abs(kernel - dense_kernel).max() < 1e-13

        rho = evolve_density(gibbs_state(spec_i, beta), prop)
        dense_rho = u @ dense_gibbs(h_i, beta) @ u.conj().T
        assert np.abs(rho.matrix - dense_rho).max() < 1e-14
        expected = sqrt_fidelity(dense_rho, dense_gibbs(h_f, beta))
        assert abs(uhlmann_fidelity(rho, gibbs_state(spec_f, beta)) - expected) < 1e-13


class TestFidelityOracle:
    @pytest.mark.parametrize("beta", [1.0, 4.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_50_digit_square_roots(self, n, beta):
        """Given the program's U, F(U rho0 U^dag, sigma) from 50-digit Gibbs
        states and square roots; the dense double-precision square-root
        formula's error is printed for comparison."""
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        spec = SpinChainSpec(n, 2.0)
        h0, h1 = build_hopping(spec), build_zz(spec)
        h_f = assemble(h0, h1, 0.1)
        protocol = DriveProtocol(kind="ramp_hold", lambda_final=0.1, t_total=3.0, velocity=0.05)
        spec0, spec_f = eigendecompose(h0), eigendecompose(h_f)
        prop = propagate(spec0, h1, protocol, 0.01)
        rho, sigma = evolve_density(gibbs_state(spec0, beta), prop), gibbs_state(spec_f, beta)
        got = uhlmann_fidelity(rho, sigma)
        old = sqrt_fidelity(rho.matrix, sigma.matrix)

        d = h0.dimension
        with mpmath.workdps(50):

            def gibbs(h):
                e, q = mp.eigsy(mp.matrix(h.real.tolist()))
                w = [mp.exp(-beta * (e[k] - min(e))) for k in range(d)]
                return q * mp.diag([x / sum(w) for x in w]) * q.T

            def psd_sqrt(a):
                e, q = mp.eighe(a)
                return q * mp.diag([mp.sqrt(max(e[k], 0)) for k in range(d)]) * q.H

            u = mp.matrix(prop.unitary.matrix.tolist())
            root = psd_sqrt(u * gibbs(h0.matrix) * u.H)
            inner = root * gibbs(h_f.matrix) * root
            e, _ = mp.eighe((inner + inner.H) / 2)
            oracle = float(sum(mp.sqrt(max(e[k], 0)) for k in range(d)) ** 2)

        print(f"N={n} beta={beta}: factor formula error {abs(got - oracle):.1e}, "
              f"square-root formula error {abs(old - oracle):.1e}")
        assert abs(got - oracle) < 1e-13
