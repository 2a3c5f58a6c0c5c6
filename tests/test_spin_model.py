import numpy as np
import pytest

from spinwork import (
    OperatorMatrix,
    SpinChainSpec,
    assemble,
    build_hopping,
    build_zz,
    magnetization_sectors,
)
from spinwork.spin_model import DimensionError, spin_symmetries, total_magnetization, zz_diagonal

from conftest import kron_chain_operators, two_site_operators


def comm_norm(a, b):
    return np.linalg.norm(a @ b - b @ a)


class TestSpinChainSpec:
    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            SpinChainSpec(1, 2.0)

    def test_rejects_nonfinite_coupling(self):
        with pytest.raises(ValueError):
            SpinChainSpec(3, np.inf)

    def test_rejects_periodic(self):
        with pytest.raises(ValueError):
            SpinChainSpec(3, 1.0, boundary="periodic")


class TestBuildHopping:
    def test_two_site_spectrum_matches_brute_force(self):
        h = build_hopping(SpinChainSpec(2, 2.0)).matrix
        h_ref, _, _ = two_site_operators(J=2.0)
        assert np.abs(h - h_ref).max() < 1e-15
        evals = np.linalg.eigvalsh(h)
        assert np.allclose(np.sort(evals), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_zero_coupling_gives_zero_operator(self):
        h = build_hopping(SpinChainSpec(2, 0.0)).matrix
        assert np.abs(h).max() == 0.0

    def test_conserves_magnetization(self):
        h = build_hopping(SpinChainSpec(3, 1.0)).matrix
        sz = total_magnetization(3).matrix
        assert comm_norm(h, sz) < 1e-12 * max(np.abs(h).max(), 1.0)

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            build_hopping(SpinChainSpec(15, 1.0))

    @pytest.mark.parametrize("J", [2.0, -1.3])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_bit_build_equals_kron_chain(self, n, J):
        h0, h1 = kron_chain_operators(n, J)
        spec = SpinChainSpec(n, J)
        assert (build_hopping(spec).matrix == h0).all()
        assert (build_zz(spec).matrix == h1).all()


class TestBuildZz:
    def test_two_site_diagonal(self):
        h = build_zz(SpinChainSpec(2, 2.0)).matrix
        # basis order (uu, ud, du, dd) with site 0 as most significant bit
        assert np.allclose(np.diag(h), [2.0, -2.0, -2.0, 2.0])

    def test_zero_coupling(self):
        assert np.abs(build_zz(SpinChainSpec(2, 0.0)).matrix).max() == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_strictly_diagonal(self, n):
        h = build_zz(SpinChainSpec(n, 1.7)).matrix
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_diagonal_matches_bit_convention(self):
        diag = zz_diagonal(SpinChainSpec(3, 1.0))
        # state |udu> is index 0b010 = 2: z = (+1, -1, +1) -> sum z_i z_{i+1} = -2
        assert diag[2] == -2.0


class TestAssemble:
    def test_zero_lambda_returns_h0(self, chain4):
        _, h0, h1, _ = chain4
        assert np.abs(assemble(h0, h1, 0.0).matrix - h0.matrix).max() == 0.0

    def test_trace_linearity(self):
        spec = SpinChainSpec(2, 2.0)
        h = assemble(build_hopping(spec), build_zz(spec), 0.1)
        assert abs(np.linalg.eigvalsh(h.matrix).sum()) < 1e-12

    def test_unit_lambda_entrywise(self, chain4):
        _, h0, h1, _ = chain4
        assert np.abs(assemble(h0, h1, 1.0).matrix - (h0.matrix + h1.matrix)).max() == 0.0

    def test_dimension_mismatch(self):
        a = build_hopping(SpinChainSpec(2, 1.0))
        b = build_zz(SpinChainSpec(3, 1.0))
        with pytest.raises(DimensionError):
            assemble(a, b, 0.5)


class TestMagnetizationSectors:
    def test_two_site_sizes(self):
        sizes = sorted(len(g) for g in magnetization_sectors(2))
        assert sizes == [1, 1, 2]

    def test_eleven_site_largest(self):
        assert max(len(g) for g in magnetization_sectors(11)) == 462

    def test_three_site_group_count(self):
        assert len(magnetization_sectors(3)) == 4

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_sector_k_is_popcount_k(self, n):
        popcount = np.array([bin(b).count("1") for b in range(2**n)])
        for k, group in enumerate(magnetization_sectors(n)):
            assert np.array_equal(group, np.flatnonzero(popcount == k))

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_partition_is_complete_and_disjoint(self, n):
        groups = magnetization_sectors(n)
        merged = np.sort(np.concatenate(groups))
        assert np.array_equal(merged, np.arange(2**n))


class TestHermiticityAndSymmetry:
    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_parts_are_hermitian(self, n):
        spec = SpinChainSpec(n, 2.0)
        for op in (build_hopping(spec), build_zz(spec)):
            m = op.matrix
            assert np.abs(m - m.conj().T).max() <= 1e-12 * max(np.abs(m).max(), 1.0)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_assembled_commutes_with_magnetization(self, chain4, lam):
        spec, h0, h1, _ = chain4
        h = assemble(h0, h1, lam).matrix
        sz = total_magnetization(spec.n_sites).matrix
        assert comm_norm(h, sz) < 1e-12 * max(np.abs(h).max(), 1.0)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_flip_and_reflection_permutations(self, n):
        flip, reflection = spin_symmetries(n)
        d = 2**n
        assert np.array_equal(flip, [b ^ (d - 1) for b in range(d)])
        assert np.array_equal(reflection, [int(format(b, f"0{n}b")[::-1], 2) for b in range(d)])
        h0, h1 = kron_chain_operators(n, 1.5)
        for g in (flip, reflection):
            assert np.array_equal(h0[np.ix_(g, g)], h0)
            assert np.array_equal(h1[np.ix_(g, g)], h1)

    def test_hermitian_flag_validated(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)
