import tracemalloc

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
from spinwork import spin_model
from spinwork.experiments import _ModelOps
from spinwork.spin_model import (
    DimensionError,
    adapted_chain,
    copies,
    spin_symmetries,
    sublattice_parities,
    zz_diagonal,
)

from conftest import kron_chain_operators, parity, symmetry_adapted, total_magnetization, two_site_operators


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

    def test_dimension_guard(self, monkeypatch):
        # a memory limit that holds one scan point on 4 sites (distinct adapted blocks 1, 2, 2, 3, 1, 2:
        # 23 entries) holds none on 5
        limit = spin_model.POINT_BYTES_PER_ENTRY * 23 + spin_model.POINT_BYTES_FIXED
        monkeypatch.setattr(spin_model, "_memory_limit", lambda: limit)
        assert spin_model.chain_points(4) == 1
        build_hopping(SpinChainSpec(4, 1.0))
        with pytest.raises(DimensionError, match="scan point on 5 sites needs 66 adapted-block entries, an estimated"):
            build_hopping(SpinChainSpec(5, 1.0))

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


class TestRealBlocks:
    """The chain's parts are real symmetric, so they are held as float64 blocks."""

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_builders_and_assemble_give_float64_blocks(self, n):
        spec = SpinChainSpec(n, -1.3)
        h0, h1 = build_hopping(spec), build_zz(spec)
        for op in (h0, h1, assemble(h0, h1, 0.3)):
            assert all(a.dtype == np.float64 for _, _, a in op.blocks)


class TestSublatticeParity:
    def test_sector_blocks_are_coloured_by_up_spins_on_odd_sites(self):
        # in the computational basis the colouring is the sublattice parity itself, up to a swap
        # of the two colours (each sector's first state is even)
        n = 7
        z = spin_model._spins(n)
        sublattice = ((z[:, 1::2] == 1).sum(axis=1) % 2).astype(bool)
        for rows, _, a in build_hopping(SpinChainSpec(n, 1.3)).blocks:
            assert np.array_equal(parity(a), sublattice[rows] ^ sublattice[rows[0]])

    def test_every_part_of_a_disconnected_block_starts_even(self):
        path = np.diag(np.ones(2), 1) + np.diag(np.ones(2), -1)
        a = np.zeros((5, 5))
        a[np.ix_([0, 2, 4], [0, 2, 4])] = path  # the path 0 - 2 - 4, and 1 and 3 apart
        assert parity(a).tolist() == [False, False, True, False, False]

    @pytest.mark.parametrize(
        "a",
        [
            np.ones((3, 3)) - np.eye(3),  # a triangle: an odd cycle
            np.diag([0.0, 1.0]) + np.diag([1.0], 1) + np.diag([1.0], -1),  # a nonzero diagonal entry
            np.array([[0.0, 1j], [-1j, 0.0]]),  # complex: bipartite, but no real gauge
        ],
        ids=["odd-cycle", "diagonal", "complex"],
    )
    def test_no_colouring(self, a):
        assert parity(a) is None

    def test_a_batch_colours_each_block_as_alone(self):
        # one search runs over the whole batch; each block's colouring is its own
        triangle, loop = np.ones((3, 3)) - np.eye(3), np.diag([1.0, 0.0])
        blocks = [loop, *(a for _, _, a in adapted_chain(SpinChainSpec(6, 1.3))[0].blocks), triangle,
                  np.array([[0.0, 1j], [-1j, 0.0]]), np.zeros((3, 3))]
        batch = sublattice_parities(blocks)
        assert len(batch) == len(blocks)
        for a, odd in zip(blocks, batch):
            assert (odd is None and parity(a) is None) or np.array_equal(odd, parity(a))
        assert batch[0] is None and batch[-3] is None and batch[-2] is None and not batch[-1].any()
        assert sublattice_parities([]) == []

    def test_joins_only_opposite_colours_on_the_adapted_blocks(self):
        h0, _ = adapted_chain(SpinChainSpec(9, 1.3))
        for _, _, a in h0.blocks:
            odd = parity(a)
            assert not a[np.ix_(odd, odd)].any() and not a[np.ix_(~odd, ~odd)].any()


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


class TestAdaptedBlockSizes:
    @pytest.mark.parametrize("n", range(2, 14))
    def test_equal_the_built_distinct_blocks(self, n):
        """The orbit build has the reference adapter's blocks, order and flip copies, and H0 bit for bit."""
        spec = SpinChainSpec(n, 2.0)
        h0, h1 = adapted_chain(spec)
        first = copies([a for _, _, a in h0.blocks], [a for _, _, a in h1.blocks])
        assert spin_model.adapted_block_sizes(n) == [h0.blocks[i][0].size for i in dict.fromkeys(first)]
        h0_ref, h1_ref, _ = symmetry_adapted(build_hopping(spec), build_zz(spec))
        assert first == copies([a for _, _, a in h0_ref.blocks], [a for _, _, a in h1_ref.blocks])
        for (cols, _, a), (cols_ref, _, a_ref) in zip(h0.blocks, h0_ref.blocks, strict=True):
            assert np.array_equal(cols, cols_ref) and a.dtype == a_ref.dtype and np.array_equal(a, a_ref)


class TestAdaptedChain:
    @pytest.mark.parametrize("n", range(2, 14))
    def test_h1_blocks_are_exactly_the_zz_diagonal(self, n):
        """H1 is diagonal on each adapted block, each entry exactly one of ``zz_diagonal``'s values
        (the reference's projection s^T H1 s rounds them by up to 3.6e-15 at J = 2)."""
        spec = SpinChainSpec(n, 2.0)
        values = set(zz_diagonal(spec).tolist())
        for _, _, a in adapted_chain(spec)[1].blocks:
            assert a.dtype == np.float64 and np.array_equal(a, np.diag(np.diag(a)))
            assert set(np.diag(a).tolist()) <= values

    def test_model_build_at_twelve_sites_holds_no_dense_projection(self):
        """tracemalloc peak of ``_ModelOps.build`` at N = 12, H0's eigh included: 26.8-32.9 MB, against
        70.3 MB when the sectors of both parts were built and projected densely."""
        tracemalloc.start()
        try:
            _ModelOps.build(SpinChainSpec(12, 2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 45e6


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
            OperatorMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)
