import math
import tracemalloc

import numpy as np
import pytest

from spinwork import work_statistics
from hypothesis import given, settings, strategies as st

from spinwork import (
    DriveProtocol,
    OperatorMatrix,
    SpinChainSpec,
    WorkDistribution,
    average_work,
    build_hopping,
    build_zz,
    cfw_from_distribution,
    cfw_trace,
    phase_linearity,
    default_u_grid,
    delta_concentration,
    eigendecompose,
    evolve_density,
    gibbs_state,
    jarzynski_check,
    mean_energy_change,
    log_partition_function,
    propagate,
    tpm_distribution,
    uhlmann_fidelity,
)
from spinwork.work_statistics import ResolutionError, default_merge_tolerance, distinct_spans, merge_atoms

from conftest import two_site_operators

BETA = 1.0


def brute_force_quench_atoms(J=2.0, lam1=0.1, beta=BETA, t=5.0):
    """Independent 4x4 enumeration of all 16 measurement outcome pairs."""
    h0, h1, _ = two_site_operators(J)
    e_i, v_i = np.linalg.eigh(h0)
    hf = h0 + lam1 * h1
    e_f, v_f = np.linalg.eigh(hf)
    u = v_f @ np.diag(np.exp(-1j * e_f * t)) @ v_f.conj().T
    p = np.exp(-beta * (e_i - e_i.min()))
    p /= p.sum()
    atoms = {}
    for n in range(4):
        for m in range(4):
            amp = v_f[:, m].conj() @ u @ v_i[:, n]
            w = e_f[m] - e_i[n]
            key = round(w, 9)
            atoms[key] = atoms.get(key, 0.0) + abs(amp) ** 2 * p[n]
    works = np.array(sorted(atoms))
    probs = np.array([atoms[k] for k in works])
    return works, probs


def quench_pipeline(n=2, J=2.0, lam1=0.1, beta=BETA, t=5.0):
    spec = SpinChainSpec(n, J)
    h0, h1 = build_hopping(spec), build_zz(spec)
    spec_i = eigendecompose(h0)
    spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + lam1 * h1.matrix))
    protocol = DriveProtocol(kind="quench", lambda_final=lam1, t_total=t)
    prop = propagate(spec_i, h1, protocol, 0.01)
    return h0, h1, spec_i, spec_f, prop


class TestTpmDistribution:
    def test_time_independent_is_single_atom(self, chain4):
        _, h0, h1, spec0 = chain4
        p = DriveProtocol(kind="ramp_hold", lambda_final=0.0, t_total=3.0, velocity=0.0)
        prop = propagate(spec0, h1, p, 0.01)
        dist = tpm_distribution(spec0, spec0, prop, BETA)
        mean = average_work(dist)
        assert abs(mean) < 1e-12
        assert dist.probabilities[np.abs(dist.works) > 1e-10].sum() < 1e-20

    def test_two_site_quench_matches_brute_force(self):
        _, _, spec_i, spec_f, prop = quench_pipeline()
        dist = tpm_distribution(spec_i, spec_f, prop, BETA)
        works_ref, probs_ref = brute_force_quench_atoms()
        # group package atoms the same way as the oracle (1e-9 work bins)
        got = {}
        for w, p in zip(dist.works, dist.probabilities):
            got[round(w, 9)] = got.get(round(w, 9), 0.0) + p
        # the oracle's between-sector outcomes have probability exactly 0 and are not atoms
        assert set(got) == {round(w, 9) for w, p in zip(works_ref, probs_ref) if p != 0.0}
        for w, p in zip(works_ref, probs_ref):
            assert abs(got.get(round(w, 9), 0.0) - p) < 1e-10

    def test_atoms_sum_to_one(self, chain4):
        _, h0, h1, spec0 = chain4
        lam1 = 0.2
        spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + lam1 * h1.matrix))
        p = DriveProtocol(kind="ramp_hold", lambda_final=lam1, t_total=4.0, velocity=0.1)
        dist = tpm_distribution(spec0, spec_f, propagate(spec0, h1, p, 0.02), BETA)
        assert abs(dist.probabilities.sum() - 1.0) < 1e-10

    def test_atom_separation_respects_tolerance(self, chain4):
        _, h0, h1, spec0 = chain4
        spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + 0.1 * h1.matrix))
        prop = propagate(spec0, h1, DriveProtocol(kind="quench", lambda_final=0.1, t_total=2.0), 0.01)
        dist = tpm_distribution(spec0, spec_f, prop, BETA)
        assert np.all(np.diff(dist.works) > dist.merge_tolerance)
        assert dist.merge_tolerance == pytest.approx(
            default_merge_tolerance(spec0, spec_f)
        )

    def test_flat_spectra_give_one_atom(self):
        # J = 0: both Hamiltonians vanish, the merge tolerance is 0 and every work is exactly 0
        _, _, spec_i, spec_f, prop = quench_pipeline(n=4, J=0.0)
        dist = tpm_distribution(spec_i, spec_f, prop, BETA)
        assert dist.merge_tolerance == 0.0
        assert dist.works.tolist() == [0.0]
        assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-14)


    @pytest.mark.parametrize("n", [4, 6])
    def test_raw_atoms_are_the_sector_pairs(self, n, monkeypatch):
        """Raw atoms are built only inside the magnetization sectors: sum_k C(N, k)^2 = C(2N, N)."""
        built = []
        merge = work_statistics.merge_atoms

        def counting_merge(coords, weights, tol):
            built.append(coords.shape[0])
            return merge(coords, weights, tol)

        monkeypatch.setattr(work_statistics, "merge_atoms", counting_merge)
        _, _, spec_i, spec_f, prop = quench_pipeline(n=n)
        tpm_distribution(spec_i, spec_f, prop, BETA)
        assert built == [math.comb(2 * n, n)]


class TestMergeAtoms:
    def test_vectorized_merge_equals_loop(self):
        rng = np.random.default_rng(5)
        n, tol = 20000, 1e-9
        # chains of near-ties on a coarse grid, a third of the atoms without mass
        works = 1.0 + rng.integers(0, 2000, size=n) * 1e-3 + rng.uniform(0.0, 3e-10, size=n)
        probs = rng.uniform(size=n) * (rng.uniform(size=n) > 1 / 3)
        probs[works < 1.2] = 0.0  # whole groups without mass
        got_w, got_p = merge_atoms(works[:, None], probs, tol)
        got_w = got_w[:, 0]

        order = np.argsort(works, kind="stable")
        w, p = works[order], probs[order]
        groups = np.concatenate([[0], np.flatnonzero(np.diff(w) > tol) + 1, [w.size]])
        ref_w, ref_p = [], []
        for a, b in zip(groups[:-1], groups[1:]):
            mass = p[a:b].sum()
            ref_p.append(mass)
            ref_w.append((w[a:b] @ p[a:b]) / mass if mass > 0 else w[a:b].mean())
        assert got_w.size == len(ref_w) < n // 5
        assert np.any(np.array(ref_p) == 0.0)
        np.testing.assert_allclose(got_w, ref_w, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(got_p, ref_p, rtol=1e-15, atol=0.0)


def loop_merge(coords, weights, tol):
    """Chain merge by plain loops: split each group, column by column, where the
    sorted column jumps by more than tol; each group at its |weight|-weighted mean."""
    groups = [list(range(len(weights)))]
    for j in range(coords.shape[1]):
        split = []
        for group in groups:
            members = sorted(group, key=lambda i: coords[i, j])
            current = [members[0]]
            for prev, i in zip(members, members[1:]):
                if coords[i, j] - coords[prev, j] > tol:
                    split.append(current)
                    current = []
                current.append(i)
            split.append(current)
        groups = split
    positions, merged = [], []
    for group in groups:
        group = sorted(group)
        size = np.abs(weights[group])
        total = sum(weights[i] for i in group)
        mass = sum(size)
        row = []
        for j in range(coords.shape[1]):
            acc = 0.0
            for i, z in zip(group, size):
                acc += (z if mass > 0 else 1.0) * coords[i, j]
            row.append(acc / (mass if mass > 0 else len(group)))
        positions.append(row)
        merged.append(total)
    return np.array(positions), np.array(merged)


class TestChainMerge:
    @pytest.mark.parametrize("columns", [1, 2])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_merge_equals_loop(self, columns, dtype):
        rng = np.random.default_rng(11)
        n, tol = 4000, 1e-12
        # few distinct points, each at a rounding boundary (an odd multiple of tol / 2)
        # and jittered across it, so rounding to multiples of tol would split every one
        points = rng.integers(-4, 5, size=(n, columns))
        coords = (np.round(points * 0.37 / tol) + 0.5) * tol + rng.uniform(-0.3, 0.3, (n, columns)) * tol
        weights = rng.normal(size=n).astype(dtype)
        if dtype is complex:
            weights += 1j * rng.normal(size=n)
        weights[points[:, 0] == 4] = 0.0  # whole groups without weight
        positions, merged = merge_atoms(coords, weights, tol)

        ref_positions, ref_merged = loop_merge(coords, weights, tol)
        assert merged.size == len(np.unique(points, axis=0)) == ref_merged.size
        assert np.any(ref_merged == 0.0)
        assert merged.dtype == np.dtype(dtype)
        np.testing.assert_allclose(positions, ref_positions, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(merged, ref_merged, rtol=1e-14, atol=1e-15)


class TestCfwFromDistribution:
    def test_single_atom_is_pure_phase(self):
        d = WorkDistribution(np.array([0.7]), np.array([1.0]), 0.0)
        u = np.linspace(-3, 3, 61)
        c = cfw_from_distribution(d, u)
        assert np.abs(c.chi - np.exp(1j * u * 0.7)).max() < 1e-14
        assert np.abs(c.ln_chi - 1j * u * 0.7).max() < 1e-12

    def test_value_at_zero(self, chain4):
        _, h0, h1, spec0 = chain4
        spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + 0.1 * h1.matrix))
        prop = propagate(spec0, h1, DriveProtocol(kind="quench", lambda_final=0.1, t_total=1.0), 0.01)
        dist = tpm_distribution(spec0, spec_f, prop, BETA)
        c = cfw_from_distribution(dist, np.linspace(-2, 2, 41))
        i0 = np.argmin(np.abs(c.u_grid))
        assert abs(c.chi[i0] - 1.0) < 1e-12
        assert abs(c.ln_chi[i0]) < 1e-12

    def test_symmetric_pair_gives_cosine(self):
        d = WorkDistribution(np.array([-1.3, 1.3]), np.array([0.5, 0.5]), 0.0)
        # stay inside the first zero of the cosine, where ln chi is single-valued
        u = np.linspace(-1.1, 1.1, 81)
        c = cfw_from_distribution(d, u)
        assert np.abs(c.chi - np.cos(1.3 * u)).max() < 1e-14

    def test_magnitude_bounded_by_one(self, chain4):
        _, h0, h1, spec0 = chain4
        spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + 0.3 * h1.matrix))
        prop = propagate(spec0, h1, DriveProtocol(kind="quench", lambda_final=0.3, t_total=1.0), 0.01)
        dist = tpm_distribution(spec0, spec_f, prop, BETA)
        c = cfw_from_distribution(dist, default_u_grid(BETA))
        assert np.abs(c.chi).max() <= 1 + 1e-10

    def test_chunked_sum_matches_direct_formula_in_bounded_memory(self):
        rng = np.random.default_rng(5)
        n = 200_000
        works = np.sort(rng.normal(0.3, 0.2, n))
        probs = rng.random(n)
        probs /= probs.sum()
        u = default_u_grid(BETA)
        tracemalloc.start()
        try:
            c = cfw_from_distribution(WorkDistribution(works, probs, 0.0), u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the direct formula, one u at a time
        direct = np.array([np.exp(1j * x * works) @ probs for x in u])
        assert np.abs(c.chi - direct).max() < 1e-13
        assert peak < u.size * n * 16 / 10

    def test_coarse_grid_raises_resolution_error(self):
        d = WorkDistribution(np.array([50.0]), np.array([1.0]), 0.0)
        with pytest.raises(ResolutionError):
            cfw_from_distribution(d, np.linspace(-1, 1, 5))

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_lattice_sum_matches_direct_sum_on_default_grid(self, monkeypatch, beta):
        """default_u_grid's distinct |u| are bitwise j s_1, so chi is summed by angle
        addition, with no cos or sin, over more than one CHI_CHUNK of atoms."""
        u = default_u_grid(beta)
        spans = distinct_spans(u)[0]
        assert np.array_equal(spans, np.arange(101) * spans[1])
        rng = np.random.default_rng(3)
        works = np.sort(rng.normal(0.3, 0.4, 3 * work_statistics.CHI_CHUNK + 5))
        probs = rng.random(works.size)
        probs /= probs.sum()
        direct = np.array([np.exp(1j * x * works) @ probs for x in u])

        def banned(*args, **kwargs):
            raise AssertionError("the lattice sum takes no cos or sin")

        monkeypatch.setattr(np, "cos", banned)
        monkeypatch.setattr(np, "sin", banned)
        c = cfw_from_distribution(WorkDistribution(works, probs, 0.0), u)
        assert np.abs(c.chi - direct).max() < 1e-14

    @pytest.mark.parametrize("u", [
        default_u_grid(1.0139), np.linspace(-3, 1, 41), np.array([0.5, -0.5, 0.0, 2.0, -2.0, 0.5]),
        np.linspace(-3, -0.5, 26), np.array([-0.0, 0.0]), np.array([]),
    ], ids=["default", "asymmetric", "repeated", "negative", "signed-zeros", "empty"])
    def test_distinct_spans_match_numpy_unique(self, u):
        spans, where = distinct_spans(u)
        want_spans, want_where = np.unique(np.abs(u), return_inverse=True)
        assert np.array_equal(spans, want_spans)
        assert np.array_equal(where, want_where.ravel())

    @pytest.mark.parametrize("u", [np.linspace(-3, 1, 41), np.linspace(-3, -0.5, 26)], ids=["asymmetric", "negative"])
    def test_matches_direct_sum_off_symmetric_grids(self, u):
        rng = np.random.default_rng(11)
        works = np.sort(rng.uniform(-2.0, 2.0, 50))
        probs = rng.random(50)
        probs /= probs.sum()
        c = cfw_from_distribution(WorkDistribution(works, probs, 0.0), u)
        direct = np.array([np.sum(probs * np.exp(1j * x * works)) for x in u])
        assert np.abs(c.chi - direct).max() < 1e-14

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.0139, 2.0])
    def test_default_grid_mirrors_each_node_exactly(self, beta):
        u = default_u_grid(beta)
        assert u.size == 201 and u[100] == 0.0
        assert all(u[k] == -u[-1 - k] for k in range(201))
        assert np.unique(np.abs(u)).size == 101
        # within an ulp of 5 beta of the evenly spaced grid on [-5 beta, 5 beta]
        assert np.abs(u - np.linspace(-5.0 * beta, 5.0 * beta, 201)).max() <= np.spacing(5.0 * beta)

    def test_negative_u_is_exact_conjugate_on_default_grid(self, chain4):
        _, h0, h1, spec0 = chain4
        spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + 0.1 * h1.matrix))
        prop = propagate(spec0, h1, DriveProtocol(kind="quench", lambda_final=0.1, t_total=1.0), 0.01)
        dist = tpm_distribution(spec0, spec_f, prop, BETA)
        u = default_u_grid(BETA)
        c = cfw_from_distribution(dist, u)
        assert np.array_equal(cfw_from_distribution(dist, -u).chi, np.conj(c.chi))
        # the nodes whose exact negation is also a node
        index = {x: k for k, x in enumerate(u.tolist())}
        pairs = [(k, index[-x]) for k, x in enumerate(u.tolist()) if x > 0 and -x in index]
        assert pairs
        for k, j in pairs:
            assert c.chi[j] == np.conj(c.chi[k])


class TestCfwTrace:
    def test_trivial_propagator_gives_unity(self, chain4):
        _, h0, h1, spec0 = chain4
        p = DriveProtocol(kind="ramp_hold", lambda_final=0.0, t_total=2.0, velocity=0.0)
        prop = propagate(spec0, h1, p, 0.01)
        c = cfw_trace(prop, spec0, spec0, BETA, np.linspace(-4, 4, 81))
        assert np.abs(c.chi - 1.0).max() < 1e-10

    def test_routes_agree_on_quench(self):
        _, _, spec_i, spec_f, prop = quench_pipeline()
        u = default_u_grid(BETA)
        c1 = cfw_from_distribution(tpm_distribution(spec_i, spec_f, prop, BETA), u)
        c2 = cfw_trace(prop, spec_i, spec_f, BETA, u)
        assert np.abs(c1.chi - c2.chi).max() < 1e-9
        assert np.abs(c1.ln_chi - c2.ln_chi).max() < 1e-9

    def test_imaginary_u_point_recovers_partition_ratio(self):
        # the analytic continuation u -> i*beta of the trace formula is the
        # exponential-work average; check through the distribution route
        _, _, spec_i, spec_f, prop = quench_pipeline()
        dist = tpm_distribution(spec_i, spec_f, prop, BETA)
        lhs = float(dist.probabilities @ np.exp(-BETA * dist.works))
        ratio = np.exp(
            log_partition_function(spec_f, BETA) - log_partition_function(spec_i, BETA)
        )
        assert abs(lhs - ratio) < 1e-12


class TestWorkDistribution:
    @pytest.mark.parametrize("probabilities", [[np.nan, 1.0], [1.0, np.nan]])
    def test_nan_atom_rejected(self, probabilities):
        # a NaN passes neither the negative-probability nor the normalization gate
        with pytest.raises(ValueError, match="negative or NaN probability atom"):
            WorkDistribution(np.array([0.0, 1.0]), np.array(probabilities), 0.0)


class TestJarzynski:
    def test_time_independent_identity(self, chain4):
        _, h0, h1, spec0 = chain4
        p = DriveProtocol(kind="ramp_hold", lambda_final=0.0, t_total=2.0, velocity=0.0)
        dist = tpm_distribution(spec0, spec0, propagate(spec0, h1, p, 0.01), BETA)
        rep = jarzynski_check(dist, log_partition_function(spec0, BETA), log_partition_function(spec0, BETA), BETA)
        assert rep.ln_lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.ln_rhs == pytest.approx(0.0, abs=1e-12)

    def test_two_site_quench_deviation(self):
        _, _, spec_i, spec_f, prop = quench_pipeline()
        dist = tpm_distribution(spec_i, spec_f, prop, BETA)
        rep = jarzynski_check(
            dist, log_partition_function(spec_i, BETA), log_partition_function(spec_f, BETA), BETA
        )
        assert rep.rel_deviation < 1e-10

    @pytest.mark.parametrize("beta", [100.0, 1000.0])
    def test_large_beta_deviation_is_relative_and_finite(self, beta):
        # <exp(-beta w)> and Z_f / Z_i are ~e^{0.2 beta} here (e^{200} at beta = 1000, past
        # what an absolute difference of the two can resolve); their logs are not
        _, _, spec_i, spec_f, prop = quench_pipeline(beta=beta)
        dist = tpm_distribution(spec_i, spec_f, prop, beta)
        rep = jarzynski_check(
            dist, log_partition_function(spec_i, beta), log_partition_function(spec_f, beta), beta
        )
        assert rep.ln_rhs > 0.1 * beta
        assert rep.rel_deviation < 1e-10

    def test_atoms_of_zero_probability_are_left_out(self):
        # w = -1000 at p = 0 would overflow exp(-beta w); the log-sum-exp skips it
        dist = WorkDistribution(np.array([-1000.0, 0.5]), np.array([0.0, 1.0]), 0.0)
        rep = jarzynski_check(dist, 0.0, -1.0, 2.0)
        assert rep.ln_lhs == -1.0
        assert rep.rel_deviation == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 4),
        beta=st.sampled_from([0.5, 1.0, 2.0]),
        lam1=st.floats(-0.4, 0.4).filter(lambda x: abs(x) > 1e-3),
        velocity=st.floats(0.02, 5.0),
        quench=st.booleans(),
    )
    def test_identity_holds_for_random_protocols(self, n, beta, lam1, velocity, quench):
        spec = SpinChainSpec(n, 2.0)
        h0, h1 = build_hopping(spec), build_zz(spec)
        spec_i = eigendecompose(h0)
        spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + lam1 * h1.matrix))
        if quench:
            protocol = DriveProtocol(kind="quench", lambda_final=lam1, t_total=2.0)
        else:
            t_r = abs(lam1) / velocity
            protocol = DriveProtocol(
                kind="ramp_hold", lambda_final=lam1, t_total=max(t_r, 2.0), velocity=velocity
            )
        prop = propagate(spec_i, h1, protocol, 0.1)
        dist = tpm_distribution(spec_i, spec_f, prop, beta)
        rep = jarzynski_check(
            dist,
            log_partition_function(spec_i, beta),
            log_partition_function(spec_f, beta),
            beta,
        )
        assert rep.rel_deviation < 1e-8
        # first-law bound: mean work dominates the free-energy difference
        delta_f = -(log_partition_function(spec_f, beta) - log_partition_function(spec_i, beta)) / beta
        assert average_work(dist) >= delta_f - 1e-10


class TestAverageWorkAndEnergyBalance:
    def test_single_atom(self):
        d = WorkDistribution(np.array([0.42]), np.array([1.0]), 0.0)
        assert average_work(d) == pytest.approx(0.42)

    def test_symmetric_pair(self):
        d = WorkDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 0.0)
        assert average_work(d) == 0.0

    def test_identical_states_give_zero(self, chain4):
        _, h0, _, spec0 = chain4
        rho = gibbs_state(spec0, BETA)
        assert mean_energy_change(rho, h0, rho, h0) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_traceless(self, chain4):
        _, h0, h1, _ = chain4
        from spinwork import DensityMatrix

        d = h0.dimension
        mixed = DensityMatrix.from_matrix(np.eye(d, dtype=complex) / d)
        assert abs(mean_energy_change(mixed, h0, mixed, h1)) < 1e-14

    def test_mean_work_identity_on_quench(self):
        h0, h1, spec_i, spec_f, prop = quench_pipeline()
        dist = tpm_distribution(spec_i, spec_f, prop, BETA)
        rho0 = gibbs_state(spec_i, BETA)
        rho_f = evolve_density(rho0, prop)
        hf = OperatorMatrix.from_dense(h0.matrix + 0.1 * h1.matrix)
        assert abs(average_work(dist) - mean_energy_change(rho_f, hf, rho0, h0)) < 1e-10


class TestDeltaConcentration:
    def test_atom_of_zero_probability_adds_nothing(self):
        # its squared distance from the mean overflows, and 0 * inf would make the variance NaN
        d = WorkDistribution(np.array([-1e300, 1e300]), np.array([0.0, 1.0]), 0.0)
        with np.errstate(over="ignore"):
            assert delta_concentration(d, 1e-6).variance == 0.0

    def test_time_independent_is_delta(self, chain4):
        _, h0, h1, spec0 = chain4
        p = DriveProtocol(kind="ramp_hold", lambda_final=0.0, t_total=3.0, velocity=0.0)
        dist = tpm_distribution(spec0, spec0, propagate(spec0, h1, p, 0.01), BETA)
        rep = delta_concentration(dist, 1e-6 * 2 * spec0.spectral_range)
        assert rep.is_delta
        assert rep.variance < 1e-20

    def test_quench_is_not_delta(self):
        _, _, spec_i, spec_f, prop = quench_pipeline()
        dist = tpm_distribution(spec_i, spec_f, prop, BETA)
        works_ref, probs_ref = brute_force_quench_atoms()
        mean = probs_ref @ works_ref
        assert probs_ref @ (works_ref - mean) ** 2 > 1e-6  # genuinely spread
        rep = delta_concentration(dist, 1e-6 * (spec_i.spectral_range + spec_f.spectral_range))
        assert not rep.is_delta

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6), st.integers(0, 2**31 - 1))
    def test_variance_nonnegative(self, works, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(len(works)) + 1e-3
        p /= p.sum()
        d = WorkDistribution(np.array(sorted(set(works))), p[: len(set(works))] / p[: len(set(works))].sum(), 0.0)
        assert delta_concentration(d, 1e-3).variance >= 0.0


class TestDeltaImpliesTargetReached:
    def test_identity_shift_interaction_reaches_target_gibbs(self, chain4):
        # interaction proportional to the identity: the distribution is a
        # point mass and the evolved state is exactly the target Gibbs state
        _, h0, _, spec0 = chain4
        d = h0.dimension
        h1 = OperatorMatrix.from_dense(np.eye(d, dtype=complex) * 1.3)
        lam1 = 0.2
        spec_f = eigendecompose(OperatorMatrix.from_dense(h0.matrix + lam1 * h1.matrix))
        prop = propagate(spec0, h1, DriveProtocol(kind="quench", lambda_final=lam1, t_total=3.0), 0.01)
        dist = tpm_distribution(spec0, spec_f, prop, BETA)
        rep = delta_concentration(dist, 1e-6 * (spec0.spectral_range + spec_f.spectral_range + 1.0))
        assert rep.is_delta
        rho_f = evolve_density(gibbs_state(spec0, BETA), prop)
        assert uhlmann_fidelity(rho_f, gibbs_state(spec_f, BETA)) > 1 - 1e-8


class TestPhaseLinearity:
    def test_single_atom_fit(self):
        d = WorkDistribution(np.array([0.37]), np.array([1.0]), 0.0)
        rep = phase_linearity(cfw_from_distribution(d, np.linspace(-3, 3, 121)))
        assert rep.w0_fit == pytest.approx(0.37, abs=1e-12)
        assert rep.max_abs_residual < 1e-12
        assert rep.max_abs_re < 1e-12

    def test_quench_has_nonzero_residual(self):
        _, _, spec_i, spec_f, prop = quench_pipeline()
        dist = tpm_distribution(spec_i, spec_f, prop, BETA)
        rep = phase_linearity(cfw_from_distribution(dist, default_u_grid(BETA)))
        assert rep.max_abs_residual > 1e-6

    def test_cosine_has_nonpositive_log_magnitude(self):
        d = WorkDistribution(np.array([-0.9, 0.9]), np.array([0.5, 0.5]), 0.0)
        u = np.linspace(-1.5, 1.5, 101)
        c = cfw_from_distribution(d, u)
        assert np.max(np.real(c.ln_chi)) <= 1e-15


class TestWriteCsv:
    def test_bytes_match_repr_of_float_per_cell(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        special = np.array([-0.0, np.nan, np.inf, -np.inf, 1e-300, tiny, 2.2250738585072014e-308 / 3, 0.1])
        columns = [
            special,
            special[::-1].copy(),
            [np.float64(x) for x in special],
            special.tolist(),
            np.arange(special.size),
            [True, False] * 4,
            special.astype(np.float32),
        ]
        path = tmp_path / "c.csv"
        work_statistics.write_csv(path, [f"c{k}" for k in range(len(columns))], columns)
        rows = zip(*columns)
        expected = ",".join(f"c{k}" for k in range(len(columns))) + "\n"
        expected += "".join(",".join(repr(float(x)) for x in row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode("utf-8")
        lines = path.read_text().split("\n")
        assert lines[1].split(",")[:2] == ["-0.0", "0.1"]
        assert lines[6].split(",")[0] == "5e-324"

    def test_column_formatting_matches_the_per_row_formulation(self, tmp_path):
        # the writer reprs column by column; joining repr of every cell row by row gives the same bytes
        rng = np.random.default_rng(3)
        values = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1.0, -2.0, 3.0, 1e16, 1843.0])
        columns = [rng.permutation(values), values, np.arange(values.size), rng.normal(size=values.size) * 1e-13]
        path = tmp_path / "c.csv"
        work_statistics.write_csv(path, ["a", "b", "c", "d"], columns)
        cells = [np.asarray(c, dtype=float).tolist() for c in columns]
        per_row = "\n".join(["a,b,c,d"] + [",".join(map(repr, row)) for row in zip(*cells)]) + "\n"
        assert path.read_bytes() == per_row.encode("utf-8")

    def test_no_rows_writes_header_only(self, tmp_path):
        path = tmp_path / "c.csv"
        work_statistics.write_csv(path, ["a", "b"], [np.array([]), []])
        assert path.read_bytes() == b"a,b\n"
