import tracemalloc

import numpy as np
import pytest

import spinwork.perturbative_cfw as pcfw
from spinwork import (
    CfwSamples,
    DriveProtocol,
    OperatorMatrix,
    SpinChainSpec,
    build_hopping,
    build_zz,
    cfw_from_distribution,
    phase_linearity,
    eigendecompose,
    first_cumulant,
    gibbs_state,
    lnchi_second_order,
    lnchi_second_order_quadrature,
    lnchi_third_order_adiabatic,
    propagate,
    three_point_measure,
    thermal_expectation,
    tpm_distribution,
    two_point_measure,
)
from spinwork.perturbative_cfw import (
    DegenerateAtomWarning,
    QuadratureError,
    _gl_leg,
    MERGE_TOLERANCE,
    _legs,
    default_omega_floor,
    third_order_adiabatic_coefficient,
)

from spinwork.spin_model import DimensionError
from spinwork.work_statistics import merge_atoms

from conftest import two_site_operators

BETA = 1.0


def boltzmann(evals, beta):
    w = np.exp(-beta * (evals - evals.min()))
    return w / w.sum()


def without_first_order(c, lam1, first_cum):
    """ln chi minus the exactly linear first-order shift i u lam1 <H1>_0.

    Every completed protocol carries that same shift, so a linearity residual
    normalized by the full fitted w0 would measure second order over first
    order (proportional to lam1) rather than the protocol's nonlinearity.
    """
    ln = c.ln_chi - 1j * c.u_grid * lam1 * first_cum
    return CfwSamples(c.u_grid, np.exp(ln), ln)


def block_diagonal_variance(h0, h1, beta):
    """Thermal variance of H1 diagonalized inside each degenerate eigenspace of H0."""
    evals, evecs = np.linalg.eigh(h0.matrix)
    p = boltzmann(evals, beta)
    values, probs = [], []
    start = 0
    while start < len(evals):
        stop = start + 1
        while stop < len(evals) and evals[stop] - evals[start] < 1e-9:
            stop += 1
        block = evecs[:, start:stop]
        values.extend(np.linalg.eigvalsh(block.conj().T @ h1.matrix @ block))
        probs.extend(p[start:stop])
        start = stop
    values, probs = np.array(values), np.array(probs)
    return float(probs @ values**2 - (probs @ values) ** 2)


def exact_lnchi(h0, h1, lam1, beta, u, protocol=None, dt=0.005):
    spec_i = eigendecompose(h0)
    spec_f = eigendecompose(OperatorMatrix(h0.matrix + lam1 * h1.matrix))
    if protocol is None:
        protocol = DriveProtocol(kind="quench", lambda_final=lam1, t_total=1.0)
    prop = propagate(h0, h1, protocol, dt)
    dist = tpm_distribution(spec_i, spec_f, prop, beta)
    return cfw_from_distribution(dist, u)


class TestFirstCumulant:
    def test_infinite_temperature_limit_of_traceless_operator(self, chain4):
        _, _, h1, spec0 = chain4
        assert abs(first_cumulant(spec0, h1, 1e-9)) < 1e-7

    def test_two_site_brute_force(self):
        h0_ref, h1_ref, _ = two_site_operators(2.0)
        evals, evecs = np.linalg.eigh(h0_ref)
        p = boltzmann(evals, BETA)
        expected = sum(
            p[n] * np.real(np.vdot(evecs[:, n], h1_ref @ evecs[:, n])) for n in range(4)
        )
        spec0 = eigendecompose(build_hopping(SpinChainSpec(2, 2.0)))
        got = first_cumulant(spec0, build_zz(SpinChainSpec(2, 2.0)), BETA)
        assert abs(got - expected) < 1e-12

    def test_identity_interaction(self, chain4):
        *_, spec0 = chain4
        c = 1.7
        op = OperatorMatrix(c * np.eye(spec0.dimension, dtype=complex))
        assert first_cumulant(spec0, op, BETA) == pytest.approx(c, abs=1e-12)


def brute_force_measure2(h0_ref, h1_ref, beta):
    evals, evecs = np.linalg.eigh(h0_ref)
    a = evecs.conj().T @ h1_ref @ evecs
    p = boltzmann(evals, beta)
    d = len(evals)
    atoms = {}
    for n in range(d):
        for m in range(d):
            key = round(evals[m] - evals[n], 12)
            atoms[key] = atoms.get(key, 0.0) - p[n] * abs(a[n, m]) ** 2
    mean = sum(p[n] * np.real(a[n, n]) for n in range(d))
    atoms[0.0] = atoms.get(0.0, 0.0) + mean**2
    return atoms


def close_pairs(coords, tol=1e-11):
    """Number of atom pairs that lie within tol of each other in every coordinate."""
    count = 0
    for start in range(0, coords.shape[0], 512):
        near = np.ones((min(512, coords.shape[0] - start), coords.shape[0]), dtype=bool)
        for j in range(coords.shape[1]):
            near &= np.abs(np.subtract.outer(coords[start : start + 512, j], coords[:, j])) <= tol
        count += int(near.sum()) - near.shape[0]
    return count // 2


class TestMeasureAtomSets:
    """At these couplings (the N = 7 quench benchmark's seed 10) degenerate
    frequencies straddle multiples of 1e-12, where a rounding merge splits them."""

    @pytest.fixture(scope="class")
    def seed10(self):
        spec = SpinChainSpec(7, 2.005712207575193)
        return eigendecompose(build_hopping(spec)), build_zz(spec), 0.9971555621870046

    def test_two_point_atoms_are_whole_and_mirror_symmetric(self, seed10):
        m = two_point_measure(*seed10)
        assert m.omegas.size == 125
        assert close_pairs(m.omegas[:, None]) == 0
        assert np.abs(np.sort(-m.omegas) - m.omegas).max() < 1e-12

    def test_three_point_atoms_are_whole(self, seed10):
        m = three_point_measure(*seed10)
        assert m.weights.size == 6859
        assert close_pairs(np.stack([m.omega1, m.omega2], axis=1)) == 0


class TestTwoPointMeasure:
    def test_commuting_interaction_concentrates_at_zero(self, chain4):
        _, h0, _, spec0 = chain4
        h1c = OperatorMatrix(h0.matrix @ h0.matrix)  # commutes with h0
        m = two_point_measure(spec0, h1c, BETA)
        off = np.abs(m.omegas) > 1e-9
        assert np.abs(m.weights[off]).max() < 1e-12

    def test_two_site_brute_force(self):
        h0_ref, h1_ref, _ = two_site_operators(2.0)
        expected = brute_force_measure2(h0_ref, h1_ref, BETA)
        spec0 = eigendecompose(build_hopping(SpinChainSpec(2, 2.0)))
        m = two_point_measure(spec0, build_zz(SpinChainSpec(2, 2.0)), BETA)
        got = {round(o, 9): w for o, w in zip(m.omegas, m.weights)}
        assert len(got) == len({round(k, 9) for k in expected})
        for key, w in expected.items():
            assert abs(got[round(key, 9)] - w) < 1e-10

    def test_inverse_transform_at_zero_is_negative_variance(self, chain4):
        _, _, h1, spec0 = chain4
        m = two_point_measure(spec0, h1, BETA)
        h1sq = OperatorMatrix(h1.matrix @ h1.matrix)
        var = thermal_expectation(spec0, BETA, h1sq) - first_cumulant(spec0, h1, BETA) ** 2
        assert abs(m.inverse_transform(0.0) - (-var)) < 1e-10

    def test_detailed_balance_asymmetry(self, chain4):
        _, _, h1, spec0 = chain4
        m = two_point_measure(spec0, h1, BETA)
        lookup = {round(o, 9): w for o, w in zip(m.omegas, m.weights)}
        checked = 0
        for o, w in lookup.items():
            if o <= 1e-6 or abs(w) < 1e-12:
                continue
            partner = lookup.get(round(-o, 9))
            if partner is None:
                continue
            assert partner / w == pytest.approx(np.exp(-BETA * o), rel=1e-9)
            checked += 1
        assert checked >= 3

    def test_weights_are_real(self, chain4):
        _, _, h1, spec0 = chain4
        m = two_point_measure(spec0, h1, BETA)
        assert m.weights.dtype == np.float64


def brute_force_measure3(h0_ref, h1_ref, beta):
    """Full connected three-point atoms by explicit loops over index triples."""
    evals, evecs = np.linalg.eigh(h0_ref)
    a = evecs.conj().T @ h1_ref @ evecs
    p = boltzmann(evals, beta)
    d = len(evals)
    mean = sum(p[n] * np.real(a[n, n]) for n in range(d))
    atoms = {}

    def add(o1, o2, w):
        key = (round(o1, 9), round(o2, 9))
        atoms[key] = atoms.get(key, 0.0 + 0.0j) + w

    for n in range(d):
        for m in range(d):
            for k in range(d):
                add(evals[m] - evals[n], evals[k] - evals[m], p[n] * a[n, m] * a[m, k] * a[k, n])
    for n in range(d):
        for m in range(d):
            pair = p[n] * abs(a[n, m]) ** 2
            gap = evals[m] - evals[n]
            add(gap, -gap, -mean * pair)   # <AB><C>
            add(gap, 0.0, -mean * pair)    # <AC><B>
            add(0.0, gap, -mean * pair)    # <BC><A>
    add(0.0, 0.0, 2 * mean**3)
    return {key: (-1j) ** 3 * w for key, w in atoms.items() if abs(w) > 0.0}


def dense_measure3(h0_spec, h1, beta):
    """The d^3 construction: every raw atom (n, m, k) and every pair subtraction over
    the whole space, merged by the same chain merge as three_point_measure.  Also
    returns the weight scale, the largest weight before the merge cancels any."""
    v = h0_spec.eigenvectors
    a = v.conj().T @ h1.matrix @ v
    e = h0_spec.eigenvalues
    p = np.exp(-beta * (e - e.min()))
    p /= p.sum()
    d = e.shape[0]
    mean = float(np.real(p @ np.diag(a)))
    gap = np.subtract.outer(e, e)
    coords = np.zeros((d**3 + 3 * d * d + 1, 2))
    raw = coords[: d**3].reshape(d, d, d, 2)
    raw[..., 0] = -gap[:, :, None]
    raw[..., 1] = gap.T[None, :, :]
    sub = coords[d**3 : -1].reshape(3, d * d, 2)
    sub[0, :, 0] = sub[1, :, 0] = -gap.ravel()
    sub[0, :, 1] = gap.ravel()
    sub[2, :, 1] = -gap.ravel()
    pair = p[:, None] * np.abs(a) ** 2
    weights = np.concatenate(
        [np.einsum("n,nm,mk,kn->nmk", p, a, a, a).ravel()]
        + [-mean * pair.ravel()] * 3
        + [np.array([2 * mean**3])]
    )
    scale = np.abs(weights).max()
    coords, merged_w = merge_atoms(coords, weights, MERGE_TOLERANCE)
    keep = np.abs(merged_w) > 0.0
    return coords[keep], (-1j) ** 3 * merged_w[keep], scale


def assert_matches_dense(m, h0_spec, h1, beta):
    coords, weights, scale = dense_measure3(h0_spec, h1, beta)
    assert m.weights.size == weights.size
    assert np.abs(m.omega1 - coords[:, 0]).max() <= 1e-12 * max(1.0, m.frequency_scale)
    assert np.abs(m.omega2 - coords[:, 1]).max() <= 1e-12 * max(1.0, m.frequency_scale)
    assert np.abs(m.weights - weights).max() <= 1e-12 * scale


class TestThreePointMeasure:
    @pytest.mark.parametrize("beta", [1.0, 4.0])
    @pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
    def test_per_block_matches_dense(self, n_sites, beta):
        spec = SpinChainSpec(n_sites, 2.0)
        spec0, h1 = eigendecompose(build_hopping(spec)), build_zz(spec)
        assert_matches_dense(three_point_measure(spec0, h1, beta), spec0, h1, beta)

    @pytest.mark.parametrize("beta", [1.0, 4.0])
    @pytest.mark.parametrize("n_sites", [3, 5])
    def test_sector_coupling_term_matches_dense(self, n_sites, beta):
        # a random Hermitian term couples the sectors, so a is one block
        spec = SpinChainSpec(n_sites, 2.0)
        spec0 = eigendecompose(build_hopping(spec))
        rng = np.random.default_rng(n_sites)
        z = rng.normal(size=(spec0.dimension,) * 2) + 1j * rng.normal(size=(spec0.dimension,) * 2)
        h1 = OperatorMatrix(build_zz(spec).matrix + 0.3 * (z + z.conj().T))
        m = three_point_measure(spec0, h1, beta)
        assert_matches_dense(m, spec0, h1, beta)
        assert len(spec0.blocks) == n_sites + 1

    def test_allocation_stays_per_block(self):
        spec = SpinChainSpec(7, 2.0)
        spec0, h1 = eigendecompose(build_hopping(spec)), build_zz(spec)
        tracemalloc.start()
        try:
            m = three_point_measure(spec0, h1, BETA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.weights.size > 0
        assert peak < 40 * 2**20

    def test_memory_guard_names_atoms_and_estimate(self, chain4, monkeypatch):
        _, _, h1, spec0 = chain4
        # the chain's sectors have sizes 1, 4, 6, 4, 1
        atoms = (1 + 64 + 216 + 64 + 1) + 3 * (1 + 16 + 36 + 16 + 1) + 1
        monkeypatch.setattr(pcfw, "_memory_limit", lambda: atoms * pcfw.THREE_POINT_BYTES_PER_ATOM - 1)
        with pytest.raises(DimensionError, match=f"needs {atoms} atoms, an estimated"):
            three_point_measure(spec0, h1, BETA)
        monkeypatch.setattr(pcfw, "_memory_limit", lambda: atoms * pcfw.THREE_POINT_BYTES_PER_ATOM)
        three_point_measure(spec0, h1, BETA)

    def test_identity_interaction_has_no_connected_weight(self, chain4):
        *_, spec0 = chain4
        op = OperatorMatrix(0.9 * np.eye(spec0.dimension, dtype=complex))
        m = three_point_measure(spec0, op, BETA)
        assert np.abs(m.weights).sum() < 1e-10

    def test_two_site_brute_force(self):
        h0_ref, h1_ref, _ = two_site_operators(2.0)
        expected = brute_force_measure3(h0_ref, h1_ref, BETA)
        spec0 = eigendecompose(build_hopping(SpinChainSpec(2, 2.0)))
        m = three_point_measure(spec0, build_zz(SpinChainSpec(2, 2.0)), BETA)
        got = {(round(o1, 9), round(o2, 9)): w for o1, o2, w in zip(m.omega1, m.omega2, m.weights)}
        for key, w in expected.items():
            assert abs(got.get(key, 0.0) - w) < 1e-10
        for key, w in got.items():
            assert abs(expected.get(key, 0.0) - w) < 1e-10

    def test_weights_complex_for_complex_interaction(self):
        rng = np.random.default_rng(3)
        d = 8
        h0 = np.diag(np.sort(rng.normal(size=d))).astype(complex)
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h1 = OperatorMatrix((z + z.conj().T) / 2)
        spec0 = eigendecompose(OperatorMatrix(h0))
        m = three_point_measure(spec0, h1, BETA)
        assert np.abs(np.imag(m.weights)).max() > 1e-6

    def test_inverse_transform_reproduces_third_cumulant(self, chain4):
        _, _, h1, spec0 = chain4
        m = three_point_measure(spec0, h1, BETA)
        h1sq = OperatorMatrix(h1.matrix @ h1.matrix)
        h1cu = OperatorMatrix(h1.matrix @ h1.matrix @ h1.matrix)
        m1 = first_cumulant(spec0, h1, BETA)
        m2 = thermal_expectation(spec0, BETA, h1sq)
        m3 = thermal_expectation(spec0, BETA, h1cu)
        cum3 = m3 - 3 * m2 * m1 + 2 * m1**3
        assert abs(m.inverse_transform(0.0, 0.0) - (-1j) ** 3 * cum3) < 1e-10


class TestSecondOrder:
    def test_zero_coupling_vanishes(self, chain4):
        _, _, h1, spec0 = chain4
        m2 = two_point_measure(spec0, h1, BETA)
        p = DriveProtocol(kind="quench", lambda_final=0.0, t_total=1.0)
        u = np.linspace(-5, 5, 41)
        out = lnchi_second_order(m2, p, first_cumulant(spec0, h1, BETA), 0.0, u)
        assert np.abs(out.ln_chi).max() == 0.0

    def test_quench_residual_scales_as_coupling_cubed(self, chain4):
        _, h0, h1, spec0 = chain4
        m2 = two_point_measure(spec0, h1, BETA)
        fc = first_cumulant(spec0, h1, BETA)
        u = np.linspace(-5, 5, 41)
        residuals = []
        lams = [0.05, 0.1, 0.2]
        for lam in lams:
            protocol = DriveProtocol(kind="quench", lambda_final=lam, t_total=1.0)
            pert = lnchi_second_order(m2, protocol, fc, lam, u)
            exact = exact_lnchi(h0, h1, lam, BETA, u, protocol)
            residuals.append(np.abs(exact.ln_chi - pert.ln_chi).max())
        slope = np.polyfit(np.log(lams), np.log(residuals), 1)[0]
        assert 2.5 <= slope <= 3.5

    def test_slow_ramp_prediction_is_linear_in_u(self, chain4):
        _, _, h1, spec0 = chain4
        m2 = two_point_measure(spec0, h1, BETA)
        fc = first_cumulant(spec0, h1, BETA)
        lam = 0.1
        protocol = DriveProtocol(
            kind="ramp_hold", lambda_final=lam, t_total=lam / 1e-3, velocity=1e-3
        )
        pert = lnchi_second_order(m2, protocol, fc, lam, np.linspace(-5, 5, 101))
        rep = phase_linearity(pert)
        assert rep.rel_residual < 1e-3

    def test_quench_prediction_violates_linearity(self, chain4):
        # measured: net of the first-order shift, the quench's imaginary
        # nonlinearity is 3.4e-2 of the second-order shift scale at any lam,
        # and the real part departs at the 30% level
        _, _, h1, spec0 = chain4
        m2 = two_point_measure(spec0, h1, BETA)
        fc = first_cumulant(spec0, h1, BETA)
        lam = 0.1
        protocol = DriveProtocol(kind="quench", lambda_final=lam, t_total=1.0)
        pert = lnchi_second_order(m2, protocol, fc, lam, np.linspace(-5, 5, 101))
        rep = phase_linearity(without_first_order(pert, lam, fc))
        assert rep.rel_residual > 1e-2
        assert rep.max_abs_re > 0.1

    def test_report_carries_zero_frequency_weight(self, chain4):
        _, _, h1, spec0 = chain4
        m2 = two_point_measure(spec0, h1, BETA)
        fc = first_cumulant(spec0, h1, BETA)
        protocol = DriveProtocol(kind="quench", lambda_final=0.1, t_total=1.0)
        _, report = lnchi_second_order(
            m2, protocol, fc, 0.1, np.linspace(-5, 5, 21), return_report=True
        )
        # the chain carries thermal variance of the conserved diagonal part
        assert report.zero_frequency_weight < -1e-3

    @pytest.mark.parametrize("n_sites", [3, 4, 5, 6])
    def test_zero_frequency_weight_is_minus_block_diagonal_variance(self, n_sites):
        # the slow-ramp floor (beta^2/4) lam^2 Var_p(block-diag H1) is read off g0
        spec = SpinChainSpec(n_sites, 2.0)
        h0, h1 = build_hopping(spec), build_zz(spec)
        spec0 = eigendecompose(h0)
        m2 = two_point_measure(spec0, h1, BETA)
        protocol = DriveProtocol(kind="quench", lambda_final=0.1, t_total=1.0)
        _, report = lnchi_second_order(
            m2, protocol, first_cumulant(spec0, h1, BETA), 0.1, np.zeros(1), return_report=True
        )
        assert abs(report.zero_frequency_weight + block_diagonal_variance(h0, h1, BETA)) <= 1e-12

    def test_quasi_degenerate_atoms_warn(self):
        floor_scale = default_omega_floor(1.0)
        h0 = OperatorMatrix(np.diag([0.0, 5 * floor_scale, 0.5, 1.0]).astype(complex))
        z = np.ones((4, 4)) * 0.3 + np.diag([0.1, -0.2, 0.4, 0.2])
        spec0 = eigendecompose(h0)
        m2 = two_point_measure(spec0, OperatorMatrix(z.astype(complex)), BETA)
        protocol = DriveProtocol(kind="quench", lambda_final=0.1, t_total=1.0)
        with pytest.warns(DegenerateAtomWarning):
            lnchi_second_order(m2, protocol, 0.1, 0.1, np.linspace(-1, 1, 11))


class TestQuadratureOracle:
    @pytest.mark.parametrize(
        "a, b, points_per_unit, refine",
        [(0.0, 1.0, 4.0, 1), (0.0, 3.7, 2.5, 2), (2.0, -1.5, 3.0, 1), (-0.3, 0.05, 10.0, 3)],
    )
    def test_gl_leg_matches_leggauss(self, a, b, points_per_unit, refine):
        x, w = np.polynomial.legendre.leggauss(8)
        n_panels = refine * max(2, int(np.ceil(points_per_unit * abs(b - a))))
        edges = np.linspace(a, b, n_panels + 1)
        mid, half = (edges[:-1] + edges[1:]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
        nodes, weights = _gl_leg(a, b, points_per_unit, refine=refine)
        assert np.array_equal(nodes, (mid[:, None] + half[:, None] * x).ravel())
        assert np.array_equal(weights, (half[:, None] * w).ravel())
        assert abs(weights @ np.cos(nodes) - (np.sin(b) - np.sin(a))) < 1e-14

    @pytest.mark.parametrize("refine", [1, 2])
    def test_factored_legs_match_direct_sums(self, refine):
        rng = np.random.default_rng(refine)
        omegas = rng.uniform(-30.0, 30.0, size=40)
        spans = np.array([0.05, 0.3, 1.0, 2.55, 5.0])
        u = np.concatenate([spans, -spans])
        g, h = _legs(omegas, u, 8.0, refine=refine)
        for j, uj in enumerate(u):
            nodes, w = _gl_leg(0.0, uj, 8.0, refine=refine)
            direct_g = np.exp(1j * np.outer(omegas, nodes)) @ w
            direct_h = np.exp(-1j * np.outer(omegas, nodes)) @ ((uj - nodes) * w)
            assert np.abs(g[:, j] - direct_g).max() < 1e-13 * (1 + uj**2)
            assert np.abs(h[:, j] - direct_h).max() < 1e-13 * (1 + uj**2)

    def test_negative_u_legs_mirror_exactly(self):
        omegas = np.random.default_rng(5).uniform(-30.0, 30.0, size=40)
        u = np.array([0.0, 0.3, 2.55, 5.0])
        g, h = _legs(omegas, u, 8.0)
        g_neg, h_neg = _legs(omegas, -u, 8.0)
        assert np.array_equal(g_neg, -np.conj(g))
        assert np.array_equal(h_neg, np.conj(h))
        nodes, w = _gl_leg(0.0, 2.55, 8.0)
        mirrored, mirrored_w = _gl_leg(0.0, -2.55, 8.0)
        assert np.array_equal(mirrored, -nodes) and np.array_equal(mirrored_w, -w)

    @pytest.mark.parametrize(
        "protocol",
        [
            DriveProtocol(kind="quench", lambda_final=0.1, t_total=1.0),
            DriveProtocol(kind="quench", lambda_final=0.1, t_total=3.0),
            DriveProtocol(kind="ramp_hold", lambda_final=0.1, t_total=2.0, velocity=0.05),
            DriveProtocol(kind="ramp_hold", lambda_final=0.1, t_total=3.0, velocity=0.1),
        ],
    )
    def test_matches_spectral_route(self, chain4, protocol):
        _, h0, h1, spec0 = chain4
        m2 = two_point_measure(spec0, h1, BETA)
        fc = first_cumulant(spec0, h1, BETA)
        u = np.linspace(-5, 5, 21)
        spectral = lnchi_second_order(m2, protocol, fc, 0.1, u)
        quad = lnchi_second_order_quadrature(m2, protocol, fc, 0.1, u)
        assert np.abs(spectral.ln_chi - quad.ln_chi).max() < 1e-6

    def test_zero_coupling(self, chain4):
        _, _, h1, spec0 = chain4
        protocol = DriveProtocol(kind="quench", lambda_final=0.0, t_total=1.0)
        m2, fc = two_point_measure(spec0, h1, BETA), first_cumulant(spec0, h1, BETA)
        out = lnchi_second_order_quadrature(m2, protocol, fc, 0.0, np.linspace(-3, 3, 13))
        assert np.abs(out.ln_chi).max() < 1e-12

    def test_unconverged_quadrature_raises(self, chain4):
        # a stiff spectrum makes the minimum panel count badly under-resolved
        _, h0, h1, _ = chain4
        stiff = eigendecompose(OperatorMatrix(30.0 * h0.matrix))
        protocol = DriveProtocol(kind="ramp_hold", lambda_final=0.1, t_total=2.0, velocity=0.05)
        m2, fc = two_point_measure(stiff, h1, BETA), first_cumulant(stiff, h1, BETA)
        with pytest.raises(QuadratureError):
            lnchi_second_order_quadrature(m2, protocol, fc, 0.1, np.linspace(-5, 5, 11), points_per_unit=0.05)


def rs_pt_third_order_mean(h0_ref, h1_ref, beta, floor=1e-9):
    """Thermal average of the third-order eigenvalue shifts, by explicit loops."""
    evals, evecs = np.linalg.eigh(h0_ref)
    a = evecs.conj().T @ h1_ref @ evecs
    p = boltzmann(evals, beta)
    d = len(evals)
    total = 0.0
    for n in range(d):
        t1 = 0.0
        t2 = 0.0
        for m in range(d):
            if abs(evals[m] - evals[n]) <= floor:
                continue
            for k in range(d):
                if abs(evals[k] - evals[n]) <= floor:
                    continue
                t1 += np.real(a[n, m] * a[m, k] * a[k, n]) / (
                    (evals[n] - evals[m]) * (evals[n] - evals[k])
                )
            t2 += abs(a[n, m]) ** 2 / (evals[n] - evals[m]) ** 2
        total += p[n] * (t1 - np.real(a[n, n]) * t2)
    return total


class TestThirdOrderAdiabatic:
    def test_zero_coupling(self, chain4):
        _, _, h1, spec0 = chain4
        with pytest.warns(DegenerateAtomWarning):
            m3 = three_point_measure(spec0, h1, BETA)
            out = lnchi_third_order_adiabatic(m3, 0.0, np.linspace(-5, 5, 21))
        assert np.abs(out.ln_chi).max() == 0.0

    def test_two_site_coefficient_matches_perturbation_theory(self):
        # on the two-site chain the interaction is diagonal inside every
        # degenerate level, so the textbook formula applies directly
        h0_ref, h1_ref, _ = two_site_operators(2.0)
        expected = rs_pt_third_order_mean(h0_ref, h1_ref, BETA)
        spec0 = eigendecompose(build_hopping(SpinChainSpec(2, 2.0)))
        with pytest.warns(DegenerateAtomWarning):
            m3 = three_point_measure(spec0, build_zz(SpinChainSpec(2, 2.0)), BETA)
            coeff = third_order_adiabatic_coefficient(m3)
        assert abs(coeff - expected) < 1e-10

    def test_slow_ramp_residual_approaches_third_order_term(self, chain4):
        _, h0, h1, spec0 = chain4
        lam = 0.05
        u = np.linspace(-1.5, 1.5, 61)
        m2 = two_point_measure(spec0, h1, BETA)
        fc = first_cumulant(spec0, h1, BETA)
        with pytest.warns(DegenerateAtomWarning):
            m3 = three_point_measure(spec0, h1, BETA)
            coeff = third_order_adiabatic_coefficient(m3)
        v = 5e-3
        protocol = DriveProtocol(kind="ramp_hold", lambda_final=lam, t_total=lam / v, velocity=v)
        exact = exact_lnchi(h0, h1, lam, BETA, u, protocol)
        pert2 = lnchi_second_order(m2, protocol, fc, lam, u)
        resid = np.imag(exact.ln_chi - pert2.ln_chi)
        basis = np.vstack([u, u**3, u**5]).T
        linear = np.linalg.lstsq(basis, resid, rcond=None)[0][0]
        predicted = lam**3 * np.real(coeff)
        assert abs(linear - predicted) < 0.05 * abs(predicted)

    def test_output_linear_in_u(self, chain4):
        _, _, h1, spec0 = chain4
        with pytest.warns(DegenerateAtomWarning):
            m3 = three_point_measure(spec0, h1, BETA)
            out = lnchi_third_order_adiabatic(m3, 0.1, np.linspace(-4, 4, 33))
        mask = np.abs(out.u_grid) > 1e-9
        ratio = out.ln_chi[mask] / out.u_grid[mask]
        assert np.abs(ratio - ratio[0]).max() < 1e-14
