import numpy as np
import pytest
from scipy.linalg import expm

from spinwork import (
    DriveProtocol,
    OperatorMatrix,
    SpinChainSpec,
    assemble,
    build_hopping,
    build_zz,
    eigendecompose,
    evolve_density,
    gibbs_state,
    infidelity,
    lambda_at,
    magnetization_sectors,
    matrix_function,
    propagate,
    spectral_response,
)
from spinwork.drive_dynamics import ProtocolError, _parity_isometries, _symmetries
from spinwork.spin_model import total_magnetization


def ramp(lam1=0.1, v=0.05, t_total=None, **kw):
    if t_total is None:
        t_total = lam1 / v
    return DriveProtocol(kind="ramp_hold", lambda_final=lam1, t_total=t_total, velocity=v, **kw)


def quench(lam1=0.1, t_total=10.0):
    return DriveProtocol(kind="quench", lambda_final=lam1, t_total=t_total)


class TestDriveProtocol:
    def test_incomplete_ramp_rejected_without_flag(self):
        with pytest.raises(ProtocolError):
            DriveProtocol(kind="ramp_hold", lambda_final=1.0, t_total=1.0, velocity=0.1)
        DriveProtocol(
            kind="ramp_hold", lambda_final=1.0, t_total=1.0, velocity=0.1, allow_partial=True
        )

    def test_sampled_requires_zero_start(self):
        with pytest.raises(ProtocolError):
            DriveProtocol(
                kind="sampled",
                lambda_final=0.5,
                t_total=2.0,
                samples=np.array([[0.0, 0.2], [2.0, 0.5]]),
            )

    def test_completed_flags(self):
        assert ramp().completed
        assert quench().completed
        partial = ramp(lam1=1.0, v=0.1, t_total=1.0, allow_partial=True)
        assert not partial.completed


class TestLambdaAt:
    def test_slow_ramp_reaches_full_coupling_at_total_time(self):
        p = ramp(lam1=0.1, v=0.001, t_total=100.0)
        assert lambda_at(p, 100.0) == pytest.approx(0.1, abs=1e-15)

    def test_fast_ramp_caps_after_ramp_time(self):
        p = ramp(lam1=0.1, v=0.2, t_total=10.0)
        assert lambda_at(p, 10.0) == pytest.approx(0.1)
        assert lambda_at(p, 0.25) == pytest.approx(0.05)
        assert p.ramp_time == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "p",
        [ramp(), quench(), DriveProtocol(
            kind="sampled", lambda_final=0.3, t_total=2.0,
            samples=np.array([[0.0, 0.0], [1.0, 0.2], [2.0, 0.3]]),
        )],
    )
    def test_zero_time_value_is_zero(self, p):
        assert lambda_at(p, 0.0) == 0.0

    def test_quench_post_jump(self):
        assert lambda_at(quench(0.1), 1e-9) == 0.1

    def test_out_of_range(self):
        with pytest.raises(ProtocolError):
            lambda_at(ramp(), 100.0)

    def test_sampled_interpolates(self):
        p = DriveProtocol(
            kind="sampled", lambda_final=0.3, t_total=2.0,
            samples=np.array([[0.0, 0.0], [1.0, 0.2], [2.0, 0.3]]),
        )
        assert lambda_at(p, 0.5) == pytest.approx(0.1)
        assert lambda_at(p, 1.5) == pytest.approx(0.25)


class TestPropagate:
    def test_zero_coupling_matches_exact_exponential(self, chain4):
        _, h0, h1, spec0 = chain4
        p = ramp(lam1=0.0, v=0.0, t_total=3.0)
        u = propagate(h0, h1, p, 0.01).unitary.matrix
        exact = matrix_function(spec0, lambda x: np.exp(-1j * x * 3.0)).matrix
        assert np.abs(u - exact).max() < 1e-9

    def test_quench_is_single_exact_exponential(self, chain4):
        _, h0, h1, _ = chain4
        res = propagate(h0, h1, quench(0.1, 7.0), 0.01)
        spec_f = eigendecompose(OperatorMatrix(h0.matrix + 0.1 * h1.matrix))
        exact = matrix_function(spec_f, lambda x: np.exp(-1j * x * 7.0)).matrix
        assert np.abs(res.unitary.matrix - exact).max() < 1e-12
        assert res.dt_used == 7.0

    def test_strang_agrees_with_midpoint_exact(self, chain4):
        # measured cross-method gap at these parameters is 2.1e-5 (each method
        # carries ~2.5e-5 of genuine second-order error at dt=0.01)
        _, h0, h1, _ = chain4
        p = ramp(lam1=0.1, v=0.2, t_total=2.0)
        u1 = propagate(h0, h1, p, 0.01, method="strang").unitary.matrix
        u2 = propagate(h0, h1, p, 0.01, method="midpoint_exact").unitary.matrix
        assert np.linalg.norm(u1 - u2) < 5e-5
        u1f = propagate(h0, h1, p, 0.0025, method="strang").unitary.matrix
        u2f = propagate(h0, h1, p, 0.0025, method="midpoint_exact").unitary.matrix
        assert np.linalg.norm(u1f - u2f) < np.linalg.norm(u1 - u2) / 12

    @pytest.mark.parametrize("method", ["strang", "suzuki4", "midpoint_exact"])
    def test_unitarity(self, chain4, method):
        _, h0, h1, _ = chain4
        res = propagate(h0, h1, ramp(lam1=0.2, v=0.1), 0.02, method=method)
        assert res.unitarity_defect < 1e-8

    def test_strang_requires_diagonal_interaction(self, chain4):
        _, h0, h1, _ = chain4
        with pytest.raises(ValueError):
            propagate(h1, h0, ramp(), 0.01, method="strang")
        propagate(h1, h0, ramp(), 0.05, method="midpoint_exact")

    def test_midpoint_exact_takes_non_diagonal_interaction(self, chain4):
        # the hopping passed as the interaction: the hold must exponentiate
        # all of it, not only its (zero) diagonal
        _, h0, h1, _ = chain4
        u = propagate(h1, h0, quench(0.3, 2.0), 0.01, method="midpoint_exact").unitary.matrix
        exact = expm(-1j * (h1.matrix + 0.3 * h0.matrix) * 2.0)
        assert np.abs(u - exact).max() < 1e-12

    def test_blocked_ramp_matches_dense_suzuki4_product(self):
        spec = SpinChainSpec(5, 2.0)
        h0, h1 = build_hopping(spec), build_zz(spec)
        p = ramp(lam1=0.1, v=0.05, t_total=4.0)
        u = propagate(h0, h1, p, 0.01, method="suzuki4").unitary.matrix

        # Dense reference on the full 32x32 matrices: 200 triple-jump steps of
        # Strang substeps over the ramp, then the exact hold at lambda = 0.1.
        w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
        h, t = 0.01, 0.0
        ref = np.eye(32, dtype=complex)
        for _ in range(200):
            for w in (w1, 1.0 - 2.0 * w1, w1):
                half = expm(-0.5j * w * h * h0.matrix)
                kick = expm(-1j * lambda_at(p, t + w * h / 2.0) * w * h * h1.matrix)
                ref = half @ kick @ half @ ref
                t += w * h
        ref = expm(-1j * (h0.matrix + 0.1 * h1.matrix) * 2.0) @ ref
        assert np.abs(u - ref).max() < 1e-10

        inside = np.zeros((32, 32), dtype=bool)
        for idx in magnetization_sectors(5):
            inside[np.ix_(idx, idx)] = True
        assert np.all(u[~inside] == 0)

    def test_strang_order_versus_midpoint(self, chain4):
        _, h0, h1, _ = chain4
        p = ramp(lam1=0.1, v=0.05, t_total=2.0)
        errs = []
        dts = [0.04, 0.02, 0.01]
        for dt in dts:
            u1 = propagate(h0, h1, p, dt, method="strang").unitary.matrix
            u2 = propagate(h0, h1, p, dt, method="midpoint_exact").unitary.matrix
            errs.append(np.linalg.norm(u1 - u2))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_suzuki4_improves_on_strang(self, chain4):
        _, h0, h1, _ = chain4
        p = ramp(lam1=0.2, v=0.1, t_total=2.0)
        ref = propagate(h0, h1, p, 0.0005, method="suzuki4").unitary.matrix
        e2 = np.linalg.norm(propagate(h0, h1, p, 0.02, method="strang").unitary.matrix - ref)
        e4 = np.linalg.norm(propagate(h0, h1, p, 0.02, method="suzuki4").unitary.matrix - ref)
        assert e4 < e2 / 50

    def test_sampled_protocol_propagates(self, chain4):
        _, h0, h1, _ = chain4
        samples = np.array([[0.0, 0.0], [1.0, 0.05], [2.0, 0.1], [3.0, 0.1]])
        p = DriveProtocol(kind="sampled", lambda_final=0.1, t_total=3.0, samples=samples)
        equivalent = ramp(lam1=0.1, v=0.05, t_total=3.0)
        u1 = propagate(h0, h1, p, 0.01).unitary.matrix
        u2 = propagate(h0, h1, equivalent, 0.01).unitary.matrix
        assert np.abs(u1 - u2).max() < 1e-12


def chain(n, coupling=1.3):
    spec = SpinChainSpec(n, coupling)
    return build_hopping(spec), build_zz(spec)


def stepped_reference(h0, h1, p, dt, method, blocks):
    """Product of exponentials per block, built with ``expm`` on the given
    blocks and no symmetry: the schedule of ``propagate`` step by step."""
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    unit = (w1, 1.0 - 2.0 * w1, w1) if method == "suzuki4" else (1.0,)
    nsteps = max(1, int(round(p.ramp_time / dt)))
    h = p.ramp_time / nsteps
    ref = np.zeros(h0.shape, dtype=complex)
    for idx in blocks:
        a0, a1 = h0[np.ix_(idx, idx)], h1[np.ix_(idx, idx)]
        halves = {w: expm(-0.5j * w * h * a0) for w in unit}
        ub, t = np.eye(idx.size, dtype=complex), 0.0
        for _ in range(nsteps):
            for w in unit:
                lam = lambda_at(p, t + w * h / 2.0)
                if method == "midpoint_exact":
                    ub = expm(-1j * w * h * (a0 + lam * a1)) @ ub
                else:
                    ub = halves[w] @ expm(-1j * lam * w * h * a1) @ halves[w] @ ub
                t += w * h
        hold = expm(-1j * (p.t_total - p.ramp_time) * (a0 + p.lambda_final * a1))
        ref[np.ix_(idx, idx)] = hold @ ub
    return ref


class TestSymmetryReduction:
    """Stepping one sector per spin-flip pair, in site-reflection parity blocks."""

    @pytest.mark.parametrize("n", range(2, 10))
    def test_parity_isometries_split_each_sector(self, n):
        h0, h1 = chain(n)
        symmetries = _symmetries(h0.matrix, h1.matrix)
        assert len(symmetries) == 2
        for idx in magnetization_sectors(n):
            isometries = _parity_isometries(idx, symmetries)
            stacked = np.hstack(isometries)
            assert np.abs(stacked.T @ stacked - np.eye(idx.size)).max() < 1e-14
            assert np.abs(sum(s @ s.T for s in isometries) - np.eye(idx.size)).max() < 1e-14
            h0b, h1b = h0.matrix[np.ix_(idx, idx)], h1.matrix[np.ix_(idx, idx)]
            for a, s in enumerate(isometries):
                kick = s.T @ h1b @ s
                assert np.array_equal(kick, np.diag(np.diag(kick)))
                for b, r in enumerate(isometries):
                    if a != b:
                        assert np.abs(s.T @ h0b @ r).max() < 1e-13

    @pytest.mark.parametrize("method", ["strang", "suzuki4", "midpoint_exact"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_per_sector_reference(self, n, method):
        h0, h1 = chain(n)
        p = ramp(lam1=0.3, v=0.6, t_total=1.0)
        u = propagate(h0, h1, p, 0.1, method=method).unitary.matrix
        sectors = magnetization_sectors(n)
        ref = stepped_reference(h0.matrix, h1.matrix, p, 0.1, method, sectors)
        assert np.abs(u - ref).max() < 1e-12
        inside = np.zeros(u.shape, dtype=bool)
        for idx in sectors:
            inside[np.ix_(idx, idx)] = True
        assert np.all(u[~inside] == 0)
        assert np.array_equal(u, u[::-1, ::-1])

    @pytest.mark.parametrize("method", ["strang", "suzuki4", "midpoint_exact"])
    @pytest.mark.parametrize("breaking, kept", [("bond", 1), ("field", 1), ("random", 0)])
    def test_broken_symmetry_matches_dense_product(self, breaking, kept, method):
        n = 5
        h0, zz = chain(n)
        z = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
        if breaking == "bond":  # z0 z1 keeps the flip, breaks the reflection
            h1 = OperatorMatrix(np.diag(1.3 * z[:, 0] * z[:, 1]).astype(complex))
        elif breaking == "field":  # a uniform field keeps the reflection, breaks the flip
            h1 = OperatorMatrix(zz.matrix + 0.4 * total_magnetization(n).matrix)
        else:
            h1 = OperatorMatrix(np.diag(np.random.default_rng(3).normal(size=2**n)).astype(complex))
        assert len(_symmetries(h0.matrix, h1.matrix)) == kept
        p = ramp(lam1=0.3, v=0.6, t_total=1.0)
        u = propagate(h0, h1, p, 0.1, method=method).unitary.matrix
        ref = stepped_reference(h0.matrix, h1.matrix, p, 0.1, method, [np.arange(2**n)])
        assert np.abs(u - ref).max() < 1e-12


class TestEvolveDensity:
    def test_identity_propagator(self, chain4):
        _, h0, h1, spec0 = chain4
        rho = gibbs_state(spec0, 1.0)
        p = ramp(lam1=0.0, v=0.0, t_total=1e-12)
        res = propagate(h0, h1, p, 0.01)
        out = evolve_density(rho, res)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-10

    def test_gibbs_invariant_under_own_evolution(self, chain4):
        _, h0, h1, spec0 = chain4
        rho = gibbs_state(spec0, 1.0)
        res = propagate(h0, h1, ramp(lam1=0.0, v=0.0, t_total=5.0), 0.01)
        out = evolve_density(rho, res)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-10

    def test_trace_and_purity_preserved(self, chain4):
        _, h0, h1, spec0 = chain4
        rho = gibbs_state(spec0, 0.7)
        res = propagate(h0, h1, ramp(lam1=0.3, v=0.1), 0.02)
        out = evolve_density(rho, res)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12
        assert abs(np.trace(out.matrix @ out.matrix) - np.trace(rho.matrix @ rho.matrix)) < 1e-10
        before = np.sort(np.linalg.eigvalsh(rho.matrix))
        after = np.sort(np.linalg.eigvalsh(out.matrix))
        assert np.abs(before - after).max() < 1e-10


class TestSpectralResponse:
    @pytest.mark.parametrize(
        "p",
        [
            ramp(lam1=0.1, v=0.001, t_total=100.0),
            quench(0.1),
            DriveProtocol(
                kind="sampled", lambda_final=0.1, t_total=2.0,
                samples=np.array([[0.0, 0.0], [1.0, 0.1], [2.0, 0.1]]),
            ),
        ],
    )
    def test_zero_frequency_value(self, p):
        assert spectral_response(p, 0.0) == pytest.approx(0.01, rel=1e-10)

    def test_quench_is_flat(self):
        w = np.linspace(-20, 20, 41)
        assert np.allclose(spectral_response(quench(0.1), w), 0.01)

    def test_ramp_zeros_at_harmonics(self):
        p = ramp(lam1=0.1, v=0.2)  # t_r = 0.5
        w0 = 2 * np.pi / 0.5
        assert spectral_response(p, w0) < 1e-20

    def test_even_and_nonnegative(self):
        p = ramp(lam1=0.15, v=0.03)
        w = np.linspace(0.1, 30, 57)
        a_plus = spectral_response(p, w)
        a_minus = spectral_response(p, -w)
        assert np.allclose(a_plus, a_minus, rtol=1e-12)
        assert np.all(a_plus >= 0)

    def test_sampled_matches_ramp_closed_form(self):
        t_r, lam1 = 2.0, 0.1
        p_ramp = ramp(lam1=lam1, v=lam1 / t_r, t_total=4.0)
        ts = np.linspace(0, 4.0, 81)
        lam = np.minimum(ts * lam1 / t_r, lam1)
        p_sampled = DriveProtocol(
            kind="sampled", lambda_final=lam1, t_total=4.0, samples=np.column_stack([ts, lam])
        )
        w = np.linspace(-10, 10, 31)
        assert np.allclose(spectral_response(p_ramp, w), spectral_response(p_sampled, w), atol=1e-12)

    def test_requires_completed_protocol(self):
        partial = ramp(lam1=1.0, v=0.1, t_total=1.0, allow_partial=True)
        with pytest.raises(ProtocolError):
            spectral_response(partial, 1.0)


class TestConvergenceProbe:
    """Step halving of ``propagate``: ||U_dt - U_dt/2|| and the infidelity shift
    that scan points are certified on."""

    @staticmethod
    def halving_delta(h0, h1, p, dt, method="strang"):
        full = propagate(h0, h1, p, dt, method=method).unitary.matrix
        half = propagate(h0, h1, p, dt / 2.0, method=method).unitary.matrix
        return float(np.linalg.norm(full - half))

    def test_zero_coupling_has_zero_defect(self, chain4):
        _, h0, h1, _ = chain4
        assert self.halving_delta(h0, h1, ramp(lam1=0.0, v=0.0, t_total=3.0), 0.01) < 1e-12

    def test_quench_has_zero_defect(self, chain4):
        _, h0, h1, _ = chain4
        assert self.halving_delta(h0, h1, quench(0.1, 5.0), 0.01) < 1e-12

    def test_strang_defect_shrinks_fourfold(self, chain4):
        _, h0, h1, _ = chain4
        p = ramp(lam1=0.2, v=0.1, t_total=2.0)
        a = self.halving_delta(h0, h1, p, 0.04)
        b = self.halving_delta(h0, h1, p, 0.02)
        assert 3.0 <= a / b <= 5.0

    def test_reports_infidelity_shift(self, chain4):
        _, h0, h1, spec0 = chain4
        p = ramp(lam1=0.1, v=0.05)
        rho0 = gibbs_state(spec0, 1.0)
        target = gibbs_state(eigendecompose(assemble(h0, h1, 0.1)), 1.0)
        a, b = (
            infidelity(evolve_density(rho0, propagate(h0, h1, p, dt, method="suzuki4")), target)
            for dt in (0.01, 0.005)
        )
        assert abs(a - b) < 1e-6


class TestHoldPlateau:
    def test_infidelity_constant_across_hold(self, chain4):
        _, h0, h1, spec0 = chain4
        beta, lam1 = 1.0, 0.1
        target = gibbs_state(eigendecompose(OperatorMatrix(h0.matrix + lam1 * h1.matrix)), beta)
        rho0 = gibbs_state(spec0, beta)
        values = []
        for t_total in (4.0, 2.0):  # ramp ends at t = 1
            p = ramp(lam1=lam1, v=0.1, t_total=t_total)
            res = propagate(h0, h1, p, 0.01, method="suzuki4")
            values.append(infidelity(evolve_density(rho0, res), target))
        assert abs(values[0] - values[1]) < 1e-9
