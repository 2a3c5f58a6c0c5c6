import tracemalloc
from dataclasses import fields

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
    propagate,
    spectral_response,
)
from spinwork.drive_dynamics import (
    _GAPS,
    _MIDS,
    _WIDTHS,
    KICK_CHUNK,
    ProtocolError,
    UnitarityError,
    _expi,
    _propagate_block,
    _step_count,
)
from spinwork.spin_model import adapted_chain, common_blocks, copies, dense_view

from conftest import _symmetries, matrix_function, parity, symmetry_adapted, total_magnetization


def ramp(lam1=0.1, v=0.05, t_total=None):
    if t_total is None:
        t_total = lam1 / v
    return DriveProtocol(kind="ramp_hold", lambda_final=lam1, t_total=t_total, velocity=v)


def quench(lam1=0.1, t_total=10.0):
    return DriveProtocol(kind="quench", lambda_final=lam1, t_total=t_total)


def sampled(points, t_total):
    """A completed sampled schedule through (t, lambda) points, starting at (0, 0)."""
    samples = np.array([[0.0, 0.0]] + points)
    return DriveProtocol(kind="sampled", lambda_final=samples[-1, 1], t_total=t_total, samples=samples)


# Schedules over t_total = 1 that step through different branches: a rising ramp
# then a hold, a falling ramp with no hold, a non-monotone sampled schedule then a hold.
SHAPES = {
    "ramp_hold": ramp(lam1=0.3, v=0.6, t_total=1.0),
    "falling": ramp(lam1=-0.3, v=0.3, t_total=1.0),
    "sampled": sampled([[0.25, 0.4], [0.5, 0.1], [0.75, 0.3], [1.0, 0.3]], 1.0),
}


def short_of_final():
    """A sampled schedule that stops at 0.1 of its lambda_final = 1."""
    return DriveProtocol(
        kind="sampled", lambda_final=1.0, t_total=1.0, samples=np.array([[0.0, 0.0], [1.0, 0.1]])
    )


class TestDriveProtocol:
    def test_incomplete_ramp_rejected(self):
        with pytest.raises(ProtocolError):
            DriveProtocol(kind="ramp_hold", lambda_final=1.0, t_total=1.0, velocity=0.1)

    @pytest.mark.parametrize("velocity", [np.nan, np.inf])
    def test_non_finite_ramp_velocity_rejected(self, velocity):
        # a NaN velocity used to pass both checks and fail later inside propagate's matmul
        spec = SpinChainSpec(3, 2.0)
        with pytest.raises(ProtocolError, match="finite velocity"):
            propagate(
                eigendecompose(build_hopping(spec)), build_zz(spec),
                DriveProtocol(kind="ramp_hold", lambda_final=0.1, t_total=4.0, velocity=velocity), 0.02,
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
        partial = short_of_final()
        assert not partial.completed

    @pytest.mark.parametrize(
        "make",
        [lambda: ramp(lam1=np.nan, t_total=4.0), lambda: quench(np.inf), lambda: quench(-np.inf),
         lambda: sampled([[0.5, np.nan], [1.0, 0.1]], 1.0), lambda: sampled([[np.nan, 0.1], [1.0, 0.1]], 1.0)],
        ids=["nan-ramp", "inf-quench", "-inf-quench", "nan-value", "nan-time"],
    )
    def test_non_finite_coupling_or_sample_rejected(self, make):
        # the knots are built from them: a NaN ramp used to have a NaN ramp time, an
        # infinite quench was accepted and a NaN sample stepped to a NaN propagator
        with pytest.raises(ProtocolError, match="finite"):
            make()

    def test_ramps_and_quenches_compare_and_hash_by_their_parameters(self):
        # the knots are no field, so they take no part in ==, hash or the field list
        assert [f.name for f in fields(DriveProtocol)] == ["kind", "lambda_final", "t_total", "velocity", "samples"]
        for make in (lambda: ramp(0.1, 0.05, 4.0), lambda: quench(0.1, 4.0)):
            a, b = make(), make()
            assert a == b and hash(a) == hash(b)
            assert hash(a) == hash((a.kind, a.lambda_final, a.t_total, a.velocity, None))
        assert ramp(0.1, 0.05, 4.0) != ramp(0.1, 0.05, 5.0)
        assert {ramp(0.1, 0.05, 4.0): 1}[ramp(0.1, 0.05, 4.0)] == 1


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
        p = quench(0.1, 10.0)
        assert lambda_at(p, 1e-9) == lambda_at(p, 5e-324) == lambda_at(p, 10.0) == 0.1
        assert p.ramp_time == 0.0

    @pytest.mark.parametrize("lam1", [0.3, -0.3])
    def test_ramp_is_the_capped_line(self, lam1):
        # the per-sign expressions the knots replaced, on a dense grid through the ramp and hold
        p = ramp(lam1=lam1, v=0.7, t_total=2.0)
        t = np.linspace(0.0, 2.0, 200001)
        oracle = np.minimum(0.7 * t, lam1) if lam1 > 0 else np.maximum(-0.7 * t, lam1)
        assert np.all(np.abs(lambda_at(p, t) - oracle) <= 2 * np.spacing(np.abs(oracle)))

    @pytest.mark.parametrize("lam1", [1e-13, -1e-13])
    def test_tiny_ramp_keeps_its_ramp_time(self, lam1):
        # the final value is compared exactly, so a coupling below 1e-12 still ramps
        p = ramp(lam1=lam1, v=0.05, t_total=1.0)
        assert p.ramp_time == 1e-13 / 0.05
        assert lambda_at(p, p.ramp_time / 2) == pytest.approx(lam1 / 2, rel=1e-15)

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
    def test_zero_interaction_matches_exact_exponential_over_the_ramp(self, chain4):
        # with H1 = 0 every kick is 1, so the steps' H0 factors compose to exp(-i H0 t_r):
        # t_r = 2 of the ramp, not the t_total = 3 of its hold
        _, h0, h1, spec0 = chain4
        zero = OperatorMatrix(tuple((rows, cols, np.zeros_like(a)) for rows, cols, a in h1.blocks))
        res = propagate(spec0, zero, ramp(lam1=0.2, v=0.1, t_total=3.0), 0.01)
        exact = matrix_function(spec0, lambda x: np.exp(-1j * x * 2.0)).matrix
        assert res.dt_used == pytest.approx(0.01)
        assert np.abs(res.unitary.matrix - exact).max() < 1e-10  # measured 4.1e-13

    @pytest.mark.parametrize("p", [quench(0.1, 7.0), ramp(lam1=0.0, v=0.0, t_total=3.0)], ids=["quench", "zero"])
    def test_constant_coupling_gives_the_identity(self, chain4, p):
        # nothing varies, so nothing is stepped: U is exactly 1 and the realized step 0
        _, _, h1, spec0 = chain4
        res = propagate(spec0, h1, p, 0.01)
        assert np.array_equal(res.unitary.matrix, np.eye(h1.dimension))
        assert res.dt_used == 0.0 and res.unitarity_defect == 0.0

    @pytest.mark.parametrize(
        "p",
        [ramp(lam1=0.2, v=0.1), ramp(lam1=-0.2, v=0.1, t_total=2.0), sampled([[1.0, 0.3], [2.0, -0.1], [3.0, 0.2]], 3.0)],
        ids=["ramp", "falling", "sampled"],
    )
    def test_unitarity(self, chain4, p):
        _, _, h1, spec0 = chain4
        res = propagate(spec0, h1, p, 0.02)
        assert res.unitarity_defect < 1e-8

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf, -np.inf])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, chain4, dt):
        # NaN would reach the step count's int(round(...)), and inf would run the ramp as one step
        _, _, h1, spec0 = chain4
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            propagate(spec0, h1, ramp(), dt)

    @pytest.mark.parametrize("p", [ramp(), quench(0.3, 2.0)], ids=["ramp", "quench"])
    def test_requires_diagonal_interaction(self, chain4, p):
        # the hopping passed as the interaction; a quench, which steps nothing, is checked too
        _, h0, h1, _ = chain4
        with pytest.raises(ValueError, match="diagonal"):
            propagate(eigendecompose(h1), h0, p, 0.01)

    def test_blocked_ramp_matches_dense_suzuki4_product(self):
        spec = SpinChainSpec(5, 2.0)
        h0, h1 = build_hopping(spec), build_zz(spec)
        p = ramp(lam1=0.1, v=0.05, t_total=4.0)
        u = propagate(eigendecompose(h0), h1, p, 0.01).unitary.matrix

        # Dense reference on the full 32x32 matrices: 200 triple-jump steps of
        # Strang substeps over the ramp, which ends at t = 2 of t_total = 4.
        w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
        h, t = 0.01, 0.0
        ref = np.eye(32, dtype=complex)
        for _ in range(200):
            for w in (w1, 1.0 - 2.0 * w1, w1):
                half = expm(-0.5j * w * h * h0.matrix)
                kick = expm(-1j * lambda_at(p, t + w * h / 2.0) * w * h * h1.matrix)
                ref = half @ kick @ half @ ref
                t += w * h
        assert np.abs(u - ref).max() < 1e-10

        inside = np.zeros((32, 32), dtype=bool)
        for idx in magnetization_sectors(5):
            inside[np.ix_(idx, idx)] = True
        assert np.all(u[~inside] == 0)

    def test_sampled_schedule_ending_off_its_plateau_is_stepped_to_its_end(self, chain4):
        # the last sample is 1e-13 above the one before, so nothing of [0, 1] is held
        _, _, h1, spec0 = chain4
        p = sampled([[0.5, 0.2], [1.0, 0.2 + 1e-13]], 1.0)
        assert p.ramp_time == 1.0
        assert _step_count(p, 0.1) == 10
        assert propagate(spec0, h1, p, 0.1).dt_used == 0.1

    def test_nan_defect_fails_the_unitarity_guard(self, chain4):
        # a NaN block steps to a NaN propagator, whose NaN defect is not within UNITARITY_ABORT
        _, _, h1, spec0 = chain4
        (rows, cols, first), *rest = h1.blocks
        broken = OperatorMatrix(((rows, cols, np.full_like(first, np.nan)), *rest))
        with pytest.raises(UnitarityError, match="unitarity defect nan"):
            propagate(spec0, broken, ramp(), 0.05)

    def test_sampled_protocol_propagates(self, chain4):
        _, _, h1, spec0 = chain4
        samples = np.array([[0.0, 0.0], [1.0, 0.05], [2.0, 0.1], [3.0, 0.1]])
        p = DriveProtocol(kind="sampled", lambda_final=0.1, t_total=3.0, samples=samples)
        equivalent = ramp(lam1=0.1, v=0.05, t_total=3.0)
        u1 = propagate(spec0, h1, p, 0.01).unitary.matrix
        u2 = propagate(spec0, h1, equivalent, 0.01).unitary.matrix
        assert np.abs(u1 - u2).max() < 1e-12


def chain(n, coupling=1.3):
    spec = SpinChainSpec(n, coupling)
    return build_hopping(spec), build_zz(spec)


def stepped_reference(h0, h1, p, dt, blocks):
    """Product of exponentials per block, built with ``expm`` on the given
    blocks and no symmetry: the Suzuki-4 schedule of ``propagate`` step by step,
    over the varying segment [0, ramp_time] only."""
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    unit = (w1, 1.0 - 2.0 * w1, w1)
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
                ub = halves[w] @ expm(-1j * lam * w * h * a1) @ halves[w] @ ub
                t += w * h
        ref[np.ix_(idx, idx)] = ub
    return ref


class TestSteppingLoop:
    @pytest.mark.parametrize(
        "p",
        [ramp(lam1=0.1, v=0.1 / 3.1, t_total=4.0), sampled([[1.0, 0.08], [2.0, 0.03], [3.1, 0.1], [4.0, 0.1]], 4.0)],
        ids=["ramp", "sampled"],
    )
    def test_chunked_kicks_match_per_substep_loop_bit_for_bit(self, p):
        spec = SpinChainSpec(6, 2.0)
        (rows, _, h0), (_, _, h1) = build_hopping(spec).blocks[3], build_zz(spec).blocks[3]
        nsteps = _step_count(p, 0.01)
        substeps = 3 * nsteps
        assert substeps > KICK_CHUNK and substeps % KICK_CHUNK  # more than one chunk, the last one partial
        h = p.ramp_time / nsteps
        eig0, odd = np.linalg.eigh(h0), parity(h0)
        assert odd is not None and odd.any() and not odd.all()  # a gauged block
        # each factor in the gauge D = diag(1, -i on odd vectors): the real part of D^-1 F D,
        # then one Newton polar step
        d = np.where(odd, -1j, 1.0)
        factors = []
        for g in _GAPS:
            f = (d.conj()[:, None] * _expi(*eig0, g * h) * d).real
            factors.append((f + np.linalg.inv(f).T) / 2.0)
        h1_diag = np.real(np.diag(h1))
        # substep k is substep k % 3 of step k // 3; W1/2 opens and closes the
        # ramp, (W1 + W0)/2 follows a step's first two kicks and W1 its last;
        # each real factor multiplies the iterate's float view
        u = factors[0].astype(complex)
        for k in range(substeps):
            step, sub = divmod(k, 3)
            lam = lambda_at(p, (step + _MIDS[sub]) * h)
            u = np.exp(-1j * lam * h1_diag * (_WIDTHS[sub] * h))[:, None] * u
            u = (factors[0 if k == substeps - 1 else 2 if sub == 2 else 1] @ u.view(np.float64)).view(complex)
        u = d[:, None] * u * d.conj()
        assert p.ramp_time == pytest.approx(3.1)  # both step 930 substeps, and the 0.9 after is not applied
        assert np.array_equal(_propagate_block(*eig0, odd, h1, p, nsteps), u)

    def test_polar_step_keeps_a_long_ramp_unitary(self):
        # the loop reuses three H0 factors at every step, so their roundoff off the unitary group adds
        # up coherently; after one Newton polar step each, 1000 steps at N = 8 end at a defect of
        # 1.8e-12, where the unpolished factors reached 7.0e-11
        h0, h1 = adapted_chain(SpinChainSpec(8, 2.0))
        p = ramp(lam1=0.1, v=0.01)
        assert _step_count(p, 0.01) == 1000
        assert propagate(eigendecompose(h0), h1, p, 0.01).unitarity_defect < 1e-11

    def test_propagate_allocates_nothing_per_step(self):
        # a ramp of 3e4 steps at N = 3: the schedule is built a chunk at a
        # time, where one array per substep would take several MB
        h0, h1 = chain(3)
        p = ramp(lam1=0.3, v=1.0, t_total=0.3)
        assert _step_count(p, 1e-5) == 30000
        spec0 = eigendecompose(h0)
        tracemalloc.start()
        try:
            propagate(spec0, h1, p, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestSymmetryReduction:
    """The chain on its symmetry-adapted blocks, by the reference adapter (``conftest.symmetry_adapted``,
    whose isometries map a result back to the computational basis): one sector per spin-flip pair, in
    site-reflection parity blocks."""

    @staticmethod
    def flip_partners(isometries, n):
        """{block: its flip partner}: a block of sector k > N/2 is written in the flip
        image of sector N - k's basis, so its isometry is that block's array."""
        partners = {a: b for a, (_, _, s) in enumerate(isometries) for b in range(a) if isometries[b][2] is s}
        assert sorted(partners) == [a for a, (rows, _, _) in enumerate(isometries) if 2 * bin(rows[0]).count("1") > n]
        return partners

    @staticmethod
    def adapted_propagator(h0, h1, p, dt):
        """U stepped on the adapted blocks, those blocks' propagators and their isometries,
        and U mapped back to the computational basis, S U_adapted S^T."""
        h0a, h1a, isometries = symmetry_adapted(h0, h1)
        ua = propagate(eigendecompose(h0a), h1a, p, dt).unitary
        s = dense_view(h0.dimension, isometries)
        return ua, isometries, s @ ua.matrix @ s.T

    @pytest.mark.parametrize("n", range(2, 10))
    def test_parity_isometries_split_each_sector(self, n):
        h0, h1 = chain(n)
        assert len(_symmetries(common_blocks(h0.blocks, h1.blocks))) == 2
        h0a, h1a, isometries = symmetry_adapted(h0, h1)
        for a, b in self.flip_partners(isometries, n).items():
            assert h0a.blocks[a][2] is h0a.blocks[b][2] and h1a.blocks[a][2] is h1a.blocks[b][2]
        for idx in magnetization_sectors(n):
            parts = []  # the sector's isometries, their rows in the sector's order
            for rows, cols, s in isometries:
                if np.isin(rows, idx).all():
                    parts.append(np.zeros((idx.size, cols.size)))
                    parts[-1][np.searchsorted(idx, rows)] = s
            stacked = np.hstack(parts)
            assert np.abs(stacked.T @ stacked - np.eye(idx.size)).max() < 1e-14
            assert np.abs(sum(s @ s.T for s in parts) - np.eye(idx.size)).max() < 1e-14
            h0b, h1b = h0.matrix[np.ix_(idx, idx)], h1.matrix[np.ix_(idx, idx)]
            for a, s in enumerate(parts):
                kick = s.T @ h1b @ s
                assert np.array_equal(kick, np.diag(np.diag(kick)))
                for b, r in enumerate(parts):
                    if a != b:
                        assert np.abs(s.T @ h0b @ r).max() < 1e-13

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_per_sector_reference(self, n, shape):
        h0, h1 = chain(n)
        p = SHAPES[shape]
        ua, isometries, u = self.adapted_propagator(h0, h1, p, 0.1)
        sectors = magnetization_sectors(n)
        ref = stepped_reference(h0.matrix, h1.matrix, p, 0.1, sectors)
        assert np.abs(u - ref).max() < 1e-12
        inside = np.zeros(u.shape, dtype=bool)
        for idx in sectors:
            inside[np.ix_(idx, idx)] = True
        assert np.all(u[~inside] == 0)
        # the propagator of a flip partner is its partner's array
        assert all(ua.blocks[a][2] is ua.blocks[b][2] for a, b in self.flip_partners(isometries, n).items())

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("breaking, kept", [("bond", 1), ("field", 1), ("random", 0)])
    def test_broken_symmetry_matches_dense_product(self, breaking, kept, shape):
        n = 5
        h0, zz = chain(n)
        z = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
        if breaking == "bond":  # z0 z1 keeps the flip, breaks the reflection
            h1 = OperatorMatrix.from_dense(np.diag(1.3 * z[:, 0] * z[:, 1]).astype(complex))
        elif breaking == "field":  # a uniform field keeps the reflection, breaks the flip
            h1 = OperatorMatrix.from_dense(zz.matrix + 0.4 * total_magnetization(n).matrix)
        else:
            h1 = OperatorMatrix.from_dense(np.diag(np.random.default_rng(3).normal(size=2**n)).astype(complex))
        assert len(_symmetries(common_blocks(h0.blocks, h1.blocks))) == kept
        p = SHAPES[shape]
        _, _, u = self.adapted_propagator(h0, h1, p, 0.1)
        ref = stepped_reference(h0.matrix, h1.matrix, p, 0.1, [np.arange(2**n)])
        assert np.abs(u - ref).max() < 1e-12


def gauge(odd):
    """The diagonal of D = diag(1 on even vectors, -i on odd ones)."""
    return np.where(odd, -1j, 1.0)


def phase_hopping(n, coupling=1.3, phase=0.7):
    """The chain's hopping with a phase on every bond, J sum_i (e^{i phase} s+_i s-_{i+1} + h.c.): complex
    Hermitian with the real hopping's zero pattern, so bipartite, but with no real gauge."""
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    bonds = [np.kron(np.kron(np.eye(2**i), np.kron(sp, sp.T)), np.eye(2 ** (n - 2 - i))) for i in range(n - 1)]
    hop = coupling * np.exp(1j * phase) * sum(bonds)
    return OperatorMatrix.from_dense(hop + hop.conj().T)


class TestSublatticeGauge:
    """Every real H0 block with a sublattice parity is stepped in its gauge D: real H0 factors, one
    real GEMM per substep on the iterate's float view, and U = D U_gauged D^-1."""

    @staticmethod
    def sectors_and_parities(n):
        """Each adapted block's magnetization sector (from the reference adapter's isometries, whose
        block order ``adapted_chain`` keeps), its H0 array and its ``sublattice_parities``."""
        spec = SpinChainSpec(n, 1.3)
        h0, _ = adapted_chain(spec)
        _, _, isometries = symmetry_adapted(build_hopping(spec), build_zz(spec))
        return [(bin(rows[0]).count("1"), a, parity(a))
                for (_, _, a), (rows, _, _) in zip(h0.blocks, isometries, strict=True)]

    @pytest.mark.parametrize("n, share", [(4, 0.70), (5, 1.0), (6, 0.54), (7, 1.0), (8, 0.41), (9, 1.0), (10, 0.61),
                                          (11, 1.0)])
    def test_which_blocks_get_the_gauge(self, n, share):
        # the reflection keeps the sublattice parity at odd N and maps Q -> k - Q at even N, so
        # every block is gauged at odd N and, at even N, the blocks of even sectors k only (the flip
        # on the middle sector maps Q -> N/2 - Q, which keeps the parity at N = 4 and 8)
        blocks = self.sectors_and_parities(n)
        assert all((odd is not None) == (n % 2 == 1 or k % 2 == 0) for k, _, odd in blocks)
        distinct = [(blocks[i][1].shape[0], blocks[i][2] is not None) for i in set(copies([a for _, a, _ in blocks]))]
        cubes = sum(b**3 for b, _ in distinct)
        assert sum(b**3 for b, gauged in distinct if gauged) / cubes == pytest.approx(share, abs=0.005)

    @pytest.mark.parametrize("n", [9, 10])
    def test_gauged_hopping_is_imaginary(self, n):
        # D^-1 H0 D = i A with A real antisymmetric: its real part is exactly zero, since every
        # entry between two vectors of one parity is an exact 0.0
        gauged = [(a, odd) for _, a, odd in self.sectors_and_parities(n) if odd is not None]
        assert gauged
        for a, odd in gauged:
            d = gauge(odd)
            b = d.conj()[:, None] * a * d
            assert not b.real.any()
            assert np.array_equal(b.imag, -b.imag.T)

    def test_eigendecompose_carries_each_blocks_parity(self):
        h0, _ = adapted_chain(SpinChainSpec(9, 1.3))
        spec0 = eigendecompose(h0)
        for (_, _, a), odd in zip(h0.blocks, spec0.parities, strict=True):
            assert np.array_equal(odd, parity(a))
        # H_f = H0 + lambda H1 has H1's diagonal, so no colouring
        assert eigendecompose(assemble(h0, adapted_chain(SpinChainSpec(9, 1.3))[1], 0.1)).parities == (None,) * 18

    def test_nine_sites_step_without_complex_products(self, monkeypatch):
        # every distinct block at N = 9 is gauged, so each substep is one float64 x float64 matmul
        h0, h1 = adapted_chain(SpinChainSpec(9, 1.3))
        spec0 = eigendecompose(h0)
        calls, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, b, **kw: calls.append((a.dtype, b.dtype)) or matmul(a, b, **kw))
        p = ramp(lam1=0.1, v=0.5)
        propagate(spec0, h1, p, 0.01)
        assert len(calls) == 3 * _step_count(p, 0.01) * 9
        assert set(calls) == {(np.dtype(np.float64), np.dtype(np.float64))}

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("case", ["gauged", "ungauged", "complex"])
    def test_matches_stepped_reference(self, case, shape):
        # the largest block at N = 7 (gauged), the largest of sector k = 3 at N = 8 (no gauge), and the
        # hopping with a phase on its magnetization sectors (bipartite, complex, no gauge)
        if case == "complex":
            h0, h1 = phase_hopping(5), chain(5)[1]
            spec0 = eigendecompose(h0)
            assert all(a.dtype == np.complex128 for _, _, a in h0.blocks)
            assert spec0.parities == (None,) * 6
            blocks = magnetization_sectors(5)
        else:
            n = 7 if case == "gauged" else 8
            h0, h1 = adapted_chain(SpinChainSpec(n, 1.3))
            spec0 = eigendecompose(h0)
            sizes = [a.shape[0] * (k == 3) for k, a, _ in self.sectors_and_parities(n)]
            i = int(np.argmax(sizes))
            assert (spec0.parities[i] is not None) == (case == "gauged")
            blocks = [h0.blocks[i][0]]
        p = SHAPES[shape]
        u = propagate(spec0, h1, p, 0.1).unitary.matrix
        ref = stepped_reference(h0.matrix, h1.matrix, p, 0.1, blocks)
        for idx in blocks:
            assert np.abs(u[np.ix_(idx, idx)] - ref[np.ix_(idx, idx)]).max() < 1e-12


class TestEvolveDensity:
    def test_identity_propagator(self, chain4):
        _, _, h1, spec0 = chain4
        rho = gibbs_state(spec0, 1.0)
        p = ramp(lam1=0.0, v=0.0, t_total=1e-12)
        res = propagate(spec0, h1, p, 0.01)
        out = evolve_density(rho, res)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-10

    def test_gibbs_invariant_under_own_evolution(self, chain4):
        _, _, h1, spec0 = chain4
        rho = gibbs_state(spec0, 1.0)
        res = propagate(spec0, h1, ramp(lam1=0.0, v=0.0, t_total=5.0), 0.01)
        out = evolve_density(rho, res)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-10

    def test_trace_and_purity_preserved(self, chain4):
        _, _, h1, spec0 = chain4
        rho = gibbs_state(spec0, 0.7)
        res = propagate(spec0, h1, ramp(lam1=0.3, v=0.1), 0.02)
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
        w = np.concatenate([[0.0], np.geomspace(1e-12, 1e6, 50)])
        assert np.all(spectral_response(quench(0.1), np.concatenate([-w, w])) == 0.1 * 0.1)

    @pytest.mark.parametrize(
        "lam1, v, t_total", [(0.3, 0.7, 2.0), (-0.3, 0.7, 2.0), (0.1, 0.001, 100.0)], ids=["hold", "falling", "full"]
    )
    def test_ramp_matches_closed_form(self, lam1, v, t_total):
        # the closed form the knots replaced, 4 v^2 sin^2(omega t_r / 2) / omega^2
        p = ramp(lam1=lam1, v=v, t_total=t_total)
        t_r = p.ramp_time
        w = np.geomspace(1e-9, 1e3, 400) / t_r
        w = np.concatenate([-w, w])
        oracle = 4.0 * v * v * np.sin(w * t_r / 2.0) ** 2 / w**2
        assert np.abs(spectral_response(p, w) / oracle - 1.0).max() < 1e-14

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
        partial = short_of_final()
        with pytest.raises(ProtocolError):
            spectral_response(partial, 1.0)


class TestConvergenceProbe:
    """Step halving of ``propagate``: ||U_dt - U_dt/2||, and the fourth order
    that lets a scan point be certified against a run at twice its step."""

    @staticmethod
    def halving_delta(spec0, h1, p, dt):
        full = propagate(spec0, h1, p, dt).unitary.matrix
        half = propagate(spec0, h1, p, dt / 2.0).unitary.matrix
        return float(np.linalg.norm(full - half))

    def test_zero_coupling_has_zero_defect(self, chain4):
        _, _, h1, spec0 = chain4
        assert self.halving_delta(spec0, h1, ramp(lam1=0.0, v=0.0, t_total=3.0), 0.01) < 1e-12

    def test_quench_has_zero_defect(self, chain4):
        _, _, h1, spec0 = chain4
        assert self.halving_delta(spec0, h1, quench(0.1, 5.0), 0.01) < 1e-12

    def test_defect_shrinks_sixteenfold(self, chain4):
        # fourth order: halving the step divides the defect by 2^4 (measured
        # 15.90 and 15.98); a check against a 2dt run rests on this order
        _, _, h1, spec0 = chain4
        p = ramp(lam1=0.2, v=0.1, t_total=2.0)
        a, b, c = (self.halving_delta(spec0, h1, p, dt) for dt in (0.08, 0.04, 0.02))
        assert 14.0 <= a / b <= 18.0
        assert 14.0 <= b / c <= 18.0

    def test_reports_infidelity_shift(self, chain4):
        _, h0, h1, spec0 = chain4
        p = ramp(lam1=0.1, v=0.05)
        rho0 = gibbs_state(spec0, 1.0)
        target = gibbs_state(eigendecompose(assemble(h0, h1, 0.1)), 1.0)
        a, b = (
            infidelity(evolve_density(rho0, propagate(spec0, h1, p, dt)), target)
            for dt in (0.01, 0.005)
        )
        assert abs(a - b) < 1e-6


class TestHoldPlateau:
    def test_infidelity_constant_across_hold(self, chain4):
        _, h0, h1, spec0 = chain4
        beta, lam1 = 1.0, 0.1
        target = gibbs_state(eigendecompose(OperatorMatrix.from_dense(h0.matrix + lam1 * h1.matrix)), beta)
        rho0 = gibbs_state(spec0, beta)
        values = []
        for t_total in (4.0, 2.0):  # ramp ends at t = 1
            p = ramp(lam1=lam1, v=0.1, t_total=t_total)
            res = propagate(spec0, h1, p, 0.01)
            values.append(infidelity(evolve_density(rho0, res), target))
        assert abs(values[0] - values[1]) < 1e-9
