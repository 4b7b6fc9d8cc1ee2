"""The step maps that flows call, flows, tangent flows, blow-up handling."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasebound import integrators
from phasebound.core import ConfigSpace, HamiltonianSystem, hessian_block, linearized_field_matrix
from phasebound.errors import (
    DimensionMismatchError,
    FlowIncompleteError,
    NotSeparableError,
)
from phasebound.integrators import (
    MAX_STEP_HALVINGS,
    MAX_STEPS,
    BlowUp,
    Completed,
    IntegratorConfig,
    NewtonFailure,
    energy_drift,
    flow_batch,
    flow_jacobian,
    flow_with_jacobian,
    integrate_flow,
    step_count,
    symplecticity_defect,
)
from phasebound.shooting import ShootingConfig, solve_dirichlet
from phasebound.systems import (
    _drift_system,
    linear_vector_field,
    make_cotangent_lift,
    make_free_particle,
    make_lambda_family,
    make_pendulum,
    make_quartic,
    make_sphere_geodesics,
)


def one_step(sys, scheme, t, u, p, h, cfg=None):
    """(u', p') after one step of ``scheme`` from (u, p) at t, by the step map that _march calls."""
    z = np.concatenate([np.asarray(u, dtype=float), np.asarray(p, dtype=float)])
    cfg = dataclasses.replace(cfg or IntegratorConfig(), scheme=scheme)
    step = integrators._scheme(sys, cfg)[0]
    with np.errstate(all="ignore"):
        z2, ok, _ = step(t, z[None], h)
    assert ok[0]
    return z2[0, :sys.dim], z2[0, sys.dim:]


class TestImplicitMidpointStep:
    def test_free_particle_exact(self):
        free = make_free_particle()
        u, p = one_step(free.system, "implicit-midpoint", 0.0, [0.0], [1.0], 0.5)
        np.testing.assert_allclose(u, [0.5], atol=1e-14)
        np.testing.assert_allclose(p, [1.0], atol=1e-14)

    def test_vanishing_step_is_identity(self):
        pen = make_pendulum()
        u, p = one_step(pen.system, "implicit-midpoint", 0.0, [0.7], [0.4], 1e-12)
        np.testing.assert_allclose(u, [0.7], atol=1e-10)
        np.testing.assert_allclose(p, [0.4], atol=1e-10)

    def test_matches_fixed_point_oracle(self):
        # independent solve of the midpoint equations by plain fixed-point iteration
        pen = make_pendulum()
        h = 0.1
        z = np.array([0.0, 1.0])
        z2 = z.copy()
        for _ in range(200):
            m = 0.5 * (z + z2)
            x = np.array([m[1], -np.sin(m[0])])
            z2 = z + h * x
        u, p = one_step(pen.system, "implicit-midpoint", 0.0, [0.0], [1.0], h)
        np.testing.assert_allclose([u[0], p[0]], z2, atol=1e-12)


class TestStormerVerlet:
    def test_pendulum_hand_computed(self):
        pen = make_pendulum()
        u, p = one_step(pen.system, "stormer-verlet", 0.0, [0.0], [1.0], 0.1)
        np.testing.assert_allclose(u, [0.1], atol=1e-14)
        np.testing.assert_allclose(p, [1.0 - 0.05 * np.sin(0.1)], atol=1e-14)

    def test_free_particle_exact_any_step(self):
        free = make_free_particle()
        u, p = one_step(free.system, "stormer-verlet", 0.0, [0.3], [2.0], 0.7)
        np.testing.assert_allclose(u, [0.3 + 0.7 * 2.0], atol=1e-14)
        np.testing.assert_allclose(p, [2.0], atol=1e-14)

    def test_third_order_agreement_with_midpoint(self):
        # both schemes are second order, so single steps differ at O(h^3)
        quart = make_quartic()
        diffs = []
        steps = (0.01, 0.005)
        for h in steps:
            uv, pv = one_step(quart.system, "stormer-verlet", 0.0, [1.0], [0.5], h)
            um, pm = one_step(quart.system, "implicit-midpoint", 0.0, [1.0], [0.5], h)
            diffs.append(max(abs(uv[0] - um[0]), abs(pv[0] - pm[0])))
        assert diffs[0] <= 1e-5
        ratio = diffs[0] / diffs[1]
        assert 6.0 <= ratio <= 10.0  # halving h shrinks the gap ~8x

    def test_requires_separable(self):
        lift = make_cotangent_lift()
        with pytest.raises(NotSeparableError):
            one_step(lift.system, "stormer-verlet", 0.0, [1.0], [1.0], 0.1)


class TestIntegratorConfig:
    @pytest.mark.parametrize("kw", [
        {"newton_max_iter": 0},
        {"max_step_halvings": -1},
        {"max_step_halvings": MAX_STEP_HALVINGS + 1},
        {"newton_max_iter": 2.5},
        {"max_step_halvings": True},
        {"step": True},
        {"newton_tol": "1e-12"},
        {"blowup_threshold": True},
        {"newton_tol": float("inf")},
        {"newton_tol": float("nan")},
        {"blowup_threshold": float("inf")},
        {"scheme": "leapfrog"},
        {"step": 0},
        {"step": -1e-3},
        {"step": 1.5},
        {"step": float("nan")},
        {"step": 1e-300},
    ])
    def test_rejects_invalid_settings(self, kw):
        with pytest.raises(ValueError):
            IntegratorConfig(**kw)

    def test_step_count_bound(self):
        # a step is accepted up to MAX_STEPS steps over [0, 1], not one more
        assert step_count(1.0, IntegratorConfig(step=1.0 / MAX_STEPS).step) == MAX_STEPS
        with pytest.raises(ValueError, match="at most"):
            IntegratorConfig(step=1.0 / (MAX_STEPS + 1))


class TestIntegrateFlow:
    def test_free_particle_completes(self):
        free = make_free_particle()
        res = integrate_flow(free.system, [0.0], [1.0], IntegratorConfig())
        assert isinstance(res.status, Completed)
        np.testing.assert_allclose(res.trajectory.positions[-1], [1.0], atol=1e-12)
        np.testing.assert_allclose(res.trajectory.momenta[-1], [1.0], atol=1e-14)

    def test_quartic_escapes_midway(self):
        quart = make_quartic()
        res = integrate_flow(quart.system, [4.0], [8.0], IntegratorConfig())
        assert isinstance(res.status, BlowUp)
        assert 0.45 <= res.status.t_escape <= 0.55
        u_last, p_last = res.trajectory.state(-1)
        assert abs(u_last).max() + abs(p_last).max() > IntegratorConfig().blowup_threshold

    def test_cotangent_lift_endpoint(self):
        lift = make_cotangent_lift()
        res = integrate_flow(lift.system, [1.0], [1.0], IntegratorConfig(step=1e-4))
        np.testing.assert_allclose(res.trajectory.positions[-1], [np.e], atol=1e-8)
        np.testing.assert_allclose(res.trajectory.momenta[-1], [1 / np.e], atol=1e-8)

    def test_matches_fixed_point_oracle_flow(self):
        # independent solve of every step of a 200-step pendulum flow by plain
        # fixed-point iteration of the midpoint equations
        h = 1.0 / 200
        z = np.array([0.3, 1.2])
        states = [z]
        for _ in range(200):
            z2 = z.copy()
            for _ in range(100):
                m = 0.5 * (z + z2)
                z2 = z + h * np.array([m[1], -np.sin(m[0])])
            z = z2
            states.append(z)
        res = integrate_flow(make_pendulum().system, [0.3], [1.2], IntegratorConfig(step=h))
        traj = res.trajectory
        np.testing.assert_allclose(np.hstack([traj.positions, traj.momenta]), states,
                                   rtol=0, atol=1e-12)

    def test_stored_path_is_not_copied(self):
        # a 10^4-step flow keeps its (u, p) states and its grid; the peak over
        # the call may add the scratch of a step, not a second copy of the path
        # (a copy made it 2.04 times what is kept)
        free = make_free_particle().system
        integrate_flow(free, [0.0], [1.0], IntegratorConfig(step=1e-2))  # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = integrate_flow(free, [0.0], [1.0], IntegratorConfig(step=1e-4))
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(res.trajectory.grid) == 10 ** 4 + 1
        assert peak <= 1.5 * kept

    def test_verlet_scheme_flow(self):
        pen = make_pendulum()
        cfg = IntegratorConfig(scheme="stormer-verlet", step=1e-3)
        res = integrate_flow(pen.system, [0.5], [0.8], cfg)
        assert res.completed
        assert energy_drift(pen.system, res.trajectory) < 1e-6


    @pytest.mark.parametrize("p0, t0, status", [
        (1.2, 0.0, NewtonFailure(t=0.0)),
        (1.2, 0.5, NewtonFailure(t=0.5)),
        # the initial state is over threshold / 10 = 1e7
        (2e7, 0.0, BlowUp(t_escape=0.0)),
    ])
    def test_first_step_failure_raises_its_status(self, p0, t0, status):
        # one Newton iteration and no halving: the very first step fails,
        # which leaves a one-node trajectory, too short for a time grid
        cfg = IntegratorConfig(newton_max_iter=1, max_step_halvings=0)
        with pytest.raises(FlowIncompleteError) as info:
            integrate_flow(make_pendulum().system, [0.4], [p0], cfg, t0=t0)
        assert info.value.status == status


class TestFlowJacobian:
    def test_free_particle_shear(self):
        free = make_free_particle()
        jac = flow_jacobian(free.system, [0.0], [1.0], IntegratorConfig())
        np.testing.assert_allclose(jac, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)

    def test_cotangent_lift_diagonal(self):
        lift = make_cotangent_lift()
        jac = flow_jacobian(lift.system, [1.0], [1.0], IntegratorConfig(step=1e-4))
        np.testing.assert_allclose(jac, np.diag([np.e, 1 / np.e]), atol=1e-8)

    def test_collapsed_span_is_identity(self):
        pen = make_pendulum()
        jac = flow_jacobian(pen.system, [0.3], [0.4], IntegratorConfig(), t0=0.5, t1=0.5)
        np.testing.assert_allclose(jac, np.eye(2))

    def test_incomplete_flow_raises(self):
        quart = make_quartic()
        with pytest.raises(FlowIncompleteError):
            flow_jacobian(quart.system, [4.0], [8.0], IntegratorConfig())


class TestSymplecticity:
    def test_identity(self):
        assert symplecticity_defect(np.eye(4)) == 0.0

    def test_free_particle_monodromy(self):
        free = make_free_particle()
        jac = flow_jacobian(free.system, [0.2], [0.9], IntegratorConfig())
        assert symplecticity_defect(jac) <= 1e-14

    def test_pendulum_monodromy(self):
        pen = make_pendulum()
        jac = flow_jacobian(pen.system, [0.4], [1.3], IntegratorConfig())
        assert symplecticity_defect(jac) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            symplecticity_defect(np.eye(3))


class TestSchemeProperties:
    @pytest.mark.parametrize("scheme", ["implicit-midpoint", "stormer-verlet"])
    def test_energy_drift_second_order(self, scheme):
        pen = make_pendulum()
        steps = [1 / 125, 1 / 250, 1 / 500, 1 / 1000]
        drifts = []
        for h in steps:
            cfg = IntegratorConfig(scheme=scheme, step=h)
            res = integrate_flow(pen.system, [1.0], [0.8], cfg)
            drifts.append(energy_drift(pen.system, res.trajectory))
        slope = np.polyfit(np.log(steps), np.log(drifts), 1)[0]
        assert abs(slope - 2.0) <= 0.2

    @settings(max_examples=25, deadline=None)
    @given(scheme=st.sampled_from(["implicit-midpoint", "stormer-verlet"]),
           k=st.integers(2, 98), u0=st.floats(-3.0, 3.0), p0=st.floats(-2.0, 2.0))
    def test_flow_composition(self, scheme, k, u0, p0):
        # flowing over [0, s] and then [s, 1], with s = k h on the grid, is the flow over [0, 1]
        pen = make_pendulum()
        cfg = IntegratorConfig(scheme=scheme, step=1e-2)
        s = k * cfg.step
        full = integrate_flow(pen.system, [u0], [p0], cfg)
        first = integrate_flow(pen.system, [u0], [p0], cfg, t0=0.0, t1=s)
        u_m, p_m = first.trajectory.state(-1)
        second = integrate_flow(pen.system, u_m, p_m, cfg, t0=s, t1=1.0)
        np.testing.assert_allclose(
            full.trajectory.state(-1)[0], second.trajectory.state(-1)[0], atol=1e-12)
        np.testing.assert_allclose(
            full.trajectory.state(-1)[1], second.trajectory.state(-1)[1], atol=1e-12)

    def test_blowup_monotone_and_near_exact(self):
        quart = make_quartic()
        cfg = IntegratorConfig(step=1e-4, blowup_threshold=1e10)
        escapes = []
        for u0 in (3.0, 4.0, 6.0):
            res = integrate_flow(quart.system, [u0], [u0 ** 2 / 2], cfg)
            assert isinstance(res.status, BlowUp)
            escapes.append(res.status.t_escape)
            assert abs(res.status.t_escape - 2.0 / u0) <= 0.05 * (2.0 / u0)
        assert escapes[0] > escapes[1] > escapes[2]


def counting_flow(sys):
    """The system with its closed-form flow wrapped in a call counter."""
    calls = []

    def flow(t, u0, p0):
        calls.append(t)
        return sys.analytic_flow(t, u0, p0)

    return dataclasses.replace(sys, analytic_flow=flow), calls


class TestClosedFormFlows:
    north = np.array([0.0, 0.0, 1.0])
    east = np.array([1.0, 0.0, 0.0])

    def test_sub_interval_starts_at_initial_state(self):
        sph = make_sphere_geodesics()
        cfg = IntegratorConfig()
        res = integrate_flow(sph.system, self.north, self.east, cfg, t0=0.5, t1=1.0)
        np.testing.assert_array_equal(res.trajectory.positions[0], self.north)
        np.testing.assert_array_equal(res.trajectory.momenta[0], self.east)
        assert res.trajectory.grid.nodes[0] == 0.5 and res.trajectory.grid.nodes[-1] == 1.0
        u_half, p_half = sph.facts["flow"](0.5, self.north, self.east)
        np.testing.assert_allclose(res.trajectory.positions[-1], u_half, atol=1e-15)
        np.testing.assert_allclose(res.trajectory.momenta[-1], p_half, atol=1e-15)
        whole = integrate_flow(sph.system, self.north, self.east, cfg, t0=0.0, t1=0.5)
        np.testing.assert_allclose(res.trajectory.positions, whole.trajectory.positions,
                                   atol=1e-15)

        _, _, U1, P1, ok, jac, _ = flow_batch(sph.system, self.north, self.east, cfg,
                                              t0=0.5, t1=1.0, want_jacobian=True)
        assert ok.all()
        np.testing.assert_allclose(U1[0], u_half, atol=1e-15)
        np.testing.assert_allclose(P1[0], p_half, atol=1e-15)
        np.testing.assert_allclose(jac[0], flow_jacobian(sph.system, self.north, self.east,
                                                         cfg, t0=0.0, t1=0.5), atol=1e-15)

    def test_endpoint_only_flow_is_one_evaluation(self):
        sph, calls = counting_flow(make_sphere_geodesics().system)
        rng = np.random.default_rng(3)
        U0 = np.tile(self.north, (5, 1))
        P0 = rng.uniform(-4.0, 4.0, (5, 3))
        cfg = IntegratorConfig(step=1e-2)
        grid, path, U1, P1, ok, *_ = flow_batch(sph, U0, P0, cfg, want_jacobian=True)
        assert path is None and calls == [1.0]
        calls.clear()
        _, path, U1s, P1s, oks, *_ = flow_batch(sph, U0, P0, cfg, store_path=True)
        assert len(calls) == len(grid) == path.shape[0]
        np.testing.assert_array_equal(U1, U1s)
        np.testing.assert_array_equal(P1, P1s)
        np.testing.assert_array_equal(ok, oks)

    def test_one_jacobian_call_per_flow(self):
        # vectorized: one closed-form jacobian call for all five members; row by row, one each
        sph = make_sphere_geodesics().system
        U0 = np.tile(self.north, (5, 1))
        P0 = np.random.default_rng(4).uniform(-4.0, 4.0, (5, 3))
        jacobians = []
        for vectorized, expected in ((True, 1), (False, 5)):
            calls = []

            def counted(t, u0, p0):
                calls.append(t)
                return sph.analytic_flow_jacobian(t, u0, p0)

            system = dataclasses.replace(sph, analytic_flow_jacobian=counted,
                                         vectorized=vectorized)
            jacobians.append(flow_batch(system, U0, P0, IntegratorConfig(step=1e-2),
                                        want_jacobian=True)[5])
            assert calls == [1.0] * expected
        assert jacobians[0].shape == (5, 6, 6)
        assert np.array_equal(*jacobians)

    def test_non_finite_member_is_flagged(self):
        sph = make_sphere_geodesics().system
        P0 = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
        for store_path in (False, True):
            ok = flow_batch(sph, np.tile(self.north, (2, 1)), P0, IntegratorConfig(),
                            store_path=store_path)[4]
            assert ok.tolist() == [True, False]

    def test_non_finite_member_gets_a_first_step_status(self):
        sph = make_sphere_geodesics().system
        huge = np.array([1e200, 1e200, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *_, ok, _, report = flow_batch(sph, np.tile(self.north, (2, 1)),
                                           np.stack([self.east, huge]), IntegratorConfig(),
                                           want_jacobian=True)
        assert ok.tolist() == [True, False]
        assert isinstance(report[0][0], Completed) and report[0][1] == 1000
        assert report[1] == (BlowUp(t_escape=0.0), 0, None)
        with pytest.raises(FlowIncompleteError):
            flow_with_jacobian(sph, self.north, huge, IntegratorConfig())


class TestBatchedVerlet:
    verlet = IntegratorConfig(scheme="stormer-verlet")

    @pytest.mark.parametrize("width", [1, 32])
    def test_matches_scalar_verlet(self, width):
        pen = make_pendulum()
        rng = np.random.default_rng(width)
        U0 = rng.uniform(-2.0, 2.0, (width, 1))
        P0 = rng.uniform(-3.0, 3.0, (width, 1))
        _, _, U1, P1, ok, jac, _ = flow_batch(pen.system, U0, P0, self.verlet,
                                              want_jacobian=True)
        assert ok.all()
        for b in range(width):
            res, scalar_jac = flow_with_jacobian(pen.system, U0[b], P0[b], self.verlet)
            np.testing.assert_allclose(U1[b], res.trajectory.positions[-1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(P1[b], res.trajectory.momenta[-1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(jac[b], scalar_jac, rtol=0, atol=1e-12)
            assert symplecticity_defect(jac[b]) <= 1e-12

    def test_differs_from_midpoint(self):
        pen = make_pendulum()
        midpoint = flow_batch(pen.system, [[0.5]], [[1.5]], IntegratorConfig())[2]
        verlet = flow_batch(pen.system, [[0.5]], [[1.5]], self.verlet)[2]
        assert abs(verlet[0, 0] - midpoint[0, 0]) > 1e-8

    def test_requires_separable(self):
        lift = make_cotangent_lift()
        with pytest.raises(NotSeparableError):
            flow_batch(lift.system, [[1.0]], [[1.0]], self.verlet)

    def test_non_finite_member_is_flagged(self):
        free = make_free_particle()
        _, _, U1, _, ok, jac, _ = flow_batch(free.system, [[0.0], [0.0]], [[2.0], [np.inf]],
                                             self.verlet, want_jacobian=True)
        assert ok.tolist() == [True, False]
        np.testing.assert_allclose(U1[0], [2.0], atol=1e-12)
        np.testing.assert_allclose(jac[0], [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)


def linear_field(mats):
    """(field, linearize) of dZ/dt = mats[b] Z[b], one matrix per member."""
    return (lambda t, Z: (mats @ Z[..., None])[..., 0]), (lambda t, Z: mats)


class TestBatchedMidpointFallback:
    def test_singular_member_does_not_change_its_neighbours(self):
        # A frozen linearization that makes I - h/2 A exactly singular for the
        # member at u = 100 and leaves the member at u = 0.3 regular.
        h = 0.1
        regular = np.array([[0.3, 1.0], [-0.7, 0.2]])

        def linearized(t, Z):
            far = Z[:, :1, None] > 50.0
            return np.where(far, (2.0 / h) * np.eye(2), regular)

        free = make_free_particle().system

        def field(t, Z):
            return integrators._field_batch(free, t, Z)

        Z = np.array([[0.3, 1.1], [100.0, 1.1]])
        Z2, ok, inverses = integrators._midpoint_step_batch(
            field, linearized, 0.0, Z, h, IntegratorConfig(step=h), np.eye(2))
        Z2_alone, ok_alone, inverses_alone = integrators._midpoint_step_batch(
            field, linearized, 0.0, Z[:1], h, IntegratorConfig(step=h), np.eye(2))
        assert ok_alone[0] and ok[0]
        assert np.array_equal(Z2[0], Z2_alone[0])
        assert np.array_equal(inverses[0], inverses_alone[0])

    def test_exactly_singular_member_alone_gets_pinv(self):
        # h = 2^-10 and A = 2^11 I make (h/2) A = I exactly, so member 2's N is
        # exactly 0: its inverse falls back to pinv, and the others stay as alone
        h = 2.0 ** -10
        rng = np.random.default_rng(7)
        mats = 0.5 * rng.standard_normal((5, 4, 4))
        mats[2] = 2.0 ** 11 * np.eye(4)
        Z = rng.standard_normal((5, 4))
        cfg = IntegratorConfig(step=h)
        Z2, ok, inverses = integrators._midpoint_step_batch(
            *linear_field(mats), 0.0, Z, h, cfg, np.eye(4))
        assert ok.tolist() == [True, True, False, True, True]
        for b in (0, 1, 3, 4):
            alone = integrators._midpoint_step_batch(
                *linear_field(mats[b:b + 1]), 0.0, Z[b:b + 1], h, cfg, np.eye(4))
            for got, want in zip((Z2, ok, inverses), alone):
                assert np.array_equal(got[b], want[0])
        newton = np.eye(4) - 0.5 * h * mats
        inverses = integrators._batch_solve(newton)
        assert not newton[2].any()
        for b in (0, 1, 3, 4):
            assert np.array_equal(inverses[b], np.linalg.inv(newton[b]))
        assert np.array_equal(inverses[2], np.linalg.pinv(newton[2]))


def bilinear_rows(mats):
    """H = u . mats[b] p for the member in row b: vectorized, with hess_up = mats[b],
    so its field's linearization is [[mats[b]^T, 0], [0, -mats[b]]] at every state."""
    def zeros(t, u, p):
        return np.zeros(np.shape(u) + (np.shape(u)[-1],))

    return HamiltonianSystem(
        config=ConfigSpace(mats.shape[-1]),
        hamiltonian=lambda t, u, p: np.einsum("bi,bij,bj->b", u, mats, p),
        grad_u=lambda t, u, p: (mats @ p[..., None])[..., 0],
        grad_p=lambda t, u, p: (mats.swapaxes(-1, -2) @ u[..., None])[..., 0],
        hess_uu=zeros, hess_up=lambda t, u, p: mats, hess_pp=zeros,
        vectorized=True, autonomous=True, name="bilinear-rows")


class TestBlockTangentFallback:
    def test_exactly_singular_member_alone_gets_pinv(self):
        # h = 2^-10 and mats[2] = 2^11 I make (h/2) A = diag(I, -I) exactly, so
        # member 2's N = I - (h/2) A is singular at every step of the block: its
        # inverses fall back to pinv, and every other member's exact tangents are
        # those of its block alone; member 3 is held at the middle step
        h, steps = 2.0 ** -10, 3
        rng = np.random.default_rng(7)
        mats = 0.5 * rng.standard_normal((5, 2, 2))
        mats[2] = 2.0 ** 11 * np.eye(2)
        Z, Z1 = rng.standard_normal((2, steps, 5, 4))
        moved = np.ones((steps, 5), dtype=bool)
        moved[1, 3] = False
        ts, eye = [k * h for k in range(steps)], np.eye(4)
        with np.errstate(all="ignore"):
            tangents = integrators._midpoint_tangents(bilinear_rows(mats), ts, Z, Z1, h,
                                                      moved, eye)
            for b in (0, 1, 3, 4):
                alone = integrators._midpoint_tangents(
                    bilinear_rows(mats[b:b + 1]), ts, Z[:, b:b + 1], Z1[:, b:b + 1], h,
                    moved[:, b:b + 1], eye)
                assert np.array_equal(tangents[:, b], alone[:, 0])
        newton = eye - 0.5 * h * linearized_field_matrix(bilinear_rows(mats[2:3]), 0.0,
                                                          Z[0, 2:3, :2], Z[0, 2:3, 2:])[0]
        assert np.array_equal(newton, np.diag([0.0, 0.0, 2.0, 2.0]))
        for k in range(steps):
            assert np.array_equal(tangents[k, 2], 2.0 * np.linalg.pinv(newton) - eye)


class TestInvertedStep:
    """Each midpoint step inverts its Newton matrix N = I - (h/2) A once."""

    @pytest.mark.parametrize("tangent_exact", [True, False], ids=["exact", "frozen"])
    @pytest.mark.parametrize("make", [make_pendulum, make_quartic], ids=["pendulum", "quartic"])
    def test_tangents_are_cayley_maps_and_stay_symplectic(self, make, tangent_exact):
        # 256 members, 125 steps of 1e-3; the step makes one linearization, the
        # predictor's, and its frozen tangent from it; the exact tangent is the
        # Cayley map at the converged midpoint, built here step by step
        system, h, bsz = make().system, 1e-3, 256
        Z0 = np.random.default_rng(11).uniform(-0.8, 0.8, (bsz, 2))
        eye = np.eye(2)
        last = []

        def field(t, Z):
            return integrators._field_batch(system, t, Z)

        def linearize(t, Z):
            last.append(integrators._linearized_batch(system, t, Z))
            return last[-1]

        Z, jac = Z0, np.tile(eye, (bsz, 1, 1))
        for k in range(125):
            last.clear()
            Z2, ok, n_inv = integrators._midpoint_step_batch(
                field, linearize, k * h, Z, h, IntegratorConfig(), eye)
            tangents = 2.0 * n_inv - eye
            assert ok.all() and len(last) == 1
            if tangent_exact:
                last[0] = integrators._linearized_batch(system, k * h + 0.5 * h, 0.5 * (Z + Z2))
                tangents = 2.0 * np.linalg.inv(eye - 0.5 * h * last[0]) - eye
            half = 0.5 * h * last[0]
            assert np.abs(tangents - np.linalg.solve(eye - half, eye + half)).max() <= 1e-13
            Z, jac = Z2, tangents @ jac
        assert max(symplecticity_defect(j) for j in jac) <= 1e-12
        # the step loop composes the same tangents in the same order
        flown = flow_batch(system, Z0[:, :1], Z0[:, 1:], IntegratorConfig(), 0.0, 0.125,
                           want_jacobian=True, tangent_exact=tangent_exact)[5]
        assert np.array_equal(flown, jac)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.tuples(st.integers(0, 300), st.integers(1, 6)),
                  elements=st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])))
    def test_row_max_is_max_over_axis_1(self, a):
        assert np.array_equal(integrators._row_max(a), a.max(axis=1), equal_nan=True)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.tuples(st.integers(0, 300), st.integers(1, 6)),
                  elements=st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])))
    def test_row_finite_is_all_finite_over_axis_1(self, a):
        assert np.array_equal(integrators._row_finite(a), np.isfinite(a).all(axis=1))


SCHEMES = (IntegratorConfig(), IntegratorConfig(scheme="stormer-verlet"))


class TestMaskedMembers:
    # quartic: (4, 8) lies on the growing zero-energy branch and escapes at
    # t = 1/2; the other members stay bounded on [0, 1]
    ordinary_u = np.array([[0.3], [-0.6], [0.05], [1.0], [-0.2]])
    ordinary_p = np.array([[0.2], [1.1], [-0.4], [-0.5], [0.01]])

    @pytest.mark.parametrize("cfg", SCHEMES, ids=lambda c: c.scheme)
    @pytest.mark.parametrize("with_nan", [False, True])
    def test_failing_members_leave_the_others_bit_identical(self, cfg, with_nan):
        quartic = make_quartic().system
        U0 = np.vstack([[[4.0]], self.ordinary_u] + ([[[0.5]]] if with_nan else []))
        P0 = np.vstack([[[8.0]], self.ordinary_p] + ([[[np.nan]]] if with_nan else []))
        expected_ok = [False] + [True] * len(self.ordinary_u) + ([False] if with_nan else [])
        for want_jacobian in (False, True):
            for store_path in (False, True):
                _, path, U1, P1, ok, jac, _ = flow_batch(
                    quartic, U0, P0, cfg, want_jacobian=want_jacobian, store_path=store_path)
                assert ok.tolist() == expected_ok
                # the escaping member is held at its last state under the threshold
                assert abs(U1[0, 0]) + abs(P1[0, 0]) <= cfg.blowup_threshold
                if store_path:
                    assert np.isfinite(path[:, 0, :1]).all() and np.isfinite(path[:, 0, 1:]).all()
                for b in range(1, len(self.ordinary_u) + 1):
                    _, path1, U1s, P1s, ok1, jac1, _ = flow_batch(
                        quartic, U0[b:b + 1], P0[b:b + 1], cfg,
                        want_jacobian=want_jacobian, store_path=store_path)
                    assert ok1[0]
                    assert np.array_equal(U1[b], U1s[0]) and np.array_equal(P1[b], P1s[0])
                    if want_jacobian:
                        assert np.array_equal(jac[b], jac1[0])
                    if store_path:
                        assert np.array_equal(path[:, b, :1], path1[:, 0, :1])
                        assert np.array_equal(path[:, b, 1:], path1[:, 0, 1:])

    def test_non_finite_member_gets_a_first_step_status(self):
        # a stepped batch: the NaN member stops at t0 and node 0 before any
        # step, and the others complete as they do alone
        pendulum = make_pendulum().system
        cfg = IntegratorConfig(step=1e-2)
        U0, P0 = np.array([[0.1], [np.nan], [0.3]]), np.array([[0.5], [0.2], [-0.4]])
        _, path, _, _, ok, _, report = flow_batch(pendulum, U0, P0, cfg, store_path=True)
        assert ok.tolist() == [True, False, True]
        assert report[1] == (NewtonFailure(0.0), 0, None)
        for b in (0, 2):
            assert report[b] == (Completed(), 100, None)
            _, solo, *_ = flow_batch(pendulum, U0[b:b + 1], P0[b:b + 1], cfg, store_path=True)
            assert np.array_equal(path[:, b, :1], solo[:, 0, :1])
            assert np.array_equal(path[:, b, 1:], solo[:, 0, 1:])

    def test_halving_is_per_member(self):
        # (6, 18) escapes at t = 0.33329; at h = 1e-4 its Newton solve fails on
        # the step from t = 0.3331, which only halved steps get through.  Up
        # to t = 0.3332 it completes on them, up to t = 0.4 it escapes.
        quartic = make_quartic().system
        cfg = IntegratorConfig(step=1e-4, blowup_threshold=1e10)
        U0 = np.vstack([[[6.0]], self.ordinary_u[:2]])
        P0 = np.vstack([[[18.0]], self.ordinary_p[:2]])
        for t1, fate in ((0.3332, Completed), (0.4, BlowUp)):
            _, path, _, _, ok, jac, report = flow_batch(
                quartic, U0, P0, cfg, t1=t1, want_jacobian=True, store_path=True)
            path_u, path_p = path[..., :1], path[..., 1:]
            assert ok.tolist() == [fate is Completed, True, True]
            assert isinstance(report[0][0], fate)
            for b, (status, stop, crossing) in enumerate(report):
                res, solo_jac = flow_with_jacobian(quartic, U0[b], P0[b], cfg, t1=t1)
                traj = res.trajectory
                assert status == res.status
                assert len(traj.grid) == stop + 1 + (crossing is not None)
                assert np.array_equal(traj.positions[:stop + 1], path_u[:stop + 1, b])
                assert np.array_equal(traj.momenta[:stop + 1], path_p[:stop + 1, b])
                if crossing is not None:
                    assert np.array_equal(np.concatenate(traj.state(-1)), crossing)
                if res.completed:
                    assert np.array_equal(jac[b], solo_jac)
            if fate is Completed:
                # an account of the halved step apart from flow_batch's own:
                # two half steps of the step map from node 3331, and the tangent of a
                # two-step flow over [0.3331, 0.3332] after the flow up to 0.3331
                h = t1 / 3332
                u, p = path_u[3331, 0], path_p[3331, 0]
                for t in (3331 * h, 3331 * h + 0.5 * h):
                    u, p = one_step(quartic, "implicit-midpoint", t, u, p, 0.5 * h, cfg)
                assert np.array_equal([u, p], [path_u[-1, 0], path_p[-1, 0]])
                before = flow_batch(quartic, U0[:1], P0[:1], cfg, t1=3331 * h,
                                    want_jacobian=True)[5]
                over = flow_batch(quartic, path_u[3331, :1], path_p[3331, :1], cfg, t0=3331 * h,
                                  t1=t1, want_jacobian=True)[5]
                np.testing.assert_allclose(jac[0], over[0] @ before[0], rtol=1e-9)

        # without halving, the escaping member's first failed step is a NewtonFailure,
        # and the member is dropped at that step
        no_halving = dataclasses.replace(cfg, max_step_halvings=0)
        _, stopped_path, _, _, ok, _, report = flow_batch(
            quartic, U0, P0, no_halving, t1=0.4, store_path=True)
        status, stop, crossing = report[0]
        assert isinstance(status, NewtonFailure) and crossing is None
        assert status.t == pytest.approx(stop * cfg.step)
        assert ok.tolist() == [False, True, True]
        assert (stopped_path[stop:, 0, :1] == stopped_path[stop, 0, :1]).all()
        assert (stopped_path[stop:, 0, 1:] == stopped_path[stop, 0, 1:]).all()


def nan_beyond_half():
    """H = p^2/2 whose dH/du is NaN for u > 1/2: from (0, 1) every step fails from t = 1/2 on."""
    return HamiltonianSystem(
        config=ConfigSpace(1),
        hamiltonian=lambda t, u, p: 0.5 * np.sum(p * p, axis=-1),
        grad_u=lambda t, u, p: np.where(np.asarray(u, dtype=float) > 0.5, np.nan, 0.0),
        grad_p=lambda t, u, p: np.asarray(p, dtype=float),
        vectorized=True,
        name="nan-beyond-half",
    )


def counting_march(monkeypatch):
    """Count the calls of the step loop, the redone (halved) steps included."""
    calls = []
    march = integrators._march

    def counted(*args, **kwargs):
        calls.append(args[5])  # h
        return march(*args, **kwargs)

    monkeypatch.setattr(integrators, "_march", counted)
    return calls


class TestStepHalving:
    # Halved flows pinned bit for bit: the failed step is redone by the step
    # loop itself as 2 steps of h / 2, and these values (computed before it
    # did, by a separate recursive halving routine) must not move.
    @pytest.mark.parametrize("h, stop, last, crossing, t_escape, halvings", [
        (1e-3, 500, ("-0x1.69273d1be84f6p+13", "-0x1.017cf3f2c8720p+25"),
         ("0x1.5395ac76ede77p+15", "0x1.c3fbdd55cd99bp+28"), "0x1.0020c49ba5e35p-1", 3),
        (5e-4, 999, ("0x1.7fb33143bd3d1p+12", "0x1.1355ab297fe88p+24"),
         ("-0x1.6953c223b24e9p+14", "-0x1.01af3af422e72p+27"), "0x1.0000000000000p-1", 1),
    ], ids=["h=1e-3", "h=5e-4"])
    def test_quartic_escape_is_pinned(self, monkeypatch, h, stop, last, crossing, t_escape,
                                      halvings):
        calls = counting_march(monkeypatch)
        res, jac = flow_with_jacobian(make_quartic().system, [4.0], [8.0],
                                      IntegratorConfig(step=h))
        assert len(calls) - 1 == halvings
        assert res.status == BlowUp(t_escape=float.fromhex(t_escape)) and jac is None
        traj = res.trajectory
        assert len(traj.grid) == stop + 2 and traj.grid.nodes[-1] == res.status.t_escape
        for k, state in ((-2, last), (-1, crossing)):
            assert np.concatenate(traj.state(k)).tolist() == [float.fromhex(x) for x in state]

    def test_pendulum_completes_on_halved_steps(self, monkeypatch):
        # at step 0.25 two Newton iterations are too few: 116 steps are redone, and it completes
        calls = counting_march(monkeypatch)
        cfg = IntegratorConfig(step=0.25, newton_max_iter=2)
        res, jac = flow_with_jacobian(make_pendulum().system, [0.3], [1.0], cfg)
        assert len(calls) - 1 == 116 and res.completed
        traj = res.trajectory
        assert traj.positions[:, 0].tolist() == [float.fromhex(x) for x in (
            "0x1.3333333333333p-2", "0x1.13a692ed8c496p-1", "0x1.7d6f75f39122bp-1",
            "0x1.d1abb6aa26743p-1", "0x1.06631515be7b7p+0")]
        assert traj.momenta[:, 0].tolist() == [float.fromhex(x) for x in (
            "0x1.0000000000000p+0", "0x1.cbc6d8db44427p-1", "0x1.7efab0b18bffbp-1",
            "0x1.20893ceb4e0dap-1", "0x1.6dcc4c4a91435p-2")]
        # the tangents of redone steps are composed in the step loop's own
        # product, which may round differently in the last bits
        np.testing.assert_allclose(jac, [[0.6178015434774843, 0.8817518798548686],
                                         [-0.6508737758749197, 0.6896888314258197]],
                                   rtol=1e-14, atol=0)
        # without halving, the first step fails
        report = flow_batch(make_pendulum().system, [[0.3]], [[1.0]],
                            dataclasses.replace(cfg, max_step_halvings=0))[6]
        assert report == [(NewtonFailure(t=0.0), 0, None)]

    @pytest.mark.parametrize("halvings", [0, 26, MAX_STEP_HALVINGS])
    def test_a_step_that_always_fails_gives_a_status(self, monkeypatch, halvings):
        # every substep from the state at t = 1/2 fails, down to the deepest
        # halving allowed; a deeper one could not advance time
        calls = counting_march(monkeypatch)
        res = integrate_flow(nan_beyond_half(), [0.0], [1.0],
                             IntegratorConfig(max_step_halvings=halvings))
        assert res.status == NewtonFailure(t=0.5)
        assert len(calls) - 1 == halvings
        assert calls[-1] == 1e-3 / 2 ** halvings

    @pytest.mark.parametrize("case", ["implicit-midpoint", "stormer-verlet", "no-halving",
                                      "closed-form"])
    def test_every_flow_reports_each_member(self, case):
        cfg = IntegratorConfig(step=1e-2, scheme="stormer-verlet" if case == "stormer-verlet"
                               else "implicit-midpoint",
                               max_step_halvings=0 if case == "no-halving" else 26)
        if case == "closed-form":
            system, U0 = make_sphere_geodesics().system, np.tile([0.0, 0.0, 1.0], (3, 1))
            P0 = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, 0.5, 0.0]])
        else:
            # an escaping member, an ordinary one, a NaN one and one over the threshold
            system = make_quartic().system
            U0, P0 = np.array([[4.0], [0.3], [np.nan], [1e200]]), np.array(
                [[8.0], [0.2], [0.5], [1e200]])
        for want_jacobian in (False, True):
            for store_path in (False, True):
                out = flow_batch(system, U0, P0, cfg, want_jacobian=want_jacobian,
                                 store_path=store_path)
                assert len(out) == 7
                grid, ok, report = out[0], out[4], out[6]
                assert len(report) == len(ok)
                assert [isinstance(s, Completed) for s, _, _ in report] == ok.tolist()
                for b, (status, stop, crossing) in enumerate(report):
                    assert crossing is None or isinstance(status, BlowUp)
                    assert not ok[b] or (stop == len(grid) - 1 and crossing is None)


def forced_pendulum():
    """H = p^2/2 - (1 + t) cos u: separable, vectorized and time-dependent, with a
    Hessian that moves with t, so every step's tangent needs its own time."""
    return HamiltonianSystem(
        config=ConfigSpace(1),
        hamiltonian=lambda t, u, p: 0.5 * np.sum(p * p, axis=-1) - (1.0 + t) * np.cos(u[..., 0]),
        grad_u=lambda t, u, p: (1.0 + t) * np.sin(np.asarray(u, dtype=float)),
        grad_p=lambda t, u, p: np.asarray(p, dtype=float),
        hess_uu=lambda t, u, p: ((1.0 + t) * np.cos(np.asarray(u, dtype=float)))[..., None],
        hess_pp=lambda t, u, p: np.ones(np.shape(u) + (1,)),
        separable=True,
        vectorized=True,
        name="forced-pendulum",
    )


def batch_callbacks_only(system):
    """``system`` with every callback wrapped to raise unless u and p are the 2-d
    (batch, r) arrays that a vectorized callback is promised."""
    def only_2d(fn):
        def call(t, u, p):
            if np.ndim(u) != 2 or np.ndim(p) != 2:
                raise ValueError(f"callback got u of shape {np.shape(u)}, p of {np.shape(p)}")
            return fn(t, u, p)
        return call

    names = ("hamiltonian", "grad_u", "grad_p", "hess_uu", "hess_up", "hess_pp")
    return dataclasses.replace(system, name=system.name + "-batch-callbacks",
                               **{n: only_2d(getattr(system, n)) for n in names})


def stepwise_jacobians(system_of, cfg, path, report, t0, h, frozen=False):
    """Each member's tangent flow along a stored flow, step by step and member by
    member, and the number of steps redone: the exact tangent of each step up to
    the member's stop, from the states the path holds, composed in step order.
    The tangent is the Cayley map 2 (I - (h/2) A)^-1 - I at the converged
    midpoint, or the kick-drift-kick product, or with ``frozen`` the midpoint
    step's frozen one, 2 N^-1 - I from its Newton inverse; a step that the
    step map cannot take in one is redone here too, on two steps of h / 2, and
    gets their product.  ``system_of(b)`` is member b's system, called on its
    state alone."""
    eye = np.eye(path.shape[2])
    jacobians, redone = [], []
    for b, (_, stop, _) in enumerate(report):
        sys = system_of(b)
        r = sys.dim
        step = integrators._scheme(sys, cfg)[0]

        def tangent(t, z, z1, dt):
            if cfg.scheme == "stormer-verlet":
                u, p = z[:r], z[r:]
                p_half = p - 0.5 * dt * np.asarray(sys.grad_u(t, u, p), dtype=float)
                kick0, drift, kick1 = eye.copy(), eye.copy(), eye.copy()
                kick0[r:, :r] = -0.5 * dt * hessian_block(sys, "uu", t, u, p)
                drift[:r, r:] = dt * hessian_block(sys, "pp", t + 0.5 * dt, u, p_half)
                kick1[r:, :r] = -0.5 * dt * hessian_block(sys, "uu", t + dt, z1[:r], p_half)
                return kick1 @ drift @ kick0
            m = 0.5 * (z + z1)
            a_mat = linearized_field_matrix(sys, t + 0.5 * dt, m[:r], m[r:])
            return 2.0 * np.linalg.inv(eye - 0.5 * dt * a_mat) - eye

        def taken(t, z, dt):  # (z', tangent) of a step of dt from z as the step loop takes it
            z1, ok, n_inv = step(t, z[None], dt)
            if ok[0]:
                return z1[0], 2.0 * n_inv[0] - eye if frozen else tangent(t, z, z1[0], dt)
            redone.append(t)  # as _march redoes it: steps from t0 + k * h, composed from I
            za, ta = taken(t + 0 * (0.5 * dt), z, 0.5 * dt)
            zb, tb = taken(t + 1 * (0.5 * dt), za, 0.5 * dt)
            return zb, tb @ (ta @ eye)

        jac = eye
        with np.errstate(all="ignore"):
            for k in range(stop):
                z1, step_tangent = taken(t0 + k * h, path[k, b], h)
                assert np.array_equal(z1, path[k + 1, b])
                jac = step_tangent @ jac
        jacobians.append(jac)
    return np.array(jacobians), len(redone)


LAMBDAS = np.array([1.0, 0.5, 0.0])
# (system, U0, P0, t1 and the step, integrator settings, member 0's fate under the midpoint rule)
# with 5, 16 and 37 steps for short flows, on both sides of one block of TANGENT_BLOCK steps
SHORT = ((5e-3, 1e-3), (1.6e-2, 1e-3), (3.7e-2, 1e-3))
OFF_LOOP = {
    "pendulum": (lambda: make_pendulum().system, [[0.3], [-1.0], [2.0]],
                 [[0.5], [1.2], [-0.4]], SHORT, {}, Completed),
    "pendulum-row-by-row": (
        lambda: dataclasses.replace(make_pendulum().system, vectorized=False),
        [[0.3], [-1.0]], [[0.5], [1.2]], SHORT, {}, Completed),
    "forced-pendulum": (forced_pendulum, [[0.3], [-1.0]], [[0.5], [1.2]], SHORT, {},
                        Completed),
    # callbacks that refuse anything but the (batch, r) arrays of one batch
    "pendulum-batch-callbacks": (lambda: batch_callbacks_only(make_pendulum().system),
                                 [[0.3], [-1.0], [2.0]], [[0.5], [1.2], [-0.4]], SHORT, {},
                                 Completed),
    # one weight per row, as the lambda study's family systems
    "lambda-family-rows": (lambda: _drift_system(LAMBDAS, linear_vector_field(), "rows"),
                           [[0.3], [-1.0], [2.0]], [[0.5], [1.2], [-0.4]], SHORT, {},
                           Completed),
    # (4, 8) escapes at t = 1/2, after 3 halved steps under the midpoint rule
    "quartic-escaping": (lambda: make_quartic().system, [[4.0], [0.3]], [[8.0], [0.2]],
                         ((1.0, 1e-3),), {}, BlowUp),
    # (6, 18) fails its Newton solve on the step from t = 0.3331, which halved steps get through
    "quartic-newton-failure": (lambda: make_quartic().system, [[6.0], [0.3]], [[18.0], [0.2]],
                               ((0.3332, 1e-4),),
                               {"blowup_threshold": 1e10, "max_step_halvings": 0},
                               NewtonFailure),
    "quartic-halved": (lambda: make_quartic().system, [[6.0], [0.3]], [[18.0], [0.2]],
                       ((0.3332, 1e-4),), {"blowup_threshold": 1e10}, Completed),
}
# member b's own system, for the batches whose system is not every member's
OFF_LOOP_MEMBER = {
    "lambda-family-rows": lambda b: _drift_system(LAMBDAS[b], linear_vector_field(), "row"),
    "pendulum-batch-callbacks": lambda b: make_pendulum().system,
}


class TestOffLoopTangents:
    """Exact tangents are built off the step loop, a block of steps at a time,
    and equal a loop of per-step exact derivatives bit for bit."""

    @pytest.mark.parametrize("name, scheme", [
        (name, scheme) for name in OFF_LOOP for scheme in ("implicit-midpoint", "stormer-verlet")
        if scheme == "implicit-midpoint" or name != "lambda-family-rows"])  # not separable
    def test_block_tangents_equal_a_stepwise_loop(self, name, scheme):
        make, U0, P0, spans, settings_, fate = OFF_LOOP[name]
        system = make()
        U0, P0 = np.array(U0, dtype=float), np.array(P0, dtype=float)
        member = OFF_LOOP_MEMBER.get(name, lambda b: system)
        for t1, step in spans:
            cfg = IntegratorConfig(scheme=scheme, step=step, **settings_)
            _, path, _, _, ok, jac, report = flow_batch(system, U0, P0, cfg, t1=t1,
                                                        want_jacobian=True, store_path=True)
            assert ok[1:].all()
            if scheme == "implicit-midpoint":
                assert isinstance(report[0][0], fate)
            want, redone = stepwise_jacobians(member, cfg, path, report, 0.0,
                                              t1 / (len(path) - 1))
            assert (redone > 0) == (name in ("quartic-escaping", "quartic-halved")
                                    and scheme == "implicit-midpoint")
            assert np.array_equal(jac, want)
            # the stored path takes no part in them
            assert np.array_equal(flow_batch(system, U0, P0, cfg, t1=t1, want_jacobian=True)[5],
                                  jac)

    @pytest.mark.parametrize("name", list(OFF_LOOP))
    def test_frozen_tangents_compose_as_stepwise(self, name):
        # the midpoint step's own tangents 2 N^-1 - I, a redone step's included,
        # are built from its Newton inverses a block at a time and composed in
        # step order, on both sides of a block's end
        make, U0, P0, spans, settings_, fate = OFF_LOOP[name]
        system = make()
        U0, P0 = np.array(U0, dtype=float), np.array(P0, dtype=float)
        for t1, step in spans:
            cfg = IntegratorConfig(step=step, **settings_)
            _, path, _, _, ok, jac, report = flow_batch(system, U0, P0, cfg, t1=t1,
                                                        store_path=True, want_jacobian=True,
                                                        tangent_exact=False)
            assert ok[1:].all() and isinstance(report[0][0], fate)
            want, redone = stepwise_jacobians(OFF_LOOP_MEMBER.get(name, lambda b: system), cfg,
                                              path, report, 0.0, t1 / (len(path) - 1),
                                              frozen=True)
            assert (redone > 0) == (name in ("quartic-escaping", "quartic-halved"))
            assert np.array_equal(jac, want)

    def test_path_jacobian_is_the_flows(self):
        # built from a stored path alone, as branches are from their evaluation paths
        for scheme in ("implicit-midpoint", "stormer-verlet"):
            cfg = IntegratorConfig(scheme=scheme, step=1e-3)
            _, path, _, _, ok, jac, _ = flow_batch(make_pendulum().system, [[0.3], [-1.0]],
                                                   [[0.5], [1.2]], cfg, t1=0.125,
                                                   want_jacobian=True, store_path=True)
            assert ok.all()
            got = integrators._path_jacobian(make_pendulum().system, path, cfg, t1=0.125)
            assert np.array_equal(got, jac)

    @pytest.mark.parametrize("tangent_exact", [True, False], ids=["exact", "frozen"])
    def test_memory_stays_one_block(self, tangent_exact):
        # 80 members over 2500 steps with the tangent and no stored path: the
        # states, Newton inverses and tangents of one block are kept, not the
        # flow's (its path would take 3.2 MB, its step tangents or inverses
        # 6.4 MB); the peak is mostly the block's temporaries and the returned grid
        free, n, bsz = make_free_particle().system, 2500, 80
        U0, P0 = np.linspace(-1.0, 1.0, bsz)[:, None], np.ones((bsz, 1))
        tracemalloc.start()
        try:
            ok, jac = flow_batch(free, U0, P0, IntegratorConfig(step=1.0 / n),
                                 want_jacobian=True, tangent_exact=tangent_exact)[4:6]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok.all()
        np.testing.assert_allclose(jac, np.tile([[1.0, 1.0], [0.0, 1.0]], (bsz, 1, 1)),
                                   rtol=0, atol=1e-12)
        assert peak < 1e6


class TestErrstateContract:
    @pytest.mark.parametrize("cfg", SCHEMES, ids=lambda c: c.scheme)
    def test_escaping_and_overflowing_members_warn_nothing(self, cfg):
        quartic = make_quartic().system
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok = flow_batch(quartic, [[4.0], [1e200], [0.3]], [[8.0], [1e200], [0.2]], cfg,
                            want_jacobian=True, store_path=True)[4]
            assert ok.tolist() == [False, False, True]
        assert np.geterr() == before

    def test_settings_restored_when_flow_raises(self):
        before = np.geterr()
        with pytest.raises(NotSeparableError):
            flow_batch(make_cotangent_lift().system, [[1.0]], [[1.0]], SCHEMES[1])
        assert np.geterr() == before


class TestTangentSymplecticity:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["pendulum", "quartic", "free-particle"]),
           scheme=st.sampled_from(["implicit-midpoint", "stormer-verlet"]),
           step=st.floats(0.01, 0.25), width=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_flow_batch_tangent_is_symplectic(self, name, scheme, step, width, seed):
        system = {"pendulum": make_pendulum, "quartic": make_quartic,
                  "free-particle": lambda: make_free_particle(dim=2)}[name]().system
        # |u0|, |p0| <= 0.8 keeps the quartic well away from escape on [0, 1]
        bound = 0.8 if name == "quartic" else 3.0
        rng = np.random.default_rng(seed)
        U0 = rng.uniform(-bound, bound, (width, system.dim))
        P0 = rng.uniform(-bound, bound, (width, system.dim))
        cfg = IntegratorConfig(scheme=scheme, step=step)
        ok, jac = flow_batch(system, U0, P0, cfg, want_jacobian=True)[4:6]
        assert ok.all()
        for b in range(width):
            scale = max(1.0, float(np.abs(jac[b]).max()) ** 2)
            assert symplecticity_defect(jac[b]) <= 1e-10 * scale


# (system, initial states U0 and P0, one endpoint pair for a boundary problem)
ROW_BY_ROW = {
    "pendulum": (make_pendulum, [[0.3], [-1.0], [2.0]], [[0.5], [1.2], [-0.4]],
                 ([0.0], [np.pi / 2])),
    # (4, 8) escapes at t = 1/2
    "quartic-escaping": (make_quartic, [[4.0], [0.3], [-0.6]], [[8.0], [0.2], [1.1]],
                         ([0.5], [0.3])),
    "free-particle-2d": (lambda: make_free_particle(dim=2), [[0.1, -0.2], [1.0, 0.5]],
                         [[0.3, 0.4], [-1.0, 0.2]], ([0.0, 0.0], [1.0, -0.5])),
    "sphere": (make_sphere_geodesics, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
               [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]], ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])),
    "cotangent-lift": (make_cotangent_lift, [[1.0], [-0.5]], [[0.3], [2.0]], ([1.0], [2.0])),
    "lambda-family": (lambda: make_lambda_family(0.5), [[0.0], [0.7]], [[1.0], [-0.3]],
                      ([0.0], [1.0])),
}


class TestRowByRowSystems:
    """A system declared not vectorized has its callbacks called one row at a
    time; its flows and boundary solutions equal the vectorized ones bit for bit."""

    @staticmethod
    def both(name):
        system = ROW_BY_ROW[name][0]().system
        return system, dataclasses.replace(system, vectorized=False)

    @pytest.mark.parametrize("name", ROW_BY_ROW)
    def test_flow_batch_matches_the_vectorized_run(self, name):
        fast, slow = self.both(name)
        U0, P0 = (np.array(x, dtype=float) for x in ROW_BY_ROW[name][1:3])
        schemes = ("implicit-midpoint", "stormer-verlet") if fast.separable else (
            "implicit-midpoint",)
        for scheme in schemes:
            for tangent_exact in (True, False):
                cfg = IntegratorConfig(scheme=scheme, step=1e-2)
                want, got = (flow_batch(sys, U0, P0, cfg, want_jacobian=True, store_path=True,
                                        tangent_exact=tangent_exact)
                             for sys in (fast, slow))
                for a, b in zip(want[1:6], got[1:6]):
                    assert np.array_equal(a, b)
                for (status, stop, crossing), (status1, stop1, crossing1) in zip(want[6], got[6]):
                    assert (status, stop) == (status1, stop1)
                    assert (crossing is None and crossing1 is None) or np.array_equal(
                        crossing, crossing1)

    @pytest.mark.parametrize("name", ROW_BY_ROW)
    def test_empty_batch(self, name):
        # no member: no callback call, the grid and empty states
        for sys in self.both(name):
            r = sys.dim
            grid, path, U1, P1, ok, jac, _ = flow_batch(
                sys, np.empty((0, r)), np.empty((0, r)), IntegratorConfig(step=1e-2),
                want_jacobian=True, store_path=True)
            assert len(grid.nodes) == 101
            assert path[..., :r].shape == path[..., r:].shape == (101, 0, r)
            assert U1.shape == P1.shape == (0, r) and ok.shape == (0,)
            assert jac.shape == (0, 2 * r, 2 * r)

    @pytest.mark.parametrize("name", ROW_BY_ROW)
    def test_every_flow_stores_one_state_array(self, name):
        # stepped and closed-form flows alike: the path is one (n_nodes, B, 2r) array
        # from the start states to the end states, a NaN member included, and a
        # single flow's positions and momenta are the two halves of one buffer
        # (disjoint halves, so np.shares_memory is False: they share their base)
        U0, P0 = (np.array(x, dtype=float) for x in ROW_BY_ROW[name][1:3])
        U0, P0 = np.vstack([U0, U0[:1]]), np.vstack([P0, np.full_like(P0[:1], np.nan)])
        cfg = IntegratorConfig(step=1e-2)
        for sys in self.both(name):
            grid, path, U1, P1, ok, *_ = flow_batch(sys, U0, P0, cfg, store_path=True)
            assert path.shape == (len(grid), len(U0), 2 * sys.dim)
            # the NaN member's closed-form start is not its start state
            assert np.array_equal(path[0, :-1], np.concatenate([U0, P0], axis=1)[:-1])
            assert np.array_equal(path[-1], np.concatenate([U1, P1], axis=1), equal_nan=True)
            assert not ok[-1]
            for b in (0, 1):  # quartic-escaping's member 0 ends on its crossing state
                traj = integrate_flow(sys, U0[b], P0[b], cfg).trajectory
                assert traj.positions.base is not None
                assert traj.positions.base is traj.momenta.base

    @pytest.mark.parametrize("name", ROW_BY_ROW)
    def test_solve_dirichlet_matches_the_vectorized_run(self, name):
        cfg = ShootingConfig(integrator=IntegratorConfig(step=1e-2), seed_count=6)
        want, got = (solve_dirichlet(sys, *ROW_BY_ROW[name][3], cfg) for sys in self.both(name))
        assert want.classification == got.classification
        assert len(want.solutions) == len(got.solutions)
        for a, b in zip(want.solutions, got.solutions):
            assert np.array_equal(a.p0, b.p0) and np.array_equal(a.jacobian, b.jacobian)
            assert np.array_equal(a.trajectory.positions, b.trajectory.positions)
            assert np.array_equal(a.trajectory.momenta, b.trajectory.momenta)
            assert (a.residual, a.cond) == (b.residual, b.cond)
