"""Momentum constraints, the pointwise constraint algorithm, reduction."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound import constraints
from phasebound.constraints import (
    ConstraintSpec,
    ExtendedState,
    check_dsigma,
    check_hamiltonian_descends,
    constrained_vector_field,
    extended_action,
    gotay_step,
    integrate_constrained,
    make_circle_constraint,
    make_constraint,
    make_identity_constraint,
    momentum_constraint_residual,
    polar_constraint_residual,
    presymplectic_form_matrix,
)
from phasebound.core import (
    ConfigSpace,
    HamiltonianSystem,
    TimeGrid,
    Trajectory,
    action_functional,
    check_gradients,
    hamiltonian_vector_field,
)
from phasebound.errors import (
    DimensionMismatchError,
    FlowIncompleteError,
    GridMismatchError,
    NonFiniteError,
    OffConstraintError,
    UnstableConstraintError,
)
from phasebound.integrators import IntegratorConfig, NewtonFailure, integrate_flow
from phasebound.systems import make_free_particle, make_pendulum, make_quartic


def planar_free():
    return HamiltonianSystem(
        config=ConfigSpace(2),
        hamiltonian=lambda t, u, p: 0.5 * np.sum(p * p, axis=-1),
        grad_u=lambda t, u, p: np.zeros_like(np.asarray(u, dtype=float)),
        grad_p=lambda t, u, p: np.asarray(p, dtype=float),
        vectorized=True,
        name="planar-free",
    )


def planar_height():
    # H = u_1: gradient not tangent to the circle constraint image
    return HamiltonianSystem(
        config=ConfigSpace(2),
        hamiltonian=lambda t, u, p: np.asarray(u, dtype=float)[..., 0],
        grad_u=lambda t, u, p: np.broadcast_to(
            np.array([1.0, 0.0]), np.shape(u)).astype(float),
        grad_p=lambda t, u, p: np.zeros_like(np.asarray(p, dtype=float)),
        vectorized=True,
        name="height",
    )


def planar_free_plus_height():
    return HamiltonianSystem(
        config=ConfigSpace(2),
        hamiltonian=lambda t, u, p: 0.5 * np.sum(p * p, axis=-1)
        + np.asarray(u, dtype=float)[..., 0],
        grad_u=lambda t, u, p: np.broadcast_to(
            np.array([1.0, 0.0]), np.shape(u)).astype(float),
        grad_p=lambda t, u, p: np.asarray(p, dtype=float),
        vectorized=True,
        name="free-plus-height",
    )


class TestExtendedAction:
    def test_identity_constraint_on_constraint_reduces_to_action(self):
        pen = make_pendulum()
        ident = make_identity_constraint(dim=1)
        res = integrate_flow(pen.system, [0.3], [0.8], IntegratorConfig(step=2e-3))
        chi = res.trajectory
        lam = np.zeros((len(chi.grid), 1))
        s_ext = extended_action(pen.system, ident, chi, lam, chi.momenta)
        assert s_ext == pytest.approx(action_functional(pen.system, chi), abs=1e-12)

    def test_constant_multiplier_offset(self):
        # H = 0, u = 0, p = 1, e = 0, Lambda = 2, identity sigma: integrand 2
        zero = HamiltonianSystem(
            config=ConfigSpace(1),
            hamiltonian=lambda t, u, p: 0.0,
            grad_u=lambda t, u, p: np.zeros(1),
            grad_p=lambda t, u, p: np.zeros(1),
            name="null",
        )
        ident = make_identity_constraint(dim=1)
        t = np.linspace(0, 1, 41)
        chi = Trajectory(TimeGrid(t), np.zeros((41, 1)), np.ones((41, 1)))
        s_ext = extended_action(zero, ident, chi, np.full((41, 1), 2.0), np.zeros((41, 1)))
        assert s_ext == pytest.approx(2.0, abs=1e-12)

    def test_solution_with_zero_multiplier_matches_principal_value(self):
        from phasebound.shooting import ShootingConfig, hamilton_principal_function

        free = make_free_particle()
        ident = make_identity_constraint(dim=1)
        res = integrate_flow(free.system, [0.0], [2.0], IntegratorConfig())
        chi = res.trajectory
        s_ext = extended_action(free.system, ident, chi,
                                np.zeros((len(chi.grid), 1)), chi.momenta)
        w = hamilton_principal_function(
            free.system, [0.0], [2.0],
            ShootingConfig(integrator=IntegratorConfig(), seed_count=8))
        assert s_ext == pytest.approx(w, abs=1e-9)

    def test_grid_mismatch(self):
        free = make_free_particle()
        ident = make_identity_constraint(dim=1)
        t = np.linspace(0, 1, 11)
        chi = Trajectory(TimeGrid(t), np.zeros((11, 1)), np.zeros((11, 1)))
        with pytest.raises(GridMismatchError):
            extended_action(free.system, ident, chi, np.zeros((7, 1)), np.zeros((11, 1)))


class TestConstrainedVectorField:
    def test_zero_multiplier_is_plain_dynamics(self):
        pen = make_pendulum()
        ident = make_identity_constraint(dim=1)
        st = ExtendedState([0.4], [0.9], [0.0], [0.9])
        du_c, dp_c = constrained_vector_field(pen.system, ident, st)
        du, dp = hamiltonian_vector_field(pen.system, 0.0, [0.4], [0.9])
        np.testing.assert_allclose(du_c, du)
        np.testing.assert_allclose(dp_c, dp)

    def test_circle_with_multiplier(self):
        circ = make_circle_constraint()
        st = ExtendedState([0.0, 0.0], [1.0, 0.0], [0.1, 0.0], [0.0])
        du, dp = constrained_vector_field(planar_free(), circ, st)
        np.testing.assert_allclose(du, [0.9, 0.0])
        np.testing.assert_allclose(dp, [0.0, 0.0])

    def test_free_particle_with_multiplier(self):
        free = make_free_particle()
        ident = make_identity_constraint(dim=1)
        st = ExtendedState([0.0], [1.3], [2.0], [1.3])
        du, dp = constrained_vector_field(free.system, ident, st)
        np.testing.assert_allclose(du, [1.3 - 2.0])
        np.testing.assert_allclose(dp, [0.0])


class TestPolarConstraint:
    def test_circle_aligned_multiplier_annihilates(self):
        circ = make_circle_constraint()
        np.testing.assert_allclose(polar_constraint_residual(circ, [0.0], [1.0, 0.0]), [0.0])

    def test_circle_tangent_multiplier_detected(self):
        circ = make_circle_constraint()
        np.testing.assert_allclose(polar_constraint_residual(circ, [0.0], [0.0, 1.0]), [1.0])

    def test_identity_returns_multiplier(self):
        ident = make_identity_constraint(dim=3)
        lam = np.array([0.3, -0.7, 2.0])
        np.testing.assert_allclose(polar_constraint_residual(ident, np.zeros(3), lam), lam)


class TestGotayStep:
    @pytest.mark.parametrize("nan_at", range(4))
    def test_non_finite_state_rejected(self, nan_at):
        parts = [[0.2], [0.9], [0.4], [0.5]]
        parts[nan_at] = [float("nan")]
        with pytest.raises(NonFiniteError):
            ExtendedState(*parts)

    def test_identity_constraint_primaries(self):
        pen = make_pendulum()
        ident = make_identity_constraint(dim=1)
        st = ExtendedState([0.2], [0.9], [0.4], [0.5])
        rep = gotay_step(pen.system, ident, st)
        # primary constraints: p = e and Lambda = 0 (polar residual is Lambda itself)
        np.testing.assert_allclose(rep.primary_residual, [0.4])
        np.testing.assert_allclose(rep.polar_residual, [0.4])
        assert rep.kernel_dim == 2
        assert rep.stable and rep.terminated
        # on the constraint with Lambda = 0, D reproduces the momentum equation
        st0 = ExtendedState([0.2], [0.9], [0.0], [0.9])
        rep0 = gotay_step(pen.system, ident, st0)
        np.testing.assert_allclose(
            rep0.d_velocity, -pen.system.grad_u(0.0, st0.u, st0.p), atol=1e-12)

    def test_circle_free_particle_terminates(self):
        circ = make_circle_constraint()
        st = ExtendedState([0.0, 0.0], circ.sigma_at([0.3]), [0.0, 0.0], [0.3])
        rep = gotay_step(planar_free(), circ, st)
        assert rep.stable and rep.terminated
        np.testing.assert_allclose(rep.d_velocity, [0.0], atol=1e-12)
        assert rep.kernel_dim == 3
        assert rep.c_residual <= 1e-10

    def test_circle_height_secondary_constraint(self):
        circ = make_circle_constraint()
        st = ExtendedState([0.0, 0.0], circ.sigma_at([0.0]), [0.0, 0.0], [0.0])
        rep = gotay_step(planar_height(), circ, st)
        assert not rep.stable and not rep.terminated
        np.testing.assert_allclose(np.abs(rep.secondary_direction), [1.0, 0.0], atol=1e-12)

    def test_solvability_residuals_match_direct_maps(self):
        circ = make_circle_constraint()
        st = ExtendedState([0.1, -0.2], [0.9, 0.5], [0.2, -0.1], [0.3])
        rep = gotay_step(planar_free(), circ, st)
        np.testing.assert_allclose(
            rep.primary_residual, momentum_constraint_residual(circ, st.p, st.e), atol=1e-12)
        np.testing.assert_allclose(
            rep.polar_residual, polar_constraint_residual(circ, st.e, st.lam), atol=1e-12)

    def test_extended_form_gradient_by_differences(self):
        # independent check: contract a difference-quotient dH0 with the kernel
        circ = make_circle_constraint()
        st = ExtendedState([0.1, -0.2], [0.9, 0.5], [0.2, -0.1], [0.3])
        sys = planar_free()

        def h0(z):
            u, p, lam, e = z[:2], z[2:4], z[4:6], z[6:]
            return (sys.hamiltonian(0.0, u, p)
                    + lam @ (p - circ.sigma_at(e)))

        z0 = np.concatenate([st.u, st.p, st.lam, st.e])
        fd = np.zeros(7)
        for i in range(7):
            e = np.zeros(7)
            e[i] = 1e-6
            fd[i] = (h0(z0 + e) - h0(z0 - e)) / 2e-6
        np.testing.assert_allclose(fd[4:6], momentum_constraint_residual(circ, st.p, st.e),
                                   atol=1e-7)
        np.testing.assert_allclose(fd[6:], -polar_constraint_residual(circ, st.e, st.lam),
                                   atol=1e-7)

    def test_kernel_annihilates_form(self):
        circ = make_circle_constraint()
        st = ExtendedState([0.0, 0.0], circ.sigma_at([0.0]), [0.0, 0.0], [0.0])
        rep = gotay_step(planar_free(), circ, st)
        omega0 = presymplectic_form_matrix(2, 1)
        assert np.abs(omega0 @ rep.kernel_basis).max() <= 1e-12


class TestStability:
    def test_flat_hamiltonian_stable(self):
        circ = make_circle_constraint()
        st = ExtendedState([0.3, 0.1], circ.sigma_at([0.7]), [0.0, 0.0], [0.7])
        from phasebound.constraints import stability_check

        assert stability_check(planar_free(), circ, st) == 0.0

    def test_height_hamiltonian_unstable_value(self):
        from phasebound.constraints import stability_check

        circ = make_circle_constraint()
        st = ExtendedState([0.0, 0.0], circ.sigma_at([0.0]), [0.0, 0.0], [0.0])
        assert stability_check(planar_height(), circ, st) == pytest.approx(1.0)

    def test_identity_always_stable(self):
        from phasebound.constraints import stability_check

        pen = make_pendulum()
        ident = make_identity_constraint(dim=1)
        st = ExtendedState([0.8], [0.5], [0.0], [0.5])
        assert stability_check(pen.system, ident, st) == 0.0

    def test_off_constraint_rejected(self):
        from phasebound.constraints import stability_check

        circ = make_circle_constraint()
        st = ExtendedState([0.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0])
        with pytest.raises(OffConstraintError):
            stability_check(planar_free(), circ, st)


class TestConstrainedIntegration:
    def test_unknown_gauge_rejected(self):
        with pytest.raises(ValueError, match="gauge"):
            integrate_constrained(planar_free(), make_circle_constraint(), [0.0, 0.0], [0.0],
                                  IntegratorConfig(), gauge="bogus")

    def test_circle_free_straight_line(self):
        circ = make_circle_constraint()
        res = integrate_constrained(planar_free(), circ, [0.0, 0.0], [0.0],
                                    IntegratorConfig())
        np.testing.assert_allclose(res.trajectory.positions[-1], [1.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(res.e_path, 0.0, atol=1e-12)
        np.testing.assert_allclose(res.trajectory.momenta[-1], [1.0, 0.0], atol=1e-12)
        assert res.energy_drift <= 1e-12
        assert res.max_polar_residual == 0.0

    def test_identity_reproduces_unconstrained(self):
        pen = make_pendulum()
        ident = make_identity_constraint(dim=1)
        cfgi = IntegratorConfig()
        unc = integrate_flow(pen.system, [0.4], [1.2], cfgi)
        con = integrate_constrained(pen.system, ident, [0.4], [1.2], cfgi)
        assert np.abs(unc.trajectory.positions - con.trajectory.positions).max() <= 1e-10
        assert np.abs(unc.trajectory.momenta - con.trajectory.momenta).max() <= 1e-10

    def test_first_step_newton_failure_raises_its_status(self):
        ident = make_identity_constraint(dim=1)
        with pytest.raises(FlowIncompleteError) as info:
            integrate_constrained(make_pendulum().system, ident, [0.4], [1.2],
                                  IntegratorConfig(step=4e-3, newton_max_iter=1))
        assert info.value.status == NewtonFailure(t=0.0)

    def test_newton_needs_the_difference_jacobian(self):
        # at step 0.1 the frozen Newton iteration converges within 3 iterations
        # with the difference jacobian of the field; with a zero, transposed,
        # negated or mis-scaled jacobian it needs more than 8, so a budget of 4
        # fails the first step
        res = integrate_constrained(make_pendulum().system, make_identity_constraint(dim=1),
                                    [0.4], [1.2], IntegratorConfig(step=0.1, newton_max_iter=4))
        assert res.completed

    def test_escape_stops_at_the_blow_up_threshold(self):
        # with the identity constraint (u, e) is (u, p): the threshold on
        # max|u| + max|e| stops the flow where the unconstrained flow stops
        quartic = make_quartic().system
        cfg = IntegratorConfig(blowup_threshold=100.0)
        con = integrate_constrained(quartic, make_identity_constraint(dim=1), [4.0], [8.0], cfg)
        unc = integrate_flow(quartic, [4.0], [8.0], cfg)
        assert con.status == unc.status
        assert con.status.t_escape == pytest.approx(0.349)
        assert np.array_equal(con.trajectory.grid.nodes, unc.trajectory.grid.nodes)
        assert np.abs(con.trajectory.positions - unc.trajectory.positions).max() <= 1e-10
        assert np.abs(con.trajectory.momenta - unc.trajectory.momenta).max() <= 1e-10

    def test_nan_tangency_residual_is_unstable(self):
        # dH/du = sqrt(u): from u = 0.2 at speed 1 a Newton iterate reaches
        # u < 0 near t = 0.19, where the residual is NaN, which is not tangent
        well = HamiltonianSystem(
            config=ConfigSpace(1),
            hamiltonian=lambda t, u, p: 0.5 * p[0] ** 2 + (2.0 / 3.0) * u[0] ** 1.5,
            grad_u=lambda t, u, p: np.sqrt(np.asarray(u, dtype=float)),
            grad_p=lambda t, u, p: np.asarray(p, dtype=float),
            name="root-well",
        )
        ident = make_identity_constraint(dim=1)
        with pytest.raises(UnstableConstraintError) as err:
            integrate_constrained(well, ident, [0.2], [-1.0], IntegratorConfig())
        assert err.value.t == pytest.approx(0.19, abs=0.01)
        assert np.isnan(err.value.residual)
        with np.errstate(invalid="ignore"):
            report = gotay_step(well, ident, ExtendedState([-0.1], [-1.0], [0.0], [-1.0]))
        assert not report.stable and np.isnan(report.tangency_residual)

    def test_only_the_midpoint_scheme(self):
        with pytest.raises(ValueError, match="stormer-verlet"):
            integrate_constrained(make_free_particle().system, make_identity_constraint(dim=1),
                                  [0.0], [1.0], IntegratorConfig(scheme="stormer-verlet"))

    def test_height_hamiltonian_unstable_at_start(self):
        circ = make_circle_constraint()
        with pytest.raises(UnstableConstraintError) as err:
            integrate_constrained(planar_height(), circ, [0.0, 0.0], [0.0],
                                  IntegratorConfig())
        assert err.value.t == 0.0

    def test_difference_states_do_not_count_as_path_states(self):
        # H = (|u|^2 + |p|^2)/2 with p = (e, 0): u_2 stays 0 on the path, so the
        # tangency residual dH/du_2 is 0 there; the Newton linearization
        # displaces u_2 by 1e-7, where the residual is 1e-7 and past the bound
        osc = HamiltonianSystem(
            config=ConfigSpace(2),
            hamiltonian=lambda t, u, p: 0.5 * np.sum(u * u + p * p, axis=-1),
            grad_u=lambda t, u, p: np.asarray(u, dtype=float),
            grad_p=lambda t, u, p: np.asarray(p, dtype=float),
            name="planar-oscillator",
        )
        axis = ConstraintSpec(k_dim=1, sigma=lambda e: np.array([e[0], 0.0]),
                              dsigma=lambda e: np.array([[1.0], [0.0]]), name="axis")
        res = integrate_constrained(osc, axis, [0.3, 0.0], [0.5], IntegratorConfig())
        assert res.completed
        assert res.max_tangency_residual == 0.0
        # (u_1, e) is a unit oscillator
        np.testing.assert_allclose(res.trajectory.positions[-1],
                                   [0.3 * np.cos(1.0) + 0.5 * np.sin(1.0), 0.0], atol=1e-6)

    def test_custom_gauge_shifts_velocity_and_reports_polar_residual(self):
        # any multiplier can be supplied; its polar residual is reported,
        # and the position equation picks up the -Lambda shift
        circ = make_circle_constraint()
        gauge = lambda t: np.array([0.0, 0.3])  # not polar at e = 0
        res = integrate_constrained(planar_free(), circ, [0.0, 0.0], [0.0],
                                    IntegratorConfig(), gauge=gauge)
        assert res.max_polar_residual == pytest.approx(0.3)
        np.testing.assert_allclose(res.trajectory.positions[-1], [1.0, -0.3], atol=1e-10)

    def test_integrated_residual_tolerance_helper(self):
        from phasebound.core import el_residual, integrated_el_tol

        pen = make_pendulum()
        h = 1e-3
        res = integrate_flow(pen.system, [0.7], [0.6], IntegratorConfig(step=h))
        norm = el_residual(pen.system, res.trajectory)[2]
        assert norm <= integrated_el_tol(h)


class TestDimensionChecks:
    """u, p and Lambda of length sys.dim, e of length k_dim and sigma(e) of length
    sys.dim are checked before the first step or probe."""

    @pytest.mark.parametrize("call", [
        lambda: integrate_constrained(make_free_particle(dim=2).system, make_circle_constraint(),
                                      [0, 0], [0.3, 0.5], IntegratorConfig()),
        lambda: integrate_constrained(make_free_particle(dim=2).system, make_circle_constraint(),
                                      [0, 0], [], IntegratorConfig()),
        lambda: integrate_constrained(make_pendulum().system, make_identity_constraint(2),
                                      [0.1], [0.2, 0.3], IntegratorConfig()),
        lambda: gotay_step(make_free_particle(dim=2).system, make_circle_constraint(),
                           ExtendedState([0, 0], [1, 0], [0, 0], [0.1, 0.2])),
        lambda: gotay_step(make_free_particle(dim=2).system, make_circle_constraint(),
                           ExtendedState([0, 0], [1, 0], [0], [0.1])),
        lambda: gotay_step(make_free_particle(dim=2).system, make_circle_constraint(),
                           ExtendedState([0], [1, 0], [0, 0], [0.1])),
    ], ids=["e-too-long", "e-empty", "sigma-too-long", "gotay-e-too-long", "gotay-short-lam",
            "gotay-short-u"])
    def test_mismatch_raises_before_stepping(self, call):
        with pytest.raises(DimensionMismatchError):
            call()


def kink_system(w=0.01):
    """H = p^2/2 + u^2/2 + w log cosh((u - 0.5)/w): dH/du = u + tanh((u - 0.5)/w) turns
    by 2 within a few w of u = 0.5, where a jacobian from before the kink is stale."""
    return HamiltonianSystem(
        config=ConfigSpace(1),
        hamiltonian=lambda t, u, p: 0.5 * p[0] ** 2 + 0.5 * u[0] ** 2
        + w * (np.logaddexp((u[0] - 0.5) / w, (0.5 - u[0]) / w) - np.log(2.0)),
        grad_u=lambda t, u, p: np.asarray(u, dtype=float)
        + np.tanh((np.asarray(u, dtype=float) - 0.5) / w),
        grad_p=lambda t, u, p: np.asarray(p, dtype=float),
        name="kink",
    )


class TestLaggedJacobian:
    """The difference jacobian is built once and reused across steps (simplified Newton)."""

    @pytest.mark.parametrize("case, bound", [
        (lambda: (make_pendulum().system, make_identity_constraint(1), [0.4], [1.2]), 3500),
        (lambda: (make_free_particle(dim=2).system, make_circle_constraint(), [0.1, -0.2],
                  [0.3]), 2500),
    ], ids=["identity-pendulum", "circle-free-particle"])
    def test_tangency_solves_per_flow(self, monkeypatch, case, bound):
        # a jacobian rebuilt on every step makes 7000 and 8000 solves over 1000 steps
        solves = []
        solve = constraints._tangency_solve
        monkeypatch.setattr(constraints, "_tangency_solve",
                            lambda *args: solves.append(None) or solve(*args))
        res = integrate_constrained(*case(), IntegratorConfig(step=1e-3))
        assert res.completed
        assert len(solves) <= bound

    def test_failed_step_is_rerun_on_a_fresh_jacobian(self):
        # the jacobian reused from before the kink lets Newton run past its
        # budget of 4 at t = 0.2; the rerun on a fresh jacobian converges
        sys_ = kink_system()
        cfg = IntegratorConfig(step=0.05, newton_max_iter=4)
        con = integrate_constrained(sys_, make_identity_constraint(1), [0.0], [2.0], cfg)
        unc = integrate_flow(sys_, [0.0], [2.0], cfg)
        assert con.completed and unc.completed
        assert np.abs(con.trajectory.positions - unc.trajectory.positions).max() <= 1e-12
        assert np.abs(con.trajectory.momenta - unc.trajectory.momenta).max() <= 1e-12
        assert con.trajectory.positions[-1, 0] == 1.6055978165552036

    def test_iterate_off_tangency_is_rerun_on_a_fresh_jacobian(self, monkeypatch):
        # the verdict rejects the sixth state it checks: the second Newton iterate
        # of the step from t = 0.01, the first made by an update on the jacobian
        # reused from step 1; that step is rerun once on a fresh jacobian, as a
        # failed step is, and the flow completes as it does unpatched
        def flow():
            return integrate_constrained(make_pendulum().system, make_identity_constraint(1),
                                         [0.4], [1.2], IntegratorConfig(step=1e-2))

        jacobians, times, checked = [], [], []
        difference, solve = constraints.central_difference, constraints._tangency_solve
        verdict = constraints._tangency_verdict
        monkeypatch.setattr(constraints, "central_difference",
                            lambda *args: jacobians.append(None) or difference(*args))

        def timed_solve(sys_, spec, t, u, e):
            times.append(t)
            return solve(sys_, spec, t, u, e)

        monkeypatch.setattr(constraints, "_tangency_solve", timed_solve)
        unpatched, built = flow(), len(jacobians)
        jacobians.clear()

        def rejecting(residual, grad_u):
            checked.append((times[-1], len(jacobians)))  # the field's time, jacobians so far
            norm, tangent = verdict(residual, grad_u)
            return norm, tangent and len(checked) != 6

        monkeypatch.setattr(constraints, "_tangency_verdict", rejecting)
        con = flow()
        (t_pred, n_pred), (t_mid, _), (t_rejected, n_rejected) = checked[3:6]
        assert (t_pred, t_mid) == (pytest.approx(0.01), pytest.approx(0.015))
        assert t_rejected == t_mid
        assert n_pred == n_rejected == 1  # step 1's jacobian, reused
        assert con.completed and len(jacobians) == built + 1
        for got, want in ((con.trajectory.positions, unpatched.trajectory.positions),
                          (con.trajectory.momenta, unpatched.trajectory.momenta),
                          (con.e_path, unpatched.e_path)):
            assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(u0=st.floats(-3.0, 3.0), e0=st.floats(-3.0, 3.0),
           step=st.sampled_from([1e-2, 2e-2, 5e-2]))
    def test_identity_constraint_matches_the_plain_flow(self, u0, e0, step):
        pen = make_pendulum().system
        cfg = IntegratorConfig(step=step)
        con = integrate_constrained(pen, make_identity_constraint(1), [u0], [e0], cfg)
        unc = integrate_flow(pen, [u0], [e0], cfg)
        assert con.completed
        assert np.abs(con.trajectory.positions - unc.trajectory.positions).max() <= 1e-12
        assert np.abs(con.trajectory.momenta - unc.trajectory.momenta).max() <= 1e-12


# Written by the constrained integrator's own finite-difference Newton loop,
# which the shared scalar midpoint step replaced. The identity-pendulum entry
# was rewritten when the difference jacobian came to be reused across steps:
# its positions and energy drift moved by one ulp. Otherwise results must not
# move by a bit.
CONSTRAINED_REF = json.loads(
    (Path(__file__).parent / "data" / "constrained_reference.json").read_text())

CONSTRAINED_CASES = {
    "identity-pendulum": lambda: integrate_constrained(
        make_pendulum().system, make_identity_constraint(1), [0.4], [1.2],
        IntegratorConfig(step=4e-3)),
    "circle-free-particle": lambda: integrate_constrained(
        make_free_particle(dim=2).system, make_circle_constraint(), [0.2, -0.1], [0.3],
        IntegratorConfig(step=5e-3)),
    "callable-gauge": lambda: integrate_constrained(
        make_free_particle(dim=2).system, make_circle_constraint(), [0.0, 0.5], [-0.7],
        IntegratorConfig(step=5e-3),
        gauge=lambda t: np.array([0.2 * np.sin(3.0 * t), 0.3 - t])),
}


class TestConstrainedReference:
    @pytest.mark.parametrize("name", sorted(CONSTRAINED_CASES))
    def test_bit_identical_to_reference(self, name):
        ref = CONSTRAINED_REF[name]
        res = CONSTRAINED_CASES[name]()
        traj = res.trajectory
        for got, key in ((traj.grid.nodes, "nodes"), (traj.positions, "positions"),
                         (traj.momenta, "momenta"), (res.e_path, "e_path"),
                         (res.lambda_path, "lambda_path")):
            assert np.array_equal(got, np.array(ref[key])), key
        for key in ("energy_drift", "max_polar_residual", "max_tangency_residual"):
            assert getattr(res, key) == ref[key], key
        assert repr(res.status) == ref["status"]


class TestReductionCertificate:
    def test_flat_hamiltonian_descends(self):
        circ = make_circle_constraint()
        assert check_hamiltonian_descends(planar_free(), circ,
                                          [([0.0, 0.0], [0.0])]) <= 1e-10

    def test_identity_trivially_descends(self):
        pen = make_pendulum()
        ident = make_identity_constraint(dim=1)
        assert check_hamiltonian_descends(pen.system, ident, [([0.4], [0.9])]) == 0.0

    def test_height_term_obstructs(self):
        circ = make_circle_constraint()
        val = check_hamiltonian_descends(planar_free_plus_height(), circ,
                                         [([0.0, 0.0], [0.0])])
        assert val == pytest.approx(1.0, abs=1e-6)


class TestChecksPropagateNaN:
    """A NaN disagreement makes a consistency check NaN; it is never folded away."""

    def test_check_dsigma(self):
        circ = make_circle_constraint()
        broken = ConstraintSpec(k_dim=1, sigma=lambda e: np.array([np.cos(e[0]), np.nan]),
                                dsigma=circ.dsigma)
        assert np.isnan(check_dsigma(broken, [[0.3], [1.1]]))

    def test_check_hamiltonian_descends(self):
        free = planar_free()
        nan_height = dataclasses.replace(
            free, hamiltonian=lambda t, u, p: free.hamiltonian(t, u, p) + np.nan * u[..., 0])
        assert np.isnan(check_hamiltonian_descends(nan_height, make_circle_constraint(),
                                                   [([0.0, 0.0], [0.0])]))

    def test_check_gradients(self):
        free = planar_free()
        nan_grad = dataclasses.replace(free, grad_p=lambda t, u, p: p * [1.0, np.nan])
        assert np.isnan(check_gradients(nan_grad, [(0.0, [0.1, 0.2], [0.3, 0.4])]))
        assert check_gradients(free, [(0.0, [0.1, 0.2], [0.3, 0.4])]) <= 1e-8


class TestSpecHelpers:
    def test_dsigma_consistency(self):
        circ = make_circle_constraint()
        assert check_dsigma(circ, [[0.0], [1.1], [-2.4]]) <= 1e-6

    def test_registry(self):
        spec = make_constraint("identity", dim=3)
        assert spec.k_dim == 3
        spec = make_constraint("circle")
        assert spec.k_dim == 1
        with pytest.raises(KeyError):
            make_constraint("moebius")
