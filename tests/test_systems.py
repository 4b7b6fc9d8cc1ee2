"""Bundled systems: closed-form facts and the small-kinetic-term limit."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound import shooting, systems
from phasebound.core import (ConfigSpace, HamiltonianSystem, _eval_along, action_functional,
                             central_difference, check_gradients)
from phasebound.errors import NegativeLambdaError, NonPositiveMassError, PhaseboundError
from phasebound.integrators import (IntegratorConfig, energy_drift, flow_jacobian, integrate_flow,
                                    symplecticity_defect)
from phasebound.shooting import ShootingConfig, solve_dirichlet
from phasebound.systems import (
    _drift_system,
    constant_vector_field,
    linear_vector_field,
    make_cotangent_lift,
    make_example,
    make_free_particle,
    make_lambda_family,
    make_pendulum,
    make_quartic,
    make_sphere_geodesics,
    second_order_residual,
    topological_limit_study,
)


def cfg(step=1e-3):
    return IntegratorConfig(step=step)


def forced_particle():
    """H = p^2/2 - t u, vectorized and time-dependent."""
    return HamiltonianSystem(
        config=ConfigSpace(1),
        hamiltonian=lambda t, u, p: 0.5 * np.sum(p * p, axis=-1) - t * np.sum(u, axis=-1),
        grad_u=lambda t, u, p: np.full(np.shape(u), -float(t)),
        grad_p=lambda t, u, p: np.asarray(p, dtype=float),
        vectorized=True,
        name="forced-particle",
    )


class TestConstructors:
    def test_nonpositive_mass_rejected(self):
        with pytest.raises(NonPositiveMassError):
            make_free_particle(m=0.0)
        with pytest.raises(NonPositiveMassError):
            make_quartic(m=-1.0)
        with pytest.raises(NonPositiveMassError):
            make_pendulum(m=1.0, k=0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(NegativeLambdaError):
            make_lambda_family(-0.5)

    @pytest.mark.parametrize("name, params, error", [
        ("pendulum", {"k": np.nan}, NonPositiveMassError),
        ("free-particle", {"m": np.nan}, NonPositiveMassError),
        ("quartic", {"m": np.nan}, NonPositiveMassError),
        ("pendulum", {"m": np.nan}, NonPositiveMassError),
        ("lambda-family", {"lam": np.nan}, NegativeLambdaError),
        ("cotangent-lift", {"scale": np.nan}, ValueError),
        ("lambda-family", {"c": np.nan}, ValueError),
        ("cotangent-lift", {"field": "linear", "scale": np.inf}, ValueError),
    ], ids=["pendulum-k", "free-particle-m", "quartic-m", "pendulum-m", "lambda-family-lam",
            "cotangent-lift-scale-nan", "lambda-family-c-nan", "linear-scale-inf"])
    def test_non_finite_parameters_rejected(self, name, params, error):
        # NaN fails every comparison, so each check must be written to fail on it
        with pytest.raises(error):
            make_example(name, **params)

    def test_registry_round_trip(self):
        ex = make_example("pendulum", m=2.0, k=3.0)
        assert ex.facts["small_angle_frequency"] == pytest.approx(np.sqrt(1.5))
        with pytest.raises(KeyError):
            make_example("nonesuch")

    def test_gradient_contract(self):
        for ex in (make_free_particle(), make_quartic(), make_pendulum(),
                   make_sphere_geodesics(), make_cotangent_lift(), make_lambda_family(0.7)):
            r = ex.system.dim
            probes = [(0.0, np.full(r, 0.4), np.full(r, 0.8))]
            assert check_gradients(ex.system, probes) <= 1e-6


def _written_out_callbacks(name, m, k, r):
    """A mechanical system's six callbacks, each formula written out in full."""
    kinetic = lambda p: np.sum(p * p, axis=-1) / (2.0 * m)  # noqa: E731
    shared = dict(grad_p=lambda t, u, p: np.asarray(p, dtype=float) / m,
                  hess_up=lambda t, u, p: np.zeros(np.shape(u) + (r,)))
    if name == "free-particle":
        return dict(shared,
                    hamiltonian=lambda t, u, p: kinetic(p),
                    grad_u=lambda t, u, p: np.zeros_like(np.asarray(u, dtype=float)),
                    hess_uu=lambda t, u, p: np.zeros(np.shape(u) + (r,)),
                    hess_pp=lambda t, u, p: np.zeros(np.shape(u) + (r,)) + np.eye(r) / m)
    if name == "quartic":
        return dict(shared,
                    hamiltonian=lambda t, u, p: kinetic(p) - m * np.sum(u ** 4, axis=-1) / 8.0,
                    grad_u=lambda t, u, p: -0.5 * m * np.asarray(u, dtype=float) ** 3,
                    hess_uu=lambda t, u, p: (-1.5 * m * np.asarray(u, dtype=float) ** 2)[..., None],
                    hess_pp=lambda t, u, p: np.full(np.shape(u) + (1,), 1.0 / m))
    return dict(shared,
                hamiltonian=lambda t, u, p: kinetic(p) - k * np.sum(np.cos(u), axis=-1),
                grad_u=lambda t, u, p: k * np.sin(np.asarray(u, dtype=float)),
                hess_uu=lambda t, u, p: (k * np.cos(np.asarray(u, dtype=float)))[..., None],
                hess_pp=lambda t, u, p: np.full(np.shape(u) + (1,), 1.0 / m))


class TestKineticCallbacks:
    @pytest.mark.parametrize("name, params, r", [
        ("free-particle", {"m": 1.7}, 1),
        ("free-particle", {"m": 1.7, "dim": 2}, 2),
        ("quartic", {"m": 1.7}, 1),
        ("pendulum", {"m": 1.7, "k": 2.3}, 1),
    ], ids=["free-particle-dim-1", "free-particle-dim-2", "quartic", "pendulum"])
    def test_callbacks_match_the_written_out_formulas_bit_for_bit(self, name, params, r):
        sys = make_example(name, **params).system
        expected = _written_out_callbacks(name, params["m"], params.get("k"), r)
        rng = np.random.default_rng(20)
        batch = (3.0 * rng.standard_normal((8, r)), 3.0 * rng.standard_normal((8, r)))
        for u, p in (batch, (batch[0][0], batch[1][0]), (np.zeros(r), np.zeros(r))):
            for callback, formula in expected.items():
                got = getattr(sys, callback)(0.4, u, p)
                assert np.array_equal(got, formula(0.4, u, p)), (callback, np.shape(u))
        assert (sys.separable, sys.vectorized, sys.autonomous) == (True, True, True)


class TestFreeParticle:
    def test_unit_mass_flow(self):
        free = make_free_particle()
        u, p = free.facts["flow"](1.0, np.array([0.0]), np.array([1.0]))
        np.testing.assert_allclose([u[0], p[0]], [1.0, 1.0])

    def test_heavier_mass_flow(self):
        free = make_free_particle(m=2.0)
        res = integrate_flow(free.system, [0.0], [1.0], cfg())
        np.testing.assert_allclose(res.trajectory.positions[-1], [0.5], atol=1e-12)

    def test_principal_function_fact(self):
        free = make_free_particle()
        assert free.facts["principal_function"]([0.0], [2.0]) == pytest.approx(2.0)


class TestQuartic:
    def test_escape_time_fact(self):
        quart = make_quartic()
        assert quart.facts["escape_time"](4.0) == pytest.approx(0.5)
        assert quart.facts["blows_up"](4.0)
        assert not quart.facts["blows_up"](1.0)

    def test_growing_branch_reaches_two(self):
        quart = make_quartic()
        res = integrate_flow(quart.system, [1.0], [0.5], cfg(5e-4))
        np.testing.assert_allclose(res.trajectory.positions[-1], [2.0], atol=1e-6)

    def test_decaying_branch(self):
        quart = make_quartic()
        res = integrate_flow(quart.system, [1.0], [-0.5], cfg(5e-4))
        np.testing.assert_allclose(res.trajectory.positions[-1], [2.0 / 3.0], atol=1e-6)


class TestSphere:
    def test_antipode_at_speed_pi(self):
        sph = make_sphere_geodesics()
        north = sph.facts["north_pole"]
        u1, _ = sph.facts["flow"](1.0, north, np.pi * np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(u1, -north, atol=1e-12)

    def test_zero_momentum_rest(self):
        sph = make_sphere_geodesics()
        north = sph.facts["north_pole"]
        u1, p1 = sph.facts["flow"](1.0, north, np.zeros(3))
        np.testing.assert_allclose(u1, north)
        np.testing.assert_allclose(p1, np.zeros(3))

    @staticmethod
    def assert_jacobian_matches_differences(u0, p0, atol):
        # each member's jacobian against the central differences of its own flow
        sph = make_sphere_geodesics().system
        flow, exact = sph.analytic_flow, sph.analytic_flow_jacobian(1.0, u0, p0)
        assert exact.shape == u0.shape[:-1] + (6, 6)
        for b in np.ndindex(u0.shape[:-1]):
            fd = central_difference(lambda z: np.concatenate(flow(1.0, z[:3], z[3:])),
                                    np.concatenate([u0[b], p0[b]]), 1e-6)
            np.testing.assert_allclose(exact[b], fd, atol=atol)

    def test_flow_jacobian_matches_differences(self):
        u0 = np.array([0.0, 0.0, 1.0])
        p0 = np.array([0.8, 0.4, 0.0])
        self.assert_jacobian_matches_differences(u0, p0, 1e-7)
        # a mixed batch: this member, one at rest, one below the rest threshold, two faster
        U0 = np.array([u0, u0, [1.0, 0.0, 0.0], [0.6, 0.0, 0.8], [0.3, -0.5, 0.2]])
        P0 = np.array([p0, np.zeros(3), [0.0, 1e-13, 0.0], [0.0, 2.5, -1.0], [-3.1, 0.7, 1.9]])
        self.assert_jacobian_matches_differences(U0, P0, 1e-7)

    def test_flow_jacobian_at_rest_matches_differences(self):
        # zero momentum takes the jacobian's closed-form branch for s = 0
        u0 = np.array([0.0, 0.0, 1.0])
        self.assert_jacobian_matches_differences(u0, np.zeros(3), 1e-8)
        # a mixed batch: members at rest and below the rest threshold beside a moving one
        U0 = np.array([u0, [1.0, 0.0, 0.0], u0, [0.6, 0.0, 0.8]])
        P0 = np.array([np.zeros(3), np.zeros(3), [0.8, 0.4, 0.0], [0.0, -1e-13, 1e-13]])
        self.assert_jacobian_matches_differences(U0, P0, 1e-8)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(t=st.floats(0.0, 1.0), members=st.lists(st.tuples(
        st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        # log10 of the momentum's scale: |p0| from 0 (-inf) and about 1e-13 up to 4e3
        st.one_of(st.just(-np.inf), st.floats(-13.2, -12.8), st.floats(-13.0, 3.36)),
    ), min_size=1, max_size=8))
    def test_batched_jacobian_equals_the_member_calls(self, t, members):
        jacobian = make_sphere_geodesics().system.analytic_flow_jacobian
        U0 = np.array([u for u, _, _ in members])
        P0 = np.array([np.array(d) * 10.0 ** scale for _, d, scale in members])
        batched = jacobian(t, U0, P0)
        assert batched.shape == (len(members), 6, 6)
        for b in range(len(members)):
            assert np.array_equal(batched[b], jacobian(t, U0[b], P0[b]))

    # The closed-form jacobian differentiates the great-circle formula in R^6,
    # which off T*S^2 is not the flow of |u|^2 |p|^2 / 2; the defect reads 1.50.
    @pytest.mark.xfail(strict=True, reason="the sphere's closed-form tangent flow is not "
                                           "symplectic (see CHANGES.md)")
    def test_tangent_flow_is_symplectic(self):
        jac = flow_jacobian(make_sphere_geodesics().system, [0.0, 0.0, 1.0], [1.2, 0.3, 0.0],
                            IntegratorConfig())
        assert symplecticity_defect(jac) <= 1e-10

    def test_stays_on_sphere_for_tangent_data(self):
        sph = make_sphere_geodesics()
        res = integrate_flow(sph.system, [0.0, 0.0, 1.0], [1.3, 0.0, 0.0], cfg())
        radii = np.linalg.norm(res.trajectory.positions, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)


class TestCotangentLift:
    def test_constant_field_translation(self):
        lift = make_cotangent_lift(constant_vector_field([0.7]))
        res = integrate_flow(lift.system, [0.2], [1.4], cfg())
        np.testing.assert_allclose(res.trajectory.positions[-1], [0.9], atol=1e-10)
        np.testing.assert_allclose(res.trajectory.momenta[-1], [1.4], atol=1e-10)

    def test_linear_field_exponential(self):
        lift = make_cotangent_lift()
        res = integrate_flow(lift.system, [1.0], [1.0], cfg(1e-4))
        np.testing.assert_allclose(res.trajectory.positions[-1], [np.e], atol=1e-8)
        np.testing.assert_allclose(res.trajectory.momenta[-1], [1 / np.e], atol=1e-8)

    def test_off_graph_unreachable(self):
        lift = make_cotangent_lift(constant_vector_field([1.0]))
        sols = solve_dirichlet(lift.system, [0.0], [0.5],
                               ShootingConfig(integrator=cfg(), seed_count=8))
        assert sols.classification.kind == "NoSolution"


class TestLambdaFamily:
    def test_zero_lambda_matches_cotangent_lift(self):
        rng = np.random.default_rng(8)
        for r in (1, 2):
            field = linear_vector_field(r)
            fam = make_lambda_family(0.0, field)
            lift = make_cotangent_lift(field)
            u, p = rng.uniform(-1, 1, (2, 8, r))
            for name in ("hamiltonian", "grad_u", "grad_p", "hess_uu", "hess_up", "hess_pp"):
                assert np.array_equal(getattr(fam.system, name)(0.0, u, p),
                                      getattr(lift.system, name)(0.0, u, p)), (r, name)

    def test_constant_field_momentum_formula(self):
        lam = 0.25
        fam = make_lambda_family(lam, constant_vector_field([1.0]))
        sols = solve_dirichlet(fam.system, [0.0], [2.0],
                               ShootingConfig(integrator=cfg(), seed_count=8))
        assert sols.classification.kind == "Unique"
        np.testing.assert_allclose(sols.solutions[0].p0, [(2.0 - 1.0) / lam], atol=1e-8)

    def test_unit_lambda_zero_field_is_free(self):
        fam = make_lambda_family(1.0, constant_vector_field([0.0]))
        free = make_free_particle()
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.uniform(-1, 1, 1)
            p = rng.uniform(-1, 1, 1)
            assert fam.system.hamiltonian(0.0, u, p) == pytest.approx(
                free.system.hamiltonian(0.0, u, p))

    def test_registry_default_field_is_the_factorys(self):
        # X = 1 on the line for both: grad_p at (u, p) = (3, 0) is X(3) = 1, not u = 3
        named = make_example("lambda-family").system.grad_p(0.0, [3.0], [0.0])
        assert np.array_equal(named, make_lambda_family(1.0).system.grad_p(0.0, [3.0], [0.0]))
        assert np.array_equal(named, [1.0])


class TestTopologicalLimit:
    def test_momentum_diverges_as_inverse_lambda(self):
        lambdas = [1.0, 0.5, 0.25, 0.125]
        report = topological_limit_study(lambdas, [0.0], [2.0])
        for row, lam in zip(report.rows, lambdas):
            assert row.status == "ok"
            np.testing.assert_allclose(row.p0, [1.0 / lam], rtol=1e-6)
            assert row.second_order_residual <= 1e-6
        assert report.momentum_slope == pytest.approx(-1.0, abs=0.05)

    def test_on_graph_momentum_vanishes_and_flowline_converges(self):
        lambdas = [1.0, 0.5, 0.25]
        report = topological_limit_study(lambdas, [0.0], [1.0])  # u1 = u0 + c
        for row in report.rows:
            np.testing.assert_allclose(row.p0, [0.0], atol=1e-9)
            assert row.flowline_distance <= 1e-9

    def test_solver_error_becomes_the_row_note(self, monkeypatch):
        def failing(*args, **kwargs):
            raise PhaseboundError("midpoint Newton stalled at t=0.5")

        monkeypatch.setattr(shooting, "solve_dirichlet_many", failing)
        report = topological_limit_study([1.0, 0.5], [0.0], [2.0])
        assert [row.status for row in report.rows] == \
            ["solver error: midpoint Newton stalled at t=0.5"] * 2
        assert all(row.p0 is None for row in report.rows)
        assert report.momentum_slope is None

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword")

        monkeypatch.setattr(shooting, "solve_dirichlet_many", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            topological_limit_study([1.0], [0.0], [2.0])

    @pytest.mark.parametrize("field, u0, u1, newton_tol", [
        (None, [0.0], [2.0], 1e-10),
        (linear_vector_field(1), [1.0], [np.e], 1e-6),
    ], ids=["constant", "linear"])
    def test_batched_study_equals_one_solve_per_lambda(self, field, u0, u1, newton_tol):
        lambdas = [1.0, 0.5, 0.25, 0.0]
        scfg = ShootingConfig(seed_count=8, newton_tol=newton_tol)
        report = topological_limit_study(lambdas, u0, u1, scfg, field)
        assert [row.lam for row in report.rows] == lambdas
        for row, lam in zip(report.rows, lambdas):
            ex = make_lambda_family(lam, field)
            x_flow = ex.facts["field"].flow
            sols = solve_dirichlet(ex.system, u0, u1, scfg)
            if not sols.solutions:
                assert (row.p0, row.action, row.status) == (None, None, "NoSolution")
                continue
            traj = sols.solutions[0].trajectory
            line = np.array([x_flow(t, np.array(u0)) for t in traj.grid.nodes])
            assert row.status == "ok"
            assert np.array_equal(row.p0, sols.solutions[0].p0)
            assert row.action == action_functional(ex.system, traj)
            residual = second_order_residual(ex.facts["field"], traj)[1]
            assert row.second_order_residual == residual
            assert row.flowline_distance == float(np.abs(traj.positions - line).max())
        if field:  # the lam = 0 row joins the pair too, with a nonzero p0
            assert report.rows[-1].status == "ok" and report.rows[-1].p0[0] != 0.0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_drift_rows_equal_the_scalar_systems(self, dim):
        field = linear_vector_field(dim, scale=-0.7)
        X = field.X
        lambdas = [1.0, 0.5, 0.0]
        rng = np.random.default_rng(5)
        U, P = rng.uniform(-2, 2, (2, len(lambdas), dim))
        rows = _drift_system(np.array(lambdas), field, "rows")
        for k, lam in enumerate(lambdas):
            one = _drift_system(lam, field, "one")
            for fn in ("grad_p", "hamiltonian", "hess_pp", "grad_u", "hess_uu", "hess_up"):
                assert np.array_equal(getattr(rows, fn)(0.0, U, P)[k],
                                      getattr(one, fn)(0.0, U[k], P[k])), fn
        # 0 p + X(u) is X(u), and a zero weight leaves no kinetic term
        assert np.array_equal(rows.grad_p(0.0, U, P)[-1], X(U[-1]))
        assert np.array_equal(rows.hamiltonian(0.0, U, P)[-1], np.sum(P[-1] * X(U[-1])))
        assert not rows.hess_pp(0.0, U, P)[-1].any()

    def test_verlet_study_notes_every_row_with_the_batch_error(self):
        scfg = ShootingConfig(integrator=IntegratorConfig(scheme="stormer-verlet"))
        report = topological_limit_study([1.0, 0.5, 0.0], [0.0], [2.0], scfg)
        assert [row.status for row in report.rows] == [
            "solver error: system 'lambda-family' is not declared separable"] * 3
        assert report.momentum_slope is None

    def test_one_batched_solve_and_no_per_lambda_call(self, monkeypatch):
        many, calls = shooting.solve_dirichlet_many, []

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return many(*args, **kwargs)

        def per_lambda(*args, **kwargs):
            raise AssertionError("the study solves one batch only")

        monkeypatch.setattr(shooting, "solve_dirichlet_many", counted)
        monkeypatch.setattr(shooting, "solve_dirichlet", per_lambda)
        monkeypatch.setattr(systems, "make_lambda_family", per_lambda)
        solved = topological_limit_study([1.0, 0.5], [0.0], [2.0], ShootingConfig(seed_count=4))
        assert calls == [2] and [row.status for row in solved.rows] == ["ok"] * 2
        verlet = ShootingConfig(integrator=IntegratorConfig(scheme="stormer-verlet"))
        failed = topological_limit_study([1.0, 0.5], [0.0], [2.0], verlet)
        assert calls == [2, 2]
        assert all(row.status.startswith("solver error: ") for row in failed.rows)

    def test_negative_lambda_raises_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(shooting, "solve_dirichlet_many", lambda *args, **kw: calls.append(1))
        for lambdas, shown in (([1.0, -0.5], "-0.5"), ([np.nan, 0.5], "nan")):
            with pytest.raises(NegativeLambdaError, match=shown):
                topological_limit_study(lambdas, [0.0], [2.0])
        assert calls == []

    def test_junction_jumps_are_far_below_what_the_residual_bound_tolerates(self):
        """Tripwire for acceptance criterion 8's bound of 1e-6 on second_order_residual.

        The residual differentiates the stitched multiple-shooting path twice, so
        it reads a jump d at a segment junction as about 4.5e5 d and breaks the
        bound from d of about 2e-12.  Each segment is flown again from its start
        node over [0, 1/M]; its end must meet the next segment's start.
        """
        icfg = IntegratorConfig(step=1e-3)
        scfg = ShootingConfig(integrator=icfg, seed_count=8)
        worst = 0.0
        for lam in (1.0, 0.5, 0.25, 0.125):
            sys = make_lambda_family(lam).system
            m = shooting._segment_count(sys, icfg)
            assert m == 8
            traj = solve_dirichlet(sys, [0.0], [2.0], scfg).solutions[0].trajectory
            n = (len(traj.grid.nodes) - 1) // m
            for k in range(1, m + 1):
                start = (k - 1) * n
                seg = integrate_flow(sys, traj.positions[start], traj.momenta[start], icfg,
                                     0.0, 1.0 / m).trajectory
                worst = max(worst, np.abs(seg.positions[-1] - traj.positions[k * n]).max(),
                            np.abs(seg.momenta[-1] - traj.momenta[k * n]).max())
        assert worst <= 1e-13

    def test_second_order_residual_detects_non_solutions(self):
        from phasebound.core import TimeGrid, Trajectory

        t = np.linspace(0, 1, 400)
        bogus = Trajectory(TimeGrid(t), (t ** 3)[:, None], np.ones((400, 1)))
        _, norm = second_order_residual(constant_vector_field([1.0]), bogus)
        assert norm > 1.0


class TestEnergyConservation:
    @pytest.mark.parametrize("maker,state", [
        (make_free_particle, ([0.3], [1.1])),
        (make_quartic, ([0.9], [0.3])),
        (make_pendulum, ([0.4], [1.2])),
        (make_cotangent_lift, ([1.0], [1.0])),
    ])
    def test_drift_within_budget(self, maker, state):
        ex = maker()
        res = integrate_flow(ex.system, state[0], state[1], cfg())
        assert energy_drift(ex.system, res.trajectory) <= 1e-6

    @pytest.mark.parametrize("name, state", [
        ("free-particle", ([0.3], [1.1])),
        ("quartic", ([0.9], [0.3])),
        ("pendulum", ([0.4], [1.2])),
        ("cotangent-lift", ([1.0], [1.0])),
        ("sphere", ([0.0, 0.0, 1.0], [0.5, 0.0, 0.0])),
        ("forced-particle", ([0.2], [0.5])),
    ])
    def test_one_call_along_the_trajectory_equals_the_node_loop(self, name, state):
        # each system as declared, row by row and time-dependent: one call at t[0] on
        # all nodes only when vectorized and autonomous, else one call per node
        system = forced_particle() if name == "forced-particle" else make_example(name).system
        traj = integrate_flow(system, state[0], state[1], cfg()).trajectory
        t = traj.grid.nodes
        for sys in (system, dataclasses.replace(system, vectorized=False),
                    dataclasses.replace(system, autonomous=False)):
            for fn in (sys.hamiltonian, sys.grad_u, sys.grad_p):
                loop = np.array([fn(t[k], traj.positions[k], traj.momenta[k])
                                 for k in range(len(t))])
                calls = []

                def counted(tt, u, p, fn=fn):
                    calls.append(tt)
                    return fn(tt, u, p)

                assert np.array_equal(_eval_along(sys, traj, counted), loop)
                if sys.autonomous:
                    assert len(calls) == (1 if sys.vectorized else len(t))
                else:
                    assert calls == list(t)
