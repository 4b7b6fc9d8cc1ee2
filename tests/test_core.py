"""Phase-space curve representation, action, residuals, and boundary forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound.core import (
    BoundaryPoint,
    BoundaryTangent,
    ConfigSpace,
    HamiltonianSystem,
    TimeGrid,
    Trajectory,
    action_functional,
    alpha_eval,
    boundary_omega_matrix,
    boundary_projection,
    central_difference,
    central_points,
    central_quotient,
    el_residual,
    grid_derivative,
    hamiltonian_vector_field,
    omega_eval,
    wrap_angle,
)
from phasebound.errors import (
    DimensionMismatchError,
    GridTooCoarseError,
    NonFiniteError,
)
from phasebound.selftest import action_variation_defect, smooth_test_trajectory, smooth_variation
from phasebound.systems import make_free_particle, make_pendulum, make_quartic


def sampled(sys_dim, t, u_fn, p_fn):
    u = np.stack([np.atleast_1d(u_fn(tk)) for tk in t])
    p = np.stack([np.atleast_1d(p_fn(tk)) for tk in t])
    return Trajectory(TimeGrid(t), u, p)


class TestVectorField:
    def test_free_particle(self):
        free = make_free_particle()
        du, dp = hamiltonian_vector_field(free.system, 0.0, [1.0], [3.0])
        np.testing.assert_allclose(du, [3.0])
        np.testing.assert_allclose(dp, [0.0])

    def test_quartic(self):
        # dp/dt = m u^3 / 2 for the zero-energy-consistent quartic potential
        quart = make_quartic()
        du, dp = hamiltonian_vector_field(quart.system, 0.0, [2.0], [0.0])
        np.testing.assert_allclose(du, [0.0])
        np.testing.assert_allclose(dp, [4.0])

    def test_pendulum_at_origin(self):
        pen = make_pendulum()
        du, dp = hamiltonian_vector_field(pen.system, 0.0, [0.0], [1.0])
        np.testing.assert_allclose(du, [1.0])
        np.testing.assert_allclose(dp, [0.0])

    def test_nonfinite_raises(self):
        free = make_free_particle()
        with pytest.raises(NonFiniteError):
            hamiltonian_vector_field(free.system, 0.0, [1.0], [np.inf])


class TestAction:
    def test_zero_on_resting_free_particle(self):
        free = make_free_particle()
        t = np.linspace(0, 1, 11)
        chi = sampled(1, t, lambda tk: 0.0, lambda tk: 0.0)
        assert action_functional(free.system, chi) == 0.0

    def test_uniform_motion(self):
        free = make_free_particle()
        t = np.linspace(0, 1, 101)
        chi = sampled(1, t, lambda tk: tk, lambda tk: 1.0)
        assert abs(action_functional(free.system, chi) - 0.5) < 1e-10

    def test_resting_pendulum(self):
        pen = make_pendulum()
        t = np.linspace(0, 1, 51)
        chi = sampled(1, t, lambda tk: 0.0, lambda tk: 0.0)
        assert abs(action_functional(pen.system, chi) - 1.0) < 1e-12

    def test_grid_too_coarse(self):
        free = make_free_particle()
        with pytest.raises(GridTooCoarseError):
            chi = Trajectory(TimeGrid([0.0, 1.0]), np.zeros((2, 1)), np.zeros((2, 1)))
            action_functional(free.system, chi)


class TestElResidual:
    def test_free_solution_is_accepted(self):
        free = make_free_particle()
        t = np.linspace(0, 1, 200)
        chi = sampled(1, t, lambda tk: 0.2 + 1.7 * tk, lambda tk: 1.7)
        assert el_residual(free.system, chi)[2] <= 1e-10

    def test_non_solution_residual_values(self):
        free = make_free_particle()
        t = np.linspace(0, 1, 200)
        chi = sampled(1, t, lambda tk: tk ** 2, lambda tk: 1.0)
        res_u, res_p, norm = el_residual(free.system, chi)
        np.testing.assert_allclose(res_u[:, 0], 2 * t - 1, atol=1e-10)
        assert norm > 0.5

    def test_quartic_closed_form(self):
        quart = make_quartic()
        t = np.linspace(0, 1, 2000)
        chi = sampled(1, t, lambda tk: 2.0 / (2.0 - tk), lambda tk: (2.0 / (2.0 - tk)) ** 2 / 2)
        assert el_residual(quart.system, chi)[2] <= 1e-6


class TestBoundaryProjection:
    def test_uniform_motion(self):
        t = np.linspace(0, 1, 21)
        chi = sampled(1, t, lambda tk: tk, lambda tk: 1.0)
        bp = boundary_projection(chi)
        np.testing.assert_allclose(
            [bp.u0[0], bp.p0[0], bp.u1[0], bp.p1[0]], [0.0, 1.0, 1.0, 1.0])

    def test_constant_curve(self):
        t = np.linspace(0, 1, 21)
        chi = sampled(1, t, lambda tk: 0.3, lambda tk: -2.0)
        bp = boundary_projection(chi)
        np.testing.assert_allclose(
            [bp.u0[0], bp.p0[0], bp.u1[0], bp.p1[0]], [0.3, -2.0, 0.3, -2.0])

    def test_quartic_growing_branch(self):
        t = np.linspace(0, 1, 401)
        chi = sampled(1, t, lambda tk: 2.0 / (2.0 - tk), lambda tk: (2.0 / (2.0 - tk)) ** 2 / 2)
        bp = boundary_projection(chi)
        np.testing.assert_allclose(
            [bp.u0[0], bp.p0[0], bp.u1[0], bp.p1[0]], [1.0, 0.5, 2.0, 2.0], atol=1e-12)

    def test_partial_grid_rejected(self):
        chi = Trajectory(TimeGrid(np.linspace(0, 0.5, 11)), np.zeros((11, 1)), np.zeros((11, 1)))
        with pytest.raises(GridTooCoarseError):
            boundary_projection(chi)


class TestBoundaryForms:
    def test_alpha_direct(self):
        bp = BoundaryPoint(0.0, 2.0, 1.0, 3.0)
        v = BoundaryTangent(1.0, 0.0, 1.0, 0.0)
        assert alpha_eval(bp, v) == 1.0

    def test_alpha_annihilates_fiber_directions(self):
        bp = BoundaryPoint(0.4, -1.0, 2.0, 5.0)
        v = BoundaryTangent(0.0, 3.0, 0.0, -7.0)
        assert alpha_eval(bp, v) == 0.0

    def test_alpha_endpoint_term(self):
        bp = BoundaryPoint(0.0, 0.0, 0.0, 5.0)
        v = BoundaryTangent(0.0, 0.0, 2.0, 0.0)
        assert alpha_eval(bp, v) == 10.0

    def test_omega_canonical_pairs(self):
        e = np.eye(2)
        v_u1 = BoundaryTangent(e[0] * 0, e[0] * 0, e[0], e[0] * 0)
        w_p1 = BoundaryTangent(e[0] * 0, e[0] * 0, e[0] * 0, e[0])
        assert omega_eval(v_u1, w_p1) == 1.0
        v_u0 = BoundaryTangent(e[0], e[0] * 0, e[0] * 0, e[0] * 0)
        w_p0 = BoundaryTangent(e[0] * 0, e[0], e[0] * 0, e[0] * 0)
        assert omega_eval(v_u0, w_p0) == -1.0

    def test_omega_antisymmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            v = BoundaryTangent(*(rng.normal(size=3) for _ in range(4)))
            w = BoundaryTangent(*(rng.normal(size=3) for _ in range(4)))
            assert abs(omega_eval(v, w) + omega_eval(w, v)) <= 1e-14
            assert omega_eval(v, v) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(r=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_omega_matrix_antisymmetric(self, r, seed):
        # the matrix is exactly antisymmetric and is the matrix of omega_eval
        m = boundary_omega_matrix(r)
        assert np.array_equal(m.T, -m)
        rng = np.random.default_rng(seed)
        v, w = rng.normal(size=(2, 4 * r))
        form = omega_eval(BoundaryTangent(*v.reshape(4, r)), BoundaryTangent(*w.reshape(4, r)))
        assert abs(v @ m @ w - form) <= 1e-12
        assert abs(v @ m @ w + w @ m @ v) <= 1e-12

    def test_omega_nondegenerate_on_basis(self):
        basis = [BoundaryTangent(*np.eye(8)[i].reshape(4, 2)) for i in range(8)]
        for v in basis:
            assert max(abs(omega_eval(v, w)) for w in basis) == 1.0

    def test_dimension_mismatch(self):
        v = BoundaryTangent(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        w = BoundaryTangent(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            omega_eval(v, w)


class TestFundamentalFormula:
    """The discrete action differential splits into the bulk pairing plus
    the boundary one-form, up to quadrature order and the epsilon of the
    directional difference."""

    def test_pendulum_random_trajectories(self):
        pen = make_pendulum()
        rng = np.random.default_rng(2024)
        for _ in range(5):
            chi = smooth_test_trajectory(rng, n_nodes=2000)
            du, dp = smooth_variation(rng, n_nodes=2000)
            defect = action_variation_defect(pen.system, chi, du, dp, fd_eps=1e-6)
            assert defect <= 1e-6

    def test_defect_shrinks_with_grid(self):
        pen = make_pendulum()
        defects = []
        for n in (250, 500, 1000):
            rng = np.random.default_rng(5)
            chi = smooth_test_trajectory(rng, n_nodes=n)
            du, dp = smooth_variation(rng, n_nodes=n)
            defects.append(action_variation_defect(pen.system, chi, du, dp, fd_eps=1e-7))
        assert defects[2] < defects[0]


class TestIntegratedResidualOrder:
    def test_el_norm_second_order_in_step(self):
        from phasebound.integrators import IntegratorConfig, integrate_flow

        pen = make_pendulum()
        steps = [1 / 250, 1 / 500, 1 / 1000, 1 / 2000]
        norms = []
        for h in steps:
            res = integrate_flow(pen.system, [0.7], [0.6], IntegratorConfig(step=h))
            norms.append(el_residual(pen.system, res.trajectory)[2])
        slope = np.polyfit(np.log(steps), np.log(norms), 1)[0]
        assert abs(slope - 2.0) <= 0.2


class TestGridDerivative:
    def test_polynomial_exactness(self):
        t = np.linspace(0, 1, 37)
        for deg in range(5):
            d = grid_derivative(t ** deg, t)
            exact = deg * t ** (deg - 1) if deg else np.zeros_like(t)
            np.testing.assert_allclose(d, exact, atol=1e-12)

    def test_nonuniform_grid(self):
        rng = np.random.default_rng(1)
        t = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 40)]))
        d = grid_derivative(np.sin(t), t)
        assert np.abs(d - np.cos(t)).max() < 1e-5

    def test_too_few_nodes(self):
        with pytest.raises(GridTooCoarseError):
            grid_derivative(np.zeros(2), np.zeros(2))


class TestTypes:
    def test_config_space_validation(self):
        with pytest.raises(DimensionMismatchError):
            ConfigSpace(0)
        with pytest.raises(DimensionMismatchError):
            ConfigSpace(2, kinds=("linear",))
        with pytest.raises(ValueError):
            ConfigSpace(1, kinds=("bogus",))

    def test_angular_wrap(self):
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi
        assert abs(wrap_angle(2 * np.pi + 0.25) - 0.25) < 1e-14
        cfg = ConfigSpace(2, kinds=("angular", "linear"))
        d = cfg.wrap_diff([2 * np.pi + 0.1, 2 * np.pi + 0.1], [0.0, 0.0])
        np.testing.assert_allclose(d, [0.1, 2 * np.pi + 0.1], atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(d=st.floats(-1e6, 1e6))
    def test_wrap_angle_range(self, d):
        # the result lies in (-pi, pi] and differs from d by a multiple of 2 pi
        w = float(wrap_angle(d))
        assert -np.pi < w <= np.pi
        turns = (d - w) / (2 * np.pi)
        assert abs(turns - round(turns)) <= 1e-9 * max(1.0, abs(d))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid([0.0, 0.5, 0.4])
        with pytest.raises(ValueError):
            TimeGrid([-0.1, 0.5, 1.0])
        with pytest.raises(GridTooCoarseError):
            TimeGrid([0.0])
        assert TimeGrid.uniform(10).spans_unit_interval

    def test_trajectory_validation(self):
        grid = TimeGrid.uniform(4)
        with pytest.raises(GridTooCoarseError):
            Trajectory(grid, np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(NonFiniteError):
            Trajectory(grid, np.full((5, 1), np.nan), np.zeros((5, 1)))

    @pytest.mark.parametrize("missing", ["analytic_flow", "analytic_flow_jacobian"])
    def test_analytic_only_needs_its_flow_and_jacobian(self, missing):
        closed_form = dict(analytic_flow=lambda t, u0, p0: (u0 + t * p0, p0),
                           analytic_flow_jacobian=lambda t, u0, p0: np.eye(2))
        closed_form[missing] = None
        with pytest.raises(ValueError, match="analytic_only"):
            HamiltonianSystem(ConfigSpace(1), lambda t, u, p: 0.5 * p @ p,
                              lambda t, u, p: 0.0 * u, lambda t, u, p: p,
                              analytic_only=True, **closed_form)

    def test_boundary_point_validation(self):
        with pytest.raises(NonFiniteError):
            BoundaryPoint(np.inf, 0.0, 0.0, 0.0)
        with pytest.raises(DimensionMismatchError):
            BoundaryPoint(np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(2))


def _quadratic(rng, n):
    """f(x) = x.A x / 2 + b.x + c over x's last axis, with its gradient A_sym x + b."""
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    c = rng.standard_normal()

    def f(x):
        return 0.5 * np.einsum("...i,ij,...j->...", x, a, x) + x @ b + c

    return f, lambda x: x @ (0.5 * (a + a.T)) + b


class TestCentralStencil:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 5), batch=st.integers(0, 3), seed=st.integers(0, 2**16),
           step=st.floats(1e-3, 1e-1))
    def test_exact_on_quadratics_with_batch_axes(self, n, batch, seed, step):
        rng = np.random.default_rng(seed)
        f, grad = _quadratic(rng, n)
        x = rng.uniform(-2.0, 2.0, (batch, n) if batch else n)
        got = central_difference(f, x, step)
        assert got.shape == x.shape
        # exact up to the rounding of f's values and of x +- step, divided by 2 step
        scale = (1.0 + np.abs(f(central_points(x, step))).max()
                 + np.abs(x).max() * np.abs(grad(x)).max())
        tol = 1e3 * np.finfo(float).eps * scale / step
        np.testing.assert_allclose(got, grad(x), rtol=0, atol=tol)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_columns_follow_the_directions(self, n, m, seed):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((m, n))
        x = rng.standard_normal((2, n))
        jac = central_difference(lambda v: v @ mat.T, x, 1e-3)
        assert jac.shape == (2, m, n)
        np.testing.assert_allclose(jac, np.broadcast_to(mat, (2, m, n)), rtol=0, atol=1e-10)
        directions = rng.standard_normal((3, n))
        np.testing.assert_allclose(central_difference(lambda v: v @ mat.T, x, 1e-3, directions),
                                   np.broadcast_to(mat @ directions.T, (2, m, 3)),
                                   rtol=0, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**16), step=st.floats(1e-3, 1e-1))
    def test_directional_derivatives(self, n, seed, step):
        rng = np.random.default_rng(seed)
        f, grad = _quadratic(rng, n)
        x = rng.uniform(-2.0, 2.0, n)
        directions = rng.standard_normal((4, n))
        np.testing.assert_allclose(central_difference(f, x, step, directions=directions),
                                   directions @ grad(x), rtol=0, atol=1e-8 / step)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_points_and_quotient_layout(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, n))
        step = 1e-2
        points = central_points(x, step)
        assert points.shape == (n, 2, 3, n)
        for a in range(n):
            e = np.zeros(n)
            e[a] = step
            assert np.array_equal(points[a, 0], x + e) and np.array_equal(points[a, 1], x - e)
        f, _ = _quadratic(rng, n)
        np.testing.assert_allclose(np.moveaxis(central_quotient(f(points), step), 0, -1),
                                   central_difference(f, x, step), rtol=1e-12, atol=1e-12)

    def test_continuation_rows_are_central_points(self, monkeypatch):
        # _continue_branch documents its rows as u0 +- h e_a, then u1 +- h e_a
        import phasebound.shooting as shooting
        from phasebound.systems import make_free_particle

        seen = {}

        class Stop(Exception):
            pass

        def record(sys, pairs, cfg, seeds=None, full_interval=False):
            seen.update(U0=np.array([u for u, _ in pairs]), U1=np.array([u for _, u in pairs]),
                        seeds=np.array(seeds))
            raise Stop

        monkeypatch.setattr(shooting, "solve_dirichlet_many", record)
        u0, u1, p0, h = np.array([0.1, -0.2]), np.array([1.0, 0.5]), np.array([0.3, 0.4]), 1e-3
        with pytest.raises(Stop):
            shooting._continue_branch(make_free_particle(dim=2).system, [(u0, u1, p0)], None, h)
        rows = []
        for end in (0, 1):
            for a in range(2):
                for sign in (1.0, -1.0):
                    moved = [u0, u1][end] + sign * h * np.eye(2)[a]
                    rows.append((moved, u1) if end == 0 else (u0, moved))
        assert np.array_equal(seen["U0"], [r[0] for r in rows])
        assert np.array_equal(seen["U1"], [r[1] for r in rows])
        assert np.array_equal(seen["U0"][:4], central_points(u0, h).reshape(4, 2))
        assert np.array_equal(seen["U1"][4:], central_points(u1, h).reshape(4, 2))
        assert np.array_equal(seen["seeds"], np.tile(p0, (8, 1)))
