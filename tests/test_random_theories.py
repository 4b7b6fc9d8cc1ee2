"""The paper's claims on random theories: H = p^2/2m + V(u) on the line with a
random quartic potential V = a u^2/2 + b u^3/3 + c u^4/4, c > 0 so that every
flow is complete."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound import integrators
from phasebound.core import ConfigSpace
from phasebound.integrators import (IntegratorConfig, flow_batch, flow_jacobian,
                                    symplecticity_defect)
from phasebound.shooting import ShootingConfig, solve_dirichlet, solve_dirichlet_many
from phasebound.systems import _kinetic_system
from phasebound.verify import frame_defect_and_rank, frame_subspace_angles, tangent_frame_bvp

CFG = ShootingConfig(integrator=IntegratorConfig(step=1e-2), seed_count=8)
EXAMPLES = settings(max_examples=8, deadline=None, derandomize=True)


def quartic_theory(a, b, c, m):
    """The test-local system of the potential with coefficients (a, b, c) and mass m."""
    return _kinetic_system(
        ConfigSpace(1), m,
        V=lambda u: np.sum(a * u ** 2 / 2 + b * u ** 3 / 3 + c * u ** 4 / 4, axis=-1),
        dV=lambda u: a * u + b * u ** 2 + c * u ** 3,
        d2V=lambda u: (a + 2 * b * u + 3 * c * u ** 2)[..., None],
        name="random-quartic")


theories = st.builds(quartic_theory, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                     st.floats(0.05, 1.0), st.floats(0.5, 2.0))
endpoints = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@EXAMPLES
@given(theories, st.lists(endpoints, min_size=3, max_size=3))
def test_pairs_solved_together_equal_each_alone(sys, pairs):
    together = solve_dirichlet_many(sys, [([u0], [u1]) for u0, u1 in pairs], CFG)
    for (u0, u1), sols in zip(pairs, together):
        alone = solve_dirichlet(sys, [u0], [u1], CFG)
        assert sols.classification == alone.classification
        assert len(sols.solutions) == len(alone.solutions)
        for x, y in zip(sols.solutions, alone.solutions):
            assert np.array_equal(x.p0, y.p0) and np.array_equal(x.jacobian, y.jacobian)
            assert np.array_equal(x.trajectory.positions, y.trajectory.positions)
            assert np.array_equal(x.trajectory.momenta, y.trajectory.momenta)
            assert (x.residual, x.cond) == (y.residual, y.cond)


@EXAMPLES
@given(theories, endpoints)
def test_flow_and_bvp_frames_span_one_lagrangian_plane(sys, pair):
    # the graph of the time-1 flow at a branch's start, [I; D Phi_1], and the
    # frame continued from the boundary problem are tangent to one solution set
    u0, u1 = [pair[0]], [pair[1]]
    sols = solve_dirichlet(sys, u0, u1, CFG)
    assert sols.solutions, sols.classification
    p0 = sols.solutions[0].p0
    flow_frame = np.vstack([np.eye(2), flow_jacobian(sys, u0, p0, CFG.integrator)])
    bvp_frame = tangent_frame_bvp(sys, u0, u1, p0, CFG)
    assert frame_subspace_angles(flow_frame, bvp_frame).max() <= 1e-5
    for frame in (flow_frame, bvp_frame):
        defect, rank = frame_defect_and_rank(frame)
        assert defect <= 1e-5 and rank == 2


# 400 steps: one full window of the all-at-once route and part of a second
WHOLE = IntegratorConfig(step=2.5e-3)
FEW = settings(max_examples=4, deadline=None, derandomize=True)
starts = st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), min_size=3, max_size=3)


def solved_at_once(sys, Z0):
    """_flow_whole's 7-tuple for the (B, 2) start states Z0, with the path and exact
    jacobian; AssertionError if a member fell back to flow_batch."""
    with mock.patch.object(integrators, "flow_batch", side_effect=AssertionError("stepped")):
        return integrators._flow_whole(sys, Z0[:, :1], Z0[:, 1:], WHOLE, want_jacobian=True,
                                       store_path=True)


@FEW
@given(theories, starts)
def test_flows_solved_at_once_are_the_stepped_flows_to_roundoff(sys, points):
    Z0 = np.array(points)
    _, path, _, _, ok, jac, report = solved_at_once(sys, Z0)
    _, stepped_path, _, _, stepped_ok, stepped_jac, _ = flow_batch(
        sys, Z0[:, :1], Z0[:, 1:], WHOLE, want_jacobian=True, store_path=True)
    assert ok.all() and stepped_ok.all() and all(status == (integrators.Completed(), 400, None)
                                                 for status in report)
    for b in range(len(Z0)):
        for got, want in ((path[:, b], stepped_path[:, b]), (jac[b], stepped_jac[b])):
            # ulps of the residual test's scale 1 + |z|: near 0 both solvers stop at an
            # absolute, not a relative, distance from the fixed point
            assert np.abs(got - want).max() <= 64 * np.finfo(float).eps * (
                1.0 + np.abs(want).max())
        assert symplecticity_defect(jac[b]) <= 1e-12


@FEW
@given(theories, starts, st.permutations(range(3)))
def test_a_flow_solved_at_once_is_the_same_alone_in_a_batch_or_reordered(sys, points, order):
    def member(result, b):  # member b's path and jacobian
        return result[1][:, b], result[5][b]

    Z0 = np.array(points)
    together, reordered = solved_at_once(sys, Z0), solved_at_once(sys, Z0[order])
    for b in range(len(Z0)):
        alone = member(solved_at_once(sys, Z0[b:b + 1]), 0)
        for got in (member(together, b), member(reordered, order.index(b))):
            assert all(np.array_equal(x, y) for x, y in zip(got, alone))
