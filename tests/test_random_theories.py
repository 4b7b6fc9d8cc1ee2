"""The paper's claims on random theories: H = p^2/2m + V(u) on the line with a
random quartic potential V = a u^2/2 + b u^3/3 + c u^4/4, c > 0 so that every
flow is complete."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebound.core import ConfigSpace
from phasebound.integrators import IntegratorConfig, flow_jacobian
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
