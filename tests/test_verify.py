"""Isotropy and rank certification of projected solution sets."""

import numpy as np
import pytest

from phasebound import verify
from phasebound.errors import NoSuchBranchError
from phasebound.integrators import IntegratorConfig, flow_batch, flow_jacobian, integrate_flow
from phasebound.shooting import ShootingConfig, solve_dirichlet
from phasebound.systems import (
    make_cotangent_lift,
    make_free_particle,
    make_pendulum,
    make_quartic,
)
from phasebound.verify import (
    frame_defect_and_rank,
    frame_subspace_angles,
    isotropy_defect_bvp,
    isotropy_defect_flow,
    sample_phase_points,
    tangent_frame_bvp,
)


def shooting_cfg(step=1e-3):
    return ShootingConfig(integrator=IntegratorConfig(step=step), seed_count=12)


class TestFlowRoute:
    def test_free_particle(self):
        free = make_free_particle()
        points = sample_phase_points(1, 10, seed=3)
        rep = isotropy_defect_flow(free.system, points, IntegratorConfig(), seed=3)
        assert rep.samples == 10
        assert rep.max_defect <= 1e-12
        assert rep.rank_estimate == 2
        assert rep.seed == 3
        assert "hypothesis" in rep.caveat

    def test_pendulum(self):
        pen = make_pendulum()
        points = sample_phase_points(1, 10, seed=4)
        rep = isotropy_defect_flow(pen.system, points, IntegratorConfig(), seed=4)
        assert rep.max_defect <= 1e-8
        assert rep.rank_estimate == 2

    def test_escaping_sample_is_inapplicable(self):
        quart = make_quartic()
        rep = isotropy_defect_flow(quart.system, [([4.0], [8.0]), ([0.2], [0.1])],
                                   IntegratorConfig())
        assert rep.samples == 1
        assert len(rep.inapplicable) == 1
        assert "BlowUp" in rep.inapplicable[0][2]


    def test_first_step_failure_is_inapplicable(self):
        pen = make_pendulum()
        cfg = IntegratorConfig(newton_max_iter=1, max_step_halvings=0)
        rep = isotropy_defect_flow(pen.system, [([0.4], [1.2])], cfg)
        assert rep.samples == 0
        assert rep.inapplicable == (([0.4], [1.2], "NewtonFailure(t=0.0)"),)


class TestBvpRoute:
    def test_free_particle(self):
        free = make_free_particle()
        rep = isotropy_defect_bvp(free.system, [([0.0], [2.0])], shooting_cfg())
        assert rep.samples == 1
        assert rep.max_defect <= 1e-8
        assert rep.rank_estimate == 2

    def test_pendulum_both_branches(self):
        pen = make_pendulum()
        for branch in (0, 1):
            rep = isotropy_defect_bvp(pen.system, [([0.0], [np.pi / 2])], shooting_cfg(),
                                      branch=branch)
            assert rep.samples == 1
            assert rep.max_defect <= 1e-6
            assert rep.rank_estimate == 2

    @pytest.mark.parametrize("branch", [-1, -7])
    def test_negative_branch_raises_before_any_solve(self, monkeypatch, branch):
        monkeypatch.setattr(verify, "solve_dirichlet_many", lambda *a, **k: pytest.fail("solved"))
        with pytest.raises(NoSuchBranchError):
            isotropy_defect_bvp(make_pendulum().system, [([0.0], [np.pi / 2])],
                                shooting_cfg(), branch=branch)

    def test_too_large_branch_is_inapplicable_per_pair(self):
        rep = isotropy_defect_bvp(make_pendulum().system, [([0.0], [np.pi / 2])],
                                  shooting_cfg(), branch=7)
        assert rep.samples == 0
        assert [reason for _, _, reason in rep.inapplicable] == ["only 3 branches"]

    def test_unreachable_endpoints_inapplicable(self):
        lift = make_cotangent_lift()
        rep = isotropy_defect_bvp(lift.system, [([0.5], [1.0])], shooting_cfg())
        assert rep.samples == 0
        assert len(rep.inapplicable) == 1


def tilted_frames(angles, seed=0):
    """Frames in R^(2k) whose spans meet at the given principal angles: the
    unit vectors e_0 .. e_{k-1}, and e_j cos a_j + e_{k+j} sin a_j, the
    latter mixed by a random invertible k x k matrix (the same span)."""
    k = len(angles)
    eye = np.eye(2 * k)
    tilted = np.cos(angles) * eye[:, :k] + np.sin(angles) * eye[:, k:]
    mix = np.random.default_rng(seed).standard_normal((k, k)) + 3.0 * np.eye(k)
    return eye[:, :k], tilted @ mix


class TestSubspaceAngles:
    # arccos(cos(1e-9)) is 0 in double precision; the sine form keeps 1e-9
    @pytest.mark.parametrize("angles", [[1e-9], [1e-9, 0.3, 1.2], [0.0, 1e-12, np.pi / 2]])
    def test_closed_form_angles(self, angles):
        frame_a, frame_b = tilted_frames(np.array(angles))
        want = np.sort(angles)[::-1]
        np.testing.assert_allclose(frame_subspace_angles(frame_a, frame_b), want,
                                   rtol=1e-6, atol=1e-15)
        np.testing.assert_allclose(frame_subspace_angles(frame_b, frame_a), want,
                                   rtol=1e-6, atol=1e-15)

    def test_frames_of_different_widths(self):
        frame_a, frame_b = tilted_frames(np.array([1e-9, 0.7]))
        angles = frame_subspace_angles(frame_a[:, :1], frame_b)  # e_0 lies 1e-9 from span b
        np.testing.assert_allclose(angles, [1e-9], rtol=1e-6, atol=0)
        assert frame_subspace_angles(frame_b, frame_a[:, :1]).shape == (1,)

    def test_rank_deficient_frame_counts_its_span_once(self):
        eye = np.eye(4)
        v = np.cos(0.3) * eye[:, 0] + np.sin(0.3) * eye[:, 2]
        angles = frame_subspace_angles(eye[:, :2], np.stack([v, 2.0 * v], axis=1))
        np.testing.assert_allclose(angles, [0.3], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy(self, seed):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        frame_a, frame_b = rng.standard_normal((6, 3)), rng.standard_normal((6, 2 + seed % 2))
        np.testing.assert_allclose(frame_subspace_angles(frame_a, frame_b),
                                   linalg.subspace_angles(frame_a, frame_b), rtol=0, atol=1e-12)


class TestFrameAgreement:
    def test_flow_and_bvp_frames_span_the_same_subspace(self):
        pen = make_pendulum()
        u0, p0 = np.array([0.2]), np.array([1.3])
        flow = integrate_flow(pen.system, u0, p0, IntegratorConfig())
        u1 = flow.trajectory.positions[-1]
        frame_flow = np.vstack([np.eye(2), flow_jacobian(pen.system, u0, p0, IntegratorConfig())])
        cfg = ShootingConfig(integrator=IntegratorConfig(step=1e-3), seeds=(p0,))
        frame_bvp = tangent_frame_bvp(pen.system, u0, u1, p0, cfg, fd_step=1e-5)
        angles = frame_subspace_angles(frame_flow, frame_bvp)
        assert np.max(angles) <= 1e-4

    def test_defect_second_order_in_probe_step(self):
        pen = make_pendulum()
        cfg = shooting_cfg()
        sols = solve_dirichlet(pen.system, [0.0], [np.pi / 2], cfg)
        p0 = sols.solutions[0].p0
        defects = []
        steps = (4e-2, 2e-2, 1e-2, 5e-3)
        for fd in steps:
            frame = tangent_frame_bvp(pen.system, np.array([0.0]), np.array([np.pi / 2]),
                                      p0, cfg, fd_step=fd)
            defects.append(frame_defect_and_rank(frame)[0])
        slope = np.polyfit(np.log(steps), np.log(defects), 1)[0]
        assert abs(slope - 2.0) <= 0.2


class TestCotangentLiftGraph:
    def test_projected_solutions_lie_on_the_base_flow_graph(self):
        lift = make_cotangent_lift()
        x_flow = lift.facts["field"].flow
        rng = np.random.default_rng(9)
        # six (u0, p0) draws flowed as one batch, whose members equal solo flows
        U0, P0 = rng.uniform(-1, 1, (6, 2)).T[:, :, None]
        _, _, U1, _, ok, *_ = flow_batch(lift.system, U0, P0, IntegratorConfig(step=1e-4))
        assert ok.all()
        worst = max(float(np.abs(u1 - x_flow(1.0, u0)).max()) for u0, u1 in zip(U0, U1))
        assert worst <= 1e-8
