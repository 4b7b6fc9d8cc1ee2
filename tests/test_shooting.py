"""Boundary-value shooting, principal function, classification."""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasebound import shooting
from phasebound.core import ConfigSpace, HamiltonianSystem, TimeGrid, Trajectory, action_functional
from phasebound.errors import BranchLostError, NoSuchBranchError, NotSeparableError
from phasebound.integrators import (IntegratorConfig, _batch_solve, flow_batch,
                                    flow_with_jacobian, integrate_flow)
from phasebound.shooting import (
    ShootingConfig,
    classify_theory,
    generating_function_check,
    hamilton_principal_function,
    solve_dirichlet,
    solve_with_lagrangian_boundary,
)
from phasebound.systems import (
    _drift_system,
    linear_vector_field,
    make_cotangent_lift,
    make_example,
    make_free_particle,
    make_pendulum,
    make_sphere_geodesics,
    topological_limit_study,
)


def fast_cfg(step=1e-3, seed_count=12, **kw):
    return ShootingConfig(integrator=IntegratorConfig(step=step), seed_count=seed_count, **kw)


class TestShootingConfig:
    @pytest.mark.parametrize("kw", [
        {"seed_count": 0},
        {"newton_tol": -1.0},
        {"newton_tol": 0.0},
        {"newton_tol": float("inf")},
        {"newton_tol": float("nan")},
        {"max_iter": 0},
        {"seed_box": (1.0, 1.0)},
        {"seed_box": (2.0, -2.0)},
        {"seed_box": (False, True)},
        {"seed_count": 2.5},
        {"seed_count": True},
        {"max_iter": 2.5},
        {"distinctness_radius": True},
        {"distinctness_radius": float("nan")},
        {"distinctness_radius": float("inf")},
        {"seed_box": (-float("inf"), 6.0)},
        {"seed_box": (-6.0, float("inf"))},
        {"seed_box": (float("nan"), 6.0)},
        {"seeds": (float("nan"),)},
        {"seeds": (float("nan"), 1.0)},
        {"seeds": (float("inf"),)},
    ])
    def test_rejects_invalid_settings(self, kw):
        with pytest.raises(ValueError):
            ShootingConfig(**kw)

    def test_explicit_seeds_make_seed_count_irrelevant(self):
        assert len(ShootingConfig(seeds=(1.0,), seed_count=0).resolve_seeds(1)) == 1


def single_shot(sys, u0, p0, u1, cfg):
    """Single-shooting residual u(1) - u1 (wrapped) of one member, its Newton
    direction, du1/dp0 of its branch (None if its flow failed), whether its
    flow completed and the residual's sup norm (inf if not)."""
    U0, P, end = np.atleast_2d(u0), np.atleast_2d(p0), shooting._fixed_end(sys.config, u1)
    res, rnorm, step, ok = shooting._batch_eval(sys, U0, P, end, cfg.integrator, True)
    branch, = shooting._branches(sys, U0, P, end, cfg.integrator)
    jac = None if branch is None else branch.jacobian
    return res[0], step[0], jac, bool(ok[0]), float(rnorm[0])


class TestNoStepHalving:
    def test_solution_sets_do_not_depend_on_max_step_halvings(self):
        # At step 0.125 three Newton iterations are too few for many steps:
        # halving would rescue the flow from (0.3, 1.0), and would let both
        # solvers below find other solutions.  Shooting drops a member at its
        # first failed step whatever cfg.integrator says.
        pen = make_pendulum().system
        base = IntegratorConfig(step=0.125, newton_max_iter=3)
        rescued = [flow_batch(pen, [[0.3]], [[1.0]], dataclasses.replace(
            base, max_step_halvings=n))[4][0] for n in (26, 0)]
        assert rescued == [True, False]
        def grad_F(u0, u1):
            return u0, u1 - 0.7

        solved = []
        for halvings in (0, 26):
            cfg = ShootingConfig(integrator=dataclasses.replace(base, max_step_halvings=halvings),
                                 seed_count=16, seed_box=(-8.0, 8.0))
            solved.append((solve_dirichlet(pen, [0.3], [1.2], cfg),
                           solve_with_lagrangian_boundary(pen, grad_F, cfg)))
        assert solved[1][1].solutions  # the graph problem is solved without halving
        for want, got in zip(*solved):
            assert want.classification == got.classification
            assert len(want.solutions) == len(got.solutions)
            for a, b in zip(want.solutions, got.solutions):
                assert np.array_equal(a.p0, b.p0) and np.array_equal(a.jacobian, b.jacobian)
                assert np.array_equal(a.trajectory.positions, b.trajectory.positions)
                assert np.array_equal(a.trajectory.momenta, b.trajectory.momenta)
                assert (a.residual, a.cond) == (b.residual, b.cond)


class TestShootResidual:
    # single shooting is _batch_eval at M = 1 (unknowns p0 alone)
    def test_free_particle_on_target(self):
        free = make_free_particle()
        res, step, jac, _, _ = single_shot(free.system, [0.0], [2.0], [2.0], fast_cfg())
        np.testing.assert_allclose(res, [0.0], atol=1e-12)
        np.testing.assert_allclose(step, [0.0], atol=1e-12)
        np.testing.assert_allclose(jac, [[1.0]], atol=1e-12)

    def test_free_particle_miss(self):
        free = make_free_particle()
        res, step, jac, _, _ = single_shot(free.system, [0.0], [0.0], [2.0], fast_cfg())
        np.testing.assert_allclose(res, [-2.0], atol=1e-12)
        np.testing.assert_allclose(step, [-2.0], atol=1e-12)  # du1/dp0 = 1 under Newton too
        np.testing.assert_allclose(jac, [[1.0]], atol=1e-12)

    def test_pendulum_self_consistency(self):
        pen = make_pendulum()
        fwd = integrate_flow(pen.system, [0.3], [1.1], IntegratorConfig())
        u1 = fwd.trajectory.positions[-1]
        res, _, _, _, _ = single_shot(pen.system, [0.3], [1.1], u1, fast_cfg())
        np.testing.assert_allclose(res, [0.0], atol=1e-12)

    def test_blowup_is_not_ok(self):
        from phasebound.systems import make_quartic

        quart = make_quartic()
        _, _, jac, ok, rnorm = single_shot(quart.system, [4.0], [8.0], [0.0], fast_cfg())
        assert not ok and rnorm == float("inf") and jac is None


class TestSolveDirichlet:
    def test_free_particle_unique(self):
        free = make_free_particle()
        sols = solve_dirichlet(free.system, [0.0], [2.0], fast_cfg())
        assert sols.classification.kind == "Unique"
        assert abs(sols.solutions[0].p0[0] - 2.0) <= 1e-8

    def test_pendulum_two_branches(self):
        pen = make_pendulum()
        sols = solve_dirichlet(pen.system, [0.0], [np.pi / 2], ShootingConfig())
        assert sols.classification.kind == "MultipleIsolated"
        assert len(sols.solutions) >= 2
        actions = sorted(action_functional(pen.system, b.trajectory) for b in sols.solutions)
        assert actions[1] - actions[0] >= 1e-3

    def test_cotangent_lift_unreachable(self):
        lift = make_cotangent_lift()
        sols = solve_dirichlet(lift.system, [1.0], [1.0], fast_cfg())  # only e*u0 reachable
        assert sols.classification.kind == "NoSolution"

    def test_branch_residual_invariant(self):
        pen = make_pendulum()
        cfg = fast_cfg()
        sols = solve_dirichlet(pen.system, [0.0], [np.pi / 2], cfg)
        for branch in sols.solutions:
            result, _ = flow_with_jacobian(pen.system, [0.0], branch.p0, cfg.integrator)
            res = pen.system.config.wrap_diff(result.trajectory.positions[-1], [np.pi / 2])
            assert np.abs(res).max() <= cfg.newton_tol * 10


    @pytest.mark.parametrize("pair", ["antipodal", "generic"])
    def test_sphere_endpoint_flows_match_sampled_reference(self, pair):
        # Reference: the same solve when every shooting evaluation sampled the
        # closed-form flow at all grid nodes instead of only at t = 1.
        ref = json.loads((Path(__file__).parent / "data" / "sphere_shooting_reference.json")
                         .read_text())["pairs"][pair]
        sph = make_sphere_geodesics()
        north = np.array([0.0, 0.0, 1.0])
        u1 = -north if pair == "antipodal" else np.array([np.sin(1.0), 0.0, np.cos(1.0)])
        sols = solve_dirichlet(sph.system, north, u1, fast_cfg(step=1e-2, seed_count=48))
        assert sols.classification.kind == ref["kind"]
        assert sols.classification.count == ref["count"] == len(sols.solutions)
        np.testing.assert_allclose([b.p0 for b in sols.solutions], ref["p0"],
                                   rtol=1e-10, atol=1e-10)
        for b in sols.solutions:
            assert len(b.trajectory.grid) == 101

    def test_verlet_branches_land_under_verlet(self):
        pen = make_pendulum()
        verlet = IntegratorConfig(scheme="stormer-verlet")
        sols = solve_dirichlet(pen.system, [0.0], [np.pi / 2],
                               ShootingConfig(integrator=verlet, seed_count=12))
        assert len(sols.solutions) >= 2
        for b in sols.solutions:
            res = integrate_flow(pen.system, [0.0], b.p0, verlet)
            miss = pen.system.config.wrap_diff(res.trajectory.positions[-1], [np.pi / 2])
            assert np.abs(miss).max() <= 1e-8
            np.testing.assert_allclose(b.trajectory.positions, res.trajectory.positions,
                                       rtol=0, atol=1e-10)

    def test_verlet_on_non_separable_raises(self):
        lift = make_cotangent_lift()
        cfg = ShootingConfig(integrator=IntegratorConfig(scheme="stormer-verlet"), seed_count=4)
        with pytest.raises(NotSeparableError):
            solve_dirichlet(lift.system, [1.0], [np.e], cfg)
        with pytest.raises(NotSeparableError):
            classify_theory(lift.system, [([1.0], [np.e])], cfg)


class TestPrincipalFunction:
    def test_free_particle_value(self):
        free = make_free_particle()
        w = hamilton_principal_function(free.system, [0.0], [2.0], fast_cfg())
        assert abs(w - 2.0) <= 1e-6

    def test_static_solution_is_zero(self):
        free = make_free_particle()
        w = hamilton_principal_function(free.system, [0.7], [0.7], fast_cfg())
        assert abs(w) <= 1e-10

    def test_pendulum_branch_values_match_quadrature(self):
        pen = make_pendulum()
        cfg = fast_cfg()
        sols = solve_dirichlet(pen.system, [0.0], [np.pi / 2], cfg)
        w0 = hamilton_principal_function(pen.system, [0.0], [np.pi / 2], cfg, branch=0)
        assert abs(w0 - action_functional(pen.system, sols.solutions[0].trajectory)) <= 1e-12
        w1 = hamilton_principal_function(pen.system, [0.0], [np.pi / 2], cfg, branch=1)
        assert abs(w1 - w0) >= 1e-3

    def test_missing_branch(self):
        free = make_free_particle()
        with pytest.raises(NoSuchBranchError):
            hamilton_principal_function(free.system, [0.0], [2.0], fast_cfg(), branch=5)

    @pytest.mark.parametrize("branch", [-1, -7])
    @pytest.mark.parametrize("check", [hamilton_principal_function, generating_function_check])
    def test_negative_branch(self, check, branch):
        # the pendulum 0 -> pi/2 has several branches; a negative index names none
        with pytest.raises(NoSuchBranchError, match=f"requested branch {branch} of"):
            check(make_pendulum().system, [0.0], [np.pi / 2], fast_cfg(), branch=branch)


class TestGeneratingFunction:
    def test_free_particle_defects(self):
        free = make_free_particle()
        rep = generating_function_check(free.system, [0.0], [2.0], fast_cfg())
        assert rep.defect_u0 <= 1e-6
        assert rep.defect_u1 <= 1e-6
        assert rep.symmetry_defect <= 1e-6

    def test_pendulum_branch_defects(self):
        pen = make_pendulum()
        for branch in (0, 1):
            rep = generating_function_check(pen.system, [0.0], [np.pi / 2], fast_cfg(),
                                            branch=branch)
            assert rep.defect_u0 <= 1e-5
            assert rep.defect_u1 <= 1e-5
            assert rep.symmetry_defect <= 1e-4

    def test_first_loss_in_continuation_order_is_raised(self, monkeypatch):
        # at r = 1 the continuations come as u0 + e_0, u0 - e_0, u1 + e_0,
        # u1 - e_0; with two of them lost, the earlier one is raised
        def two_lost(sys, branches, cfg, fd_step):
            return [[None, BranchLostError("lost u0 - e_0"), BranchLostError("lost u1 + e_0"),
                     None]]

        monkeypatch.setattr(shooting, "_continue_branch", two_lost)
        with pytest.raises(BranchLostError, match="u0 - e_0"):
            generating_function_check(make_free_particle().system, [0.0], [2.0], fast_cfg())

    @pytest.mark.parametrize("system, u0, u1", [
        (lambda: make_pendulum().system, [0.2], [1.1]),
        (lambda: make_free_particle(dim=2).system, [0.1, -0.2], [1.0, 0.5]),
    ], ids=["pendulum", "free-particle-2d"])
    def test_symmetry_defect_compares_the_two_mixed_derivative_routes(self, system, u0, u1):
        sys, cfg, fd_step = system(), fast_cfg(step=1e-2), 1e-5
        r = sys.dim
        rep = generating_function_check(sys, u0, u1, cfg, fd_step=fd_step)
        center = solve_dirichlet(sys, u0, u1, cfg).solutions[0]
        rows = shooting._continue_branch(sys, [(np.array(u0), np.array(u1), center.p0)], cfg,
                                         fd_step)[0]
        # rows [end, a, sign]: p1 displaced in u0, and p0 displaced in u1
        p1_of_u0 = np.array([b.p1 for b in rows[:2 * r]]).reshape(r, 2, r)
        p0_of_u1 = np.array([b.p0 for b in rows[2 * r:]]).reshape(r, 2, r)
        mixed_1 = (p1_of_u0[:, 0] - p1_of_u0[:, 1]) / (2 * fd_step)
        mixed_2 = -(p0_of_u1[:, 0] - p0_of_u1[:, 1]) / (2 * fd_step)
        assert rep.symmetry_defect == float(np.max(np.abs(mixed_1 - mixed_2.T)))

    def test_defects_refine_with_probe_step(self):
        pen = make_pendulum()
        coarse = generating_function_check(pen.system, [0.2], [1.1], fast_cfg(), fd_step=1e-3)
        fine = generating_function_check(pen.system, [0.2], [1.1], fast_cfg(), fd_step=1e-5)
        assert fine.symmetry_defect <= coarse.symmetry_defect + 1e-9


class TestClassifyTheory:
    def test_no_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least one endpoint pair"):
            classify_theory(make_free_particle().system, [], fast_cfg())

    def test_free_particle_dirichlet(self):
        free = make_free_particle()
        rng = np.random.default_rng(0)
        pairs = [(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)) for _ in range(6)]
        verdict = classify_theory(free.system, pairs, fast_cfg(step=2e-3))
        assert verdict.kind == "Dirichlet"
        assert verdict.heuristic

    def test_pendulum_locally_dirichlet(self):
        pen = make_pendulum()
        rng = np.random.default_rng(1)
        pairs = [(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)) for _ in range(5)]
        verdict = classify_theory(pen.system, pairs, fast_cfg(step=2e-3))
        assert verdict.kind == "LocallyDirichlet"

    def test_cotangent_lift_neither(self):
        lift = make_cotangent_lift()
        pairs = [([1.0], [np.e]), ([0.5], [1.0])]  # one on the reachable graph, one off
        verdict = classify_theory(lift.system, pairs, fast_cfg(step=2e-3))
        assert verdict.kind == "Neither"
        assert verdict.witness is not None

    def test_sphere_antipodal_continuum(self):
        sph = make_sphere_geodesics()
        north = np.array([0.0, 0.0, 1.0])
        tilt = np.array([np.sin(1.0), 0.0, np.cos(1.0)])
        pairs = [(north, -north), (north, tilt)]
        verdict = classify_theory(sph.system, pairs,
                                  fast_cfg(step=1e-2, seed_count=48))
        assert verdict.kind == "Neither"
        assert "Continuum" in verdict.witness


CONTINUUM_1 = "Continuum at endpoints ([1.0], [1.5])"
LOST_0 = "no solution after perturbing u1 to [0.25] (from u0=[0.0])"
LOST_1 = "no solution after perturbing u1 to [1.25] (from u0=[1.0])"
UNJOINED = "no sampled endpoint pair is joined by a solution"
MIXED = "mixed solvability over the sample"


def branch_count(kind):
    return {"NoSolution": 0, "Unique": 1}.get(kind, 2)


class TestClassifyTheoryTruthTable:
    """Verdict and witness of classify_theory from stubbed per-pair results.

    Pair k joins u0 = [k] to u1 = [k + 0.5] with the given kind.  A pair in
    ``lost`` loses its solutions when u1 moves down by the probe radius
    0.25, and keeps them when it moves up.
    """

    @staticmethod
    def classify(monkeypatch, kinds, lost=()):
        calls = []

        def stub(sys, pairs, cfg, seeds=None):
            calls.append((pairs, seeds))
            sets = []
            for u0, u1 in pairs:
                k = int(u0[0])
                if seeds is None:
                    kind = kinds[k]
                else:
                    kind = "NoSolution" if k in lost and u1[0] < k + 0.5 else "Unique"
                count = branch_count(kind)
                branches = tuple(SimpleNamespace(p0=np.array([10.0 * k + j]))
                                 for j in range(count))
                sets.append(shooting.BvpSolutionSet(
                    (np.asarray(u0, float), np.asarray(u1, float)), branches,
                    shooting.Classification(kind, count)))
            return sets

        monkeypatch.setattr(shooting, "solve_dirichlet_many", stub)
        pairs = [([float(k)], [k + 0.5]) for k in range(len(kinds))]
        verdict = classify_theory(SimpleNamespace(dim=1), pairs, fast_cfg(), probe_radius=0.25)
        return verdict, calls

    @pytest.mark.parametrize("kinds, lost, kind, witness", [
        (["Unique", "Unique"], (), "Dirichlet", None),
        (["Unique", "MultipleIsolated"], (), "LocallyDirichlet", None),
        (["MultipleIsolated", "MultipleIsolated"], (), "LocallyDirichlet", None),
        (["Unique", "Unique"], (1,), "Neither", LOST_1),
        (["Unique", "Unique"], (0, 1), "Neither", LOST_0),
        (["MultipleIsolated", "NoSolution"], (0,), "Neither", LOST_0),
        (["Unique", "Continuum"], (), "Neither", CONTINUUM_1),
        (["Unique", "Continuum"], (0,), "Neither", CONTINUUM_1),
        (["NoSolution", "Continuum"], (), "Neither", CONTINUUM_1),
        (["Unique", "NoSolution"], (), "Neither", MIXED),
        (["NoSolution", "NoSolution"], (), "Neither", UNJOINED),
    ], ids=["dirichlet", "locally-dirichlet", "all-multiple", "lost-probe",
            "first-lost-probe", "lost-probe-beside-no-solution", "continuum",
            "continuum-before-lost-probe", "continuum-without-solvable-pair",
            "mixed", "no-pair-joined"])
    def test_verdict_and_witness(self, monkeypatch, kinds, lost, kind, witness):
        verdict, _ = self.classify(monkeypatch, kinds, lost)
        assert (verdict.kind, verdict.witness) == (kind, witness)
        assert verdict.heuristic
        assert verdict.evidence == tuple(
            ([float(k)], [k + 0.5], kd, branch_count(kd))
            for k, kd in enumerate(kinds))

    @pytest.mark.parametrize("kinds", [
        ["Unique", "NoSolution", "MultipleIsolated"],
        ["Continuum", "NoSolution"],
    ])
    def test_probes_of_the_solvable_pairs_in_one_batch(self, monkeypatch, kinds):
        _, calls = self.classify(monkeypatch, kinds)
        assert len(calls) == 2 and calls[0][1] is None
        probes, warm = calls[1]
        solvable = [k for k, kd in enumerate(kinds) if kd in ("Unique", "MultipleIsolated")]
        expected = [([float(k)], [k + 0.5 + d]) for k in solvable for d in (0.25, -0.25)]
        assert [(list(u0), list(u1)) for u0, u1 in probes] == expected
        branches = [[10.0 * k + j for j in range(branch_count(kinds[k]))] for k in solvable]
        assert [[float(p[0]) for p in w] for w in warm] == [b for b in branches for _ in (0, 1)]


class TestLagrangianBoundary:
    def test_zero_generating_function_static_curves(self):
        # p0 = p1 = 0 forces static curves; Newton lands near its seed
        free = make_free_particle()
        seeds = [(np.array([0.4]), np.array([0.5])), (np.array([-1.2]), np.array([-0.3]))]
        sols = solve_with_lagrangian_boundary(
            free.system, grad_F=lambda u0, u1: (np.zeros(1), np.zeros(1)),
            cfg=fast_cfg(), state_seeds=seeds)
        assert len(sols.solutions) >= 1
        for branch in sols.solutions:
            np.testing.assert_allclose(branch.p0, [0.0], atol=1e-9)
            traj = branch.trajectory
            assert np.abs(traj.positions - traj.positions[0]).max() <= 1e-9

    def test_quadratic_boundary_function_pins_endpoint(self):
        # F = (u1 - a)^2 / 2 demands p0 = 0 and p1 = u1 - a, so u == a
        free = make_free_particle()
        a = 1.5
        sols = solve_with_lagrangian_boundary(
            free.system,
            grad_F=lambda u0, u1: (np.zeros(1), np.array([u1[0] - a])),
            cfg=fast_cfg(), state_seeds=[(np.array([0.0]), np.array([0.3]))])
        assert len(sols.solutions) == 1
        branch = sols.solutions[0]
        np.testing.assert_allclose(branch.p0, [0.0], atol=1e-9)
        np.testing.assert_allclose(branch.trajectory.positions[-1], [a], atol=1e-9)
        assert sols.classification.kind == "Unique"

    def test_pendulum_graph_matches_per_seed_reference(self):
        # F = u0^2/2 + (u1 - 0.7)^2/2 at the default step and 16 seeds.  The
        # reference numbers were given by the per-seed scalar Newton loop that
        # the batched driver replaced; cond carries the ~1e-10 roundoff of the
        # finite-difference Hessian of F, so it is compared relatively.
        pen = make_pendulum()
        sols = solve_with_lagrangian_boundary(
            pen.system,
            grad_F=lambda u0, u1: (np.array([u0[0]]), np.array([u1[0] - 0.7])),
            cfg=ShootingConfig(seed_count=16))
        assert sols.classification.kind == "Unique"
        assert sols.classification.count == 1
        branch = sols.solutions[0]
        np.testing.assert_allclose(branch.p0, [-0.6471448064437982], rtol=0, atol=1e-10)
        np.testing.assert_allclose(branch.cond, 3.3959272882218983, rtol=1e-10, atol=0)
        # the 2r x 2r boundary-condition jacobian from the exact tangent (the
        # frozen-matrix tangent of the Newton iterations is off by ~2e-8)
        np.testing.assert_allclose(
            branch.jacobian,
            [[1.0000000000287557, 1.0], [-1.382104663747664, -0.29841056697159873]],
            rtol=0, atol=1e-9)
        np.testing.assert_allclose(branch.trajectory.positions[0], -branch.p0, atol=1e-12)
        np.testing.assert_allclose(branch.trajectory.momenta[-1],
                                   branch.trajectory.positions[-1] - 0.7, atol=1e-10)

    def test_zero_generating_function_family_is_continuum(self):
        # F = 0: every static curve solves; the boundary-condition jacobian
        # [[0, I], [dp1/du0, dp1/dp0]] = [[0, 1], [0, 1]] is singular
        free = make_free_particle()
        seeds = [(np.array([u]), np.array([p])) for u in (-1.0, 0.0, 0.8) for p in (0.5, -0.3)]
        sols = solve_with_lagrangian_boundary(
            free.system, grad_F=lambda u0, u1: (np.zeros(1), np.zeros(1)),
            cfg=fast_cfg(step=1e-2), state_seeds=seeds)
        assert sols.classification.kind == "Continuum"
        assert sols.classification.count == 3
        for branch in sols.solutions:
            assert branch.cond == float("inf")
            assert np.array_equal(branch.jacobian, [[0.0, 1.0], [0.0, 1.0]])
        assert sorted(b.trajectory.positions[0][0] for b in sols.solutions) == [-1.0, 0.0, 0.8]


def assembled_jacobian(tangents, boundary_rows):
    """One member's block-bidiagonal multiple-shooting jacobian in the
    unknowns (lead, z_1 ... z_{M-1}) and residuals (defects, boundary).

    The k boundary rows (B0, B1) give the boundary residual B0 z_0 + B1 z(1)
    to first order, and lead is the last k entries of z_0 = (u0, p0): p0
    for the Dirichlet rows (0, [I 0]), the landing u(1) - u1, and (u0, p0)
    for 2r graph-type rows.
    """
    m, two_r = tangents.shape[:2]
    b0, b1 = boundary_rows
    k = len(b0)
    n = k + two_r * (m - 1)
    jac = np.zeros((n, n))

    def z(j):
        return slice(k + two_r * (j - 1), k + two_r * j)

    for j in range(m - 1):  # the defect z_{j+1} - phi(z_j)
        rows = slice(two_r * j, two_r * (j + 1))
        if j == 0:
            jac[rows, :k] = -tangents[0][:, two_r - k:]
        else:
            jac[rows, z(j)] = -tangents[j]
        jac[rows, z(j + 1)] = np.eye(two_r)
    # the boundary rows: B0 on z_0 (its last k entries vary), B1 on z(1) = phi(z_{M-1})
    jac[n - k:, :k] = b0[:, two_r - k:]
    if m == 1:
        jac[n - k:, :k] += b1 @ tangents[0][:, two_r - k:]
    else:
        jac[n - k:, z(m - 1)] = b1 @ tangents[m - 1]
    return jac


def dirichlet_rows(r, bsz):
    """_fixed_end's boundary rows (B0, B1) for ``bsz`` members in dimension r."""
    end = shooting._fixed_end(ConfigSpace(r), np.zeros((bsz, r)))
    return end(np.zeros((bsz, 2 * r)), np.zeros((bsz, 2 * r)), np.ones(bsz, dtype=bool))[1]


def non_autonomous_system():
    """H = p^2/2 - t u: p(t) = p0 + t^2/2, so u(1) = u0 + p0 + 1/6."""
    return HamiltonianSystem(
        config=ConfigSpace(1),
        hamiltonian=lambda t, u, p: 0.5 * np.sum(p * p, axis=-1) - t * np.sum(u, axis=-1),
        grad_u=lambda t, u, p: np.full(np.shape(u), -float(t)),
        grad_p=lambda t, u, p: np.asarray(p, dtype=float),
        vectorized=True,
        name="forced-particle",
    )


def constant_entry(u, residual):
    """A converged-seed stand-in for _dedupe: a constant trajectory at position u."""
    grid = TimeGrid([0.0, 1.0])
    return SimpleNamespace(trajectory=Trajectory(grid, [[u], [u]], [[0.0], [0.0]]),
                           residual=residual)


def reference_dedupe(config, entries, radius):
    """The deduplication rule written out: each entry joins the first representative
    within sup-distance ``radius`` (angular coordinates wrapped), replacing it when
    its residual is lower, or becomes a representative itself."""
    reps = []
    for e in entries:
        matched = None
        for i, rep in enumerate(reps):
            a, b = e.trajectory, rep.trajectory
            dq = config.wrap_diff(a.positions, b.positions)
            dp = a.momenta - b.momenta
            if float(max(np.abs(dq).max(), np.abs(dp).max())) < radius:
                matched = i
                break
        if matched is None:
            reps.append(e)
        elif e.residual < reps[matched].residual:
            reps[matched] = e
    return reps


class TestEmptySeedBatch:
    """No seed at all gives NoSolution for every problem, as one empty seed
    set among non-empty ones does for its pair."""

    @pytest.mark.parametrize("system, pairs", [
        (lambda: make_pendulum().system, [(0, 1)]),
        (lambda: make_pendulum().system, [(0, 1), (0.5, -1.0)]),
        (lambda: dataclasses.replace(make_pendulum().system, vectorized=False), [(0, 1)]),
        (lambda: make_sphere_geodesics().system, [([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])]),
    ], ids=["pendulum", "pendulum-two-pairs", "pendulum-row-by-row", "sphere"])
    def test_dirichlet_pairs_without_seeds(self, system, pairs):
        sets = shooting.solve_dirichlet_many(system(), pairs, ShootingConfig(),
                                             seeds=[[] for _ in pairs])
        assert [s.classification.kind for s in sets] == ["NoSolution"] * len(pairs)
        assert all(s.solutions == () for s in sets)

    def test_graph_without_state_seeds(self):
        sols = solve_with_lagrangian_boundary(
            make_pendulum().system, lambda u0, u1: (np.array([u0[0]]), np.array([u1[0] - 0.7])),
            ShootingConfig(), state_seeds=[])
        assert sols.classification.kind == "NoSolution" and sols.solutions == ()


class TestDedupe:
    # A representative replaced by a lower-residual entry can move within the
    # radius of another representative, which a second pass then merges:
    # entries at 0, 1.5 and 0.75 (the last with the lowest residual) give
    # [0.75, 1.5] once and [0.75] twice.
    @pytest.mark.xfail(strict=True, reason="_dedupe is not idempotent (see CHANGES.md)")
    @settings(max_examples=100, deadline=None)
    @given(entries=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1.0)),
                            max_size=8))
    @example(entries=[(0.0, 1.0), (1.5, 1.0), (0.75, 0.5)])
    def test_idempotent(self, entries):
        config = ConfigSpace(1)
        once = shooting._dedupe(config, [constant_entry(u, res) for u, res in entries], 1.0)
        assert shooting._dedupe(config, once, 1.0) == once

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kinds=st.sampled_from([("angular",), ("linear", "linear")]),
           entries=st.lists(st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
                                      st.floats(0.0, 1.0)), max_size=8))
    @example(kinds=("angular",),  # 0 and 0.9 match 6.5 only once 2 pi is wrapped
             entries=[([0.0, 0.0] + [0.0] * 6, 0.5), ([6.5 / 7, 6.2 / 7] + [0.1] * 6, 0.2),
                      ([0.9 / 7, 0.4 / 7] + [-0.2] * 6, 0.1)])
    @example(kinds=("linear", "linear"),  # the third replaces the first, then sits by both
             entries=[([0.0] * 8, 1.0), ([1.0, 0.0, 0.0, 0.0] + [0.0] * 4, 1.0),
                      ([0.5, 0.1, -0.2, 0.1] + [0.3] * 4, 0.5)])
    def test_matches_the_reference_sup_distance_rule(self, kinds, entries):
        config = ConfigSpace(len(kinds), kinds)
        r = config.dim
        span = 7.0 if kinds == ("angular",) else 1.5  # angular paths wrap past 2 pi
        made = [SimpleNamespace(
                    trajectory=Trajectory(TimeGrid([0.0, 1.0]),
                                          span * np.reshape(v[:2 * r], (2, r)),
                                          0.5 * np.reshape(v[4:4 + 2 * r], (2, r))),
                    residual=res)
                for v, res in entries]
        got = shooting._dedupe(config, made, 1.0)
        assert [id(e) for e in got] == [id(e) for e in reference_dedupe(config, made, 1.0)]


class TestMultipleShooting:
    @pytest.mark.parametrize("step, segments", [
        (1e-3, 8), (2e-3, 4), (4e-3, 2), (8e-3, 1), (1e-2, 4), (0.25, 2), (0.5, 1)])
    def test_segment_count_keeps_the_step(self, step, segments):
        icfg = IntegratorConfig(step=step)
        assert shooting._segment_count(make_pendulum().system, icfg) == segments
        assert shooting._segment_count(make_sphere_geodesics().system, icfg) == 1
        assert shooting._segment_count(non_autonomous_system(), icfg) == 1

    @settings(max_examples=80, deadline=None)
    @given(r=st.sampled_from([1, 2, 3]), m=st.sampled_from([1, 2, 4, 8]),
           bsz=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), graph=st.booleans())
    def test_condensed_solve_is_the_block_solve(self, r, m, bsz, seed, graph):
        # _fixed_end's Dirichlet rows (the landing u(1) - u1, unknowns p0
        # first) or graph-type rows (B0, B1) of 2r conditions, unknowns (u0, p0) first
        rng = np.random.default_rng(seed)
        k = 2 * r if graph else r
        tangents = np.eye(2 * r) + 0.4 * rng.standard_normal((bsz, m, 2 * r, 2 * r))
        rows = (tuple(rng.standard_normal((2, bsz, k, 2 * r))) if graph
                else dirichlet_rows(r, bsz))
        res = rng.standard_normal((bsz, k + 2 * r * (m - 1)))

        got = shooting._condensed_solve(tangents, res, rows)
        for b in range(bsz):
            jac = assembled_jacobian(tangents[b], (rows[0][b], rows[1][b]))
            if np.linalg.cond(jac) > 1e8:
                continue
            want = np.linalg.solve(jac, res[b])
            np.testing.assert_allclose(got[b], want, rtol=0,
                                       atol=1e-7 * (1.0 + np.max(np.abs(want))))
        if m == 1:
            mats = rows[0][:, :, -k:] + rows[1] @ tangents[:, 0, :, -k:]
            assert np.array_equal(got, _batch_solve(mats, res))
        # identity tangents, and B1 = -B0 for graph rows, make the condensed
        # matrix 0 (du1/dp0 = 0 for Dirichlet rows): the pinv direction leaves
        # the leading unknowns and carries the defects forward; the other
        # members are solved as alone
        tangents[0] = np.eye(2 * r)
        if graph:
            rows[1][0] = -rows[0][0]
        got = shooting._condensed_solve(tangents, res, rows)
        assert np.array_equal(got[0, :k], np.zeros(k))
        carried = np.cumsum(res[0, :-k].reshape(m - 1, 2 * r), axis=0).ravel()
        np.testing.assert_allclose(got[0, k:], carried, rtol=0, atol=1e-12)
        rest = (rows[0][1:], rows[1][1:])
        assert np.array_equal(got[1:], shooting._condensed_solve(tangents[1:], res[1:], rest))

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_dirichlet_rows_give_du1_dp0(self, r, m):
        # the condensed matrix of _fixed_end's rows is the du1/dp0 block
        # (Phi_M ... Phi_1)[:r, r:] of the chained segment tangents, bit for
        # bit: the p0 columns of Phi_1 carried through Phi_2 ... Phi_M
        tangents = np.eye(2 * r) + 0.4 * np.random.default_rng(m + 10 * r).standard_normal(
            (5, m, 2 * r, 2 * r))
        got = shooting._condensed_matrix(tangents, dirichlet_rows(r, 5))
        for b in range(5):
            want = tangents[b, 0, :, r:]
            for phi in tangents[b, 1:]:
                want = phi @ want
            assert np.array_equal(got[b], want[:r])

    @pytest.mark.parametrize("step", [1e-3, 2e-3, 1e-2])
    @pytest.mark.parametrize("name, u0, u1", [
        ("pendulum", 0.0, np.pi / 2), ("quartic", 1.0, 2.0), ("free-particle", 0.0, 2.0),
        ("cotangent-lift", 1.0, np.e)])
    def test_first_evaluation_is_single_shootings(self, name, u0, u1, step):
        sys = make_example(name).system
        icfg = IntegratorConfig(step=step)
        seeds = fast_cfg().resolve_seeds(1)
        U0 = np.full_like(seeds, u0)
        unknowns = shooting._shooting_unknowns(sys, U0, seeds, icfg)
        m = shooting._segment_count(sys, icfg)
        assert m > 1 and unknowns.shape == (len(seeds), 1 + 2 * (m - 1))
        end = shooting._fixed_end(sys.config, [u1])
        res, rnorm, step, ok = shooting._batch_eval(sys, U0, unknowns, end, icfg, True)
        res1, rnorm1, step1, ok1 = shooting._batch_eval(sys, U0, seeds, end, icfg, True)
        assert np.array_equal(ok, ok1) and np.array_equal(rnorm, rnorm1)
        assert not np.any(res[ok, :-1])  # every continuity defect is exactly 0
        assert np.array_equal(res[ok, -1:], res1[ok])
        # with no defects, the condensed direction's p0 part is the landing
        # miss over the segments' du1/dp0, single shooting's
        np.testing.assert_allclose(step[ok, :1], step1[ok], rtol=1e-12, atol=1e-14)
        # and du1/dp0 of the segment chain is the full flow's (exact tangents)
        multi = shooting._branches(sys, U0, unknowns, end, icfg)
        single = shooting._branches(sys, U0, seeds, end, icfg)
        assert [b is None for b in multi] == [b is None for b in single] == list(~ok)
        for a, b in zip(multi, single):
            if a is not None:
                np.testing.assert_allclose(a.jacobian, b.jacobian, rtol=1e-12, atol=1e-14)
        if name == "quartic":
            assert not ok.all()  # escaping seeds fail at once, as under single shooting

    @pytest.mark.parametrize("h", [1e-3, 1e-2])
    def test_first_graph_evaluation_is_single_shootings(self, h):
        # F = u0^2/2 + (u1 - 0.7)^2/2 on the pendulum, from state seeds (u0, p0)
        sys, icfg = make_pendulum().system, IntegratorConfig(step=h)
        grad_F = lambda u0, u1: (np.array([u0[0]]), np.array([u1[0] - 0.7]))
        boundary = shooting._graph_boundary(grad_F, 1e-6)
        X = np.array([[u, p] for u in (-0.5, 0.3) for p in (-2.0, 0.4, 3.0)])
        unknowns = shooting._shooting_unknowns(sys, None, X, icfg)
        m = shooting._segment_count(sys, icfg)
        assert m > 1 and unknowns.shape == (len(X), 2 * m)
        assert np.array_equal(unknowns[:, :2], X)
        res, rnorm, step, ok = shooting._batch_eval(sys, None, unknowns, boundary, icfg, True)
        res1, rnorm1, step1, ok1 = shooting._batch_eval(sys, None, X, boundary, icfg, True)
        assert ok.all() and ok1.all() and np.array_equal(rnorm, rnorm1)
        assert not np.any(res[:, :-2])  # every continuity defect is exactly 0
        assert np.array_equal(res[:, -2:], res1)
        np.testing.assert_allclose(step[:, :2], step1, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("case", ["pendulum", "pendulum-verlet", "lambda-family-pair",
                                      "pendulum-graph", "quartic-escaping"])
    def test_lift_is_the_full_flow_at_the_segment_nodes(self, monkeypatch, case):
        # the chained segment flights reach the nodes k n / M of one stored-path
        # flow over [0, 1] bit for bit, for every member whose flow completes
        seeds, icfg = fast_cfg().resolve_seeds(1), IntegratorConfig()
        sys, u0, lead = make_pendulum().system, np.full_like(seeds, 0.3), seeds
        if case == "pendulum-verlet":
            icfg = IntegratorConfig(scheme="stormer-verlet")
        elif case == "lambda-family-pair":  # each row flown with its own weight
            sys = _drift_system(np.repeat([1.0, 0.5], len(seeds) // 2), linear_vector_field(),
                                "lambda-family")
        elif case == "pendulum-graph":
            u0, lead = None, np.array([[u, p] for u in (-0.5, 0.3) for p in (-2.0, 0.4, 3.0)])
        elif case == "quartic-escaping":
            sys, u0 = make_example("quartic").system, np.ones_like(seeds)
        flights = []
        flow = shooting.flow_batch

        def recording(*args, **kwargs):
            flights.append(kwargs)
            return flow(*args, **kwargs)

        monkeypatch.setattr(shooting, "flow_batch", recording)
        unknowns = shooting._shooting_unknowns(sys, u0, lead, icfg)
        m, r = shooting._segment_count(sys, icfg), sys.dim
        assert m == 8 and len(flights) == m - 1
        assert not any(f.get("store_path") or f.get("want_jacobian") for f in flights)
        Z = lead if u0 is None else np.hstack([u0, lead])
        _, path, _, _, ok, *_ = flow(sys, Z[:, :r], Z[:, r:], icfg, store_path=True)
        assert ok.any() and ok.all() != (case == "quartic-escaping")
        assert np.array_equal(unknowns[:, :lead.shape[1]], lead)
        n = path.shape[0] - 1
        nodes = path[np.arange(1, m) * (n // m)]
        interior = unknowns[:, lead.shape[1]:].reshape(len(lead), m - 1, 2 * r)
        assert np.array_equal(interior[ok], nodes.transpose(1, 0, 2)[ok])
        # one segment: the lift is the leading unknowns, with no flight
        single = IntegratorConfig(step=8e-3, scheme=icfg.scheme)
        assert shooting._segment_count(sys, single) == 1
        assert np.array_equal(shooting._shooting_unknowns(sys, u0, lead, single), lead)
        assert len(flights) == m - 1

    @pytest.mark.parametrize("name, u0, u1", [
        ("pendulum", [0.0], [np.pi / 2]),
        ("quartic", [1.0], [2.0 / 3.0]),  # on the decaying zero-energy branch
        ("free-particle", [0.0], [2.0]),
        ("cotangent-lift", [0.0], [0.5]),  # off the base-flow graph
    ])
    def test_default_segments_match_single_shooting(self, monkeypatch, name, u0, u1):
        sys = make_example(name).system
        c = fast_cfg()
        widths = []
        evaluate = shooting._batch_eval

        def counting(*args, **kwargs):
            widths.append(args[2].shape[1])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(shooting, "_batch_eval", counting)
        multi = solve_dirichlet(sys, u0, u1, c)
        assert set(widths) == {1 + 2 * 7}
        if name == "cotangent-lift":
            assert multi.classification.kind == "NoSolution"
            assert len(widths) == 1  # every seed retired after one evaluation
        monkeypatch.setattr(shooting, "_MAX_SEGMENTS", 1)
        single = solve_dirichlet(sys, u0, u1, c)
        assert widths[-1] == 1
        assert multi.classification.kind == single.classification.kind
        assert multi.classification.count == single.classification.count
        for a, b in zip(multi.solutions, single.solutions):
            np.testing.assert_allclose(a.p0, b.p0, rtol=0, atol=1e-9)
            assert a.residual <= c.newton_tol

    @pytest.mark.parametrize("case", ["pendulum", "free-particle-family"])
    def test_graph_segments_match_single_shooting(self, monkeypatch, case):
        if case == "pendulum":  # F = u0^2/2 + (u1 - 0.7)^2/2: one solution
            sys, c, seeds = make_pendulum().system, ShootingConfig(seed_count=16), None
            grad_F = lambda u0, u1: (np.array([u0[0]]), np.array([u1[0] - 0.7]))
        else:  # F = 0: every static curve, a rank-deficient family
            sys, c = make_free_particle().system, fast_cfg(step=1e-2)
            seeds = [([u], [p]) for u in (-1.0, 0.0, 0.8) for p in (0.5, -0.3)]
            grad_F = lambda u0, u1: (np.zeros(1), np.zeros(1))
        m = shooting._segment_count(sys, c.integrator)
        assert m > 1
        widths = []
        evaluate = shooting._batch_eval

        def counting(*args, **kwargs):
            widths.append(args[2].shape[1])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(shooting, "_batch_eval", counting)
        multi = solve_with_lagrangian_boundary(sys, grad_F, c, state_seeds=seeds)
        assert set(widths) == {2 * m}
        monkeypatch.setattr(shooting, "_MAX_SEGMENTS", 1)
        single = solve_with_lagrangian_boundary(sys, grad_F, c, state_seeds=seeds)
        assert widths[-1] == 2
        assert multi.classification.kind == single.classification.kind
        assert multi.classification.count == single.classification.count > 0
        for a, b in zip(multi.solutions, single.solutions):
            np.testing.assert_allclose(a.p0, b.p0, rtol=0, atol=1e-9)
            np.testing.assert_allclose(a.trajectory.positions[0], b.trajectory.positions[0],
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(a.jacobian, b.jacobian, rtol=0, atol=1e-8)
            assert a.residual <= c.newton_tol

    def test_non_autonomous_system_takes_single_shooting(self):
        sys = non_autonomous_system()
        c = fast_cfg(seed_count=4)
        sols = solve_dirichlet(sys, [0.2], [1.5], c)
        assert sols.classification.kind == "Unique"
        np.testing.assert_allclose(sols.solutions[0].p0, [1.3 - 1.0 / 6.0], rtol=0, atol=1e-6)
        # flown from t = 0, segments of a time-dependent H solve another problem
        wrong = solve_dirichlet(dataclasses.replace(sys, autonomous=True), [0.2], [1.5], c)
        assert abs(wrong.solutions[0].p0[0] - (1.3 - 1.0 / 6.0)) > 1e-2


class TestStitchedBranches:
    """Branches built from the converged segments instead of a full-interval flow."""

    # Measured at the CLI defaults: nodes within 1.6e-14 of the full flow and
    # du1/dp0 within 3e-15 relatively.  A segment junction may jump by up to
    # the Newton tolerance, which on other pendulum pairs shows as 1.4e-12.
    @pytest.mark.parametrize("system, u0, u1", [
        (lambda: make_pendulum().system, [0.0], [np.pi / 2]),
        (lambda: make_example("quartic").system, [1.0], [2.0 / 3.0]),
        (lambda: make_free_particle(dim=2).system, [0.1, -0.2], [1.0, 0.5]),
    ], ids=["pendulum", "quartic", "free-particle-2d"])
    def test_branches_match_the_full_flow_from_p0(self, system, u0, u1):
        sys, cfg = system(), ShootingConfig()
        assert shooting._segment_count(sys, cfg.integrator) == 8
        sols = solve_dirichlet(sys, u0, u1, cfg)
        assert sols.solutions
        r = len(u0)
        for b in sols.solutions:
            full, jac = flow_with_jacobian(sys, u0, b.p0, cfg.integrator)
            assert np.array_equal(b.trajectory.grid.nodes, full.trajectory.grid.nodes)
            np.testing.assert_allclose(b.trajectory.positions, full.trajectory.positions,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(b.trajectory.momenta, full.trajectory.momenta,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(b.jacobian, jac[:r, r:], rtol=1e-12, atol=0)
            assert b.residual == np.max(np.abs(sys.config.wrap_diff(b.u1, u1)))

    @pytest.mark.parametrize("solve", [
        lambda: solve_dirichlet(make_pendulum().system, [0.0], [np.pi / 2], fast_cfg(step=1e-2)),
        lambda: solve_dirichlet(make_sphere_geodesics().system, [0.0, 0.0, 1.0],
                                [np.sin(1.0), 0.0, np.cos(1.0)], fast_cfg(step=1e-2)),
        lambda: solve_with_lagrangian_boundary(
            make_pendulum().system, lambda u0, u1: (np.array([u0[0]]), np.array([u1[0] - 0.7])),
            fast_cfg(step=1e-2)),
    ], ids=["pendulum-segments", "sphere", "pendulum-graph"])
    def test_cond_is_the_jacobian_singular_value_ratio(self, solve):
        sols = solve()
        assert sols.solutions
        for b in sols.solutions:
            sv = np.linalg.svd(b.jacobian, compute_uv=False)
            assert b.cond == sv[0] / sv[-1]

    def test_continuation_rows_are_full_interval_flows(self):
        pen = make_pendulum()
        cfg = fast_cfg()
        center = solve_dirichlet(pen.system, [0.0], [np.pi / 2], cfg).solutions[0]
        rows = shooting._continue_branch(pen.system, [([0.0], [np.pi / 2], center.p0)], cfg,
                                         1e-5)[0]
        for b in rows:
            full, jac = flow_with_jacobian(pen.system, b.trajectory.positions[0], b.p0,
                                           cfg.integrator)
            assert np.array_equal(b.trajectory.grid.nodes, full.trajectory.grid.nodes)
            assert np.array_equal(b.trajectory.positions, full.trajectory.positions)
            assert np.array_equal(b.trajectory.momenta, full.trajectory.momenta)
            assert np.array_equal(b.jacobian, jac[:1, 1:])

    def test_verlet_segment_branches_land(self):
        pen = make_pendulum()
        verlet = IntegratorConfig(scheme="stormer-verlet")
        cfg = ShootingConfig(integrator=verlet, seed_count=12)
        assert shooting._segment_count(pen.system, verlet) == 8
        sols = solve_dirichlet(pen.system, [0.3], [-1.2], cfg)
        assert len(sols.solutions) >= 2
        for b in sols.solutions:
            miss = np.max(np.abs(pen.system.config.wrap_diff(b.u1, [-1.2])))
            assert b.residual == miss <= cfg.newton_tol
            full = integrate_flow(pen.system, [0.3], b.p0, verlet)
            assert np.max(np.abs(pen.system.config.wrap_diff(
                full.trajectory.positions[-1], [-1.2]))) <= 10 * cfg.newton_tol


def grad_F_pendulum(u0, u1):  # F = u0^2/2 + (u1 - 0.7)^2/2
    return np.array([u0[0]]), np.array([u1[0] - 0.7])


class TestBranchesFromEvaluationPaths:
    """A converged member's last Newton evaluation flew its segments as a flight
    of its unknowns would, so its branch is built from that path, unflown."""

    @staticmethod
    def recording(monkeypatch):
        """Patch _branches to record each call's arguments and result."""
        calls, branches = [], shooting._branches

        def recorded(*args):
            calls.append((args, branches(*args)))
            return calls[-1][1]

        monkeypatch.setattr(shooting, "_branches", recorded)
        return calls, branches

    @pytest.mark.parametrize("solve", [
        lambda: solve_dirichlet(make_pendulum().system, [0.0], [np.pi / 2], ShootingConfig()),
        lambda: solve_dirichlet(make_pendulum().system, [0.3], [-1.2], ShootingConfig(
            integrator=IntegratorConfig(scheme="stormer-verlet"), seed_count=12)),
        # escaping seeds fail their first evaluation
        lambda: solve_dirichlet(make_example("quartic").system, [1.0], [2.0 / 3.0],
                                fast_cfg(step=1e-2)),
        lambda: solve_with_lagrangian_boundary(make_pendulum().system, grad_F_pendulum,
                                               fast_cfg(step=1e-2)),
        # one system per row, each with its own weight
        lambda: topological_limit_study([1.0, 0.5, 0.25], [0.0], [2.0], fast_cfg(seed_count=8)),
    ], ids=["pendulum", "pendulum-verlet", "quartic", "pendulum-graph", "lambda-study"])
    def test_kept_paths_give_the_flown_branches(self, monkeypatch, solve):
        calls, branches = self.recording(monkeypatch)
        solve()
        (args, kept), = calls
        sys, u0, P, boundary, icfg, path = args
        assert path is not None and path.shape[1] == P.shape[0] * shooting._segment_count(
            sys, icfg) > P.shape[0]
        flown = branches(sys, u0, P, boundary, icfg)
        assert len(kept) == len(flown) > 0
        for a, b in zip(kept, flown):
            assert np.array_equal(a.p0, b.p0)
            assert np.array_equal(a.trajectory.grid.nodes, b.trajectory.grid.nodes)
            assert np.array_equal(a.trajectory.positions, b.trajectory.positions)
            assert np.array_equal(a.trajectory.momenta, b.trajectory.momenta)
            assert np.array_equal(a.jacobian, b.jacobian)
            assert (a.residual, a.cond) == (b.residual, b.cond)

    @staticmethod
    def stubbed_solve(monkeypatch, evaluations, converged, system=None, full_interval=False):
        """Run _solve on 4 seed rows with stubs for the evaluation, the driver and
        _branches: the driver evaluates ``evaluations``, (rows, (n + 1, B, M, 2r)
        path, residual norms) in turn, each handing its path and norms to the
        evaluation's ``keep``, and returns the seed rows ``converged``.  Returns
        each evaluation's ``keep``, the rows with a kept path after each
        evaluation, the kept paths as _branches gets them, and the paths _solve
        still holds when it calls _branches."""
        system = system or make_pendulum().system
        keeps, flown, held, rows_kept = [], iter(evaluations), {}, []

        def evaluate(sys, u0, P, boundary, icfg, want_jacobian, keep=None):
            _, path, rnorm = next(flown)
            keeps.append(keep)
            if keep is not None:
                keep(path, np.array(rnorm))

        def newton(evaluate, seeds, cfg):
            held.update(kept=dict(zip(evaluate.__code__.co_freevars,
                                      (c.cell_contents for c in evaluate.__closure__)))["kept"])
            for rows, *_ in evaluations:
                evaluate(np.array(rows), seeds[rows])
                rows_kept.append(sorted(held["kept"]))
            return seeds[converged], np.zeros(len(converged)), np.array(converged, dtype=int)

        def branches(sys, u0, P, boundary, icfg, path):
            held.update(path=path, left=dict(held["kept"]))
            return []

        monkeypatch.setattr(shooting, "_batch_eval", evaluate)
        monkeypatch.setattr(shooting, "_multistart_newton", newton)
        monkeypatch.setattr(shooting, "_branches", branches)
        monkeypatch.setattr(shooting, "_shooting_unknowns", lambda sys, u0, lead, icfg: lead)
        lead = np.arange(4 * system.dim, dtype=float).reshape(4, system.dim)
        shooting._solve(lambda rows: system, np.zeros_like(lead), lead, lambda rows: None,
                        ShootingConfig(newton_tol=1e-10), full_interval)
        return keeps, rows_kept, held["path"], held["left"]

    def test_each_rows_latest_converged_path_is_kept(self, monkeypatch):
        # a row's path is kept when its residual reaches the tolerance, replacing
        # the row's earlier one; the converged rows' paths reach _branches in its
        # layout, and _solve drops its copies of them
        path = np.arange(3 * 2 * 2 * 2, dtype=float).reshape(3, 2, 2, 2)  # (n + 1, B, M, 2r)
        keeps, rows_kept, kept, left = self.stubbed_solve(monkeypatch, [
            ([1, 2], path, [1e-11, 1e-9]), ([3, 1], path + 100.0, [np.inf, 1e-10])], [1])
        assert len(keeps) == 2 and None not in keeps
        assert rows_kept == [[1], [1]]
        assert np.array_equal(kept, (path[:, 1] + 100.0).reshape(3, 2, 2)) and left == {}
        # with no row converged, _branches gets no path
        assert self.stubbed_solve(monkeypatch, [([1, 2], path, [1e-9, np.inf])], [])[2] is None

    @pytest.mark.parametrize("case", ["full-interval", "closed-form"])
    def test_full_interval_and_closed_form_solves_keep_nothing(self, monkeypatch, case):
        path = np.zeros((3, 2, 1, 2))
        keeps, rows_kept, kept, _ = self.stubbed_solve(
            monkeypatch, [([0, 1], path, [1e-11, 1e-11])], [0, 1],
            system=make_sphere_geodesics().system if case == "closed-form" else None,
            full_interval=case == "full-interval")
        assert keeps == [None] and rows_kept == [[]] and kept is None

    @pytest.mark.parametrize("solve, flights", [
        (lambda: solve_dirichlet(make_pendulum().system, [0.0], [np.pi / 2],
                                 fast_cfg(step=1e-2)), 0),
        (lambda: solve_with_lagrangian_boundary(make_pendulum().system, grad_F_pendulum,
                                                fast_cfg(step=1e-2)), 0),
        (lambda: solve_dirichlet(make_sphere_geodesics().system, [0.0, 0.0, 1.0],
                                 [np.sin(1.0), 0.0, np.cos(1.0)], fast_cfg(step=1e-2)), 1),
        (lambda: shooting._continue_branch(make_pendulum().system,
                                           [([0.0], [np.pi / 2], [1.8])], fast_cfg(step=1e-2),
                                           1e-5), 1),
    ], ids=["segments", "graph-segments", "sphere", "continuation"])
    def test_flights_after_newton(self, monkeypatch, solve, flights):
        # a segmented solve flies nothing after Newton; a closed-form system, whose
        # evaluations sample only the end, and full-interval continuation rows fly once
        after, flow, newton = [], shooting.flow_batch, shooting._multistart_newton

        def converged(*args):
            out = newton(*args)
            after.append(0)
            return out

        def flight(*args, **kwargs):
            if after:
                after.append(1)
            return flow(*args, **kwargs)

        monkeypatch.setattr(shooting, "_multistart_newton", converged)
        monkeypatch.setattr(shooting, "flow_batch", flight)
        solve()
        assert after == [0] + [1] * flights
