"""Independent boundary problems solved in one batch.

The reference file was written by the one-problem-at-a-time solver that
preceded the batched one; verdicts, counts and messages must match it
exactly and floats to 1e-12.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phasebound.errors import BranchLostError
from phasebound import shooting
from phasebound.integrators import IntegratorConfig, _batch_solve
from phasebound.shooting import (
    ShootingConfig,
    classify_theory,
    generating_function_check,
    solve_dirichlet,
    solve_dirichlet_many,
    solve_with_lagrangian_boundary,
)
from phasebound.systems import (
    make_cotangent_lift,
    make_free_particle,
    make_pendulum,
    make_sphere_geodesics,
)
from phasebound.verify import isotropy_defect_bvp, tangent_frame_bvp

REF = json.loads((Path(__file__).parent / "data" / "continuation_reference.json").read_text())
FLOAT_TOL = 1e-12


def cfg(step=1e-3, seed_count=12, **kw):
    return ShootingConfig(integrator=IntegratorConfig(step=step), seed_count=seed_count, **kw)


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=0, atol=FLOAT_TOL)


def _two_phase_newton(evaluate, seeds, cfg):
    """Reference driver: line-search trials are evaluated without their
    Newton direction, and an accepted step is evaluated once more with it.
    ``evaluate(rows, P, want_jacobian)``; returns as _multistart_newton does."""
    P = seeds.copy()
    _, rnorm, steps, ok = evaluate(np.arange(len(P)), P, True)
    alive = ok.copy()
    for _ in range(cfg.max_iter):
        work = alive & (rnorm > cfg.newton_tol)
        if not work.any():
            break
        idx = np.flatnonzero(work)
        delta = -steps[idx]
        delta = np.where(np.isfinite(delta), delta, 0.0)
        dead = np.max(np.abs(delta), axis=1) <= 1e-14 * (1.0 + np.max(np.abs(P[idx]), axis=1))
        alive[idx[dead]] = False
        damp = np.ones(idx.size)
        improved = np.zeros(idx.size, dtype=bool)
        cand = P[idx].copy()
        for _bt in range(14):
            trying = ~improved & ~dead
            if not trying.any():
                break
            rows = idx[trying]
            trial = P[rows] + damp[trying, None] * delta[trying]
            _, tnorm, _, tok = evaluate(rows, trial, False)
            better = tok & (tnorm < (1.0 - 1e-4) * rnorm[rows])
            sub = np.flatnonzero(trying)
            cand[sub[better]] = trial[better]
            improved[sub[better]] = True
            damp[sub[~better]] *= 0.5
        alive[idx[~improved & ~dead]] = False
        moved = idx[improved]
        if moved.size:
            P[moved] = cand[improved]
            _, nnorm, nsteps, nok = evaluate(moved, P[moved], True)
            rnorm[moved], steps[moved] = nnorm, nsteps
            alive[moved] &= nok
    conv = np.flatnonzero(alive & (rnorm <= cfg.newton_tol))
    return P[conv], rnorm[conv], conv


TOY_TARGET = np.array([0.9, -0.4])


def toy_eval(rows, P):
    """Residual (atan p0 + 0.3 atan p1, atan p1 - 0.2 atan p0) + 0.05 p - target.

    Newton overshoots from far seeds, so the line search backtracks.  Members
    beyond |p| = 30 fail (not ok).  Row 1 has an exactly singular block, so
    its direction is the pinv one; rows 3 mod 4 have a zero block, so their
    direction vanishes and they are retired.  Elementwise arithmetic and
    _batch_solve only, so a member's values do not depend on the batch.
    Returns (res, rnorm, direction, ok) as _batch_eval does.
    """
    a = np.arctan(P)
    res = np.stack([a[:, 0] + 0.3 * a[:, 1], a[:, 1] - 0.2 * a[:, 0]], axis=1) + 0.05 * P - TOY_TARGET
    d = 1.0 / (1.0 + P * P)
    blocks = np.stack([np.stack([d[:, 0] + 0.05, 0.3 * d[:, 1]], axis=1),
                       np.stack([-0.2 * d[:, 0], d[:, 1] + 0.05], axis=1)], axis=1)
    blocks[rows == 1] = 1.0
    blocks[rows % 4 == 3] = 0.0
    ok = np.max(np.abs(P), axis=1) < 30.0
    rnorm = np.where(ok, np.max(np.abs(res), axis=1), np.inf)
    return res, rnorm, _batch_solve(blocks, res), ok


class TestNewtonDriver:
    def test_every_evaluation_is_a_new_point_and_every_later_one_a_trial(self):
        seeds = np.array([[10.0, -12.0], [0.5, 0.5], [29.0, -29.0], [2.0, 2.0],
                          [-20.0, 25.0], [40.0, 0.0], [0.3, -0.2]])
        calls = []

        def counting(rows, P):
            out = toy_eval(rows, P)
            calls.append((rows.copy(), P.copy(), tuple(a.copy() for a in out)))
            return out

        shooting._multistart_newton(counting, seeds, ShootingConfig())
        seen = set()
        for rows, P, _ in calls:
            for i, p in zip(rows, P):
                assert (int(i), p.tobytes()) not in seen
                seen.add((int(i), p.tobytes()))
        # each later point is its row's current iterate minus 2^-k times that
        # iterate's Newton direction; an Armijo decrease makes it the iterate
        rows0, P0, (_, norm0, dirs0, _) = calls[0]
        current = {int(i): (P0[k], norm0[k], dirs0[k]) for k, i in enumerate(rows0)}
        halvings = set()
        for rows, P, (_, norm, dirs, ok) in calls[1:]:
            for k, i in enumerate(rows):
                p, n, d = current[int(i)]
                steps = [j for j in range(14) if np.array_equal(P[k], p - 0.5 ** j * d)]
                assert steps
                halvings.add(steps[0])
                if ok[k] and norm[k] < (1.0 - 1e-4) * n:
                    current[int(i)] = (P[k], norm[k], dirs[k])
        assert max(halvings) >= 1  # the line search backtracked

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
                    min_size=1, max_size=8))
    def test_matches_the_two_phase_reference(self, seeds):
        seeds = np.array(seeds)
        c = ShootingConfig()
        got = shooting._multistart_newton(toy_eval, seeds, c)
        ref = _two_phase_newton(lambda rows, P, want_jacobian: toy_eval(rows, P), seeds, c)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


class TestNewtonDirectionFallback:
    def test_singular_member_does_not_change_its_neighbours(self):
        # A linear shooting map u1 = A p whose block A is exactly singular for
        # the seed at p = 100 and regular for the seed near the origin.
        regular = np.array([[0.7318, -1.2931], [0.4127, 2.0583]])
        target = np.array([0.3141, -2.7182])

        def linear_eval(rows, P):
            blocks = np.where(np.abs(P[:, :1, None]) > 50.0, 0.0, regular)
            res = np.einsum("bij,bj->bi", blocks, P) - target
            return (res, np.max(np.abs(res), axis=1), _batch_solve(blocks, res),
                    np.ones(len(P), dtype=bool))

        c = ShootingConfig()
        alone, _, rows_alone = shooting._multistart_newton(
            linear_eval, np.array([[1.4142, 1.7320]]), c)
        together, _, rows = shooting._multistart_newton(
            linear_eval, np.array([[1.4142, 1.7320], [100.0, 0.0]]), c)
        assert rows_alone.tolist() == rows.tolist() == [0]
        assert np.array_equal(together[0], alone[0])


class TestBatchComposition:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                    min_size=2, max_size=4))
    def test_pendulum_pairs_together_equal_each_alone(self, pairs):
        pen = make_pendulum()
        c = cfg(step=2e-2, seed_count=4)
        together = solve_dirichlet_many(pen.system, [([a], [b]) for a, b in pairs], c)
        for (a, b), sols in zip(pairs, together):
            alone = solve_dirichlet(pen.system, [a], [b], c)
            assert sols.classification == alone.classification
            assert len(sols.solutions) == len(alone.solutions)
            for x, y in zip(sols.solutions, alone.solutions):
                assert np.array_equal(x.p0, y.p0)
                assert x.residual == y.residual
                assert np.array_equal(x.trajectory.momenta, y.trajectory.momenta)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                    min_size=2, max_size=3))
    def test_graph_seeds_together_equal_each_alone(self, seeds):
        # graph-type boundary data F = u0^2/2 + (u1 - 0.7)^2/2 on the pendulum
        pen = make_pendulum()
        c = cfg(step=2e-2)
        grad_F = lambda u0, u1: (u0.copy(), u1 - 0.7)

        def evaluate(rows, X):
            boundary = shooting._graph_boundary(grad_F, 1e-6)
            return shooting._batch_eval(pen.system, None, X, boundary, c.integrator, True)

        X = np.array(seeds)
        together, norms, rows = shooting._multistart_newton(evaluate, X, c)
        for i in range(len(X)):
            alone, alone_norms, alone_rows = shooting._multistart_newton(evaluate, X[i:i + 1], c)
            assert (i in rows) == (alone_rows.size == 1)
            if alone_rows.size:
                k = rows.tolist().index(i)
                assert np.array_equal(together[k], alone[0])
                assert norms[k] == alone_norms[0]
        sols = solve_with_lagrangian_boundary(pen.system, grad_F, c, state_seeds=seeds)
        alone = [b for s in seeds for b in solve_with_lagrangian_boundary(
            pen.system, grad_F, c, state_seeds=[s]).solutions]
        for b in sols.solutions:
            assert any(np.array_equal(b.p0, a.p0) and b.residual == a.residual
                       and np.array_equal(b.trajectory.positions, a.trajectory.positions)
                       and np.array_equal(b.jacobian, a.jacobian) for a in alone)

    def test_own_seed_sets(self):
        pen = make_pendulum()
        c = cfg(step=2e-2)
        seeds = [[[1.5]], [[-1.0], [4.0]]]
        pairs = [([0.0], [np.pi / 2]), ([0.3], [-0.4])]
        together = solve_dirichlet_many(pen.system, pairs, c, seeds=seeds)
        for (u0, u1), s, sols in zip(pairs, seeds, together):
            alone = solve_dirichlet(pen.system, u0, u1, cfg(step=2e-2, seeds=tuple(s)))
            assert sols.classification == alone.classification
            assert [b.p0.tolist() for b in sols.solutions] == \
                [b.p0.tolist() for b in alone.solutions]


@pytest.fixture
def single_shooting(monkeypatch):
    """Shoot over [0, 1] in one segment, as the reference solver did."""
    monkeypatch.setattr(shooting, "_MAX_SEGMENTS", 1)


class TestOneAtATimeReference:
    @pytest.mark.usefixtures("single_shooting")
    @pytest.mark.parametrize("name", ["pendulum", "free-particle"])
    def test_generating_function_report(self, name):
        ref = REF["generating_function"][name]
        ex, u0, u1 = ((make_pendulum(), [0.0], [np.pi / 2]) if name == "pendulum"
                      else (make_free_particle(), [0.0], [2.0]))
        rep = generating_function_check(ex.system, u0, u1, cfg())
        for key in ("defect_u0", "defect_u1", "symmetry_defect", "p0", "p1", "action"):
            close(getattr(rep, key), ref[key])

    @pytest.mark.parametrize("name", ["pendulum", "free-particle"])
    def test_generating_function_report_multiple_shooting(self, name):
        # the continued solutions move at the Newton tolerance, and each
        # defect divides their differences by 2 fd_step = 2e-5
        ref = REF["generating_function"][name]
        ex, u0, u1 = ((make_pendulum(), [0.0], [np.pi / 2]) if name == "pendulum"
                      else (make_free_particle(), [0.0], [2.0]))
        assert shooting._segment_count(ex.system, cfg().integrator) == 8
        rep = generating_function_check(ex.system, u0, u1, cfg())
        for key in ("p0", "p1", "action"):
            close(getattr(rep, key), ref[key])
        for key in ("defect_u0", "defect_u1", "symmetry_defect"):
            np.testing.assert_allclose(getattr(rep, key), ref[key], rtol=0, atol=5e-9)

    def test_tangent_frame(self):
        ref = REF["tangent_frame"]
        pen = make_pendulum()
        frame = tangent_frame_bvp(pen.system, [0.0], [np.pi / 2], np.array(ref["p0"]), cfg(),
                                  fd_step=1e-5)
        close(frame, ref["frame"])

    @pytest.mark.parametrize("name", ["pendulum", "cotangent-lift", "cotangent-lift-probes",
                                      "sphere"])
    def test_classify_theory(self, name):
        ref = REF["classify"][name]
        if name == "pendulum":
            rng = np.random.default_rng(505)
            pairs = [(rng.uniform(-2.5, 2.5, 1), rng.uniform(-2.5, 2.5, 1)) for _ in range(20)]
            ex, c = make_pendulum(), cfg(2e-3, 12)
        elif name == "cotangent-lift":
            pairs = [([1.0], [np.e]), ([0.0], [0.5]), ([0.5], [2.0])]
            ex, c = make_cotangent_lift(), cfg(2e-3, 8)
        elif name == "cotangent-lift-probes":
            # one seed at a tolerance above the time-1 map's error: each
            # on-graph pair is Unique and every openness probe leaves the graph
            pairs = [([0.5], [0.5 * np.e]), ([1.0], [np.e])]
            ex, c = make_cotangent_lift(), cfg(seeds=(0.0,), newton_tol=1e-6)
        else:
            north = np.array([0.0, 0.0, 1.0])
            pairs = [(north, -north), (north, np.array([np.sin(1.0), 0.0, np.cos(1.0)]))]
            ex, c = make_sphere_geodesics(), cfg(1e-2, 48)
        verdict = classify_theory(ex.system, pairs, c)
        assert verdict.kind == ref["kind"]
        assert verdict.witness == ref["witness"]
        assert [list(e) for e in verdict.evidence] == ref["evidence"]

    def test_lost_continuation_message(self):
        ref = REF["lost"]
        pen = make_pendulum()
        with pytest.raises(BranchLostError) as info:
            tangent_frame_bvp(pen.system, [0.0], [np.pi / 2], np.array(ref["p0"]), cfg(),
                              fd_step=1e-5)
        assert str(info.value) == ref["message"]

    def test_isotropy_lists_lost_branch_as_inapplicable(self):
        ref = REF["isotropy_lost"]
        lift = make_cotangent_lift()
        rep = isotropy_defect_bvp(lift.system, [([1.0], [np.e]), ([0.5], [1.0])],
                                  cfg(seed_count=4, newton_tol=1e-6))
        assert rep.samples == ref["samples"]
        assert [list(x) for x in rep.inapplicable] == ref["inapplicable"]
        assert rep.inapplicable[0][2].startswith("branch lost: ")
