"""The bundled verification suite behind the command-line selftest.

Collects every example system's analytic-fact checks plus a set of
module-level invariant checks, each expressed as a measured defect compared
against a declared tolerance.  All randomness is seeded, so two runs produce
identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryTangent,
    TimeGrid,
    Trajectory,
    action_functional,
    alpha_eval,
    boundary_projection,
    central_difference,
    el_pairing,
    omega_eval,
)
from .constraints import (
    ExtendedState,
    check_dsigma,
    gotay_step,
    integrate_constrained,
    make_circle_constraint,
    make_identity_constraint,
    momentum_constraint_residual,
    polar_constraint_residual,
)
from .integrators import (
    IntegratorConfig,
    flow_jacobian,
    integrate_flow,
    symplecticity_defect,
)
from .systems import (
    SelfCheck,
    make_cotangent_lift,
    make_free_particle,
    make_pendulum,
    make_quartic,
    make_sphere_geodesics,
    make_lambda_family,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tol: float
    passed: bool


def _smooth_pair(rng, t, amplitude):
    """Two random (n_nodes, 1) series of the modes 1, sin(pi t) and cos(pi t)."""
    def series():
        coeffs = rng.uniform(-amplitude, amplitude, 3)
        return (coeffs[0]
                + coeffs[1] * np.sin(np.pi * t)
                + coeffs[2] * np.cos(np.pi * t))[:, None]
    return series(), series()


def smooth_test_trajectory(rng, n_nodes=1000, amplitude=0.6):
    """A smooth random curve from a few low-frequency modes (fixed seed)."""
    t = np.linspace(0.0, 1.0, n_nodes)
    return Trajectory(TimeGrid(t), *_smooth_pair(rng, t, amplitude))


def smooth_variation(rng, n_nodes=1000, amplitude=0.4):
    return _smooth_pair(rng, np.linspace(0.0, 1.0, n_nodes), amplitude)


def action_variation_defect(sys, chi, delta_u, delta_p, fd_eps=1e-6):
    """|dS - (residual pairing + boundary one-form)| for one variation."""
    def action_at(eps):
        (eps,) = eps
        return action_functional(sys, Trajectory(chi.grid, chi.positions + eps * delta_u,
                                                 chi.momenta + eps * delta_p))

    ds = float(central_difference(action_at, [0.0], fd_eps)[0])
    bulk = el_pairing(sys, chi, delta_u, delta_p)
    bp = boundary_projection(chi)
    tangent = BoundaryTangent(delta_u[0], delta_p[0], delta_u[-1], delta_p[-1])
    boundary = alpha_eval(bp, tangent)
    return abs(ds - bulk - boundary)


def _omega_algebra_check():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        v = BoundaryTangent(*(rng.uniform(-1, 1, 2) for _ in range(4)))
        w = BoundaryTangent(*(rng.uniform(-1, 1, 2) for _ in range(4)))
        worst = max(worst, abs(omega_eval(v, w) + omega_eval(w, v)))
    # nondegeneracy: each basis direction pairs to exactly +-1 with some partner
    basis = [BoundaryTangent(*(np.eye(8)[i].reshape(4, 2))) for i in range(8)]
    for v in basis:
        best = max(abs(omega_eval(v, w)) for w in basis)
        worst = max(worst, abs(best - 1.0))
    return worst


def _fundamental_formula_check():
    pen = make_pendulum()
    rng = np.random.default_rng(7)
    chi = smooth_test_trajectory(rng, n_nodes=1200)
    du, dp = smooth_variation(rng, n_nodes=1200)
    return action_variation_defect(pen.system, chi, du, dp)


def _symplecticity_checks():
    cfg = IntegratorConfig()
    out = []
    for ex, u0, p0 in (
        (make_free_particle(), [0.2], [0.8]),
        (make_pendulum(), [0.5], [1.1]),
        (make_cotangent_lift(), [1.0], [1.0]),
    ):
        def run(ex=ex, u0=u0, p0=p0):
            return symplecticity_defect(flow_jacobian(ex.system, u0, p0, cfg))
        out.append(SelfCheck(f"{ex.name}: time-1 tangent flow is symplectic", 1e-10, run))
    return out


def _composition_check():
    pen = make_pendulum()
    cfg = IntegratorConfig(step=2e-3)

    def run():
        full = integrate_flow(pen.system, [0.3], [0.9], cfg)
        half = integrate_flow(pen.system, [0.3], [0.9], cfg, t0=0.0, t1=0.5)
        u_mid, p_mid = half.trajectory.state(-1)
        rest = integrate_flow(pen.system, u_mid, p_mid, cfg, t0=0.5, t1=1.0)
        u_full, p_full = full.trajectory.state(-1)
        u_comp, p_comp = rest.trajectory.state(-1)
        return float(max(np.abs(u_full - u_comp).max(), np.abs(p_full - p_comp).max()))

    return SelfCheck("pendulum: flow over [0,1] equals composed halves", 1e-12, run)


def _gotay_checks():
    free2 = make_free_particle(dim=2).system
    circ = make_circle_constraint()
    ident = make_identity_constraint(dim=2)

    def kernel_dims():
        st = ExtendedState([0.0, 0.0], circ.sigma_at([0.3]), [0.0, 0.0], [0.3])
        rep_c = gotay_step(free2, circ, st)
        st_i = ExtendedState([0.0, 0.0], [0.4, -0.2], [0.0, 0.0], [0.4, -0.2])
        rep_i = gotay_step(free2, ident, st_i)
        return abs(rep_c.kernel_dim - 3) + abs(rep_i.kernel_dim - 4)

    def solvability_match():
        st = ExtendedState([0.1, -0.2], [0.9, 0.5], [0.2, -0.1], [0.3])
        rep = gotay_step(free2, circ, st)
        phi_direct = momentum_constraint_residual(circ, st.p, st.e)
        psi_direct = polar_constraint_residual(circ, st.e, st.lam)
        return float(max(np.abs(rep.primary_residual - phi_direct).max(),
                         np.abs(rep.polar_residual - psi_direct).max()))

    def dsigma_consistency():
        return check_dsigma(circ, [[0.0], [0.7], [-1.9]])

    def identity_equivalence():
        pen = make_pendulum()
        ident1 = make_identity_constraint(dim=1)
        cfg = IntegratorConfig()
        unc = integrate_flow(pen.system, [0.4], [1.2], cfg)
        con = integrate_constrained(pen.system, ident1, [0.4], [1.2], cfg)
        return float(max(
            np.abs(unc.trajectory.positions - con.trajectory.positions).max(),
            np.abs(unc.trajectory.momenta - con.trajectory.momenta).max(),
        ))

    return [
        SelfCheck("constraints: extended two-form kernel has dimension r+k", 0.5, kernel_dims),
        SelfCheck("constraints: solvability residuals equal the constraint maps", 1e-12,
                  solvability_match),
        SelfCheck("constraints: dsigma matches differences of sigma", 1e-6, dsigma_consistency),
        SelfCheck("constraints: identity constraint reproduces the plain flow", 1e-10,
                  identity_equivalence),
    ]


def collect_checks():
    """All bundled checks: every example's facts plus module invariants."""
    checks = []
    for ex in (
        make_free_particle(),
        make_quartic(),
        make_pendulum(),
        make_sphere_geodesics(),
        make_cotangent_lift(),
        make_lambda_family(0.5),
    ):
        checks.extend(ex.checks)
    checks.append(SelfCheck(
        "boundary two-form: antisymmetric and nondegenerate on basis probes",
        1e-14, _omega_algebra_check))
    checks.append(SelfCheck(
        "pendulum: action differential = residual pairing + boundary one-form",
        1e-5, _fundamental_formula_check))
    checks.extend(_symplecticity_checks())
    checks.append(_composition_check())
    checks.extend(_gotay_checks())
    return checks


def run_checks(tighten=1.0, checks=None):
    """Execute every check; ``tighten`` divides the tolerances (>1 is stricter)."""
    results = []
    for check in (collect_checks() if checks is None else checks):
        tol = check.tol / tighten
        try:
            measured = float(check.run())
        except Exception as exc:
            results.append(CheckResult(f"{check.name} [raised {type(exc).__name__}: {exc}]",
                                       float("inf"), tol, False))
            continue
        results.append(CheckResult(check.name, measured, tol, measured <= tol))
    return results
