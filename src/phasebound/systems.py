"""Bundled Hamiltonian systems with closed-form oracles.

Each factory returns an ExampleSystem: the system itself, a dictionary of
analytic facts (flow formulas, boundary-value momenta, escape times), and a
list of self-checks that re-verify every fact against the numerical stack at
its declared tolerance.  The self-checks power the command-line selftest.

Bundled systems:

  free-particle   kinetic Hamiltonian |p|^2/2m; global linear flow.
  quartic         p^2/2m - m u^4/8; the zero-energy branch has the closed
                  form u(t) = 2 u0 / (2 -+ u0 t) with p0 = -+... see facts;
                  the growing branch escapes in finite time 2/u0.
  pendulum        p^2/2m - k cos(theta) on the cylinder; generic endpoint
                  pairs are joined by at least two isolated trajectories.
  sphere          great-circle (geodesic) flow, realized as the smooth
                  Hamiltonian |u|^2 |p|^2 / 2 on R^6 whose restriction to
                  unit base points and tangent momenta is the geodesic
                  system; integrated from its closed-form flow.
  cotangent-lift  H = p . X(u); the flow is the cotangent lift of the flow
                  of X, so only endpoints on that flow's graph are joined.
  lambda-family   H = lam |p|^2 / 2 + p . X(u), interpolating between a
                  regular kinetic theory (lam > 0) and the drift theory
                  above (lam = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import shooting
from .core import (
    ConfigSpace,
    HamiltonianSystem,
    TimeGrid,
    Trajectory,
    action_functional,
    as_point,
    check_gradients,
    el_residual,
    grid_derivative,
    hamiltonian_vector_field,
)
from .errors import NegativeLambdaError, NonPositiveMassError, PhaseboundError
from .integrators import (
    BlowUp,
    IntegratorConfig,
    energy_drift,
    flow_jacobian,
    integrate_flow,
)


@dataclass(frozen=True)
class SelfCheck:
    """One verifiable fact: ``run`` returns a measured defect, compared to tol."""

    name: str
    tol: float
    run: Callable[[], float]


@dataclass(frozen=True)
class ExampleSystem:
    name: str
    system: HamiltonianSystem
    facts: dict
    checks: tuple


def _gradient_check(sys, probes):
    return SelfCheck(
        name=f"{sys.name}: gradients match differences of H",
        tol=1e-6,
        run=lambda: check_gradients(sys, probes),
    )


def _energy_check(sys, u0, p0, tol=1e-6):
    def run():
        res = integrate_flow(sys, u0, p0, IntegratorConfig())
        return energy_drift(sys, res.trajectory)

    return SelfCheck(name=f"{sys.name}: energy drift over [0,1] at h=1e-3", tol=tol, run=run)


def _analytic_flow_residual_check(sys, u0, p0, n_nodes=2000, tol=1e-8):
    """Sampled analytic flow must satisfy the discrete equations of motion."""

    def run():
        t = np.linspace(0.0, 1.0, n_nodes)
        us, ps = [], []
        for tk in t:
            u, p = sys.analytic_flow(tk, as_point(u0, sys.dim), as_point(p0, sys.dim))
            us.append(np.atleast_1d(u))
            ps.append(np.atleast_1d(p))
        chi = Trajectory(TimeGrid(t), np.stack(us), np.stack(ps))
        return el_residual(sys, chi)[2]

    return SelfCheck(name=f"{sys.name}: analytic flow solves the equations", tol=tol, run=run)


# ---------------------------------------------------------------------------
# Kinetic-plus-potential systems
# ---------------------------------------------------------------------------

def _kinetic_system(config, m, V, dV, d2V, name, analytic_flow=None):
    """H = |p|^2 / 2m + V(u) on ``config``, separable; dV and d2V, V's gradient
    (..., dim) and Hessian (..., dim, dim), are called with u as a float array."""
    if not m > 0:
        raise NonPositiveMassError(f"mass must be positive, got {m}")
    r = config.dim
    inv_mass = np.eye(r) / m
    return HamiltonianSystem(
        config=config,
        hamiltonian=lambda t, u, p: np.sum(p * p, axis=-1) / (2.0 * m) + V(u),
        grad_u=lambda t, u, p: dV(np.asarray(u, dtype=float)),
        grad_p=lambda t, u, p: np.asarray(p, dtype=float) / m,
        hess_uu=lambda t, u, p: d2V(np.asarray(u, dtype=float)),
        hess_up=lambda t, u, p: np.zeros(np.shape(u) + (r,)),
        hess_pp=lambda t, u, p: np.zeros(np.shape(u) + (r,)) + inv_mass,
        analytic_flow=analytic_flow,
        separable=True,
        vectorized=True,
        autonomous=True,
        name=name,
    )


# ---------------------------------------------------------------------------
# Free particle
# ---------------------------------------------------------------------------

def make_free_particle(m=1.0, dim=1):
    """Kinetic Hamiltonian |p|^2 / 2m on R^dim."""
    r = dim
    sys = _kinetic_system(
        ConfigSpace(r), m, lambda u: 0.0, np.zeros_like, lambda u: np.zeros(u.shape + (r,)),
        f"free-particle(m={m})",
        analytic_flow=lambda t, u0, p0: (np.asarray(u0) + np.asarray(p0) * t / m, np.asarray(p0)),
    )

    facts = {
        "flow": sys.analytic_flow,
        "principal_function": lambda u0, u1: 0.5 * m * float(
            np.sum((as_point(u1, r) - as_point(u0, r)) ** 2)
        ),
    }

    def check_flow():
        res = integrate_flow(sys, np.zeros(r), np.ones(r), IntegratorConfig())
        u1, p1 = res.trajectory.state(-1)
        exact_u, exact_p = facts["flow"](1.0, np.zeros(r), np.ones(r))
        return float(max(np.abs(u1 - exact_u).max(), np.abs(p1 - exact_p).max()))

    def check_plane():
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(5):
            u0 = rng.uniform(-1, 1, r)
            p0 = rng.uniform(-2, 2, r)
            res = integrate_flow(sys, u0, p0, IntegratorConfig())
            u1, p1 = res.trajectory.state(-1)
            worst = max(worst, np.abs(p1 - p0).max(), np.abs(p0 - m * (u1 - u0)).max())
        return worst

    checks = (
        _gradient_check(sys, [(0.0, np.full(r, 0.7), np.full(r, 1.3))]),
        SelfCheck(f"{sys.name}: time-1 flow matches the linear formula", 1e-9, check_flow),
        SelfCheck(f"{sys.name}: boundary data satisfies p1 = p0 = m(u1-u0)", 1e-8, check_plane),
        _energy_check(sys, np.full(r, 0.3), np.full(r, 1.1)),
        _analytic_flow_residual_check(sys, np.zeros(r), np.ones(r)),
    )
    return ExampleSystem("free-particle", sys, facts, checks)


# ---------------------------------------------------------------------------
# Quartic potential with finite-time escape
# ---------------------------------------------------------------------------

def make_quartic(m=1.0):
    """H = p^2/2m - m u^4/8 on the line.

    The zero-energy branches have momentum p0 = +- m u0^2 / 2 and closed
    form u(t) = 2 u0 / (2 -+ u0 t); the growing branch (+) escapes at
    t = 2/u0 when u0 > 2.
    """
    sys = _kinetic_system(
        ConfigSpace(1), m, lambda u: -(m * np.sum(u ** 4, axis=-1) / 8.0),
        lambda u: -0.5 * m * u ** 3, lambda u: (-1.5 * m * u ** 2)[..., None], f"quartic(m={m})")

    def growing_curve(t, u0):
        return 2.0 * u0 / (2.0 - u0 * t)

    facts = {
        "growing_curve": growing_curve,
        "growing_p0": lambda u0: 0.5 * m * u0 ** 2,
        "decaying_p0": lambda u0: -0.5 * m * u0 ** 2,
        "escape_time": lambda u0: 2.0 / u0,
        "blows_up": lambda u0: u0 > 2.0,
    }

    def check_growing_endpoint():
        cfg = IntegratorConfig(step=5e-4)
        res = integrate_flow(sys, [1.0], [facts["growing_p0"](1.0)], cfg)
        exact = growing_curve(res.trajectory.grid.nodes, 1.0)
        return float(np.abs(res.trajectory.positions[:, 0] - exact).max())

    def check_escape():
        u0 = 4.0
        res = integrate_flow(sys, [u0], [facts["growing_p0"](u0)], IntegratorConfig())
        if not isinstance(res.status, BlowUp):
            return 1.0
        return abs(res.status.t_escape - facts["escape_time"](u0))

    def check_decaying():
        res = integrate_flow(sys, [1.0], [facts["decaying_p0"](1.0)], IntegratorConfig(step=5e-4))
        return abs(res.trajectory.positions[-1, 0] - 2.0 / 3.0)

    checks = (
        _gradient_check(sys, [(0.0, [0.8], [0.4]), (0.5, [1.6], [-0.7])]),
        SelfCheck(f"{sys.name}: zero-energy growing branch matches closed form", 1e-6,
                  check_growing_endpoint),
        SelfCheck(f"{sys.name}: escape detected near t = 2/u0", 5e-2, check_escape),
        SelfCheck(f"{sys.name}: decaying branch reaches 2/3 at t=1", 1e-6, check_decaying),
        _energy_check(sys, [0.9], [0.3]),
    )
    return ExampleSystem("quartic", sys, facts, checks)


# ---------------------------------------------------------------------------
# Planar pendulum
# ---------------------------------------------------------------------------

def make_pendulum(m=1.0, k=1.0):
    """H = p^2/2m - k cos(theta) on the cylinder (theta angular)."""
    if not k > 0:
        raise NonPositiveMassError(f"stiffness must be positive, got k={k}")
    sys = _kinetic_system(
        ConfigSpace(1, kinds=("angular",)), m, lambda u: -(k * np.sum(np.cos(u), axis=-1)),
        lambda u: k * np.sin(u), lambda u: (k * np.cos(u))[..., None], f"pendulum(m={m},k={k})")

    facts = {"small_angle_frequency": math.sqrt(k / m)}

    def check_fixed_point():
        du, dp = hamiltonian_vector_field(sys, 0.0, [0.0], [0.0])
        return float(max(np.abs(du).max(), np.abs(dp).max()))

    def check_frequency():
        jac = flow_jacobian(sys, [0.0], [0.0], IntegratorConfig())
        eig = np.linalg.eigvals(jac)
        angle = abs(np.angle(eig[0]))
        return abs(angle - facts["small_angle_frequency"])

    def check_branches():
        sols = shooting.solve_dirichlet(sys, [0.0], [math.pi / 2], shooting.ShootingConfig())
        if len(sols.solutions) < 2:
            return 1.0
        w = sorted(action_functional(sys, b.trajectory) for b in sols.solutions)
        return 0.0 if (w[-1] - w[0]) >= 1e-3 else 1.0

    checks = (
        _gradient_check(sys, [(0.0, [0.6], [0.9]), (0.3, [-2.2], [0.1])]),
        SelfCheck(f"{sys.name}: equilibrium is a fixed point", 1e-14, check_fixed_point),
        SelfCheck(f"{sys.name}: small-angle frequency sqrt(k/m)", 1e-4, check_frequency),
        SelfCheck(f"{sys.name}: two branches join 0 to pi/2", 0.5, check_branches),
        _energy_check(sys, [0.4], [1.2]),
    )
    return ExampleSystem("pendulum", sys, facts, checks)


# ---------------------------------------------------------------------------
# Great circles on the sphere
# ---------------------------------------------------------------------------

def _sphere_flow(t, u0, p0):
    u0 = np.asarray(u0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    s = np.linalg.norm(p0, axis=-1, keepdims=True)
    st = s * t
    cos = np.cos(st)
    # sin(st)/s = t * sinc(st/pi); finite at s = 0
    sin_over_s = t * np.sinc(st / np.pi)
    u = cos * u0 + sin_over_s * p0
    p = -s * np.sin(st) * u0 + cos * p0
    return u, p


def _sphere_flow_jacobian(t, u0, p0):
    """d(u(t), p(t)) / d(u0, p0) of _sphere_flow over any leading batch axes, each member's
    to the bit: |p0| is the dot product and s^2 is C pow, as for one member's Python float."""
    u0 = np.asarray(u0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    eye = np.eye(u0.shape[-1])
    s = np.sqrt(p0[..., None, :] @ p0[..., :, None])  # (..., 1, 1)
    rest = s < 1e-12  # the free flight u0 + t p0; s = 1 there, so that nothing divides by 0
    s = np.where(rest, 1.0, s)
    st = s * t
    c, si = np.cos(st), np.sin(st)
    phat = (p0 / s[..., 0])[..., None, :]
    u_phat, p_phat = u0[..., :, None] * phat, p0[..., :, None] * phat
    du_dp0 = (-t * si * u_phat + (si / s) * eye
              + ((t * c * s - si) / np.float_power(s, 2)) * p_phat)
    dp_dp0 = -(si + st * c) * u_phat + c * eye - t * si * p_phat
    free = np.block([[eye, t * eye], [0.0 * eye, eye]])
    return np.where(rest, free, np.block([[c * eye, du_dp0], [-s * si * eye, dp_dp0]]))


def make_sphere_geodesics():
    """Great-circle flow on the unit sphere in embedded coordinates.

    The Hamiltonian |u|^2 |p|^2 / 2 on R^3 x R^3 restricts to the geodesic
    Hamiltonian on unit base points with tangent momenta, and its flow there
    is the closed-form great-circle motion used for integration.  Antipodal
    endpoint pairs are joined by a circle's worth of unit-speed solutions.
    """
    sys = HamiltonianSystem(
        config=ConfigSpace(3),
        hamiltonian=lambda t, u, p: 0.5 * np.sum(u * u, axis=-1) * np.sum(p * p, axis=-1),
        grad_u=lambda t, u, p: np.sum(p * p, axis=-1)[..., None] * np.asarray(u, dtype=float),
        grad_p=lambda t, u, p: np.sum(u * u, axis=-1)[..., None] * np.asarray(p, dtype=float),
        analytic_flow=_sphere_flow,
        analytic_flow_jacobian=_sphere_flow_jacobian,
        analytic_only=True,
        vectorized=True,
        autonomous=True,
        name="sphere-geodesics",
    )

    north = np.array([0.0, 0.0, 1.0])
    facts = {"flow": _sphere_flow, "north_pole": north}

    def check_antipode():
        p0 = math.pi * np.array([1.0, 0.0, 0.0])
        u1, _ = _sphere_flow(1.0, north, p0)
        return float(np.abs(u1 + north).max())

    def check_rest():
        u1, p1 = _sphere_flow(1.0, north, np.zeros(3))
        return float(max(np.abs(u1 - north).max(), np.abs(p1).max()))

    checks = (
        _gradient_check(sys, [(0.0, north, [0.3, 0.2, 0.0]), (0.0, [0.6, 0.8, 0.0], [0.0, 0.0, 1.0])]),
        SelfCheck("sphere: unit tangent momentum of speed pi reaches the antipode", 1e-12,
                  check_antipode),
        SelfCheck("sphere: zero momentum stays put", 1e-14, check_rest),
        _analytic_flow_residual_check(sys, north, [1.2, 0.0, 0.0]),
        _energy_check(sys, north, [1.2, 0.0, 0.0]),
    )
    return ExampleSystem("sphere", sys, facts, checks)


# ---------------------------------------------------------------------------
# Vector fields for the drift systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorField:
    """X on R^dim: X(u), its derivative dX(u) (..., dim, dim), optionally d2X(u) and the
    flow (t, u0) -> u(t) of X, the oracle of the self-checks and of the lam study."""

    dim: int
    X: Callable
    dX: Callable
    d2X: Optional[Callable] = None
    flow: Optional[Callable] = None


def linear_vector_field(dim=1, scale=1.0):
    """X(u) = scale * u, with flow u0 * exp(scale * t); ValueError unless scale is finite."""
    if not np.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    scaled_eye = scale * np.eye(dim)

    def X(u):
        return scale * np.asarray(u, dtype=float)

    def dX(u):
        return np.zeros(np.shape(u) + (dim,)) + scaled_eye

    def d2X(u):
        return np.zeros(np.shape(u) + (dim, dim))

    def flow(t, u0):
        return np.asarray(u0, dtype=float) * math.exp(scale * t)

    return VectorField(dim, X, dX, d2X, flow)


def constant_vector_field(c):
    """X(u) = c, with flow u0 + c t; ValueError unless every entry of c is finite."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if not np.isfinite(c).all():
        raise ValueError(f"a constant field must be finite, got c={c}")
    r = c.size

    def X(u):
        return np.zeros(np.shape(u)) + c

    def dX(u):
        return np.zeros(np.shape(u) + (r,))

    def d2X(u):
        return np.zeros(np.shape(u) + (r, r))

    def flow(t, u0):
        return np.asarray(u0, dtype=float) + c * t

    return VectorField(r, X, dX, d2X, flow)


def _drift_system(lam, field, name):
    """H = lam |p|^2 / 2 + p . X(u) on R^dim, for the field's X and dim.

    ``lam`` is one weight, or one weight per row of a (B, dim) batch; a row's
    values are then those of the system with that row's weight, bit for bit
    (0 p + X(u) is X(u)).
    """
    r, X, dX, d2X = field.dim, field.X, field.dX, field.d2X
    lam = np.asarray(lam, dtype=float)
    lam_rows, lam_eye = lam[..., None], lam[..., None, None] * np.eye(r)

    def hamiltonian(t, u, p):
        p = np.asarray(p, dtype=float)
        return 0.5 * lam * np.sum(p ** 2, axis=-1) + np.sum(p * X(u), axis=-1)

    def grad_u(t, u, p):
        return np.einsum("...b,...ba->...a", np.asarray(p, dtype=float), dX(u))

    def hess_up(t, u, p):
        return np.swapaxes(dX(u), -1, -2)

    hess_uu = None
    if d2X is not None:
        def hess_uu(t, u, p):
            return np.einsum("...b,...bac->...ac", np.asarray(p, dtype=float), d2X(u))

    def grad_p(t, u, p):
        return lam_rows * np.asarray(p, dtype=float) + np.asarray(X(u), dtype=float)

    def hess_pp(t, u, p):
        return np.zeros(np.shape(u) + (r,)) + lam_eye  # a third of np.broadcast_to's cost

    return HamiltonianSystem(
        config=ConfigSpace(r),
        hamiltonian=hamiltonian,
        grad_u=grad_u,
        grad_p=grad_p,
        hess_uu=hess_uu,
        hess_up=hess_up,
        hess_pp=hess_pp,
        vectorized=True,
        autonomous=True,
        name=name,
    )


def make_cotangent_lift(field=None):
    """H = p . X(u): the flow is the cotangent lift of the flow of X.

    Defaults to X(u) = u on the line.  The field's flow, when given, is the
    base-flow oracle of the self-checks.
    """
    field = field or linear_vector_field()
    sys, dim, x_flow = _drift_system(0.0, field, "cotangent-lift"), field.dim, field.flow

    checks = [
        _gradient_check(sys, [(0.0, np.full(dim, 0.9), np.full(dim, -1.4))]),
    ]

    if x_flow is not None:
        def check_base_flow():
            cfg = IntegratorConfig(step=1e-4)
            res = integrate_flow(sys, np.full(dim, 1.0), np.full(dim, 1.0), cfg)
            u1 = res.trajectory.positions[-1]
            return float(np.abs(u1 - x_flow(1.0, np.full(dim, 1.0))).max())

        checks.append(SelfCheck(
            "cotangent-lift: base flow reached at t=1 (h=1e-4)", 1e-8, check_base_flow))

        def check_unreachable():
            u0 = np.full(dim, 0.0)
            off = x_flow(1.0, u0) + 0.5
            sols = shooting.solve_dirichlet(sys, u0, off, shooting.ShootingConfig())
            return 0.0 if sols.classification.kind == "NoSolution" else 1.0

        checks.append(SelfCheck(
            "cotangent-lift: endpoints off the base-flow graph are unreachable", 0.5,
            check_unreachable))

    checks.append(_energy_check(sys, np.full(dim, 1.0), np.full(dim, 1.0)))
    return ExampleSystem("cotangent-lift", sys, {"field": field}, tuple(checks))


def make_lambda_family(lam, field=None):
    """H = lam |p|^2 / 2 + p . X(u); lam = 0 recovers the cotangent lift.

    Defaults to the constant field X = 1 on the line.
    """
    if not lam >= 0:
        raise NegativeLambdaError(f"kinetic weight must be nonnegative, got {lam}")
    field = field or constant_vector_field(1.0)
    sys, dim = _drift_system(lam, field, f"lambda-family(lam={lam})"), field.dim
    checks = (
        _gradient_check(sys, [(0.0, np.full(dim, 0.2), np.full(dim, 0.7))]),
        _energy_check(sys, np.full(dim, 0.2), np.full(dim, 0.7)),
    )
    return ExampleSystem("lambda-family", sys, {"field": field}, checks)


# ---------------------------------------------------------------------------
# The small-kinetic-term limit study
# ---------------------------------------------------------------------------

def second_order_residual(field, traj: Trajectory):
    """Residual of the second-order base equation satisfied by drift solutions.

    Eliminating the momentum from Hamilton's equations of the lam-family
    Hamiltonian yields, independently of lam,

        u'' = (dX)^T X + (dX - dX^T) u',

    evaluated here with discrete derivatives along the trajectory.  Returns
    (per-node residual, max norm).
    """
    t = traj.grid.nodes
    du = grid_derivative(traj.positions, t)
    ddu = grid_derivative(du, t)
    xs = np.asarray(field.X(traj.positions), dtype=float)
    dxs = np.asarray(field.dX(traj.positions), dtype=float)
    drive = np.einsum("nb,nba->na", xs, dxs)
    skew = dxs - np.swapaxes(dxs, -1, -2)
    res = ddu - drive - np.einsum("nab,nb->na", skew, du)
    return res, float(np.abs(res).max())


@dataclass(frozen=True)
class LambdaStudyRow:
    lam: float
    p0: Optional[np.ndarray]
    action: Optional[float]
    second_order_residual: Optional[float]
    flowline_distance: Optional[float]
    status: str


@dataclass(frozen=True)
class LambdaStudyReport:
    rows: tuple
    momentum_slope: Optional[float]
    notes: str


def topological_limit_study(lambdas, u0, u1, shooting_cfg=None, field=None):
    """Tabulate the boundary-value momentum and action across a lam sweep.

    For each lam in the (decreasing) list the two-point problem (u0, u1) is
    solved for H = lam |p|^2/2 + p . X(u), X the field (make_lambda_family's
    default when None); the report records p0(lam), the action, the residual
    of the lam-independent second-order base equation, and (when the field
    has a flow) the distance of the trajectory to the flow line of X.  Every
    lam's seeds go through one solve_dirichlet_many batch, its rows flowed
    with their own lam; a row's result is that of its lam solved alone, bit
    for bit.  An error that stops the batch is every row's note.  The
    momentum divergence rate is the fitted log-log slope of |p0| against lam
    over the rows with lam > 0 and a nonzero p0.
    """
    cfg = shooting_cfg or shooting.ShootingConfig()
    field = field or constant_vector_field(1.0)
    weights = np.array(lambdas, dtype=float)
    if not (weights >= 0).all():
        raise NegativeLambdaError(f"kinetic weight must be nonnegative, got {weights.min()}")
    family = lambda k: _drift_system(weights[k], field, "lambda-family")
    status = "NoSolution"
    try:
        solved = shooting.solve_dirichlet_many(family, [(u0, u1)] * len(lambdas), cfg)
    except PhaseboundError as exc:
        solved, status = [None] * len(lambdas), f"solver error: {exc}"
    rows = []
    for k, (lam, sols) in enumerate(zip(lambdas, solved)):
        if sols is None or not sols.solutions:
            rows.append(LambdaStudyRow(lam, None, None, None, None, status))
            continue
        branch = sols.solutions[0]
        dist = None
        if field.flow is not None:
            line = np.stack([
                np.atleast_1d(field.flow(t, as_point(u0, field.dim)))
                for t in branch.trajectory.grid.nodes
            ])
            dist = float(np.abs(branch.trajectory.positions - line).max())
        rows.append(LambdaStudyRow(
            lam=lam,
            p0=branch.p0,
            action=action_functional(family(k), branch.trajectory),
            second_order_residual=second_order_residual(field, branch.trajectory)[1],
            flowline_distance=dist,
            status="ok",
        ))
    usable = [(row.lam, np.linalg.norm(row.p0)) for row in rows
              if row.lam > 0 and row.p0 is not None and np.linalg.norm(row.p0) > 1e-12]
    slope = None
    if len(usable) >= 2:
        ls, ps = zip(*usable)
        slope = float(np.polyfit(np.log(ls), np.log(ps), 1)[0])
    return LambdaStudyReport(tuple(rows), slope, "momentum slope fitted on nonzero branches")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _constant_field(c=1.0, dim=None):
    """(c, ..., c) in dim coordinates (one by default) for a number c; a list c is the field."""
    c = np.asarray(c, dtype=float)
    if c.ndim and dim not in (None, c.size):
        raise ValueError(f"a constant field's dim is len(c) = {c.size}, got {dim!r}")
    return constant_vector_field(np.full(c.size if dim is None else dim, c))


# The drift systems' vector fields by scenario name; each takes only its own parameters.
_FIELDS = {"linear": lambda dim=1, scale=1.0: linear_vector_field(dim, scale=float(scale)),
          "constant": _constant_field}


def _vector_field(field, **params):
    if field not in _FIELDS:
        raise ValueError(f"unknown vector-field kind {field!r} (use 'linear' or 'constant')")
    return _FIELDS[field](**params)


REGISTRY = {
    "free-particle": make_free_particle,
    "quartic": make_quartic,
    "pendulum": make_pendulum,
    "sphere": make_sphere_geodesics,
    "cotangent-lift": lambda field="linear", **kw: make_cotangent_lift(_vector_field(field, **kw)),
    "lambda-family": lambda lam=1.0, field="constant", **kw: make_lambda_family(
        float(lam), _vector_field(field, **kw)),
}


def example_names():
    return sorted(REGISTRY)


def make_example(name, **params):
    if name not in REGISTRY:
        raise KeyError(f"unknown example {name!r}; known: {', '.join(example_names())}")
    return REGISTRY[name](**params)
