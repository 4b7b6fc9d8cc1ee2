"""Momentum constraints p = sigma(e) and their presymplectic analysis.

The constrained variational problem extends the phase space with a
multiplier Lambda and the constraint variable e, carrying the degenerate
two-form du^dp and the extended Hamiltonian

    H0(u, p, Lambda, e) = H(u, p) + Lambda . (p - sigma(e)).

Solvability of the dynamics along the kernel of the two-form recovers the
primary constraints: the momentum constraint phi = p - sigma(e) and the
polar constraint psi = Lambda^T dsigma (the multiplier must annihilate the
tangent space of the constraint image N = Im sigma).  The tangency of the
dynamics to the primary constraint set either determines the constraint
velocity D (and then a multiplier rate C, both minimal-norm here since the
defining equations need not pin them uniquely) or produces a secondary
constraint, in which case the probe state is reported unstable.

A Hamiltonian that is constant along the polar directions descends to the
quotient of N by them; ``check_hamiltonian_descends`` certifies this
numerically instead of constructing the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    ConfigSpace,
    HamiltonianSystem,
    TimeGrid,
    Trajectory,
    _eval_along,
    as_point,
    canonical_skew,
    central_difference,
    grid_derivative,
    hamiltonian_vector_field,
)
from .errors import (
    DimensionMismatchError,
    GridMismatchError,
    NonFiniteError,
    OffConstraintError,
    UnstableConstraintError,
)
from .integrators import (FlowResult, IntegratorConfig, _march, _midpoint_step_batch,
                          _stopped_path, energy_drift, step_count)

ON_CONSTRAINT_TOL = 1e-8
RANK_TOL = 1e-10  # singular-value cutoff of the two-form's kernel; scale of tangency


def _null_space(a, rcond=None):
    """Orthonormal null-space basis of a: the right singular vectors of the singular values
    at most rcond (eps * max(a.shape) by default) times the largest, as scipy's null_space."""
    _, s, vh = np.linalg.svd(a)
    if rcond is None:
        rcond = np.finfo(float).eps * max(a.shape)
    return vh[np.count_nonzero(s > rcond * np.max(s, initial=0.0)):].T


@dataclass(frozen=True)
class ConstraintSpec:
    """The momentum constraint p = sigma(e) with its derivative.

    ``sigma``: K-point e (k-vector) -> covector (r-vector).
    ``dsigma``: e -> (r, k) matrix of partial derivatives.
    """

    k_dim: int
    sigma: Callable
    dsigma: Callable
    name: str = "custom"

    def sigma_at(self, e):
        return np.atleast_1d(np.asarray(self.sigma(np.asarray(e, dtype=float)), dtype=float))

    def dsigma_at(self, e):
        d = np.asarray(self.dsigma(np.asarray(e, dtype=float)), dtype=float)
        return d.reshape(d.shape[0], self.k_dim) if d.ndim == 1 else d

    def d2sigma_at(self, e, fd_step=1e-5):
        """Second derivative d2 sigma_a / de_i de_j by differences of dsigma."""
        return central_difference(self.dsigma_at, e, fd_step)


@dataclass(frozen=True)
class ExtendedState:
    """A point (u, p, Lambda, e) of the extended phase space."""

    u: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        for nm in ("u", "p", "lam", "e"):
            v = np.atleast_1d(np.asarray(getattr(self, nm), dtype=float))
            if not np.all(np.isfinite(v)):
                raise NonFiniteError(f"extended state component {nm} not finite")
            object.__setattr__(self, nm, v)


def check_dsigma(spec: ConstraintSpec, probes, fd_step=1e-6):
    """Max disagreement between dsigma and central differences of sigma."""
    worst = 0.0
    for e in probes:
        e = np.atleast_1d(np.asarray(e, dtype=float))
        fd = central_difference(spec.sigma_at, e, fd_step)
        worst = np.max(np.abs(fd - spec.dsigma_at(e)), initial=worst)  # NaN propagates
    return float(worst)


def extended_action(sys: HamiltonianSystem, spec: ConstraintSpec, chi: Trajectory,
                    lambda_path, e_path):
    """Quadrature of the multiplier-extended action along sampled paths."""
    n = len(chi.grid)
    lambda_path = np.atleast_2d(np.asarray(lambda_path, dtype=float))
    e_path = np.atleast_2d(np.asarray(e_path, dtype=float))
    if lambda_path.shape[0] != n or e_path.shape[0] != n:
        raise GridMismatchError("multiplier and constraint paths must share the trajectory grid")
    t = chi.grid.nodes
    du = grid_derivative(chi.positions, t)
    h_vals = _eval_along(sys, chi, sys.hamiltonian)
    sigma_vals = np.stack([spec.sigma_at(e_path[k]) for k in range(n)])
    integrand = (np.sum(chi.momenta * du, axis=1) - h_vals
                 + np.sum(lambda_path * (chi.momenta - sigma_vals), axis=1))
    return float(np.trapezoid(integrand, t))


def constrained_vector_field(sys: HamiltonianSystem, spec: ConstraintSpec,
                             state: ExtendedState, t=0.0):
    """Bulk equations of the constrained problem: (dH/dp - Lambda, -dH/du).

    The constraints themselves are residuals, not substituted here.
    """
    du, dp = hamiltonian_vector_field(sys, t, state.u, state.p)
    return du - state.lam, dp


def polar_constraint_residual(spec: ConstraintSpec, e, lam):
    """Lambda^T dsigma(e): zero iff the multiplier annihilates T(Im sigma)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return lam @ spec.dsigma_at(e)


def momentum_constraint_residual(spec: ConstraintSpec, p, e):
    """phi = p - sigma(e)."""
    return np.atleast_1d(np.asarray(p, dtype=float)) - spec.sigma_at(e)


def presymplectic_form_matrix(r, k):
    """Matrix of du^dp on coordinates (u, p, Lambda, e): J on (u, p), zero elsewhere."""
    m = np.zeros((3 * r + k, 3 * r + k))
    m[:2 * r, :2 * r] = canonical_skew(2 * r)
    return m


def _check_dimensions(sys, spec, e, *vectors):
    """DimensionMismatchError unless e has length spec.k_dim, and sigma(e) and each of
    ``vectors`` (u, p, Lambda) length r = sys.dim."""
    if (np.shape(e) != (spec.k_dim,)
            or any(np.shape(v) != (sys.dim,) for v in (spec.sigma_at(e), *vectors))):
        raise DimensionMismatchError(f"constraint {spec.name!r} needs e of length {spec.k_dim}, "
                                     f"and sigma(e), u, p and Lambda of length {sys.dim}")


def _tangency_solve(sys, spec, t, u, e):
    """Minimal-norm D with dsigma(e) D = -dH/du at p = sigma(e), the unmatched residual,
    dH/du, dsigma(e) and p."""
    p = spec.sigma_at(e)
    grad_u = np.asarray(sys.grad_u(t, u, p), dtype=float)
    dsig = spec.dsigma_at(e)
    d_vec, *_ = np.linalg.lstsq(dsig, -grad_u, rcond=None)
    residual = dsig @ d_vec + grad_u
    return d_vec, residual, grad_u, dsig, p


def _tangency_verdict(residual, grad_u):
    """(sup norm of a tangency residual, tangent): tangent iff the norm is at most
    100 RANK_TOL (1 + max|dH/du|), so a NaN residual or gradient is not tangent."""
    norm = float(np.abs(residual).max())
    return norm, norm <= RANK_TOL * (1.0 + float(np.abs(grad_u).max())) * 1e2


@dataclass(frozen=True)
class GotayReport:
    """Pointwise output of the presymplectic constraint algorithm."""

    kernel_basis: np.ndarray          # columns spanning ker of the extended two-form
    kernel_dim: int
    primary_residual: np.ndarray      # phi = p - sigma(e) at the probe
    polar_residual: np.ndarray        # psi = Lambda^T dsigma at the probe
    stable: bool
    tangency_residual: float
    secondary_direction: Optional[np.ndarray]
    d_velocity: Optional[np.ndarray]  # minimal-norm constraint velocity D
    c_rate: Optional[np.ndarray]      # minimal-norm multiplier rate C
    c_residual: Optional[float]
    terminated: bool


def gotay_step(sys: HamiltonianSystem, spec: ConstraintSpec, state: ExtendedState, t=0.0):
    """One pass of the constraint algorithm at a probe state.

    Computes the kernel of the extended two-form, reads the solvability
    conditions along it (recovering the primary and polar constraints),
    then checks tangency of the dynamics to the primary constraint set:
    either the minimal-norm velocities (D, C) exist and the algorithm
    terminates, or the unmatched gradient direction is reported as a
    secondary constraint.
    """
    _check_dimensions(sys, spec, state.e, state.u, state.p, state.lam)
    omega0 = presymplectic_form_matrix(sys.dim, spec.k_dim)
    kernel = _null_space(omega0, rcond=RANK_TOL)

    phi = momentum_constraint_residual(spec, state.p, state.e)
    psi = polar_constraint_residual(spec, state.e, state.lam)

    d_vec, tan_res, grad_u, dsig, _ = _tangency_solve(sys, spec, t, state.u, state.e)
    tan_norm, stable = _tangency_verdict(tan_res, grad_u)

    secondary = c_vec = c_res = None
    if stable:
        d2 = spec.d2sigma_at(state.e)
        rhs = -np.einsum("a,aij,j->i", state.lam, d2, d_vec)
        c_vec, *_ = np.linalg.lstsq(dsig.T, rhs, rcond=None)
        c_res = float(np.abs(dsig.T @ c_vec - rhs).max())
    else:
        secondary = tan_res / np.linalg.norm(tan_res)

    return GotayReport(
        kernel_basis=kernel,
        kernel_dim=kernel.shape[1],
        primary_residual=phi,
        polar_residual=np.atleast_1d(psi),
        stable=stable,
        tangency_residual=tan_norm,
        secondary_direction=secondary,
        d_velocity=d_vec if stable else None,
        c_rate=c_vec,
        c_residual=c_res,
        terminated=stable,
    )


def polar_space_basis(spec: ConstraintSpec, e):
    """Orthonormal basis of multipliers annihilating the image of dsigma."""
    dsig = spec.dsigma_at(e)
    return _null_space(dsig.T)


def stability_check(sys: HamiltonianSystem, spec: ConstraintSpec, state: ExtendedState, t=0.0):
    """Max |Lambda . dH/du| over unit polar directions; zero iff stable.

    The probe must satisfy the momentum constraint.
    """
    phi = momentum_constraint_residual(spec, state.p, state.e)
    if np.abs(phi).max() > ON_CONSTRAINT_TOL:
        raise OffConstraintError(f"probe violates p = sigma(e) by {np.abs(phi).max():.3e}")
    basis = polar_space_basis(spec, state.e)
    if basis.shape[1] == 0:
        return 0.0
    grad_u = np.asarray(sys.grad_u(t, state.u, state.p), dtype=float)
    return float(np.abs(basis.T @ grad_u).max())


def check_hamiltonian_descends(sys: HamiltonianSystem, spec: ConstraintSpec, probes,
                               fd_step=1e-6):
    """Max directional difference quotient of H along polar directions.

    ``probes`` is a list of (u, e) pairs; the momentum is sigma(e), so every
    probe lies on the constraint image.  A zero value certifies that H is
    constant along the characteristic directions and defines a function on
    the reduced space.
    """
    worst = 0.0
    for u, e in probes:
        u = as_point(u, sys.dim)
        e = np.atleast_1d(np.asarray(e, dtype=float))
        p = spec.sigma_at(e)
        basis = polar_space_basis(spec, e)
        if basis.shape[1]:
            quotients = central_difference(lambda v: sys.hamiltonian(0.0, v, p), u, fd_step,
                                           directions=basis.T)
            worst = np.max(np.abs(quotients), initial=worst)  # NaN propagates
    return float(worst)


# ---------------------------------------------------------------------------
# Constrained integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstrainedFlowResult(FlowResult):
    """Constrained trajectory with its drift diagnostics.

    The momentum path is sigma(e(t)) by construction, so the momentum
    constraint has exactly zero drift; the reported diagnostics are the
    energy drift, the polar residual of the supplied multiplier path, and
    the worst tangency residual of the per-step velocity solves.
    """

    e_path: np.ndarray
    lambda_path: np.ndarray
    energy_drift: float
    max_polar_residual: float
    max_tangency_residual: float


def integrate_constrained(sys: HamiltonianSystem, spec: ConstraintSpec, u0, e0,
                          cfg: IntegratorConfig, gauge="lambda-zero"):
    """Integrate the constrained dynamics with p = sigma(e) held exactly.

    The state is (u, e); the momentum is evaluated from the constraint, the
    constraint velocity D comes from the per-step minimal-norm tangency
    solve, and the multiplier path is the chosen gauge (zero by default, or
    a callable t -> Lambda).  It is marched by the implicit midpoint rule
    (another scheme is a ValueError) on flow_batch's step loop, without step
    halving, and escapes when max|u| + max|e| crosses the blow-up threshold.
    Newton steers by a central-difference jacobian of the field that later
    steps reuse until one takes more than two iterations; a step that fails
    on a reused jacobian, or one of whose iterates fails the tangency verdict
    there, is rerun once on a fresh one.  Raises
    DimensionMismatchError unless u0 and sigma(e0) have length sys.dim and
    e0 length spec.k_dim, UnstableConstraintError as soon as a state fails the
    tangency verdict (the dynamics then requires a secondary constraint and
    leaves the primary set), and FlowIncompleteError if the first step fails.
    """
    if cfg.scheme != "implicit-midpoint":
        raise ValueError(f"the constrained integrator steps with the implicit midpoint rule, "
                         f"not {cfg.scheme!r}")
    r = sys.dim
    u0 = as_point(u0, r)
    e0 = np.atleast_1d(np.asarray(e0, dtype=float))
    if gauge == "lambda-zero":
        lam_of_t = lambda t: np.zeros(r)
    elif callable(gauge):
        lam_of_t = lambda t: as_point(gauge(t), r)
    else:
        raise ValueError("gauge must be 'lambda-zero' or a callable t -> Lambda")
    _check_dimensions(sys, spec, e0)  # u0 and the gauge are checked by as_point
    ExtendedState(u0, spec.sigma_at(e0), lam_of_t(0.0), e0)  # raises on non-finite start data

    tangency_worst, lagged, calls = 0.0, [], 0  # lagged: the jacobian the steps share

    def rhs(t, y):
        """The field at y = (u, e), with the tangency residual and dH/du there."""
        u = y[:r]
        d_vec, tan_res, grad_u, _, p = _tangency_solve(sys, spec, t, u, y[r:])
        du = np.asarray(sys.grad_p(t, u, p), dtype=float) - lam_of_t(t)
        return np.concatenate([du, d_vec]), tan_res, grad_u

    # field and linearize act on a batch of one state, as the midpoint step asks
    def field(t, Y):
        # checked: the step's predictor and Newton iterates must keep tangency
        nonlocal tangency_worst, calls
        calls += 1
        value, tan_res, grad_u = rhs(t, Y[0])
        tan_norm, tangent = _tangency_verdict(tan_res, grad_u)
        if not tangent:
            raise UnstableConstraintError(t, tan_norm)
        tangency_worst = max(tangency_worst, tan_norm)
        return value[None]

    def linearize(t, Y):
        # central differences of the field with step 1e-7, unless a step left one;
        # unchecked, since the displaced states are off the path
        if not lagged:
            lagged.append(central_difference(lambda y: rhs(t, y)[0], Y[0], 1e-7)[None])
        return lagged[0]

    march_cfg, eye = replace(cfg, max_step_halvings=0), np.eye(r + spec.k_dim)

    def step(t, Y, h, live=None):
        nonlocal calls, tangency_worst
        reused, worst, calls = bool(lagged), tangency_worst, 0
        try:
            out = _midpoint_step_batch(field, linearize, t, Y, h, march_cfg, eye, live)
        except UnstableConstraintError:  # an iterate the lagged jacobian steered off tangency
            if not reused:
                raise
            out = None
        failed = out is None or not out[1][0]
        if calls > 3 or failed:  # the predictor and over two Newton iterations
            lagged.clear()
        if reused and failed:
            tangency_worst = worst
            return step(t, Y, h, live)
        return out

    n_steps = step_count(1.0, march_cfg.step)
    grid, h = TimeGrid.uniform(n_steps), 1.0 / n_steps
    path, *_, (stopped,) = _march(step, np.concatenate([u0, e0])[None], r, march_cfg,
                                  0.0, h, n_steps, store_path=True)
    nodes, states = _stopped_path(grid, path, stopped)
    u_path, e_path = states[:, :r], states[:, r:]
    lam_path = np.stack([lam_of_t(t) for t in nodes])
    traj = Trajectory(TimeGrid(nodes), u_path, np.stack([spec.sigma_at(e) for e in e_path]))
    polar = np.abs([polar_constraint_residual(spec, e, lam) for e, lam in zip(e_path, lam_path)])
    return ConstrainedFlowResult(
        trajectory=traj,
        status=stopped[0],
        e_path=e_path,
        lambda_path=lam_path,
        energy_drift=energy_drift(sys, traj),
        max_polar_residual=float(polar.max()),
        max_tangency_residual=tangency_worst,
    )


# ---------------------------------------------------------------------------
# Registered constraint families
# ---------------------------------------------------------------------------

def make_identity_constraint(dim=1):
    """sigma(e) = e with K = R^dim: constrains nothing."""
    dim = ConfigSpace(dim).dim  # an integer >= 1, checked as a configuration dimension is
    eye = np.eye(dim)
    return ConstraintSpec(
        k_dim=dim,
        sigma=lambda e: np.asarray(e, dtype=float),
        dsigma=lambda e: eye,
        name="identity",
    )


def make_circle_constraint():
    """Momenta pinned to the unit circle: sigma(e) = (cos e, sin e), K = R."""
    return ConstraintSpec(
        k_dim=1,
        sigma=lambda e: np.array([np.cos(e[0]), np.sin(e[0])]),
        dsigma=lambda e: np.array([[-np.sin(e[0])], [np.cos(e[0])]]),
        name="circle",
    )


CONSTRAINT_REGISTRY = {
    "identity": make_identity_constraint,
    "circle": make_circle_constraint,
}


def make_constraint(name, **params):
    if name not in CONSTRAINT_REGISTRY:
        raise KeyError(
            f"unknown constraint {name!r}; known: {', '.join(sorted(CONSTRAINT_REGISTRY))}")
    return CONSTRAINT_REGISTRY[name](**params)
