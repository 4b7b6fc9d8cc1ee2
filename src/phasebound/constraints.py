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
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import (
    ConfigSpace,
    HamiltonianSystem,
    TimeGrid,
    Trajectory,
    _eval_along,
    _eval_rows,
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
from .integrators import (Completed, FlowResult, IntegratorConfig, _finite_or_zero, _march,
                          _midpoint_step_batch, _stopped_path, _sup_norms, _whole_routed,
                          _windows, energy_drift, step_count)

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
    ``vectorized`` declares, as HamiltonianSystem.vectorized does, that both also take
    an (n, k) batch of points and return one result per row, (n, r) covectors and
    (n, r, k) matrices, each row's as for its point alone.  A vectorized spec is then
    called once per batch of points, and its lambda-zero flow may be solved all at once
    (integrate_constrained); any other is called one point at a time (_spec_rows).
    """

    k_dim: int
    sigma: Callable
    dsigma: Callable
    name: str = "custom"
    vectorized: bool = False

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


def _tangency_verdict(residual, grad_u):
    """(sup norm of a tangency residual, tangent): tangent iff the norm is at most
    100 RANK_TOL (1 + max|dH/du|), so a NaN residual or gradient is not tangent.  For
    one residual a float and a bool; for rows of residuals and gradients, arrays of them."""
    norm = np.abs(residual).max(axis=-1)
    tangent = norm <= RANK_TOL * (1.0 + np.abs(grad_u).max(axis=-1)) * 1e2
    return (float(norm), bool(tangent)) if norm.ndim == 0 else (norm, tangent)


def _spec_rows(spec, E):
    """(sigma, dsigma) at the rows of the points E: one call each when the spec is
    vectorized, one call per row otherwise, with the same results."""
    if spec.vectorized:
        return np.asarray(spec.sigma(E), dtype=float), np.asarray(spec.dsigma(E), dtype=float)
    return np.array([spec.sigma_at(e) for e in E]), np.array([spec.dsigma_at(e) for e in E])


def _tangency_field(sys, spec, t, Y, lam, memo=None):
    """The constrained field at the time t and the rows Y = (u, e) of a batch, with each
    row's tangency residual, dH/du and dsigma(e): du = dH/dp - lam at p = sigma(e), and D
    the minimal-norm solution of dsigma(e) D = -dH/du, from one batched pseudo-inverse with
    lstsq's cutoff, eps max(r, k) times the largest singular value.  The callbacks run row
    by row where the system or spec is not vectorized.  This is the one tangency solve: of
    the flow solved all at once, the stepped flow (a batch of one) and gotay_step (one
    row).  A non-finite dsigma(e) gives a non-finite residual, which is not tangent.
    ``memo``, a list, keeps the points e of the latest call with sigma, dsigma and the
    pseudo-inverse there, for a call at the same points to reuse: differences along u
    leave e as it is."""
    r = sys.dim
    U, E = Y[:, :r], Y[:, r:]
    if memo and np.array_equal(memo[0], E):
        P, dsig, pinv = memo[1:]
    else:
        P, dsig = _spec_rows(spec, E)
        pinv = np.linalg.pinv(_finite_or_zero(dsig), np.finfo(float).eps * max(r, spec.k_dim))
        if memo is not None:
            memo[:] = E.copy(), P, dsig, pinv
    grad_u = _eval_rows(sys, sys.grad_u, t, U, P)
    d_vec = (pinv @ -grad_u[..., None])[..., 0]
    residual = (dsig @ d_vec[..., None])[..., 0] + grad_u
    field = np.concatenate([_eval_rows(sys, sys.grad_p, t, U, P) - lam, d_vec], axis=1)
    return field, residual, grad_u, dsig


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

    y = np.concatenate([state.u, state.e])[None]
    field, tan_res, grad_u, dsig = (a[0] for a in _tangency_field(sys, spec, t, y, 0.0))
    d_vec = field[sys.dim:]
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
    the worst tangency residual of the velocity solves: at the states the
    stepped flow evaluates, or at the converged midpoints of a flow solved
    all at once.
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
    constraint velocity D comes from the minimal-norm tangency solve
    (_tangency_field), and the multiplier path is the chosen gauge (zero by
    default, or a callable t -> Lambda).  It is marched by the implicit
    midpoint rule (another scheme is a ValueError) and escapes when
    max|u| + max|e| crosses the blow-up threshold.

    The flow is solved all at once (_solve_whole), to within roundoff of the
    stepped flow, when the system is vectorized, autonomous and not
    closed-form, the spec is vectorized, the gauge is "lambda-zero",
    ``cfg.newton_max_iter`` and ``cfg.newton_tol`` are at least
    WHOLE_MIN_NEWTON_ITER and WHOLE_MIN_NEWTON_TOL, the start is within a
    tenth of the blow-up threshold, every window is certified as a single
    flow's is (integrators._whole_window) and the midpoints of the converged
    path all pass the tangency verdict.  There the verdict covers those
    converged midpoints, not the Newton iterates, and the reported worst
    tangency residual is theirs.  Any other flow is stepped from t0
    (_march_constrained), bit for bit as if the route did not exist, so every
    error and stop below is the stepped flow's.

    The stepped flow runs on flow_batch's step loop with the midpoint step of
    every flow, without step halving: each step linearizes the field at its
    own predictor midpoint by central differences of step 1e-7.  Raises
    DimensionMismatchError unless u0 and sigma(e0) have length sys.dim and e0
    length spec.k_dim, UnstableConstraintError as soon as a state the stepped
    flow evaluates (a predictor or Newton iterate) fails the tangency verdict
    (the dynamics then requires a secondary constraint and leaves the primary
    set), and FlowIncompleteError if the first step fails.  An iterate past
    the blow-up threshold that fails the verdict is escaping, not leaving the
    primary set: its step fails, and the flow stops as a flow_batch flow
    without step halving does.
    """
    if cfg.scheme != "implicit-midpoint":
        raise ValueError(f"the constrained integrator steps with the implicit midpoint rule, "
                         f"not {cfg.scheme!r}")
    r = sys.dim
    u0 = as_point(u0, r)
    e0 = np.atleast_1d(np.asarray(e0, dtype=float))
    zero_gauge = isinstance(gauge, str) and gauge == "lambda-zero"
    if zero_gauge:
        lam_of_t = lambda t: np.zeros(r)
    elif callable(gauge):
        lam_of_t = lambda t: as_point(gauge(t), r)
    else:
        raise ValueError("gauge must be 'lambda-zero' or a callable t -> Lambda")
    _check_dimensions(sys, spec, e0)  # u0 and the gauge are checked by as_point
    ExtendedState(u0, spec.sigma_at(e0), lam_of_t(0.0), e0)  # raises on non-finite start data

    n_steps = step_count(1.0, cfg.step)
    grid, h = TimeGrid.uniform(n_steps), 1.0 / n_steps
    y0, batched = np.concatenate([u0, e0]), spec.vectorized and zero_gauge
    solved = _solve_whole(sys, spec, y0, cfg, n_steps, h) if batched else None
    if solved is None:
        path, stopped, tangency_worst = _march_constrained(sys, spec, y0, lam_of_t, cfg,
                                                           n_steps, h)
    else:
        (path, tangency_worst), stopped = solved, (Completed(), n_steps, None)
    nodes, states = _stopped_path(grid, path, stopped)
    u_path, e_path = states[:, :r], states[:, r:]
    lam_path = np.stack([lam_of_t(t) for t in nodes])
    momenta, dsig = _spec_rows(spec, e_path)
    traj = Trajectory(TimeGrid(nodes), u_path, momenta)
    return ConstrainedFlowResult(
        trajectory=traj,
        status=stopped[0],
        e_path=e_path,
        lambda_path=lam_path,
        energy_drift=energy_drift(sys, traj),
        max_polar_residual=float(np.abs((lam_path[:, None] @ dsig)[:, 0]).max()),
        max_tangency_residual=tangency_worst,
    )


def _solve_whole(sys, spec, y0, cfg, n_steps, h):
    """(path, worst tangency residual) of the lambda-zero flow from y0 = (u0, e0) over
    n_steps steps of h solved all at once, the (n_steps + 1, 1, r + k) path completing;
    or None where the route declines the flow (see integrate_constrained).

    The windows are integrators._windows's, on the field of _tangency_field and its
    central differences of step 1e-7, as the stepped flow linearizes.  The tangency
    verdict is then read at every midpoint of the converged path, in one call."""
    r = sys.dim
    routed = _whole_routed(sys, cfg, y0[None], r)
    if not routed[0]:
        return None

    memo = []

    def field(t, Y):
        return _tangency_field(sys, spec, t, Y, 0.0, memo)[0]

    def linearize(t, Y):
        return central_difference(partial(field, t), Y, 1e-7)

    path, Z = np.empty((n_steps + 1, 1, len(y0))), y0[None].copy()
    with np.errstate(all="ignore"):
        for _ in _windows(field, linearize, Z, routed, n_steps, h, cfg, r, path):
            pass
        if not routed[0]:
            return None
        _, residual, grad_u, _ = _tangency_field(sys, spec, 0.0,
                                                 0.5 * (path[:-1, 0] + path[1:, 0]), 0.0)
    norm, tangent = _tangency_verdict(residual, grad_u)
    return (path, float(norm.max())) if tangent.all() else None


def _march_constrained(sys, spec, y0, lam_of_t, cfg, n_steps, h):
    """The stepped constrained flow from y0 = (u0, e0) over n_steps steps of h on _march:
    ((n_steps + 1, 1, r + k) path, (status, stop, crossing), worst tangency residual of
    the states its field was evaluated at).  See integrate_constrained."""
    r = sys.dim
    tangency_worst, memo = 0.0, []

    def field(t, Y):
        # checked: the step's predictor and Newton iterates must keep tangency, unless an
        # iterate is past the blow-up threshold, whose NaN field fails the step
        nonlocal tangency_worst
        value, residual, grad_u, _ = _tangency_field(sys, spec, t, Y, lam_of_t(t), memo)
        norm, tangent = _tangency_verdict(residual[0], grad_u[0])
        if not tangent:
            if _sup_norms(Y, r)[0] > cfg.blowup_threshold:
                return np.full_like(value, np.nan)
            raise UnstableConstraintError(t, norm)
        tangency_worst = max(tangency_worst, norm)
        return value

    def linearize(t, Y):
        # unchecked, since the displaced states are off the path
        lam = lam_of_t(t)
        return central_difference(lambda X: _tangency_field(sys, spec, t, X, lam, memo)[0],
                                  Y, 1e-7)

    march_cfg, eye = replace(cfg, max_step_halvings=0), np.eye(len(y0))

    def step(t, Y, h, live=None):
        return _midpoint_step_batch(field, linearize, t, Y, h, march_cfg, eye, live)

    path, *_, (stopped,) = _march(step, y0[None], r, march_cfg, 0.0, h, n_steps,
                                  store_path=True)
    return path, stopped, tangency_worst


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
        dsigma=lambda e: np.broadcast_to(eye, np.shape(e)[:-1] + eye.shape),
        name="identity",
        vectorized=True,
    )


def make_circle_constraint():
    """Momenta pinned to the unit circle: sigma(e) = (cos e, sin e), K = R."""
    return ConstraintSpec(
        k_dim=1,
        sigma=lambda e: np.stack([np.cos(e[..., 0]), np.sin(e[..., 0])], axis=-1),
        dsigma=lambda e: np.stack([-np.sin(e[..., 0]), np.cos(e[..., 0])], axis=-1)[..., None],
        name="circle",
        vectorized=True,
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
