"""Phase-space curves on [0,1], the action functional, and the boundary two-form.

A dynamical state is a point (u, p) of T*Q for a configuration space Q of
dimension r.  A trajectory is a sampled curve chi(t) = (u(t), p(t)) on a time
grid covering [0,1].  The boundary data of a trajectory is the quadruple
(u(0), p(0), u(1), p(1)) in T*Q x T*Q, which carries the canonical one-form

    alpha = p1 . du1 - p0 . du0

and its (constant-coefficient) differential omega.  Everything here is a pure
function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    GridTooCoarseError,
    NonFiniteError,
)

TWO_PI = 2.0 * np.pi


def integrated_el_tol(step, order=2, safety=10.0, scale=1.0):
    """Residual acceptance threshold for a curve produced by an integrator.

    A scheme of the given order leaves a residual of size ~ scale * step**order;
    the safety factor separates discretization error from modeling error.
    """
    return safety * scale * step ** order


def wrap_angle(d):
    """Wrap angle differences into (-pi, pi]."""
    d = np.asarray(d, dtype=float)
    return d - TWO_PI * np.ceil((d - np.pi) / TWO_PI)


@dataclass(frozen=True)
class ConfigSpace:
    """An r-dimensional configuration space with per-coordinate kind flags.

    ``kinds`` entries are "linear" or "angular"; angular coordinates are
    compared modulo 2*pi wherever a distance or equality on Q is taken.
    Stored values stay unwrapped along trajectories for continuity.
    """

    dim: int
    kinds: tuple = None

    def __post_init__(self):
        if type(self.dim) is bool or not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise DimensionMismatchError(f"configuration dimension must be an integer >= 1, "
                                         f"got {self.dim!r}")
        kinds = self.kinds if self.kinds is not None else ("linear",) * self.dim
        kinds = tuple(kinds)
        if len(kinds) != self.dim:
            raise DimensionMismatchError("one coordinate kind per dimension required")
        for k in kinds:
            if k not in ("linear", "angular"):
                raise ValueError(f"unknown coordinate kind {k!r}")
        object.__setattr__(self, "kinds", kinds)

    @property
    def angular_mask(self):
        return np.array([k == "angular" for k in self.kinds])

    def wrap_diff(self, a, b):
        """Componentwise a - b with angular coordinates wrapped to (-pi, pi]."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        mask = self.angular_mask
        if mask.any():
            d = np.where(mask, wrap_angle(d), d)
        return d


def as_point(x, dim):
    """Coerce a scalar or sequence to a float vector of length ``dim``."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (dim,):
        raise DimensionMismatchError(f"expected point of dimension {dim}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class HamiltonianSystem:
    """A Hamiltonian H(t, u, p) on T*Q x [0,1] with its first derivatives.

    ``grad_u`` and ``grad_p`` return dH/du and dH/dp.  The optional Hessian
    blocks (``hess_uu``, ``hess_up``, ``hess_pp``, with hess_up[a, b] =
    d2H/du^a dp_b) sharpen the tangent-flow computation; when absent they
    are approximated by symmetric differences of the gradients.

    ``analytic_flow`` is an oracle map (t, u0, p0) -> (u(t), p(t)) used for
    cross-checks.  Systems flagged ``analytic_only`` are integrated by
    sampling that oracle instead of stepping the vector field, and
    ``analytic_flow_jacobian`` (t, u0, p0) -> (2r, 2r) supplies their tangent
    flow; such a system must bring both (ValueError otherwise), and its
    Hessian blocks go unused.

    ``vectorized`` declares that every callback, ``analytic_flow_jacobian``
    included, broadcasts over a leading batch axis of u and p, so a batch of
    states is one call; otherwise each state is one call.  ``_eval_rows`` is
    where it is read.  ``autonomous`` declares
    that H does not depend on t, so a flow over [s, s + d] may be computed
    as one over [0, d]; shooting then splits [0, 1] into segments.
    """

    config: ConfigSpace
    hamiltonian: Callable
    grad_u: Callable
    grad_p: Callable
    hess_uu: Optional[Callable] = None
    hess_up: Optional[Callable] = None
    hess_pp: Optional[Callable] = None
    analytic_flow: Optional[Callable] = None
    analytic_flow_jacobian: Optional[Callable] = None
    separable: bool = False
    analytic_only: bool = False
    vectorized: bool = False
    autonomous: bool = False
    name: str = "custom"

    def __post_init__(self):
        if self.analytic_only and None in (self.analytic_flow, self.analytic_flow_jacobian):
            raise ValueError(f"{self.name}: analytic_only needs analytic_flow and its jacobian")

    @property
    def dim(self):
        return self.config.dim


def hamiltonian_vector_field(sys: HamiltonianSystem, t, u, p):
    """Right-hand side of Hamilton's equations: (dH/dp, -dH/du) at (t, u, p)."""
    du = np.asarray(sys.grad_p(t, u, p), dtype=float)
    dp = -np.asarray(sys.grad_u(t, u, p), dtype=float)
    if not (np.all(np.isfinite(du)) and np.all(np.isfinite(dp))):
        raise NonFiniteError(f"vector field not finite at t={t}, u={u}, p={p}")
    return du, dp


# Difference step of the Hessian blocks that a system leaves to differences.
HESSIAN_FD_STEP = 1e-6


def central_points(x, step):
    """x + step e_a and x - step e_a for every coordinate a of x's last axis.

    Returns shape (n, 2) + x.shape: direction by direction, + before -.
    This is the order of every central difference in the package.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    e = step * np.eye(n).reshape((n,) + (1,) * (x.ndim - 1) + (n,))
    return np.stack([x + e, x - e], axis=1)


def central_quotient(pairs, step):
    """(plus - minus) / (2 step) for values laid out as central_points' points."""
    pairs = np.asarray(pairs, dtype=float)
    return (pairs[:, 0] - pairs[:, 1]) / (2 * step)


def central_difference(f, x, step, directions=None):
    """Central differences of f at x, one column per direction on a new last axis.

    The displacements d, ``step`` times the rows of ``directions`` (the unit
    vectors by default), are built at once and move x's last axis, so leading
    batch axes of x pass through to f, called at x + d, then x - d, d by d.
    """
    x = np.asarray(x, dtype=float)
    shifts = step * (np.eye(x.shape[-1]) if directions is None
                     else np.asarray(directions, dtype=float))
    return np.concatenate([(np.asarray(f(x + d), dtype=float) - np.asarray(f(x - d), dtype=float))
                           [..., None] for d in shifts], axis=-1) / (2 * step)


def hessian_block(sys: HamiltonianSystem, block, t, u, p):
    """One second-derivative block of H at (t, u, p): "uu", "up" or "pp".

    The analytic callback is used when present; otherwise central differences
    of the gradient with step HESSIAN_FD_STEP (hess_up[a, b] = d(H_u)_a /
    d p_b).  Huu and Hpp are symmetrized so that downstream tangent-flow maps
    are exactly symplectic.
    """
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    if block == "uu":
        callback, grad, wrt_u = sys.hess_uu, sys.grad_u, True
    elif block == "pp":
        callback, grad, wrt_u = sys.hess_pp, sys.grad_p, False
    else:
        callback, grad, wrt_u = sys.hess_up, sys.grad_u, False
    if callback is not None:
        hess = np.asarray(callback(t, u, p), dtype=float)
    elif wrt_u:  # default arguments, not closure cells, which every call would pay for
        hess = central_difference(lambda v, g=grad, t=t, p=p: g(t, v, p), u, HESSIAN_FD_STEP)
    else:
        hess = central_difference(lambda v, g=grad, t=t, u=u: g(t, u, v), p, HESSIAN_FD_STEP)
    if block == "up":
        return hess
    return 0.5 * (hess + hess.swapaxes(-2, -1))


def linearized_field_matrix(sys: HamiltonianSystem, t, u, p):
    """Jacobian A of the Hamiltonian vector field X_H with respect to (u, p).

    Built from the blocks of hessian_block.  With symmetric Hessian blocks
    this matrix satisfies A^T J + J A = 0, so the implicit-midpoint tangent
    map (a Cayley transform of A) is exactly symplectic regardless of where
    A is evaluated.
    """
    huu = hessian_block(sys, "uu", t, u, p)
    hup = hessian_block(sys, "up", t, u, p)
    hpp = hessian_block(sys, "pp", t, u, p)
    r = huu.shape[-1]
    a_mat = np.empty(huu.shape[:-2] + (2 * r, 2 * r))
    a_mat[..., :r, :r] = hup.swapaxes(-2, -1)
    a_mat[..., :r, r:] = hpp
    np.negative(huu, out=a_mat[..., r:, :r])
    np.negative(hup, out=a_mat[..., r:, r:])
    return a_mat


def check_gradients(sys: HamiltonianSystem, probes, fd_step=1e-5):
    """Max relative disagreement between supplied gradients and differences of H.

    ``probes`` is an iterable of (t, u, p) triples.  Used by the self-test to
    enforce the consistency contract on user-supplied derivatives.
    """
    worst = 0.0
    for t, u, p in probes:
        u = as_point(u, sys.dim)
        p = as_point(p, sys.dim)
        gu = np.asarray(sys.grad_u(t, u, p), dtype=float)
        gp = np.asarray(sys.grad_p(t, u, p), dtype=float)
        scale = 1.0 + max(np.abs(gu).max(), np.abs(gp).max())
        fd_u = central_difference(lambda v: sys.hamiltonian(t, v, p), u, fd_step)
        fd_p = central_difference(lambda v: sys.hamiltonian(t, u, v), p, fd_step)
        # np.max, not max: a NaN disagreement must not be dropped
        worst = np.max(np.abs(np.concatenate([fd_u - gu, fd_p - gp])) / scale, initial=worst)
    return float(worst)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times inside [0, 1].

    Standard trajectories cover the whole interval (first node 0.0, last node
    1.0); partial grids are permitted so that trajectories that escape in
    finite time can still be stored and inspected.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise GridTooCoarseError("a time grid needs at least two nodes")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        if nodes[0] < 0.0 or nodes[-1] > 1.0 + 1e-12:
            raise ValueError("grid nodes must lie within [0, 1]")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, n_steps, t0=0.0, t1=1.0):
        if n_steps < 2:
            raise GridTooCoarseError("need at least 2 steps")
        return cls(np.linspace(t0, t1, n_steps + 1))

    def __len__(self):
        return self.nodes.size

    @property
    def spans_unit_interval(self):
        return self.nodes[0] == 0.0 and self.nodes[-1] == 1.0


@dataclass(frozen=True)
class Trajectory:
    """A sampled curve (u(t), p(t)) on a time grid.

    positions/momenta have shape (len(grid), r); angular coordinates are
    stored unwrapped.
    """

    grid: TimeGrid
    positions: np.ndarray
    momenta: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.positions, dtype=float))
        p = np.atleast_2d(np.asarray(self.momenta, dtype=float))
        n = len(self.grid)
        if q.shape[0] != n or p.shape != q.shape:
            raise GridTooCoarseError(
                f"positions {q.shape} / momenta {p.shape} do not match grid length {n}"
            )
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise NonFiniteError("trajectory entries must be finite")
        object.__setattr__(self, "positions", q)
        object.__setattr__(self, "momenta", p)

    @property
    def dim(self):
        return self.positions.shape[1]

    def state(self, k):
        return self.positions[k], self.momenta[k]


@dataclass(frozen=True)
class BoundaryPoint:
    """An element (u0, p0; u1, p1) of T*Q x T*Q - boundary data of a curve."""

    u0: np.ndarray
    p0: np.ndarray
    u1: np.ndarray
    p1: np.ndarray

    def __post_init__(self):
        dims = set()
        for name in ("u0", "p0", "u1", "p1"):
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if not np.all(np.isfinite(v)):
                raise NonFiniteError(f"boundary component {name} is not finite")
            dims.add(v.shape)
            object.__setattr__(self, name, v)
        if len(dims) != 1:
            raise DimensionMismatchError("boundary components must share one dimension")


@dataclass(frozen=True)
class BoundaryTangent:
    """A tangent vector (du0, dp0, du1, dp1) to T*Q x T*Q."""

    du0: np.ndarray
    dp0: np.ndarray
    du1: np.ndarray
    dp1: np.ndarray

    def __post_init__(self):
        dims = set()
        for name in ("du0", "dp0", "du1", "dp1"):
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            dims.add(v.shape)
            object.__setattr__(self, name, v)
        if len(dims) != 1:
            raise DimensionMismatchError("tangent components must share one dimension")


# ---------------------------------------------------------------------------
# Discrete differentiation
# ---------------------------------------------------------------------------

def fd_weights(x, x0):
    """First-derivative finite-difference weights at x0 from nodes x (Fornberg)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    c = np.zeros((n, 2))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, 1)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, 1]


def grid_derivative(values, nodes):
    """Discrete time derivative of node values along the grid.

    Five-point (fourth-order) stencils, clamped one-sided near the ends;
    three-point on very short grids.  Handles non-uniform node spacing.
    Values may have shape (n,) or (n, r).
    """
    y = np.asarray(values, dtype=float)
    t = np.asarray(nodes, dtype=float)
    n = t.size
    if y.shape[0] != n:
        raise GridTooCoarseError("values and nodes must have matching lengths")
    if n < 3:
        raise GridTooCoarseError("need at least 3 nodes to differentiate")
    w = 5 if n >= 5 else 3
    half = w // 2

    dt = np.diff(t)
    uniform = np.allclose(dt, dt[0], rtol=1e-12, atol=1e-15)
    out = np.empty_like(y)
    if uniform:
        h = dt[0]
        offsets = np.arange(w) * h
        # one weight row per clamped-window position (0..w-1 within the window)
        rows = [fd_weights(offsets, pos * h) for pos in range(w)]
        windows = np.lib.stride_tricks.sliding_window_view(y, w, axis=0)
        out[half:n - half] = np.tensordot(windows, rows[half], axes=([-1], [0]))
        for k in list(range(half)) + list(range(n - half, n)):
            s = min(max(k - half, 0), n - w)
            out[k] = np.tensordot(y[s:s + w], rows[k - s], axes=([0], [0]))
    else:
        for k in range(n):
            s = min(max(k - half, 0), n - w)
            out[k] = np.tensordot(y[s:s + w], fd_weights(t[s:s + w], t[k]), axes=([0], [0]))
    return out


# ---------------------------------------------------------------------------
# Action, residual, boundary forms
# ---------------------------------------------------------------------------

def _eval_rows(sys: HamiltonianSystem, fn, t, U, P):
    """fn(t, u, p) at the time t over the rows of (U, P): one call when the system is
    vectorized, one call per row otherwise (an empty batch then gives an empty array)."""
    if sys.vectorized:
        return np.asarray(fn(t, U, P), dtype=float)
    return np.array([fn(t, U[b], P[b]) for b in range(len(U))], dtype=float)


def _eval_along(sys: HamiltonianSystem, chi: Trajectory, fn):
    """fn(t, u, p) at every node: the nodes as one batch at one time when the
    system is autonomous, one call per node otherwise."""
    t = chi.grid.nodes
    if sys.autonomous:
        return _eval_rows(sys, fn, t[0], chi.positions, chi.momenta)
    return np.array([fn(t[k], chi.positions[k], chi.momenta[k]) for k in range(len(t))])


def action_functional(sys: HamiltonianSystem, chi: Trajectory):
    """Trapezoidal approximation of the action integral of p.du/dt - H."""
    t = chi.grid.nodes
    du = grid_derivative(chi.positions, t)
    h_vals = _eval_along(sys, chi, sys.hamiltonian)
    integrand = np.sum(chi.momenta * du, axis=1) - h_vals
    if not np.all(np.isfinite(integrand)):
        raise NonFiniteError("action integrand is not finite")
    return float(np.trapezoid(integrand, t))


def el_residual(sys: HamiltonianSystem, chi: Trajectory):
    """Per-node residual of Hamilton's equations along a sampled curve.

    Returns (res_u, res_p, norm) with res_u = du/dt - dH/dp,
    res_p = dp/dt + dH/du, and norm the max over nodes of the sup-norm.
    """
    t = chi.grid.nodes
    du = grid_derivative(chi.positions, t)
    dp = grid_derivative(chi.momenta, t)
    gu = _eval_along(sys, chi, sys.grad_u)
    gp = _eval_along(sys, chi, sys.grad_p)
    if not (np.all(np.isfinite(gu)) and np.all(np.isfinite(gp))):
        raise NonFiniteError("gradient evaluation along trajectory not finite")
    res_u = du - gp
    res_p = dp + gu
    norm = float(max(np.abs(res_u).max(), np.abs(res_p).max()))
    return res_u, res_p, norm


def el_pairing(sys: HamiltonianSystem, chi: Trajectory, delta_u, delta_p):
    """Pairing of the dynamical residual one-form with a variation field.

    This is the bulk term of the first-variation identity

        dS(chi)(delta) = <EL(chi), delta> + alpha(boundary variation),

    so the residual in u pairs with delta_p and the residual in p pairs with
    -delta_u (the sign produced by integrating the p.d(delta u)/dt term by
    parts).
    """
    res_u, res_p, _ = el_residual(sys, chi)
    delta_u = np.asarray(delta_u, dtype=float)
    delta_p = np.asarray(delta_p, dtype=float)
    integrand = np.sum(res_u * delta_p, axis=1) - np.sum(res_p * delta_u, axis=1)
    return float(np.trapezoid(integrand, chi.grid.nodes))


def boundary_projection(chi: Trajectory):
    """Endpoint data (u(0), p(0), u(1), p(1)) of a full-interval trajectory."""
    if not chi.grid.spans_unit_interval:
        raise GridTooCoarseError("boundary projection requires a trajectory covering [0, 1]")
    return BoundaryPoint(chi.positions[0], chi.momenta[0], chi.positions[-1], chi.momenta[-1])


def alpha_eval(bp: BoundaryPoint, v: BoundaryTangent):
    """Canonical boundary one-form: p1.du1 - p0.du0."""
    if bp.u0.shape != v.du0.shape:
        raise DimensionMismatchError("tangent dimension does not match boundary point")
    return float(np.dot(bp.p1, v.du1) - np.dot(bp.p0, v.du0))


def omega_eval(v: BoundaryTangent, w: BoundaryTangent):
    """Boundary symplectic form (the differential of alpha) on two tangents.

    omega(v, w) = (du1.dp1' - dp1.du1') - (du0.dp0' - dp0.du0').
    """
    if v.du0.shape != w.du0.shape:
        raise DimensionMismatchError("tangent dimensions do not match")
    plus = np.dot(v.du1, w.dp1) - np.dot(v.dp1, w.du1)
    minus = np.dot(v.du0, w.dp0) - np.dot(v.dp0, w.du0)
    return float(plus - minus)


def canonical_skew(two_r):
    """The canonical symplectic matrix J = [[0, I], [-I, 0]] of size two_r."""
    r = two_r // 2
    j = np.zeros((two_r, two_r))
    j[:r, r:] = np.eye(r)
    j[r:, :r] = -np.eye(r)
    return j


def boundary_omega_matrix(r):
    """Matrix of the boundary symplectic form in (du0, dp0, du1, dp1) layout."""
    j = canonical_skew(2 * r)
    m = np.zeros((4 * r, 4 * r))
    m[:2 * r, :2 * r] = -j
    m[2 * r:, 2 * r:] = j
    return m
