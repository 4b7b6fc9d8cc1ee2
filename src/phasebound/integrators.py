"""Fixed-step symplectic integration of Hamilton's equations on [0, 1].

One stepping engine, ``flow_batch``, advances a batch of states with one
of two one-step maps: the implicit midpoint rule (general H, solved by
Newton iteration with its matrix frozen at the predictor) or
Stormer-Verlet (separable H only, explicit).  Both are second order and
symplectic (Hairer, Lubich & Wanner, Geometric Numerical Integration,
VI.3).  The step maps only step: the midpoint step returns the inverse of
its Newton matrix N, which every Newton update uses.  Tangent flows are
built off the step loop, a block of steps at a time (_TangentChain), and
composed in step order: the frozen midpoint tangent 2 N^-1 - I, which
shooting's Newton directions compose, from the steps' inverses, or the
exact tangent, each discrete step's derivative, from their states (for the
midpoint rule the Cayley transform at the converged midpoint, VI.4; for
Stormer-Verlet the kick-drift-kick product).  So the computed monodromy
matrices are symplectic to solver tolerance, and a stored path is enough
to build the exact ones again (_path_jacobian).  Shooting's flows enter
through ``flow_batch`` and its step loop ``_march``, and closed-form flows
are evaluated in ``flow_batch``.  Single flows (``flow_with_jacobian``,
``integrate_flow``, ``flow_jacobian``) and the flow route of isotropy enter
through ``_flow_whole``, which solves the midpoint equations of all the
steps of a window at once (Newton over the sequence, its linear recurrence
by a prefix scan: _windows, _whole_window) for every member it can certify
to take the steps that ``_march`` would take, and hands every other member
to ``flow_batch``.  The constrained integrator solves its own (u, e) field
by the same window solver where it can be certified, and otherwise runs
its own step on ``_march``.

Finite-time escape is a legitimate outcome, reported as a BlowUp status
with the threshold-crossing time rather than raised as an error.  The
sup-norm threshold is a numerical proxy for "the flow fails to exist";
it is surfaced in results, never hidden.  Every flow reports how each
member ended.  A failed step is redone by the step loop on halved
substeps, down to ``max_step_halvings`` halvings, to localize where the
flow stops; shooting and the constrained flow set it to 0, so a member
leaves at its first failed step.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .core import (
    HamiltonianSystem,
    TimeGrid,
    Trajectory,
    _eval_along,
    _eval_rows,
    as_point,
    canonical_skew,
    hessian_block,
    linearized_field_matrix,
)
from .errors import (
    DimensionMismatchError,
    FlowIncompleteError,
    NonFiniteError,
    NotSeparableError,
)


def _check_field_kinds(cfg):
    """ValueError unless each int field of cfg holds an integer and each float field a number."""
    for f in fields(cfg):  # f.type is the annotation's text (from __future__ import annotations)
        v, integer = getattr(cfg, f.name), f.type == "int"
        kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
        if f.type in ("int", "float") and (isinstance(v, bool) or not isinstance(v, kinds)):
            raise ValueError(f"{f.name}: {v!r} is not {'an integer' if integer else 'a number'}")


# Deepest step halving: 64 halvings take even a step of 1 below 2^-64 = 5.4e-20,
# under the float spacing of any t >= 2^-10, where a deeper substep could not
# advance time.
MAX_STEP_HALVINGS = 64
# Most steps over [0, 1]: a 1-d flow of 10^7 steps stores 160 MB of states, in about 16 min.
MAX_STEPS = 10 ** 7


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: str = "implicit-midpoint"
    step: float = 1e-3
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    blowup_threshold: float = 1e8
    max_step_halvings: int = 26

    def __post_init__(self):
        _check_field_kinds(self)
        if self.scheme not in ("implicit-midpoint", "stormer-verlet"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        # clamped at 1e-300 (still far too small): 1 / step is inf for a subnormal step
        if not 0 < self.step <= 1 or step_count(1, max(self.step, 1e-300)) > MAX_STEPS:
            raise ValueError(f"step {self.step!r}: need 0 < step <= 1, at most {MAX_STEPS} steps")
        if not (0 < self.newton_tol < np.inf and 0 < self.blowup_threshold < np.inf):
            raise ValueError("newton_tol and blowup_threshold must be positive and finite")
        if self.newton_max_iter < 1 or not 0 <= self.max_step_halvings <= MAX_STEP_HALVINGS:
            raise ValueError(f"need newton_max_iter >= 1 and "
                             f"0 <= max_step_halvings <= {MAX_STEP_HALVINGS}")


def step_count(span, step):
    """Steps of a fixed-step flow over ``span``: span / step, rounded, and at least 2."""
    return max(2, int(round(span / step)))


@dataclass(frozen=True)
class Completed:
    pass


@dataclass(frozen=True)
class BlowUp:
    t_escape: float


@dataclass(frozen=True)
class NewtonFailure:
    t: float


@dataclass(frozen=True)
class FlowResult:
    trajectory: Trajectory
    status: object

    @property
    def completed(self):
        return isinstance(self.status, Completed)


# ---------------------------------------------------------------------------
# Flow over an interval
# ---------------------------------------------------------------------------

def flow_with_jacobian(sys: HamiltonianSystem, u0, p0, cfg: IntegratorConfig,
                       t0=0.0, t1=1.0, want_jacobian=True):
    """Integrate from (u0, p0) over [t0, t1], optionally with the tangent flow.

    A batch of one of ``_flow_whole``: solved all at once, to roundoff of
    the stepped flow, when the route certifies it, and otherwise stepped by
    ``flow_batch`` bit for bit.  The trajectory ends at the member's stop,
    and an escape at the state that crossed the blow-up threshold.
    Returns (FlowResult, jacobian or None).  The jacobian is None whenever
    the flow does not complete; if its first step fails, FlowIncompleteError.
    """
    r = sys.dim
    grid, path, _, _, _, jac, (stopped,) = _flow_whole(
        sys, as_point(u0, r), as_point(p0, r), cfg, t0, t1, want_jacobian, store_path=True)
    times, states = _stopped_path(grid, path, stopped)
    result = FlowResult(Trajectory(TimeGrid(times), states[:, :r], states[:, r:]), stopped[0])
    return result, (jac[0] if want_jacobian and result.completed else None)


def integrate_flow(sys: HamiltonianSystem, u0, p0, cfg: IntegratorConfig, t0=0.0, t1=1.0):
    """March Hamilton's equations to t1 or stop at the blow-up threshold."""
    res, _ = flow_with_jacobian(sys, u0, p0, cfg, t0, t1, want_jacobian=False)
    return res


def flow_jacobian(sys: HamiltonianSystem, u0, p0, cfg: IntegratorConfig, t0=0.0, t1=1.0):
    """Derivative of the time-t1 flow with respect to the initial state.

    Composes the exact derivative of each discrete step along the flow of
    ``flow_with_jacobian``, solved all at once or stepped.  A collapsed
    span returns the identity.  Raises FlowIncompleteError if the flow does
    not reach t1.
    """
    if t1 == t0:
        return np.eye(2 * sys.dim)
    res, jac = flow_with_jacobian(sys, u0, p0, cfg, t0, t1, want_jacobian=True)
    if not res.completed:
        raise FlowIncompleteError(res.status)
    return jac


def symplecticity_defect(jac):
    """Max-norm defect of J^T S J - S for the canonical skew form S."""
    jac = np.asarray(jac, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != jac.shape[1] or jac.shape[0] % 2 != 0:
        raise DimensionMismatchError(f"need a square even-dimensional matrix, got {jac.shape}")
    s = canonical_skew(jac.shape[0])
    return float(np.max(np.abs(jac.T @ s @ jac - s)))


def energy_drift(sys: HamiltonianSystem, traj: Trajectory):
    """Max |H(t) - H(0)| along a trajectory (meaningful for autonomous H)."""
    vals = _eval_along(sys, traj, sys.hamiltonian)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError("energy evaluation not finite along trajectory")
    return float(np.max(np.abs(vals - vals[0])))


# ---------------------------------------------------------------------------
# Batched flows (multistart workhorse)
# ---------------------------------------------------------------------------

def _field_batch(sys, t, Z):
    r = Z.shape[1] // 2
    U, P = Z[:, :r], Z[:, r:]
    du = _eval_rows(sys, sys.grad_p, t, U, P)
    dp = -_eval_rows(sys, sys.grad_u, t, U, P)
    return np.concatenate([du, dp], axis=1)


def _linearized_batch(sys, t, Z):
    r = Z.shape[1] // 2
    return _eval_rows(sys, lambda tt, u, p: linearized_field_matrix(sys, tt, u, p),
                      t, Z[:, :r], Z[:, r:])


def _batch_solve(mats, rhs=None):
    """mats[b]^-1 rhs[b] for every member b, rhs holding one vector per member,
    or the inverse mats[b]^-1 itself when rhs is None.

    A singular member alone falls back to its pseudo-inverse (pinv); the
    others are solved as in the stacked call, so no member's result depends
    on what else is in the batch.
    """
    try:
        if rhs is None:
            return np.linalg.inv(mats)
        return np.linalg.solve(mats, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(mats if rhs is None else rhs)
        for b in range(mats.shape[0]):
            try:
                out[b] = (np.linalg.inv(mats[b]) if rhs is None
                          else np.linalg.solve(mats[b], rhs[b]))
            except np.linalg.LinAlgError:
                pinv = np.linalg.pinv(mats[b])
                out[b] = pinv if rhs is None else pinv @ rhs[b]
        return out


def _row_max(a):
    """a.max(axis=1) bit for bit for a 2-d array a, as np.maximum over its columns: on
    the step's narrow (2r-wide) arrays this skips a reduction's setup per call."""
    out = a[:, 0]
    for j in range(1, a.shape[1]):
        out = np.maximum(out, a[:, j])
    return out


def _finite_or_zero(a_mat):
    """a_mat with its non-finite entries replaced by 0."""
    finite = np.isfinite(a_mat)
    return a_mat if finite.all() else np.where(finite, a_mat, 0.0)


def _row_finite(a):
    """np.isfinite(a).all(axis=1) bit for bit for a 2-d array a, column by column as
    _row_max takes maxima: on the step's narrow (2r-wide) arrays this skips a
    reduction's setup per call."""
    out = np.isfinite(a[:, 0])
    for j in range(1, a.shape[1]):
        out &= np.isfinite(a[:, j])
    return out


def _midpoint_step_batch(field, linearize, t, Z, h, cfg, eye, live=None):
    """Implicit midpoint for dZ/dt = field(t, Z) over a batch of states Z.

    ``field(t, Z)`` returns one row of the vector field per row of Z, and
    ``linearize(t, Z)`` one jacobian of it per row; ``eye`` is the identity
    of a state's width.  Returns (Z', ok, N^-1).  The Newton matrix N = I -
    (h/2) A is assembled at the predictor midpoint, frozen across iterations
    (the fixed point is unchanged) and inverted once by _batch_solve; every
    update is N^-1 times the residual, and the one that passes the residual
    test is still applied, so Z' sits at the fixed point to roundoff.  The
    step builds no tangent: the frozen one, 2 N^-1 - I, the Cayley transform
    (I - H)^-1 (I + H) of H = (h/2) A, symplectic for a Hamiltonian field,
    is built from the returned inverses, and the exact one, the step's
    derivative, from the states (_scheme's builders).  Members outside the
    optional mask ``live`` are not iterated and come back not ok.

    While every member is ok and none has converged, the iteration runs
    unmasked; the masked updates take over once a member fails or
    converges ahead of the others, and give the same values.  Non-finite
    arithmetic is expected here: the caller runs this under
    ``np.errstate(all="ignore")``.
    """
    bsz = Z.shape[0]
    t_mid = t + 0.5 * h
    Z2 = Z + h * field(t, Z)
    ok = _row_finite(Z2)
    if live is not None:
        ok &= live
    lean = bool(ok.all())
    if lean:
        m0 = 0.5 * (Z + Z2)
    else:
        Z2 = np.where(ok[:, None], Z2, Z)
        m0 = np.where(ok[:, None], 0.5 * (Z + Z2), 0.0)
    n_inv = _batch_solve(eye - 0.5 * h * _finite_or_zero(linearize(t_mid, m0)))
    z_size = _row_max(np.abs(Z))
    done = np.zeros(bsz, dtype=bool)
    for _ in range(cfg.newton_max_iter):
        if not lean:
            active = ok & ~done
            if not active.any():
                break
        g = Z2 - Z - h * field(t_mid, 0.5 * (Z + Z2))
        gn = _row_max(np.abs(g))  # not finite exactly when a row of g is not
        scale = 1.0 + np.maximum(z_size, _row_max(np.abs(Z2)))
        finite = np.isfinite(gn)
        if lean:
            if finite.all():
                delta = (n_inv @ -g[..., None])[..., 0]
                stepped = Z2 + delta
                usable = np.isfinite(delta)
                Z2 = stepped if usable.all() else np.where(usable, stepped, Z2)
                done = gn <= cfg.newton_tol * scale
                lean = not done.any()
                continue
            active, lean = ok & ~done, False
        ok &= finite | done
        active &= finite
        if not active.any():
            break
        delta = (n_inv @ np.where(np.isfinite(g), -g, 0.0)[..., None])[..., 0]
        Z2 = np.where(active[:, None] & np.isfinite(delta), Z2 + delta, Z2)
        done |= active & (gn <= cfg.newton_tol * scale)
    ok &= done
    return Z2, ok, n_inv


def _verlet_step_batch(sys, t, Z, h, live=None):
    """Stormer-Verlet (kick-drift-kick) over a batch; returns (Z', ok, None).

    The step is explicit, so there is no Newton solve (and no iteration for
    ``live`` to skip): ``ok`` flags members whose new state is finite.  Its
    tangent is built off the step from its states (_verlet_tangents).  Like
    the midpoint step, it runs under the caller's ``np.errstate(all="ignore")``.
    """
    if not sys.separable:
        raise NotSeparableError(f"system {sys.name!r} is not declared separable")
    r = Z.shape[1] // 2
    U, P = Z[:, :r], Z[:, r:]
    P_half = P - 0.5 * h * _eval_rows(sys, sys.grad_u, t, U, P)
    U_new = U + h * _eval_rows(sys, sys.grad_p, t + 0.5 * h, U, P_half)
    P_new = P_half - 0.5 * h * _eval_rows(sys, sys.grad_u, t + h, U_new, P_half)
    Z2 = np.concatenate([U_new, P_new], axis=1)
    return Z2, _row_finite(Z2), None


# Steps whose tangents are built in one pass: a flow keeps the states and Newton
# inverses of this many steps, so its memory stays O(block x batch) whatever it stores.
TANGENT_BLOCK = 16


def _eval_block(sys, fn, ts, U, P):
    """fn(t, u, p) over a block of steps' (K, B, r) states (U, P), step k at the time
    ts[k]: one _eval_rows per step, so every callback sees the (B, r) arrays of a batch."""
    return np.stack([_eval_rows(sys, fn, t, U[k], P[k]) for k, t in enumerate(ts)])


def _midpoint_tangents(sys, ts, Z, Z1, h, moved, eye):
    """Exact tangents of implicit-midpoint steps of h from the states Z[k] at ts[k]
    to Z1[k], for a (K, B, 2r) block: the Cayley transforms 2 (I - (h/2) A)^-1 - I
    with A linearized at the converged midpoints, 0 for members not ``moved``; one
    linearization per step and one _batch_solve for the block."""
    mid = 0.5 * (Z + Z1)
    if not moved.all():
        mid = np.where(moved[..., None], mid, 0.0)
    r = Z.shape[-1] // 2
    a_mat = _eval_block(sys, partial(linearized_field_matrix, sys),
                        [t + 0.5 * h for t in ts], mid[..., :r], mid[..., r:])
    mats = _finite_or_zero(a_mat)  # in place below: eye - 0.5 * h * mats, bit for bit
    mats *= -0.5 * h
    mats += eye
    tangents = _batch_solve(mats.reshape(-1, 2 * r, 2 * r)).reshape(mats.shape)
    tangents *= 2.0
    tangents -= eye
    return tangents


def _verlet_tangents(sys, ts, Z, Z1, h, moved, eye):
    """Exact tangents of Stormer-Verlet steps of h from the states Z[k] at ts[k] to
    Z1[k], for a (K, B, 2r) block: the product of the two kick matrices
    [[I, 0], [-h/2 Huu, I]] and the drift matrix [[I, h Hpp], [0, I]] (Hairer,
    Lubich & Wanner, Geometric Numerical Integration, VI.3), Huu at the kicks and
    Hpp at the drift, with the half-kicked momenta recomputed as the step made them."""
    r = Z.shape[-1] // 2
    U, P, U_new = Z[..., :r], Z[..., r:], Z1[..., :r]
    P_half = P - 0.5 * h * _eval_block(sys, sys.grad_u, ts, U, P)

    def hess(block, times, UU, PP):
        return _eval_block(sys, partial(hessian_block, sys, block), times, UU, PP)

    kick0 = np.tile(eye, Z.shape[:-1] + (1, 1))
    drift, kick1 = kick0.copy(), kick0.copy()
    kick0[..., r:, :r] = -0.5 * h * hess("uu", ts, U, P)
    drift[..., :r, r:] = h * hess("pp", [t + 0.5 * h for t in ts], U, P_half)
    kick1[..., r:, :r] = -0.5 * h * hess("uu", [t + h for t in ts], U_new, P_half)
    return kick1 @ drift @ kick0


def _analytic_batch(sys, Z0, t0, t1, grid, want_jacobian, store_path):
    """Closed-form flow of the states Z0 (one per row) over [t0, t1] on ``grid``;
    returns (path or None, Z1, ok, jacobians or None) as _march does, without its report.

    The closed form is evaluated at the elapsed time t - t0.  With
    ``store_path`` it fills the (n_nodes, batch, 2r) path, node by node, and
    ``ok`` requires every node to be finite; otherwise it is evaluated once,
    at t1 - t0, and ``ok`` requires finite start and end states.
    """
    bsz, width = Z0.shape
    U0, P0 = Z0[:, :width // 2], Z0[:, width // 2:]
    elapsed = grid.nodes - t0 if store_path else (t1 - t0,)

    def state(t, u0, p0):
        return np.concatenate(sys.analytic_flow(t, u0, p0), axis=-1)

    path = np.empty((len(elapsed), bsz, width))
    for i, t in enumerate(elapsed):
        path[i] = _eval_rows(sys, state, t, U0, P0).reshape(bsz, width)
    ok = np.isfinite(Z0).all(axis=1) & np.isfinite(path).all(axis=(0, 2))
    jac = None
    if want_jacobian:
        jac = _eval_rows(sys, sys.analytic_flow_jacobian, t1 - t0, U0, P0).reshape(
            bsz, width, width)
    return (path if store_path else None), path[-1], ok, jac


def _scheme(sys, cfg, exact=True):
    """(step, tangents) of the configured scheme for Hamilton's equations; the one
    place, config validation apart, that reads the scheme.

    ``step(t, Z, h, live=None)`` gives (Z', ok, N^-1 or None); members outside
    ``live`` are not Newton-iterated.  ``tangents(ts, Z, Z1, h, moved, inverses)``
    builds a block of steps' tangents for _TangentChain: the exact ones from the
    states (_midpoint_tangents, _verlet_tangents), or with ``exact`` False under
    the midpoint rule the frozen ones, 2 N^-1 - I, from the inverses.
    """
    eye = np.eye(2 * sys.dim)
    if cfg.scheme == "stormer-verlet":
        step, built = partial(_verlet_step_batch, sys), _verlet_tangents
    else:
        field, linearize = partial(_field_batch, sys), partial(_linearized_batch, sys)

        def step(t, Z, h, live=None):
            return _midpoint_step_batch(field, linearize, t, Z, h, cfg, eye, live)

        if not exact:
            return step, lambda ts, Z, Z1, h, moved, inverses: 2.0 * np.stack(inverses) - eye
        built = _midpoint_tangents
    return step, lambda ts, Z, Z1, h, moved, inverses: built(sys, ts, Z, Z1, h, moved, eye)


class _TangentChain:
    """The tangent flow of a batch of states Z, composed in step order.

    ``add(t, Z, moved, inverse)`` records a step from t: the states after
    it, the mask of members it moved, None for all (the others keep their
    tangent), and the step's Newton inverse or None.  Every TANGENT_BLOCK
    steps, and at ``finish``, one call ``tangents(ts, Z, Z1, h, moved,
    inverses)`` (a builder of _scheme's) makes the block's tangents from its
    states or inverses, and they are composed as a loop composing each
    step's would.  ``redo`` replaces a member's tangent of the step being
    added by the product of the substeps it was redone on.  Call under
    ``np.errstate(all="ignore")``: held and stopped members' states are
    linearized too.
    """

    def __init__(self, Z, h, tangents):
        bsz, width = Z.shape
        self.h, self.tangents = h, tangents
        self.times, self.lean, self.inverses, self.redone = [], [], [], []
        self.jac = np.tile(np.eye(width), (bsz, 1, 1))
        self.moved = np.empty((TANGENT_BLOCK, bsz), dtype=bool)
        self.states = np.empty((TANGENT_BLOCK + 1, bsz, width))
        self.states[0] = Z

    def redo(self, b, tangent):
        self.redone.append((len(self.times), b, tangent))

    def add(self, t, Z, moved=None, inverse=None):
        k = len(self.times)
        self.times.append(t)
        self.lean.append(moved is None)
        self.inverses.append(inverse)
        self.moved[k] = True if moved is None else moved
        self.states[k + 1] = Z
        if k + 1 == TANGENT_BLOCK:
            self.finish()

    def finish(self):
        """Compose the steps added since the last block; returns the jacobians."""
        n = len(self.times)
        if n:
            tangents = self.tangents(self.times, self.states[:n], self.states[1:n + 1], self.h,
                                     self.moved[:n], self.inverses)
            self.states[0] = self.states[n]
            for k, b, tangent in self.redone:
                tangents[k][b] = tangent
            for k, lean in enumerate(self.lean):
                stepped = tangents[k] @ self.jac
                self.jac = stepped if lean else np.where(self.moved[k][:, None, None], stepped,
                                                         self.jac)
            self.times, self.lean, self.inverses, self.redone = [], [], [], []
        return self.jac


def _sup_norms(Z, r):
    """max|z[:r]| + max|z[r:]| of every row z of Z: max|u| + max|p| for a state (u, p)."""
    size = np.abs(Z)
    return _row_max(size[:, :r]) + _row_max(size[:, r:])


def _stop_status(z, r, t, cfg):
    """Status of a member whose step from the one-row batch z at t failed for good.

    A state already over a tenth of the blow-up threshold is escaping, and
    the failure is reported as its BlowUp at t.
    """
    if _sup_norms(z, r)[0] > cfg.blowup_threshold / 10.0:
        return BlowUp(t_escape=t)
    return NewtonFailure(t=t)


def _start_report(Z, ok, r, t0, n_steps, cfg):
    """Each member's (status, stop, crossing) before a step: Completed at node ``n_steps``
    if ok, otherwise stopped at t0 and node 0, as after a failed first step."""
    return [(Completed(), n_steps, None) if ok[b]
            else (_stop_status(Z[b:b + 1], r, t0, cfg), 0, None) for b in range(len(ok))]


def _march(step, Z, r, cfg, t0, h, n_steps, store_path=False, tangents=None):
    """The step loop of every flow: advance the states Z (one per row) n_steps steps of h from t0.

    ``step(t, Z, h, live)`` gives (Z', ok, N^-1 or None) for states of any width;
    ``r`` splits a state z for the blow-up test max|z[:r]| + max|z[r:]|.  A
    member whose step fails is redone from t by this loop as 2 steps of
    h / 2, with one halving fewer to spend, while ``cfg.max_step_halvings``
    allows; a member whose step still fails, or that crosses the threshold,
    leaves ``ok`` and is held.  The loop ends when none is ok.  With
    ``tangents``, a block builder of _scheme's, a _TangentChain composes the
    step tangents that it builds from each block of steps' states and
    inverses (a redone step keeps the product of its substeps').  Returns
    ((n_steps + 1, batch, width) path or None, Z1, ok, jacobians or None,
    report); the report gives each member's (status, stop, crossing):
    Completed, BlowUp(t_escape) or NewtonFailure(t), the node up to which
    its path is its own, and the state that crossed the threshold at
    t_escape or None.
    """
    bsz, width = Z.shape
    ok = np.isfinite(Z).all(axis=1)
    live = None if ok.all() else ok  # the members worth iterating, None for all
    report = _start_report(Z, ok, r, t0, n_steps, cfg)
    chain = None if tangents is None else _TangentChain(Z, h, tangents)
    path = np.empty((n_steps + 1, bsz, width)) if store_path else None
    if store_path:
        path[0] = Z
    with np.errstate(all="ignore"):
        for k in range(n_steps if bsz else 0):  # no row to evaluate in an empty batch
            t = t0 + k * h
            Znew, step_ok, inverse = step(t, Z, h, live)
            was_ok, ok = ok, ok & step_ok & (_sup_norms(Znew, r) <= cfg.blowup_threshold)
            if ok.all():
                Z, moved = Znew, None
            else:
                for b in np.flatnonzero(was_ok & ~ok):
                    stopped = (BlowUp(t_escape=t + h), k, Znew[b])
                    if not step_ok[b]:
                        stopped = (_stop_status(Z[b:b + 1], r, t, cfg), k, None)
                        if cfg.max_step_halvings:
                            halved = replace(cfg, max_step_halvings=cfg.max_step_halvings - 1)
                            _, z, sub_ok, m, ((status, _, crossing),) = _march(
                                step, Z[b:b + 1], r, halved, t, 0.5 * h, 2, tangents=tangents)
                            if sub_ok[0]:
                                ok[b], Znew[b] = True, z[0]
                                if chain is not None:
                                    chain.redo(b, m[0])
                                continue
                            if crossing is not None:
                                stopped = (status, k, crossing)
                    report[b] = stopped
                if not ok.any():
                    if store_path:
                        path[k + 1:] = Z
                    break
                live = moved = ok
                Z = np.where(ok[:, None], Znew, Z)
            if chain is not None:
                chain.add(t, Z, moved, inverse)
            if store_path:
                path[k + 1] = Z
        jac = None if chain is None else chain.finish()
    return path, Z, ok, jac, report


def _path_jacobian(sys, path, cfg, t1):
    """The jacobians of a flow with ``cfg``'s scheme over [0, t1] from its stored
    (n_nodes, batch, 2r) ``path``, every member of which completed with no step
    redone: the exact tangents of its steps, built by _scheme's builder and
    composed as _march does, so they equal flow_batch's with ``want_jacobian``;
    nothing is stepped."""
    n_steps = len(path) - 1
    h = t1 / n_steps
    chain = _TangentChain(path[0], h, _scheme(sys, cfg)[1])
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            chain.add(k * h, path[k + 1])
        return chain.finish()


def _stopped_path(grid, path, stopped):
    """(times, states) of a batch of one up to its stop: views of ``grid`` and of its
    (n_nodes, 1, width) ``path``, unless ``stopped`` = (status, stop, crossing) is an
    escape, whose crossing state is appended at t_escape.  Raises FlowIncompleteError
    if the first step failed."""
    status, stop, crossing = stopped
    if stop == 0 and crossing is None:
        raise FlowIncompleteError(status)
    times, states = grid.nodes[:stop + 1], path[:stop + 1, 0]
    if crossing is not None:
        times, states = np.append(times, status.t_escape), np.vstack([states, crossing])
    return times, states


def flow_batch(sys: HamiltonianSystem, U0, P0, cfg: IntegratorConfig,
               t0=0.0, t1=1.0, want_jacobian=False, store_path=False, tangent_exact=True):
    """Integrate a batch of initial states over [t0, t1] simultaneously.

    Steps with ``cfg``'s scheme on the step loop _march: the implicit midpoint
    rule, or Stormer-Verlet (which raises NotSeparableError for a system
    not declared separable).  Closed-form (``analytic_only``) systems are
    evaluated, not stepped, and their grid is sampled only when
    ``store_path`` asks for the path.  Returns (grid, path or None, U1, P1,
    ok, jacobians or None, report), path being the (n_nodes, batch, 2r)
    state array of either kind of flow and report that of _march, which
    also describes ``ok`` and step halving (``cfg.max_step_halvings`` alone
    decides it); a closed-form member that is not ok stops at t0, as after
    a failed first step.  The jacobians compose step tangents built off the
    step loop a block of steps at a time (_TangentChain): exact ones, or
    with ``tangent_exact`` False under the midpoint rule the frozen ones
    2 N^-1 - I from each step's Newton inverse (see _midpoint_step_batch).
    """
    Z0 = np.concatenate([np.atleast_2d(np.asarray(x, dtype=float)) for x in (U0, P0)], axis=1)
    r = Z0.shape[1] // 2
    n_steps = step_count(t1 - t0, cfg.step)
    grid, h = TimeGrid.uniform(n_steps, t0, t1), (t1 - t0) / n_steps
    if sys.analytic_only:
        with np.errstate(all="ignore"):
            path, Z, ok, jac = _analytic_batch(sys, Z0, t0, t1, grid, want_jacobian, store_path)
        report = _start_report(Z0, ok, r, t0, n_steps, cfg)
    else:
        step, tangents = _scheme(sys, cfg, tangent_exact)
        path, Z, ok, jac, report = _march(step, Z0, r, cfg, t0, h, n_steps, store_path,
                                          tangents if want_jacobian else None)
    return grid, path, Z[:, :r], Z[:, r:], ok, jac, report


# The all-at-once route (_flow_whole, and constraints.integrate_constrained): Newton over
# all the midpoint equations of a window of steps at once, its linear recurrence solved by
# a prefix scan.
WHOLE_WINDOW = 256  # steps solved together
WHOLE_MAX_WIDTH = 32  # widest batch routed: there stepping a 3-d flow is as fast (CHANGES.md)
WHOLE_MAX_SWEEPS = 8  # Newton sweeps per window; a window takes 2-5
# The contraction certificate (h/2) ||A||_inf <= WHOLE_KAPPA at every converged midpoint,
# with A the field's jacobian, the fewest Newton iterations the stepped flow may be
# allowed and the tightest tolerance.  Together they show that _march's frozen Newton
# takes the same step without failing, so without halving.  Its step from z solves
# y = z + h f((z + y)/2), a map with Lipschitz constant kappa = (h/2) ||A|| <= 1/8, so the
# fixed point both solvers find is unique.  Its iteration matrix N0^-1 (h/2)(A - A0),
# N0 = I - (h/2) A0 frozen at one midpoint, has norm q <= 2 kappa / (1 - kappa) = 2/7
# wherever A0 was read, so long as the midpoint is near the path, as the predictor's
# midpoint of the step is.  Its Euler predictor misses y by at most kappa ||y - z||, and a
# residual is at most (1 + kappa) times the error, so the residual test passes once
# 2 kappa (1 + kappa) q^i <= newton_tol: after i = 27 updates for newton_tol >= 1e-15,
# and the loop makes i + 1 iterations (a tighter tolerance nears the residual's roundoff,
# about 2.2e-16 (1 + |z|)).  A is read at the converged midpoints; a predictor's midpoint
# lies within kappa/2 of a step from them, and the margin between 1/8 and the 1/3 that
# q < 1 needs absorbs how much ||A|| changes between the midpoints that A and A0 are read at.
WHOLE_KAPPA = 0.125
WHOLE_MIN_NEWTON_ITER = 28
WHOLE_MIN_NEWTON_TOL = 1e-15


def _whole_routed(sys, cfg, Z0, r):
    """The members of the states Z0 (one per row) whose implicit-midpoint flow under ``cfg``
    the all-at-once route may take: all those whose start is within a tenth of the blow-up
    threshold on max|z[:r]| + max|z[r:]| (so finite), if the system is vectorized,
    autonomous and not closed-form, ``cfg.newton_max_iter`` is at least
    WHOLE_MIN_NEWTON_ITER and ``cfg.newton_tol`` at least WHOLE_MIN_NEWTON_TOL; none
    otherwise."""
    eligible = (sys.vectorized and sys.autonomous and not sys.analytic_only
                and cfg.newton_max_iter >= WHOLE_MIN_NEWTON_ITER
                and cfg.newton_tol >= WHOLE_MIN_NEWTON_TOL)
    return eligible & (_sup_norms(Z0, r) <= cfg.blowup_threshold / 10.0)


def _prefix_scan(maps, dz):
    """Solve dz_{k+1} = maps[k] dz_k + dz[k] from dz_0 = 0 in place, for (n, batch, w)
    ``dz``, by a work-efficient scan (Blelloch, Prefix sums and their applications, 1990,
    in Brent and Kung's inclusive form) of the affine maps (maps[k], dz[k]): an up-sweep
    composes aligned blocks of 2, 4, ... steps and a down-sweep finishes each prefix, each
    in about log2 n levels and n matrix products in all; ``maps`` is overwritten."""
    n, s = len(dz), 1
    while 2 * s <= n:
        hi, lo = slice(2 * s - 1, n, 2 * s), slice(s - 1, n - s, 2 * s)
        dz[hi] += (maps[hi] @ dz[lo, ..., None])[..., 0]
        if 4 * s <= n:  # the last level's blocks are prefixes, whose maps no later level reads
            maps[hi] = maps[hi] @ maps[lo]
        s *= 2
    while s > 1:  # element 2s - 1 holds a prefix: carry it to the block that follows
        s //= 2
        hi, lo = slice(3 * s - 1, n, 2 * s), slice(2 * s - 1, n - s, 2 * s)
        dz[hi] += (maps[hi] @ dz[lo, ..., None])[..., 0]


def _whole_window(field, linearize, z0, n_steps, h, cfg, r):
    """The implicit-midpoint flow of dz/dt = field(z) from the states z0 (one per row) over
    n_steps steps of h, all steps solved at once: (nodes, ok), nodes the (n_steps + 1,
    batch, width) states and ``ok`` the members certified, whose nodes are within roundoff
    of _march's.

    ``field(t, Z)`` returns one row of the (autonomous) field per row of Z and
    ``linearize(t, Z)`` one jacobian of it per row, as for _midpoint_step_batch; each is
    called with t = 0 on all the window's midpoints at once.  ``r`` splits a state z for
    the blow-up test max|z[:r]| + max|z[r:]|.
    Newton's method for the equations g_k = z_{k+1} - z_k - h f(m_k) = 0, m_k the
    midpoints, from the guess z_k = z0: each sweep evaluates f and its jacobian A_k at
    every midpoint in one call each, inverts N_k = I - (h/2) A_k in one _batch_solve and
    solves dz_{k+1} = C_k dz_k + d_k, C_k = 2 N_k^-1 - I and d_k = -N_k^-1 g_k, from
    dz_0 = 0 by a prefix scan (_prefix_scan).
    A member converges once every step passes _midpoint_step_batch's residual test, and
    that sweep's update is still applied; it is then masked, so its bits do not depend on
    the batch.  It is certified if then every (h/2) ||A_k||_inf <= WHOLE_KAPPA.  A member
    gives up at the first sweep after the second whose residual does not fall, or whose
    nodes are not finite or cross a tenth of the blow-up threshold, and after
    WHOLE_MAX_SWEEPS sweeps.  Only the residual, the bound and the certificate are checked
    here; a caller that must check more checks the converged nodes itself, as the
    constrained flow reads its tangency verdict at their midpoints, not at Newton iterates.
    Call under ``np.errstate(all="ignore")``.
    """
    width = z0.shape[1]
    eye = np.eye(width)

    def state_max(a):  # a.max(axis=-1) over states, by _row_max
        return _row_max(a.reshape(-1, width)).reshape(a.shape[:-1])

    nodes = np.repeat(z0[None], n_steps + 1, axis=0)
    ok = np.zeros(len(z0), dtype=bool)
    active, last = np.arange(len(z0)), np.full(len(z0), np.inf)
    for sweep in range(WHOLE_MAX_SWEEPS):
        z = nodes[:, active]
        mid = 0.5 * (z[:-1] + z[1:])
        rows = mid.reshape(-1, width)
        g = z[1:] - z[:-1] - h * field(0.0, rows).reshape(mid.shape)
        a_mat = linearize(0.0, rows).reshape(mid.shape + (width,))
        size = state_max(np.abs(z))
        scale = 1.0 + np.maximum(size[:-1], size[1:])
        gn = state_max(np.abs(g))
        passed = (gn <= cfg.newton_tol * scale).all(axis=0)
        n_inv = _batch_solve((eye - 0.5 * h * _finite_or_zero(a_mat)).reshape(
            -1, width, width)).reshape(a_mat.shape)
        dz = -(n_inv @ g[..., None])[..., 0]
        _prefix_scan(2.0 * n_inv - eye, dz)
        z[1:] += dz
        nodes[:, active] = z
        bounded = (_sup_norms(z.reshape(-1, width), r).reshape(z.shape[:2])
                   <= cfg.blowup_threshold / 10.0).all(axis=0)
        done = passed & bounded
        if done.any():
            ok[active[done]] = 0.5 * h * state_max(np.abs(a_mat[:, done]).sum(axis=-1)).max(
                axis=0) <= WHOLE_KAPPA
        residual = (gn / scale).max(axis=0)
        # the first update, from the constant guess, may raise the residual
        going = ~passed & bounded & ((residual < last[active]) | (sweep == 1))
        last[active] = residual
        active = active[going]
        if not active.size:
            break
    return nodes, ok


def _windows(field, linearize, Z, routed, n_steps, h, cfg, r, path=None):
    """The window loop of the all-at-once route: solves the flow of every ``routed`` member
    of the states Z (one per row) over n_steps steps of h, window by window
    (_whole_window, whose arguments ``field``, ``linearize``, ``cfg`` and ``r`` are), and
    yields each window's (certified members, their (n + 1, members, width) nodes).

    It works in place: a member that a window does not certify leaves ``routed`` and is
    not solved further; Z holds each certified member's latest node, and the optional
    (n_steps + 1, batch, width) ``path`` its nodes.  Call under ``np.errstate(all="ignore")``.
    """
    for start in range(0, n_steps, WHOLE_WINDOW):
        live = np.flatnonzero(routed)
        if not live.size:
            return
        n = min(WHOLE_WINDOW, n_steps - start)
        nodes, ok = _whole_window(field, linearize, Z[live], n, h, cfg, r)
        routed[live[~ok]] = False
        live, nodes = live[ok], nodes[:, ok]
        Z[live] = nodes[-1]
        if path is not None:
            path[start:start + n + 1, live] = nodes
        yield live, nodes


def _flow_whole(sys, U0, P0, cfg, t0=0.0, t1=1.0, want_jacobian=False, store_path=False):
    """flow_batch's 7-tuple for a batch of initial states, with every member that can be
    solved all at once so solved, window by window (_windows), and the rest flown by
    flow_batch from t0, bit for bit as there.

    A member is solved all at once when the scheme is the implicit midpoint rule, the
    batch holds at most WHOLE_MAX_WIDTH members, _whole_routed admits it (a vectorized,
    autonomous, not closed-form system, ``cfg.newton_max_iter`` at least
    WHOLE_MIN_NEWTON_ITER and ``cfg.newton_tol`` at least WHOLE_MIN_NEWTON_TOL, a start
    within a tenth of the blow-up threshold), and each of its windows is certified; it
    then completes, and its states and jacobian are within roundoff of flow_batch's.  Its
    exact jacobian composes, in step order, the Cayley maps at the converged midpoints,
    built per window by one _midpoint_tangents call.  Callbacks see the midpoints of a
    window of WHOLE_WINDOW steps as one batch.
    """
    Z0 = np.concatenate([np.atleast_2d(np.asarray(x, dtype=float)) for x in (U0, P0)], axis=1)
    bsz, width = Z0.shape
    r = width // 2
    routed = _whole_routed(sys, cfg, Z0, r)
    if not (cfg.scheme == "implicit-midpoint" and bsz <= WHOLE_MAX_WIDTH and routed.any()):
        return flow_batch(sys, U0, P0, cfg, t0, t1, want_jacobian, store_path)
    n_steps = step_count(t1 - t0, cfg.step)
    grid, h = TimeGrid.uniform(n_steps, t0, t1), (t1 - t0) / n_steps
    Z = Z0.copy()
    path = np.empty((n_steps + 1, bsz, width)) if store_path else None
    eye = np.eye(width)
    jac = np.tile(eye, (bsz, 1, 1)) if want_jacobian else None
    field, linearize = partial(_field_batch, sys), partial(_linearized_batch, sys)
    with np.errstate(all="ignore"):
        for live, nodes in _windows(field, linearize, Z, routed, n_steps, h, cfg, r, path):
            if want_jacobian and live.size:
                n, flat = len(nodes) - 1, (1, -1, width)
                tangents = _midpoint_tangents(sys, [t0], nodes[:-1].reshape(flat),
                                              nodes[1:].reshape(flat), h,
                                              np.ones((1, n * live.size), dtype=bool), eye)
                block = jac[live]
                for tangent in tangents.reshape(n, live.size, width, width):
                    block = tangent @ block
                jac[live] = block
    if not routed.any():
        return flow_batch(sys, U0, P0, cfg, t0, t1, want_jacobian, store_path)
    ok = routed.copy()
    report = [(Completed(), n_steps, None)] * bsz
    stepped = np.flatnonzero(~routed)
    if stepped.size:
        _, s_path, U1, P1, ok[stepped], s_jac, s_report = flow_batch(
            sys, Z0[stepped, :r], Z0[stepped, r:], cfg, t0, t1, want_jacobian, store_path)
        Z[stepped] = np.concatenate([U1, P1], axis=1)
        if store_path:
            path[:, stepped] = s_path
        if want_jacobian:
            jac[stepped] = s_jac
        for b, stopped in zip(stepped, s_report):
            report[b] = stopped
    return grid, path, Z[:, :r], Z[:, r:], ok, jac, report
