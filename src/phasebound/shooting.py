"""Two-point boundary problems by multistart Newton shooting.

Given endpoints u0, u1 in Q, the solver searches for initial momenta p0 such
that the time-1 flow from (u0, p0) lands on u1.  A multistart seed set,
damped Newton iteration on the (multiple-)shooting residual, and trajectory-distance
deduplication together give an operational meaning to "the solutions joining
u0 to u1 are isolated": distinct representatives survive when the
deduplication radius is halved.

The classification emitted by these routines (Unique / MultipleIsolated /
Continuum / NoSolution, and the derived Dirichlet / locally-Dirichlet /
neither verdicts) is a numerical heuristic over the sampled seeds and
endpoints, and is labeled as such in reports.

The action evaluated on a boundary-value solution is the principal function
of the endpoint pair; its endpoint derivatives reproduce the boundary
momenta (generating-function identities), which is checked here by
branch-tracked finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    ConfigSpace,
    HamiltonianSystem,
    TimeGrid,
    Trajectory,
    action_functional,
    as_point,
    central_difference,
    central_points,
    central_quotient,
)
from .errors import (
    BranchLostError,
    NoSuchBranchError,
)
from .integrators import (
    IntegratorConfig,
    _batch_solve,
    _check_field_kinds,
    _path_jacobian,
    flow_batch,
    step_count,
)
# flow_with_jacobian stays bound here: perfbench/tracer.py hooks it under this module
from .integrators import flow_with_jacobian  # noqa: F401

SINGULAR_COND = 1e10  # shooting-matrix condition above which a representative is singular


@dataclass(frozen=True)
class ShootingConfig:
    """Newton-shooting parameters and the multistart seed specification.

    ``seeds`` (explicit momenta) overrides the sampler given by
    ``seed_count`` seeds drawn from ``seed_box``^r (a deterministic grid in
    one dimension, a seeded uniform sample otherwise).
    """

    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    newton_tol: float = 1e-10
    max_iter: int = 80
    seeds: Optional[tuple] = None
    seed_count: int = 32
    seed_box: tuple = (-6.0, 6.0)
    distinctness_radius: float = 1e-4

    def __post_init__(self):
        _check_field_kinds(self)
        if not (np.isfinite(self.distinctness_radius) and self.distinctness_radius > 0):
            raise ValueError("distinctness radius must be positive and finite")
        if (self.seed_count if self.seeds is None else len(self.seeds)) < 1:
            raise ValueError("need at least one seed")
        if self.seeds is not None and not np.isfinite(np.asarray(self.seeds, dtype=float)).all():
            raise ValueError("explicit seeds must be finite")
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError("newton_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        box = self.seed_box
        if len(box) != 2 or bool in map(type, box) or not -np.inf < box[0] < box[1] < np.inf:
            raise ValueError("seed_box must be finite numbers (lo, hi), not booleans, lo < hi")

    def resolve_seeds(self, r):
        if self.seeds is not None:
            return np.atleast_2d(np.asarray(self.seeds, dtype=float)).reshape(-1, r)
        lo, hi = self.seed_box
        if r == 1:
            return np.linspace(lo, hi, self.seed_count)[:, None]
        rng = np.random.default_rng(0)
        return rng.uniform(lo, hi, size=(self.seed_count, r))


@dataclass(frozen=True)
class Classification:
    """Numerical verdict for a solution set; heuristic over the seed sample."""

    kind: str  # Unique | MultipleIsolated | Continuum | NoSolution
    count: int
    notes: str = ""
    heuristic: bool = True


@dataclass(frozen=True)
class BvpBranch:
    p0: np.ndarray
    trajectory: Trajectory
    residual: float
    jacobian: np.ndarray  # du(1)/dp0
    cond: float

    @property
    def p1(self):
        return self.trajectory.momenta[-1]

    @property
    def u1(self):
        return self.trajectory.positions[-1]


@dataclass(frozen=True)
class BvpSolutionSet:
    endpoints: Optional[tuple]
    solutions: tuple
    classification: Classification


# Most segments a shooting problem is split into (see _segment_count).
_MAX_SEGMENTS = 8


def _segment_count(sys, icfg):
    """Number M of multiple-shooting segments of [0, 1].

    M is the largest of 8, 4 and 2 (at most _MAX_SEGMENTS) that divides the
    step count, so that each segment, flown over [0, 1/M], steps with the
    same h as a flow over [0, 1], bit for bit.  Closed-form systems and
    systems not declared autonomous (whose segments could not all be flown
    from t = 0) use M = 1, single shooting.
    """
    if sys.analytic_only or not sys.autonomous:
        return 1
    n = step_count(1.0, icfg.step)
    for m in (8, 4, 2):
        if m <= _MAX_SEGMENTS and n % m == 0 and step_count(1.0 / m, icfg.step) == n // m:
            return m
    return 1


def _segment_states(u0, P, r):
    """Segment start states z_0 ... z_{M-1} of rows ``P`` as (B M, 2r), M and k (_batch_eval);
    rows of leading unknowns alone give their z_0 and M = 1."""
    k = 2 * r if u0 is None else r
    m = 1 + (P.shape[1] - k) // (2 * r)
    Z = P if u0 is None else np.concatenate([np.broadcast_to(u0, (len(P), r)), P], axis=1)
    return Z.reshape(len(P) * m, 2 * r), m, k


def _shooting_unknowns(sys, u0, lead, icfg):
    """Multiple-shooting unknowns (lead, z_1 ... z_{M-1}) for rows of leading
    unknowns ``lead``: seed momenta after ``u0``, or (u0, p0) for ``u0`` None.

    The interior states z_k are the ends of M - 1 chained flights over
    [0, 1/M] from each seed (no path, no tangent), each from the previous
    end, so the first evaluation's continuity defects vanish and its
    residual is single shooting's.
    """
    m, r = _segment_count(sys, icfg), sys.dim
    z, unknowns = _segment_states(u0, lead, r)[0], [lead]
    for _ in range(m - 1):
        _, _, U1, P1, *_ = flow_batch(sys, z[:, :r], z[:, r:], icfg, t1=1.0 / m)
        z = np.concatenate([U1, P1], axis=1)
        unknowns.append(z)
    return np.concatenate(unknowns, axis=1)


def _fixed_end(config, u1):
    """The Dirichlet boundary condition u(1) = u1 for _batch_eval: b is the
    wrapped u(1) - u1, and its rows (B0, B1) = (0, [I 0]), each (B, r, 2r),
    select u(1), as _graph_boundary's rows are the derivatives of its b."""
    def boundary(z0, z1, ok):
        rows = np.zeros((2, len(z1), config.dim, 2 * config.dim))
        rows[1, :, :, :config.dim] = np.eye(config.dim)
        return config.wrap_diff(z1[:, :config.dim], u1), rows

    return boundary


def _graph_boundary(grad_F, fd_step):
    """The graph-type condition for _batch_eval: b = (p0 + dF/du0, p1 - dF/du1)
    and its rows (B0, B1), its derivatives in z0 = (u0, p0) and z1 = z(1) by
    central differences of grad_F; grad_F is called only on completed flows."""
    def grad(u):
        return np.hstack(grad_F(u[:len(u) // 2], u[len(u) // 2:]))

    def boundary(z0, z1, ok):
        r = z0.shape[1] // 2
        sign = np.repeat([1.0, -1.0], r)
        b = np.full(z0.shape, np.nan)
        B0, B1 = rows = np.zeros((2, len(z0), 2 * r, 2 * r))
        B0[:, :r, r:] = B1[:, r:, r:] = np.eye(r)
        for i in np.flatnonzero(ok):
            u = np.concatenate([z0[i, :r], z1[i, :r]])
            b[i] = np.concatenate([z0[i, r:], z1[i, r:]]) + sign * grad(u)
            B0[i, :, :r], B1[i, :, :r] = np.hsplit(
                sign[:, None] * central_difference(grad, u, fd_step), 2)
        return b, rows

    return boundary


def _batch_eval(sys, u0, P, boundary, icfg, want_jacobian, keep=None):
    """Multiple-shooting residuals (and Newton directions) for a batch of unknowns.

    A row of ``P`` holds the k leading unknowns, p0 after ``u0`` (one point,
    or one row per member) or (u0, p0) for ``u0`` None, then the states
    z_1 ... z_{M-1} at the interior segment nodes.  All M segments of all
    rows are flown over [0, 1/M] in one flow_batch; the residual is the
    defects z_k - phi(z_{k-1}), then b of ``boundary(z0, z1, ok) -> (b,
    rows)`` (_fixed_end, _graph_boundary), whose rows, one (2, B, k, 2r)
    array (B0, B1), linearize b as B0 dz(0) + B1 dz(1).  With
    ``want_jacobian`` each completed member's Newton direction follows.
    With ``keep`` the flow stores its path, and ``keep(path, rnorm)`` is
    given it as (n + 1, B, M, 2r) segment paths with the residual norms.
    """
    bsz, r = P.shape[0], sys.dim
    Z, m, k = _segment_states(u0, P, r)
    _, path, U1, P1, ok, jac, _ = flow_batch(sys, Z[:, :r], Z[:, r:], icfg, t1=1.0 / m,
                                             want_jacobian=want_jacobian,
                                             store_path=keep is not None, tangent_exact=False)
    ends = np.concatenate([U1, P1], axis=1).reshape(bsz, m, 2 * r)
    ok = ok.reshape(bsz, m).all(axis=1)
    b, rows = boundary(Z[::m], ends[:, -1], ok)
    res = np.concatenate([P[:, k:] - ends[:, :-1].reshape(bsz, P.shape[1] - k), b], axis=1)
    with np.errstate(all="ignore"):
        rnorm = np.max(np.abs(res), axis=1)
    rnorm = np.where(ok & np.isfinite(rnorm), rnorm, np.inf)
    if keep is not None:
        keep(path.reshape(len(path), bsz, m, 2 * r), rnorm)
    step = None
    if want_jacobian:
        step = np.full(res.shape, np.nan)
        step[ok] = _condensed_solve(jac.reshape(bsz, m, 2 * r, 2 * r)[ok], res[ok], rows[:, ok])
    return res, rnorm, step, ok


def _condensed_matrix(tangents, rows):
    """The k x k condensed shooting matrix B0 E + B1 (Phi_M ... Phi_1) E from
    segment tangents ``tangents`` (B, M, 2r, 2r) and the k boundary ``rows``
    (B0, B1), each (B, k, 2r), where z_0 varies in its last k entries (E);
    _fixed_end's rows give du1/dp0."""
    k = rows[0].shape[1]
    chain = tangents[:, 0, :, -k:]
    for j in range(1, tangents.shape[1]):
        chain = tangents[:, j] @ chain
    return rows[0][:, :, -k:] + rows[1] @ chain


def _condensed_solve(tangents, res, rows):
    """Solve the multiple-shooting Newton systems J x = res by condensing.

    ``tangents`` (B, M, 2r, 2r) are the segment tangents Phi_k, and ``res``
    and ``rows`` as in _batch_eval.  J is block bidiagonal: identity blocks
    against -Phi_k for the defects, then B0 E and B1 Phi_M for b.  Eliminating
    the interior states leaves the matrix of _condensed_matrix, solved by
    _batch_solve (a singular member alone gets its pinv solution); the
    states' parts follow by forward recursion (Deuflhard, Newton Methods for
    Nonlinear Problems, 8.1; Ascher, Mattheij & Russell, 4.3).
    """
    bsz, m, two_r, _ = tangents.shape
    k = rows[0].shape[1]
    defects = res[:, :-k].reshape(bsz, m - 1, two_r)
    carried = np.zeros((bsz, two_r))
    for j in range(1, m):
        carried = np.einsum("bij,bj->bi", tangents[:, j], carried + defects[:, j - 1])
    end = np.einsum("bij,bj->bi", rows[1], carried)
    x = _batch_solve(_condensed_matrix(tangents, rows), res[:, -k:] - end)
    parts = [x]
    for j in range(m - 1):
        phi = tangents[:, j] if j else tangents[:, 0, :, -k:]  # as in _condensed_matrix
        x = np.einsum("bij,bj->bi", phi, x) + defects[:, j]
        parts.append(x)
    return np.concatenate(parts, axis=1)


def _multistart_newton(evaluate, seeds, cfg):
    """Run damped Newton from every seed row; return the converged rows.

    ``evaluate(rows, P)`` gives, for the unknowns ``P`` of seed rows
    ``rows``, (res, rnorm, step, ok): the residual vectors, their sup norms
    (inf where not ok), the Newton directions J^-1 res (pinv where J is
    singular) and which members' flows completed; an accepted line-search
    trial is thus the next iterate.  Members do not interact, so independent
    boundary problems share the batch.  Returns the converged unknowns,
    their norms and seed-row indices.
    """
    P = seeds.copy()
    _, rnorm, step, ok = evaluate(np.arange(len(P)), P)
    alive = ok.copy()
    for _ in range(cfg.max_iter):
        work = alive & (rnorm > cfg.newton_tol)
        if not work.any():
            break
        idx = np.flatnonzero(work)
        delta = -step[idx]
        delta = np.where(np.isfinite(delta), delta, 0.0)
        # a vanishing direction (e.g. singular shooting matrix at an
        # unreachable target) cannot be line-searched; retire those seeds
        dead = np.max(np.abs(delta), axis=1) <= 1e-14 * (1.0 + np.max(np.abs(P[idx]), axis=1))
        alive[idx[dead]] = False
        damp = np.ones(idx.size)
        trying = ~dead
        for _bt in range(14):
            if not trying.any():
                break
            sub = np.flatnonzero(trying)
            rows = idx[sub]
            trial = P[rows] + damp[sub, None] * delta[sub]
            _, tnorm, tstep, tok = evaluate(rows, trial)
            better = tok & (tnorm < (1.0 - 1e-4) * rnorm[rows])
            won = rows[better]
            P[won], rnorm[won], step[won] = trial[better], tnorm[better], tstep[better]
            trying[sub[better]] = False
            damp[sub[~better]] *= 0.5
        alive[idx[trying]] = False
    conv = np.flatnonzero(alive & (rnorm <= cfg.newton_tol))
    return P[conv], rnorm[conv], conv


def _branches(sys, u0, P, boundary, icfg, path=None):
    """Branches of converged unknowns ``P`` (rows as in _batch_eval) from the
    stored paths of their M segments over [0, 1/M] and the exact tangents
    along them; a branch per member, or None where a segment flow fails.

    ``path`` is the members' (n + 1, B M, 2r) segment paths as their
    accepted evaluation flew them (kept by _solve), every member's
    complete, and their exact tangents are built from it (_path_jacobian);
    without it the segments are flown once, with their path and exact
    tangent, which gives the same bits.  A branch's path is nodes 0 .. n-1
    of each segment in turn, then the last end, on the grid of a flow over
    [0, 1]: the batch's path at M = 1, else the member's own copy, so the
    segment paths (and those of the branches that deduplication drops) are
    freed.  The jacobian is the condensed matrix (du1/dp0 for _fixed_end),
    and the residual max|b| at the end.
    """
    if P.shape[0] == 0:
        return []
    bsz, r = P.shape[0], sys.dim
    Z, m, _ = _segment_states(u0, P, r)
    if path is None:
        _, path, _, _, ok, jac, _ = flow_batch(sys, Z[:, :r], Z[:, r:], icfg, t1=1.0 / m,
                                               want_jacobian=True, store_path=True)
    else:
        ok, jac = np.ones(len(Z), dtype=bool), _path_jacobian(sys, path, icfg, t1=1.0 / m)
    n = path.shape[0] - 1
    grid = TimeGrid.uniform(n * m)  # a flow's over [0, 1]

    def trajectory(i):  # member i's, stitched from the (n + 1, bsz m, 2r) segment paths
        states = path[:, i]
        if m > 1:
            states = np.empty((n * m + 1, 2 * r))
            states[:-1].reshape(m, n, 2 * r)[...] = path[:-1, i * m:(i + 1) * m].swapaxes(0, 1)
            states[-1] = path[-1, (i + 1) * m - 1]
        return Trajectory(grid, states[:, :r], states[:, r:])

    ok = ok.reshape(bsz, m).all(axis=1)
    b, rows = boundary(Z[::m], path[-1, m - 1::m], ok)
    with np.errstate(all="ignore"):
        residuals = np.max(np.abs(b), axis=1)
    mats = _condensed_matrix(jac.reshape(bsz, m, 2 * r, 2 * r), rows)
    sv = np.linalg.svd(np.where(ok[:, None, None], mats, 0.0), compute_uv=False)
    with np.errstate(all="ignore"):  # rows not ok are zeros: 0 / 0
        cond = np.where((sv[:, -1] > 0) & np.isfinite(sv[:, -1]), sv[:, 0] / sv[:, -1], np.inf)
    return [BvpBranch(Z[i * m, r:].copy(), trajectory(i), float(residuals[i]), mats[i],
                      float(cond[i])) if ok[i] else None
            for i in range(bsz)]


def _dedupe(config: ConfigSpace, entries, radius):
    """Representatives of ``entries``, which share one grid (one _branches call builds it):
    each joins the first within sup-distance ``radius``, replacing it if its residual is lower."""
    reps = []
    for e in entries:
        u, p = e.trajectory.positions, e.trajectory.momenta
        for i, rep in enumerate(reps):
            if max(np.abs(config.wrap_diff(u, rep.trajectory.positions)).max(),
                   np.abs(p - rep.trajectory.momenta).max()) < radius:
                if e.residual < rep.residual:
                    reps[i] = e
                break
        else:
            reps.append(e)
    return reps


def _solution_set(config, branches, cfg, endpoints=None):
    """The BvpSolutionSet of ``branches`` (None where a flow failed): the others
    sorted by p0, lexicographically, for a deterministic merge order, then
    deduplicated and classified."""
    entries = sorted((b for b in branches if b is not None), key=lambda e: tuple(e.p0))
    if not entries:
        return BvpSolutionSet(endpoints, (), Classification("NoSolution", 0, "no seed converged"))
    reps = _dedupe(config, entries, cfg.distinctness_radius)
    stable = len(_dedupe(config, entries, 0.5 * cfg.distinctness_radius)) == len(reps)
    n_singular = sum(1 for e in reps if e.cond > SINGULAR_COND)
    if len(reps) >= 2 and (n_singular >= 2 or not stable):
        kind, note = "Continuum", (
            f"{len(reps)} representatives, {n_singular} with shooting matrix "
            f"condition > {SINGULAR_COND:.0e}; dedup "
            + ("stable" if stable else "unstable") + " under radius halving")
    elif len(reps) == 1:
        kind, note = "Unique", f"condition {reps[0].cond:.3e}"
    else:
        kind, note = "MultipleIsolated", f"{len(reps)} isolated representatives, dedup stable"
    return BvpSolutionSet(endpoints, tuple(reps), Classification(kind, len(reps), note))


def _system_of(sys, pair_of_row):
    """The system that flows batch rows belonging to pairs ``pair_of_row``: ``sys``
    itself, or for a family of one system per pair, ``sys(pair_of_row)``."""
    return sys if isinstance(sys, HamiltonianSystem) else sys(pair_of_row)


def _solve(system_of, U0, lead, boundary_of, cfg, full_interval=False):
    """(branches, seed rows) of multistart multiple shooting from the seed rows
    ``lead`` of leading unknowns (_batch_eval): p0 after the fixed ``U0`` row,
    or (u0, p0) for ``U0`` None.  ``system_of(rows)`` flows the batch rows of
    seed rows ``rows``, and ``boundary_of(rows)`` is their condition.

    A copy of each evaluation's segment path is kept per row whose residual
    reached the Newton tolerance, replacing the row's earlier one: a converged
    row is never evaluated again, so its kept path is the one its accepted
    unknowns flew, bit for bit, and _branches builds its branch from it.
    Nothing is kept for a closed-form system, whose evaluations sample only
    the end, nor with ``full_interval``, which flies the converged leading
    unknowns over [0, 1].
    """
    icfg = replace(cfg.integrator, max_step_halvings=0)  # a failed member leaves the batch
    sys = system_of(np.arange(len(lead)))
    m, keep, kept = _segment_count(sys, icfg), not (full_interval or sys.analytic_only), {}

    def evaluate(rows, P):
        def keep_converged(path, rnorm):
            for i in np.flatnonzero(rnorm <= cfg.newton_tol):
                kept[rows[i]] = path[:, i].copy()

        return _batch_eval(system_of(np.repeat(rows, m)), None if U0 is None else U0[rows], P,
                           boundary_of(rows), icfg, want_jacobian=True,
                           keep=keep_converged if keep else None)

    found, _, rows = _multistart_newton(evaluate, _shooting_unknowns(sys, U0, lead, icfg), cfg)
    if full_interval:
        found, m = found[:, :lead.shape[1]], 1
    path = None
    if keep and len(rows):  # the kept paths in _branches' layout, their copies dropped
        path = np.stack([kept.pop(i) for i in rows], axis=1)
        path = path.reshape(len(path), -1, path.shape[-1])
    return _branches(system_of(np.repeat(rows, m)), None if U0 is None else U0[rows], found,
                     boundary_of(rows), icfg, path), rows


def solve_dirichlet_many(sys: HamiltonianSystem | Callable, pairs, cfg: ShootingConfig,
                         seeds=None, *, full_interval=False):
    """All boundary-value solutions for each of several endpoint pairs.

    Every pair's seeds (``cfg``'s seed set, or ``seeds[k]`` for pair k) go
    through one multistart Newton batch of _solve, which builds the
    branches from the paths of the converged segments' accepted evaluations
    with no further flight; a closed-form system flies its converged
    segments once with their paths, and ``full_interval`` flies the
    converged p0 over [0, 1], free of the segments' junction jumps at the
    Newton tolerance.  Branches are then sorted, deduplicated and
    classified pair by pair.
    Members of the batch do not interact, so a pair's result does not
    depend on which other pairs share the batch.
    ``sys`` is one system for every pair, or a family of one system per pair
    on one configuration space: a function that maps the pair index of each
    batch row to one system, whose row i is pair index[i]'s system.  Returns
    one BvpSolutionSet per pair.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    base = _system_of(sys, np.arange(len(pairs)))
    r = base.dim
    pairs = [(as_point(u0, r), as_point(u1, r)) for u0, u1 in pairs]
    if seeds is None:
        seeds = [cfg.resolve_seeds(r)] * len(pairs)
    seeds = [np.asarray(s, dtype=float).reshape(-1, r) for s in seeds]
    owner = np.repeat(np.arange(len(pairs)), [len(s) for s in seeds])
    U0, U1 = np.array(pairs)[owner].transpose(1, 0, 2)
    # multistart multiple shooting of u(1; U0[i], p) = U1[i] from seed row i
    branches, rows = _solve(lambda rows: _system_of(sys, owner[rows]), U0, np.concatenate(seeds),
                            lambda rows: _fixed_end(base.config, U1[rows]), cfg, full_interval)
    return [_solution_set(base.config, [b for b, i in zip(branches, rows) if owner[i] == k],
                          cfg, pair) for k, pair in enumerate(pairs)]


def solve_dirichlet(sys: HamiltonianSystem, u0, u1, cfg: ShootingConfig):
    """All boundary-value solutions found from the multistart seed set."""
    return solve_dirichlet_many(sys, [(u0, u1)], cfg)[0]


def hamilton_principal_function(sys: HamiltonianSystem, u0, u1, cfg: ShootingConfig, branch=0):
    """Action evaluated on the selected boundary-value solution.

    For theories with several isolated branches this is the per-branch value
    of the (locally defined, multivalued) principal function.
    """
    return action_functional(sys, _branch(solve_dirichlet(sys, u0, u1, cfg), branch).trajectory)


def _branch(sols, branch):
    """Solution ``branch`` of the set ``sols``; NoSuchBranchError unless 0 <= branch < count."""
    if not 0 <= branch < len(sols.solutions):
        raise NoSuchBranchError(f"requested branch {branch} of {len(sols.solutions)} solutions")
    return sols.solutions[branch]


def _continue_branch(sys, branches, cfg, fd_step):
    """Continue branches to their displaced endpoints, all in one batch.

    ``branches`` lists (u0, u1, p0).  For each, returns its 4r
    continuations, u0 +- fd_step e_a and then u1 +- fd_step e_a (a = 0..r-1,
    + before -): the displaced pair's solution by solve_dirichlet_many
    warm-started at p0 alone, or the BranchLostError saying how the branch
    was lost (no solution, or the momentum jumped farther than 1e3 fd_step,
    i.e. onto another branch).
    """
    r = sys.dim
    max_jump = 1e3 * fd_step
    pairs, seeds = [], []
    for u0, u1, p0 in branches:
        pairs += [(v, u1) for v in central_points(u0, fd_step).reshape(2 * r, r)]
        pairs += [(u0, v) for v in central_points(u1, fd_step).reshape(2 * r, r)]
        seeds += [as_point(p0, r)] * (4 * r)
    out = []
    # finite differences of these rows' actions and momenta at fd_step would
    # magnify segment junction jumps, so their branches are flown whole
    for p0, sols in zip(seeds, solve_dirichlet_many(sys, pairs, cfg, seeds=seeds,
                                                    full_interval=True)):
        if not sols.solutions:
            out.append(BranchLostError(f"continuation from p0={p0} did not converge"))
            continue
        jump = np.max(np.abs(sols.solutions[0].p0 - p0))
        out.append(sols.solutions[0] if jump <= max_jump else BranchLostError(
            f"continuation jumped {jump:.3e} > {max_jump:.3e} in p0"))
    return [out[k:k + 4 * r] for k in range(0, len(out), 4 * r)]


def _frame_from_branches(cont, r, fd_step):
    """The (4r, 2r) tangent frame, rows (du0, dp0, du1, dp1), by central differences
    of a branch's 4r continuations in _continue_branch's order [end, a, sign]."""
    dp0, dp1 = (central_quotient(np.array(p).reshape(2 * r, 2, r), fd_step)
                for p in ([b.p0 for b in cont], [b.p1 for b in cont]))
    shift = np.eye(2 * r)
    return np.concatenate([shift[:, :r], dp0, shift[:, r:], dp1], axis=1).T


def _continued(outcomes):
    """The continued branches, or the first loss among them raised."""
    for o in outcomes:
        if isinstance(o, BranchLostError):
            raise o
    return outcomes


@dataclass(frozen=True)
class GeneratingFunctionReport:
    """Finite-difference check that the principal function generates the branch.

    defect_u1 = |dW/du1 - p1|, defect_u0 = |dW/du0 + p0|, and the symmetry
    defect compares the two finite-difference routes to the mixed second
    derivatives of W (closedness of the boundary one-form on the projected
    solution set).
    """

    defect_u1: float
    defect_u0: float
    symmetry_defect: float
    p0: np.ndarray
    p1: np.ndarray
    action: float


def generating_function_check(sys: HamiltonianSystem, u0, u1, cfg: ShootingConfig,
                              branch=0, fd_step=1e-5):
    r = sys.dim
    u0 = as_point(u0, r)
    u1 = as_point(u1, r)
    center = _branch(solve_dirichlet(sys, u0, u1, cfg), branch)
    p0c = center.p0
    p1c = center.p1
    cont = _continued(_continue_branch(sys, [(u0, u1, p0c)], cfg, fd_step)[0])  # [end, a, sign]
    w = np.array([action_functional(sys, b.trajectory) for b in cont]).reshape(2, r, 2)
    grad_w_u0, grad_w_u1 = (central_quotient(w_end, fd_step) for w_end in w)
    defect_u0 = float(np.max(np.abs(grad_w_u0 + p0c)))
    defect_u1 = float(np.max(np.abs(grad_w_u1 - p1c)))

    # d2W/du0^a du1^b as dp1_b/du0^a, and as -dp0_a/du1^b
    frame = _frame_from_branches(cont, r, fd_step)
    symmetry_defect = float(np.max(np.abs(frame[3 * r:, :r].T + frame[r:2 * r, r:])))
    return GeneratingFunctionReport(
        defect_u1=defect_u1,
        defect_u0=defect_u0,
        symmetry_defect=symmetry_defect,
        p0=p0c,
        p1=p1c,
        action=action_functional(sys, center.trajectory),
    )


@dataclass(frozen=True)
class TheoryClassification:
    """Sampled verdict on endpoint solvability; a heuristic, with evidence."""

    kind: str  # Dirichlet | LocallyDirichlet | Neither
    evidence: tuple
    witness: Optional[str] = None
    heuristic: bool = True


def classify_theory(sys: HamiltonianSystem, sample_endpoints, cfg: ShootingConfig,
                    probe_radius=1e-2):
    """Classify endpoint solvability over a sample of (u0, u1) pairs.

    Dirichlet: every sampled pair has exactly one solution.  Locally
    Dirichlet: every pair has solutions, only isolated ones.  Both also need
    the solutions to persist when u1 moves by probe_radius along each axis
    (openness probe).  Anything else is Neither; its witness is the first
    Continuum pair, else the first lost probe, else a summary.
    """
    if not sample_endpoints:
        raise ValueError("need at least one endpoint pair")
    r = sys.dim
    sets = solve_dirichlet_many(sys, sample_endpoints, cfg)
    evidence = tuple((s.endpoints[0].tolist(), s.endpoints[1].tolist(),
                      s.classification.kind, s.classification.count) for s in sets)
    solvable = [s for s in sets if s.classification.kind not in ("NoSolution", "Continuum")]
    # every openness probe in one batch; the first failure in probe order
    # (pair, coordinate, sign) is the witness
    probes = [(s.endpoints[0], moved) for s in solvable
              for moved in central_points(s.endpoints[1], probe_radius).reshape(2 * r, r)]
    warm = [[b.p0 for b in s.solutions] for s in solvable for _ in range(2 * r)]
    lost = next((p.endpoints for p in solve_dirichlet_many(sys, probes, cfg, seeds=warm)
                 if p.classification.kind == "NoSolution"), None)
    if lost is None and len(solvable) == len(sets):
        unique = all(s.classification.kind == "Unique" for s in sets)
        return TheoryClassification("Dirichlet" if unique else "LocallyDirichlet", evidence)
    continuum = next((s.endpoints for s in sets if s.classification.kind == "Continuum"), None)
    if continuum is not None:
        witness = (f"Continuum at endpoints ({continuum[0].tolist()}, "
                   f"{continuum[1].tolist()})")
    elif lost is not None:
        witness = (f"no solution after perturbing u1 to {lost[1].tolist()} "
                   f"(from u0={lost[0].tolist()})")
    elif solvable:
        witness = "mixed solvability over the sample"
    else:
        witness = "no sampled endpoint pair is joined by a solution"
    return TheoryClassification("Neither", evidence, witness)


def solve_with_lagrangian_boundary(sys: HamiltonianSystem, grad_F: Callable,
                                   cfg: ShootingConfig, state_seeds=None, fd_step=1e-6):
    """Critical curves whose boundary data lies on the graph of dF.

    The implemented boundary submanifolds are graphs {p0 = -dF/du0,
    p1 = dF/du1} over Q x Q, given by grad_F(u0, u1) = (dF/du0, dF/du1);
    the fixed-endpoint problem is not of graph type and is solve_dirichlet's.
    Both share one multiple-shooting evaluation and Newton driver, here on
    the unknowns (u0, p0), one row per state seed; a singular
    boundary-condition jacobian gets the minimum-norm (pinv) step, so
    families of solutions (rank-deficient boundary conditions) converge to
    the member nearest the seed.  A branch's jacobian is the 2r x 2r
    boundary-condition jacobian in (u0, p0).  The solve is _solve's, as
    solve_dirichlet_many's is, so branches are built from the converged
    segments' evaluation paths.
    """
    r = sys.dim
    if state_seeds is None:
        state_seeds = [(np.zeros(r), p) for p in cfg.resolve_seeds(r)]
    X = np.array([np.concatenate([as_point(u0, r), as_point(p0, r)])
                  for u0, p0 in state_seeds]).reshape(-1, 2 * r)
    boundary = _graph_boundary(grad_F, fd_step)
    branches, _ = _solve(lambda rows: sys, None, X, lambda rows: boundary, cfg)
    return _solution_set(sys.config, branches, cfg)
