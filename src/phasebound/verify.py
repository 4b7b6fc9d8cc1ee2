"""Numerical certification that projected solution sets are Lagrangian.

The boundary data of all solutions of the equations of motion sweeps out a
subset of T*Q x T*Q.  On tangent frames of that set the boundary two-form
must vanish (isotropy), and a frame rank of 2r certifies maximal dimension,
i.e. a Lagrangian submanifold.  Two independent tangent constructions are
provided: columns (I; DPhi_1) of the time-1 tangent flow, and finite
difference continuation of boundary-value branches in the endpoints.

These checks certify consequences at sample points; the smoothness of the
solution set itself is an hypothesis that numerics cannot confirm, which is
recorded as a caveat in every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    HamiltonianSystem,
    as_point,
    boundary_omega_matrix,
)
from .errors import BranchLostError, NoSuchBranchError
from .integrators import Completed, IntegratorConfig, _flow_whole
from .shooting import (ShootingConfig, _continue_branch, _continued, _frame_from_branches,
                       solve_dirichlet_many)
# flow_with_jacobian and solve_dirichlet stay bound here: perfbench/tracer.py hooks them
from .integrators import flow_with_jacobian  # noqa: F401
from .shooting import solve_dirichlet  # noqa: F401

HYPOTHESIS_CAVEAT = (
    "certifies the vanishing of the boundary two-form on sampled tangent frames; "
    "the smooth-submanifold hypothesis itself is not numerically verifiable"
)

RANK_CUTOFF = 1e-8  # relative singular-value cutoff for frame rank


@dataclass(frozen=True)
class IsotropyReport:
    samples: int
    inapplicable: tuple
    max_defect: float
    tangent_source: str  # "flow-jacobian" | "bvp-continuation"
    rank_estimate: int
    seed: Optional[int] = None
    caveat: str = HYPOTHESIS_CAVEAT


def frame_defect_and_rank(frame):
    """Max |omega(v_i, v_j)| over frame columns, and the numerical frame rank."""
    frame = np.asarray(frame, dtype=float)
    r = frame.shape[0] // 4
    omega = boundary_omega_matrix(r)
    gram = frame.T @ omega @ frame
    defect = float(np.max(np.abs(gram)))
    sv = np.linalg.svd(frame, compute_uv=False)
    rank = int(np.sum(sv > RANK_CUTOFF * sv[0]))
    return defect, rank


def isotropy_defect_flow(sys: HamiltonianSystem, initial_points, cfg: IntegratorConfig,
                         seed=None):
    """Isotropy and rank of flow-graph tangent frames at sampled initial states.

    All points are flown as one batch of ``_flow_whole``: each is solved all
    at once when the route certifies it, and otherwise stepped by
    ``flow_batch`` bit for bit.  Points at which the flow does not
    complete are reported as inapplicable (the global-flow hypothesis fails
    there) rather than as failures.
    """
    r = sys.dim
    points = list(initial_points)
    U0 = np.array([as_point(u0, r) for u0, _ in points]).reshape(-1, r)
    P0 = np.array([as_point(p0, r) for _, p0 in points]).reshape(-1, r)
    *_, jacs, statuses = _flow_whole(sys, U0, P0, cfg, want_jacobian=True)
    frames, inapplicable = [], []
    for (u0, p0), jac, (status, _, _) in zip(points, jacs, statuses):
        if isinstance(status, Completed):
            frames.append(np.vstack([np.eye(2 * r), jac]))
        else:
            inapplicable.append((np.asarray(u0).tolist(), np.asarray(p0).tolist(),
                                 repr(status)))
    return _isotropy_report(frames, inapplicable, "flow-jacobian", seed)


def _isotropy_report(frames, inapplicable, tangent_source, seed):
    """The worst defect and the lowest rank over the frames of the applicable samples."""
    measured = [frame_defect_and_rank(frame) for frame in frames]
    return IsotropyReport(
        samples=len(measured),
        inapplicable=tuple(inapplicable),
        max_defect=max([0.0] + [d for d, _ in measured]),
        tangent_source=tangent_source,
        rank_estimate=min((rk for _, rk in measured), default=0),
        seed=seed,
    )


def tangent_frame_bvp(sys: HamiltonianSystem, u0, u1, p0_branch, cfg: ShootingConfig,
                      fd_step=1e-5):
    """Tangent frame to the projected solution set by endpoint continuation.

    One column per endpoint coordinate displacement, each obtained by
    re-solving the boundary problem warm-started on the given branch; all
    4r displaced problems are solved in one batch.  Raises BranchLostError
    for the first displacement, in column order, whose branch is lost.
    """
    r = sys.dim
    branch = (as_point(u0, r), as_point(u1, r), p0_branch)
    return _frame_from_branches(_continued(_continue_branch(sys, [branch], cfg, fd_step)[0]),
                                r, fd_step)


def isotropy_defect_bvp(sys: HamiltonianSystem, endpoint_samples, cfg: ShootingConfig,
                        fd_step=1e-5, branch=0, seed=None):
    """Isotropy report from boundary-value continuation tangent frames.

    Works branch by branch, so it applies even when no global flow graph is
    available, as long as local solutions exist near the sampled endpoints.
    All pairs are solved in one batch, and all their continuations in one
    more; a pair without the branch, or whose branch is lost, is reported
    as inapplicable with its own reason; a negative branch is no pair's and
    raises NoSuchBranchError before any solve.
    """
    if branch < 0:
        raise NoSuchBranchError(f"requested branch {branch}; branches are numbered from 0")
    sets = solve_dirichlet_many(sys, endpoint_samples, cfg)
    conts = iter(_continue_branch(sys, [(*s.endpoints, s.solutions[branch].p0) for s in sets
                                        if branch < len(s.solutions)], cfg, fd_step))
    frames, inapplicable = [], []
    for sols in sets:
        u0, u1 = sols.endpoints
        if branch >= len(sols.solutions):
            inapplicable.append((u0.tolist(), u1.tolist(),
                                 f"only {len(sols.solutions)} branches"))
            continue
        try:
            frames.append(_frame_from_branches(_continued(next(conts)), sys.dim, fd_step))
        except BranchLostError as exc:
            inapplicable.append((u0.tolist(), u1.tolist(), f"branch lost: {exc}"))
    return _isotropy_report(frames, inapplicable, "bvp-continuation", seed)


def frame_subspace_angles(frame_a, frame_b):
    """Principal angles between the column spans of two tangent frames, largest first.

    With orthonormal bases Q_a (the wider) and Q_b, the cosines are the
    singular values of Q_a^T Q_b and the sines those of Q_b - Q_a Q_a^T Q_b;
    an angle with cosine^2 >= 1/2 comes from its sine, which keeps the small
    angles that arccos loses (Knyazev & Argentati, SIAM J. Sci. Comput. 2002).
    """
    def orth(frame):  # left singular vectors above eps * max(shape) * the largest
        u, s, _ = np.linalg.svd(frame, full_matrices=False)
        return u[:, :np.count_nonzero(s > np.finfo(float).eps * max(frame.shape) * s[0])]

    qb, qa = sorted((orth(np.asarray(f, dtype=float)) for f in (frame_a, frame_b)),
                    key=lambda q: q.shape[1])
    cross = qa.T @ qb
    cos = np.linalg.svd(cross, compute_uv=False)[::-1]  # ascending: the largest angle first
    sin = np.linalg.svd(qb - qa @ cross, compute_uv=False)
    return np.where(cos ** 2 >= 0.5, np.arcsin(np.minimum(sin, 1.0)),
                    np.arccos(np.minimum(cos, 1.0)))


def sample_phase_points(dim, count, box=(-1.5, 1.5), seed=0):
    """Reproducible random (u0, p0) samples; the seed belongs in the report."""
    rng = np.random.default_rng(seed)
    lo, hi = box
    return [(rng.uniform(lo, hi, dim), rng.uniform(lo, hi, dim)) for _ in range(count)]
