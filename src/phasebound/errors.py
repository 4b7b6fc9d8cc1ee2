"""Exception types shared across the package."""


class PhaseboundError(Exception):
    """Base class for all package errors."""


class NonFiniteError(PhaseboundError):
    """A derivative or state evaluated to NaN or infinity."""


class GridTooCoarseError(PhaseboundError):
    """A time grid has too few nodes for the requested operation."""


class GridMismatchError(PhaseboundError):
    """Arrays defined on different time grids were combined."""


class DimensionMismatchError(PhaseboundError):
    """Array dimensions are inconsistent with the configuration space."""


class NotSeparableError(PhaseboundError):
    """A scheme requiring H = T(p) + V(u) was applied to a non-separable system."""


class FlowIncompleteError(PhaseboundError):
    """Integration did not reach the requested final time.

    Carries the flow status (blow-up or Newton failure) in ``status``.
    """

    def __init__(self, status, message=None):
        self.status = status
        super().__init__(message or f"flow did not complete: {status}")


class NoSuchBranchError(PhaseboundError):
    """A boundary-value branch index beyond the number of solutions found."""


class BranchLostError(PhaseboundError):
    """Continuation jumped to a different solution branch."""


class NonPositiveMassError(PhaseboundError):
    """A mass (or stiffness) parameter must be strictly positive."""


class NegativeLambdaError(PhaseboundError):
    """The kinetic-term weight must be nonnegative."""


class OffConstraintError(PhaseboundError):
    """A probe state does not satisfy p = sigma(e) to the required accuracy."""


class UnstableConstraintError(PhaseboundError):
    """Constrained integration hit a state where the tangency solve fails.

    Carries the time of failure in ``t``.
    """

    def __init__(self, t, residual):
        self.t = t
        self.residual = residual
        super().__init__(f"constraint tangency solve failed at t={t} (residual {residual:.3e})")
