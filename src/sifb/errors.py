"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A solver, schedule, or problem was wired together inconsistently.

    Raised when a piece is built or called with bad arguments, and by `run`
    before the first iteration. Inside the loop only a callable step size or
    relaxation, whose values are known one iteration at a time, raises it.
    """


class DimensionMismatch(ValueError):
    """Block vectors or operators with incompatible shapes were combined."""


class InfeasibleProblemError(ConfigurationError):
    """A structural feasibility condition on the problem constants fails."""


class NormEstimationError(RuntimeError):
    """A weighted operator norm could not be computed.

    Raised when the coupling's Gram matrix is not finite or its eigensolve
    fails.
    """


class OracleError(RuntimeError):
    """An independent reference solve did not reach its requested tolerance."""
