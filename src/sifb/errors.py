"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A solver, schedule, or problem was wired together inconsistently.

    Raised at build time, never mid-iteration.
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
