"""Exception types shared across the package, and the two checks that turn
malformed config values into `ConfigurationError`."""

import inspect
import json
import numbers


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


def config_number(spec, key, where):
    """spec[key], refused unless it is a number (a bool, null or string is not)."""
    if key not in spec:
        raise ConfigurationError(f"{where} needs {key!r}")
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(
            f"{where} needs a number for {key!r}, got {json.dumps(value, default=repr)}")
    return value


def bind_config(func, params, where):
    """func(**params), refusing a missing or unknown key with the names func accepts."""
    signature = inspect.signature(func)
    try:
        signature.bind(**params)
    except TypeError as e:
        raise ConfigurationError(
            f"{where}: {e}; accepted keys: {', '.join(signature.parameters)}"
        ) from None
    return func(**params)
