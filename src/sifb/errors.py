"""Exception types shared across the package, and the checks that turn
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


def config_key(spec, key, where):
    """spec[key], refused by name if spec lacks it."""
    if key not in spec:
        raise ConfigurationError(f"{where} needs {key!r}")
    return spec[key]


def config_number(spec, key, where):
    """spec[key], refused unless it is a number (a bool, null or string is not)."""
    value = config_key(spec, key, where)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(
            f"{where} needs a number for {key!r}, got {json.dumps(value, default=repr)}")
    return value


def check_keys(spec, accepted, where):
    """Refuse a key of the mapping spec that is not in accepted, listing accepted."""
    unknown = [key for key in spec if key not in accepted]
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown key {', '.join(map(repr, unknown))}; "
            f"accepted keys: {', '.join(accepted)}")


# annotation -> (type a config value must have, its name in messages)
_ANNOTATED = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
              "str": (str, "a string")}


def bind_config(func, params, where):
    """func(**params), refusing a missing or unknown key with the names func
    accepts, and a value of the wrong type for a parameter annotated `int`,
    `float` or `str` (a bool is no number)."""
    signature = inspect.signature(func)
    try:
        bound = signature.bind(**params)
    except TypeError as e:
        raise ConfigurationError(
            f"{where}: {e}; accepted keys: {', '.join(signature.parameters)}"
        ) from None
    for key, value in bound.arguments.items():
        annotation = signature.parameters[key].annotation
        kind, name = _ANNOTATED.get(getattr(annotation, "__name__", annotation), (None, None))
        if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ConfigurationError(
                f"{where} needs {name} for {key!r}, got {json.dumps(value, default=repr)}")
    return func(**params)
