"""Exception types shared across the package, and the checks that turn
malformed config values into `ConfigurationError`."""

import functools
import inspect
import json
import numbers
import re
from contextlib import contextmanager


class ConfigurationError(ValueError):
    """A solver, schedule, or problem was wired together inconsistently.

    Raised when a piece is built or called with bad arguments, and by `run`
    before the first iteration; never raised inside the loop.
    """


class DimensionMismatch(ValueError):
    """Block vectors or operators with incompatible shapes were combined."""


class InvalidValue(ConfigurationError):
    """A value refused for what it is, by the piece built from it, which does
    not know where it came from; `config_entry` names the config entry."""


class InfeasibleProblemError(ConfigurationError):
    """A structural feasibility condition on the problem constants fails."""


class NormEstimationError(RuntimeError):
    """A weighted operator norm could not be computed.

    Raised when the coupling's Gram matrix is not finite or its eigensolve
    fails.
    """


class OracleError(RuntimeError):
    """An independent reference solve did not reach its requested tolerance."""


def check_keys(spec, accepted, where):
    """Refuse a key of the mapping spec that is not in accepted, listing accepted."""
    unknown = [key for key in spec if key not in accepted]
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown key {', '.join(map(repr, unknown))}; "
            f"accepted keys: {', '.join(accepted) or 'none'}")


def _shown(value):
    text = json.dumps(value, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


def _number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _shape(value):
    """The shape of a number or a regular nested list of numbers, else None."""
    if not isinstance(value, list):
        return () if _number(value) else None
    shapes = {_shape(v) for v in value}
    return None if None in shapes or len(shapes) > 1 else (len(value), *(shapes or {()}).pop())


# annotation -> (whether a config value has that type, its name in messages)
_TYPES = {"int": (lambda v: _number(v) and isinstance(v, numbers.Integral), "an integer"),
          "float": (_number, "a number"), "str": (lambda v: isinstance(v, str), "a string"),
          "bool": (lambda v: isinstance(v, bool), "true or false"),
          "dict": (lambda v: isinstance(v, dict), "an object"),
          "list": (lambda v: isinstance(v, list), "a list"), "None": (lambda v: v is None, "null"),
          "np.ndarray": (lambda v: _shape(v) is not None,
                         "a number or a regular nested list of numbers")}


def check_type(value, annotation, where):
    """Refuse the config value at `where` unless it has a type that `annotation`
    names: a `|` union of `_TYPES` keys and `list[T]` (a list of T values).
    Any other annotation, or none, takes every value."""
    names = []
    for name in str(getattr(annotation, "__name__", annotation)).split(" | "):
        outer, _, inner = name.rstrip("]").partition("[")
        if outer not in _TYPES:
            return
        has, what = _TYPES[outer]
        if has(value) and (not inner or all(map(_TYPES[inner][0], value))):
            return
        names.append(f"{what} of entries each {_TYPES[inner][1]}" if inner else what)
    raise ConfigurationError(f"{where} must be {' or '.join(names)}, got {_shown(value)}")


_BLOCK_ENTRY = re.compile(r"\w+\[\d+\]: ")  # a message naming one block: `primal[0]: ...`


@contextmanager
def config_entry(where):
    """Report a shape mismatch or an `InvalidValue` raised while building the
    config entry at `where` as a ConfigurationError that names it; a message
    that names one of its blocks extends the path
    (`problem.custom_pd.primal[0]: ...`)."""
    try:
        yield
    except (DimensionMismatch, InvalidValue) as e:
        raise ConfigurationError(
            f"{where}{'.' if _BLOCK_ENTRY.match(str(e)) else ': '}{e}") from None


@functools.cache
def _keys(func):
    """The parameters of func before its keyword-only ones, by name."""
    return {key: p for key, p in inspect.signature(func).parameters.items()
            if p.kind is p.POSITIONAL_OR_KEYWORD}


def bind_config(func, spec, where, **context):
    """func(**spec, **context) for the config object spec at path `where` ("":
    the whole config). func's signature is the object's schema: the parameters
    before the keyword-only ones are its keys, required without a default and
    type-checked by their annotations (`check_type`). Keyword-only parameters
    take the caller's `context`. A shape mismatch in func names `where`."""
    name = where or "config"
    check_type(spec, dict, name)
    keys = _keys(func)
    check_keys(spec, keys, name)
    for key, p in keys.items():
        if key in spec:
            check_type(spec[key], p.annotation, f"{where}.{key}".lstrip("."))
        elif p.default is p.empty:
            raise ConfigurationError(f"{name} needs {key!r}")
    with config_entry(name):
        return func(**spec, **context)


def bind_kind(readers, spec, where, key="kind", default=None, **context):
    """`bind_config` of the reader that spec[key] (else `default`) names in
    `readers`, on the rest of spec; an unknown key is refused with `key` first
    among the accepted ones."""
    check_type(spec, dict, where)
    kind = spec.get(key, default)
    if kind is None:
        raise ConfigurationError(f"{where} needs {key!r}")
    if not isinstance(kind, str) or kind not in readers:
        raise ConfigurationError(f"{where}: unknown {key} {_shown(kind)}; "
                                 f"expected one of {', '.join(readers)}")
    check_keys(spec, (key, *_keys(readers[kind])), where)
    rest = {k: v for k, v in spec.items() if k != key}
    return bind_config(readers[kind], rest, where, **context)
