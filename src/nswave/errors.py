"""Exception types shared across the package, the declared rules config
fields are checked against, and the per-geometry tables' read-only memo."""

import dataclasses
import functools

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration (unsupported parameter, unknown key, bad preset)."""


class ShapeError(ValueError):
    """Array shape or size violates an operation's contract."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class StateError(RuntimeError):
    """Operation called in the wrong order (e.g. backward before forward)."""


class DataError(RuntimeError):
    """Dataset generation, persistence, or integrity failure."""


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss or gradients)."""


class ConditioningError(RuntimeError):
    """Linear system too close to singular to solve reliably."""


class InferenceError(RuntimeError):
    """Non-finite values produced during model evaluation."""


# -- declared config fields ---------------------------------------------------

_FLOAT_MAX = 1.7976931348623157e308  # the largest finite double


def rule(default=dataclasses.MISSING, *, kind=int, low=None, above=None,
         choices=None):
    """A config field and the rule `check_fields` holds its value to: of
    type `kind` (a bool is never a number; a float may be an int, and must
    be finite), >= `low`, > `above` and one of `choices`.  None is valid
    where it is the default; without a default the field is required."""
    return dataclasses.field(default=default, metadata={"rule": dict(
        kind=kind, low=low, above=above, choices=choices,
        optional=default is None)})


def _obeys(value, kind, low, above, choices, optional) -> bool:
    if value is None:
        return optional
    if isinstance(value, bool) != (kind is bool):
        return False
    if kind is float:
        typed = isinstance(value, (int, float)) and abs(value) <= _FLOAT_MAX
    else:
        typed = isinstance(value, kind)
    return (typed and (choices is None or value in choices)
            and (low is None or value >= low)
            and (above is None or value > above))


def _need(kind, low, above, choices, optional) -> str:
    need = {int: "an integer", float: "a finite number", bool: "true or false",
            str: "a string"}[kind]
    if choices is not None:
        need = "one of " + ", ".join(map(repr, choices))
    need += f" >= {low}" if low is not None else ""
    need += f" > {above}" if above is not None else ""
    return need + (" or null" if optional else "")


def check_fields(cfg, section: str) -> None:
    """ConfigError naming the first field of the dataclass `cfg` whose value
    breaks the rule it was declared with."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if not _obeys(value, **f.metadata["rule"]):
            raise ConfigError(f"{section}.{f.name} must be "
                              f"{_need(**f.metadata['rule'])}, got {value!r}")


# -- the per-geometry tables --------------------------------------------------

def freeze(obj):
    """Make every array `obj` reaches read-only and return `obj`: ndarrays,
    sparse buffers, and the items of tuples, lists, dicts and dataclasses."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif hasattr(obj, "indptr"):  # a compressed sparse matrix
        freeze((obj.data, obj.indices, obj.indptr))
    elif dataclasses.is_dataclass(obj):
        freeze(vars(obj))
    elif isinstance(obj, (tuple, list, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            freeze(item)
    return obj


def frozen_cache(build):
    """`build` memoized for its 64 most recently used keys, its result
    `freeze`d: one table per key, shared by every caller, written by none."""
    return functools.lru_cache(maxsize=64)(
        functools.wraps(build)(lambda *args: freeze(build(*args))))
