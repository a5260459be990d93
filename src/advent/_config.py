"""How a JSON config is read and checked, shared by the scenario config and
the run manifest: one table of the kinds a field may hold, one type check
and one reader."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, fields

__all__ = ["ConfigError", "is_int", "is_number", "check_types", "read"]


class ConfigError(ValueError):
    """Raised when a config is malformed or violates an invariant."""


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite real: JSON's NaN and Infinity tokens, a literal such as 1e999
    that reads as inf, and an int too large for a float are not numbers."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# Field annotation -> (the values it accepts, how an error names them).  A
# bool is never accepted; an int is, where a float is expected.
_KINDS = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "int": (is_int, "an integer"),
    "float": (is_number, "a number"),
    "tuple[int, int]": (lambda v: isinstance(v, (tuple, list)) and len(v) == 2
                        and all(map(is_int, v)), "two integers [min, max]"),
}


def check_types(obj) -> None:
    """Reject the first field of a config dataclass whose value is not of
    its annotated kind."""
    for f in fields(obj):
        accepts, kind = _KINDS[f.type]
        value = getattr(obj, f.name)
        if not accepts(value):
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")


def read(cls, path, noun: str, **overrides):
    """A `cls` built from the JSON object in `path` (from no field when
    `path` is None), with each override that is not None put over it.  A
    JSON array becomes a tuple.  A file that holds no object, an unknown
    field and a missing one are rejected here, naming the `noun`; `cls`
    checks the values."""
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: a {noun} must be a JSON object")
        data = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {noun} field {unknown[0]!r}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
    if missing:
        raise ConfigError(f"missing {noun} field {missing[0]!r}")
    return cls(**data)
