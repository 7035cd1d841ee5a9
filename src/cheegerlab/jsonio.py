"""Deterministic JSON artifacts: fixed float formatting, schema tagging.

Every artifact carries ``"schema": 1``; readers reject unknown schema versions
and unknown keys.  Floats are rendered with 17 significant digits so repeated
runs with identical inputs produce byte-identical files.  Only finite floats
are valid: writing NaN or infinity, or reading the ``NaN``/``Infinity``
tokens, raises ``ValidationError``; a missing value is written as null.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

SCHEMA_VERSION = 1
_FLOAT_MAX = float(np.finfo(float).max)


@lru_cache(maxsize=1024)
def _key(name: str) -> str:  # artifacts repeat a few dozen key names
    return json.dumps(name) + ":"


def _render(obj) -> str:
    # floats, dicts and lists first: nearly every value of an artifact is one
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValidationError(f"cannot write non-finite float {obj!r}")
        if obj == int(obj) and abs(obj) < 1e16:
            return "%.1f" % obj
        return format(obj, ".17g")
    if isinstance(obj, dict):
        return "{" + ",".join([_key(str(k)) + _render(v) for k, v in obj.items()]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_render(v) for v in obj]) + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    # numpy scalars and similar
    if hasattr(obj, "item"):
        return _render(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj: dict) -> str:
    """Canonical newline-terminated rendering with the schema field first."""
    tagged = {"schema": SCHEMA_VERSION}
    tagged.update(obj)
    return _render(tagged) + "\n"


def _reject_constant(token: str):
    raise ValidationError(f"non-finite number {token} is not valid JSON")


def parse(text: str):
    """Any JSON value; malformed text and the ``NaN``/``Infinity`` tokens raise."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValidationError:
        raise
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ValidationError(f"malformed JSON: {exc}") from exc


def loads(text: str) -> dict:
    obj = parse(text)
    if not isinstance(obj, dict):
        raise ValidationError("top-level JSON value must be an object")
    schema = obj.pop("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema version {schema!r}")
    return obj


def require_keys(obj: dict, required, optional=()):
    """Reject missing required keys and any unknown key, naming both in one message."""
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a JSON object, got {obj!r}")
    missing = [k for k in required if k not in obj]
    allowed = {*required, *optional}
    unknown = [k for k in obj if k not in allowed]
    problems = []
    if missing:
        problems.append(f"missing keys: {', '.join(missing)}")
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    if problems:
        raise ValidationError("; ".join(problems))


def number(value, what: str):
    """``value`` if it is a number a float can hold; booleans, strings and null raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    if type(value) is int and abs(value) > _FLOAT_MAX:  # the parser makes 1e400 inf
        raise ValidationError(f"{what} must fit a float, got {len(str(value))} integer digits")
    return value


def numbers(value, what: str) -> np.ndarray:
    """``value`` as a float array if every entry of it is a number (see ``number``)."""
    values = np.asarray(value, dtype=object)
    for v in values.flat:
        number(v, what)
    return values.astype(float)


def integer(value, what: str):
    """``value`` if it is an ``int``; booleans, floats such as 2.7, strings and null raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def string(value, what: str):
    """``value`` if it is a string; numbers, lists and null raise."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} must be a string, got {value!r}")
    return value


def array(value, what: str):
    """``value`` if it is a list; a bare string or number raises."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return value


def boolean(value, what: str):
    """``value`` if it is ``true`` or ``false``; numbers, strings and null raise."""
    if not isinstance(value, bool):
        raise ValidationError(f"{what} must be true or false, got {value!r}")
    return value
