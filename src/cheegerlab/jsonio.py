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

from .errors import ValidationError

SCHEMA_VERSION = 1


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


def loads(text: str) -> dict:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise ValidationError("top-level JSON value must be an object")
    schema = obj.pop("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema version {schema!r}")
    return obj


def require_keys(obj: dict, required, optional=()):
    """Reject missing required keys and any unknown key, naming both in one message."""
    missing = [k for k in required if k not in obj]
    unknown = [k for k in obj if k not in set(required) | set(optional)]
    problems = []
    if missing:
        problems.append(f"missing keys: {', '.join(missing)}")
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    if problems:
        raise ValidationError("; ".join(problems))


def number(value, what: str):
    """``value`` if it is a number; booleans (an ``int`` subclass), strings and null raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return value


def integer(value, what: str):
    """``value`` if it is an ``int``; booleans, floats such as 2.7, strings and null raise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def boolean(value, what: str):
    """``value`` if it is ``true`` or ``false``; numbers, strings and null raise."""
    if not isinstance(value, bool):
        raise ValidationError(f"{what} must be true or false, got {value!r}")
    return value
