"""Checks on values from outside the program (config, blueprint, item and
snapshot files, bus or TCP payloads) and on the parameters of public calls.
Each function takes the value, its field name and the error to raise, and
returns the value as the type the caller reads or raises an error that names
the field and the value. Values pass through as JSON gave them; only
``number`` converts. Messages are built on failure only: some checks run for
every graded candidate. ``json_value`` is the one door for JSON text from
outside, ``json_file`` for a JSON file and ``text_file`` for any other text
file, so each reader (frame, snapshot, reply, file) fails with its own code,
never a bare ValueError or OSError."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InvalidParams


def json_value(text: str | bytes, what: str, error=InvalidParams):
    """``json.loads(text)``, bytes with their encoding detected; any failure, a
    huge int or deep nesting too, raises ``error``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise error(f"{what} is not JSON: {getattr(exc, 'msg', exc)}") from None


def json_file(path, what: str, error=InvalidParams):
    """``json_value`` of the file at ``path``; a file that cannot be read
    raises ``error`` too."""
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL or lone surrogate in the path
        raise error(f"cannot read {what}: {exc}") from None
    return json_value(data, what, error)


def text_file(path, what: str, error=InvalidParams) -> str:
    """The UTF-8 text of the file at ``path``, read with universal newlines;
    a file that cannot be read, or whose bytes are not UTF-8, raises ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a bad path, or UnicodeDecodeError
        raise error(f"cannot read {what}: {exc}") from None


def obj(value, field: str, error=InvalidParams) -> dict:
    if not isinstance(value, dict):
        raise error(f"{field} must be a JSON object, got {value!r}")
    return value


def string(value, field: str, error=InvalidParams) -> str:
    if not isinstance(value, str):
        raise error(f"{field} must be a string, got {value!r}")
    return value


def array(value, field: str, error=InvalidParams, *, size: int | None = None) -> list:
    """A list; with ``size``, one of exactly that many values."""
    if not isinstance(value, list) or (size is not None and len(value) != size):
        raise error(f"{field} must be a list{f' of {size} values' if size else ''}, got {value!r}")
    return value


def strings(value, field: str, error=InvalidParams) -> list[str]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise error(f"{field} must be a list of strings, got {value!r}")
    return value


def boolean(value, field: str, error=InvalidParams) -> bool:
    """A JSON true or false; no other value stands for one."""
    if type(value) is not bool:
        raise error(f"{field} must be true or false, got {value!r}")
    return value


def integer(value, field: str, error=InvalidParams, *,
            low: int | None = None, high: int | None = None) -> int:
    """An int, not a bool, within the inclusive bounds (``high`` needs ``low``)."""
    if (type(value) is not int
            or (low is not None and value < low) or (high is not None and value > high)):
        bounds = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
        raise error(f"{field} must be an integer{bounds}, got {value!r}")
    return value


def number(value, field: str, error=InvalidParams, *,
           above: float | None = None, below: float | None = None) -> float:
    """An int or float, not a bool or NaN, as a float, greater than ``above``
    and less than ``below``."""
    if (type(value) not in (int, float) or value != value
            or (above is not None and not value > above)
            or (below is not None and not value < below)):
        bounds = " and".join(f" {op} {b}" for op, b in ((">", above), ("<", below))
                             if b is not None)
        raise error(f"{field} must be a number{bounds}, got {value!r}")
    return float(value)


def member(value, field: str, lookup, error=InvalidParams):
    """What ``lookup``, an Enum class or a function indexing one, finds."""
    try:
        return lookup(value)
    except (KeyError, ValueError, AttributeError):
        raise error(f"unknown {field} {value!r}") from None
