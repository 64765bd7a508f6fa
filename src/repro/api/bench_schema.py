"""Declarative schemas for the published ``BENCH_*.json`` documents.

A schema is data: a ``dict`` declares an object's keys, :class:`Obj` adds
named cross-field rules to one, and :class:`Arr`, :class:`Map`,
:class:`Nullable`, :class:`Num`, :class:`Str`, :class:`Const`, :data:`BOOL`
and :data:`ANY` declare the values.  :func:`validate_document` walks a
document against a schema and raises the caller's error class at the first
violation.  Objects may hold undeclared keys.  An object checks that its
declared keys are present, in declared order, then walks their values, and
only then runs its rules, so a rule may read any declared key as declared.
Pass/fail verdicts about a valid document are rows of the same
``(message, predicate)`` form; :func:`failed_gates` returns the messages of
all the rows a document fails.

>>> schema = Obj(
...     {"shots": Num(1), "errors": Num(0)},
...     ("errors exceed shots", lambda d: d["errors"] <= d["shots"]),
... )
>>> validate_document({"errors": 5}, schema, ValueError)
Traceback (most recent call last):
    ...
ValueError: missing top-level key 'shots'
>>> validate_document({"shots": 4, "errors": 5}, schema, ValueError)
Traceback (most recent call last):
    ...
ValueError: errors exceed shots
"""

from __future__ import annotations

import json
import os
import subprocess
from collections import namedtuple
from pathlib import Path

#: A number (not a bool) within the inclusive bounds that are set.
Num = namedtuple("Num", "low high", defaults=(None, None))
#: A string, non-empty unless ``empty`` is set.
Str = namedtuple("Str", "empty", defaults=(False,))
#: An array whose items all match ``item``.
Arr = namedtuple("Arr", "item nonempty", defaults=(False,))
#: An object with free keys whose values all match ``value``; with
#: ``count_keys`` every key must be a positive-integer string.
Map = namedtuple("Map", "value count_keys", defaults=(False,))
#: ``null``, or a value matching ``inner``.
Nullable = namedtuple("Nullable", "inner")


class Obj:
    """An object with declared ``fields`` and ``(message, predicate)`` rules.

    ``switch`` names a boolean field checked first; when it is false, the
    other fields are not required.
    """

    def __init__(self, fields: dict, *rules, switch: str | None = None) -> None:
        self.fields, self.rules, self.switch = fields, rules, switch


class Const:
    """A value equal (``==``) to one of ``values``."""

    def __init__(self, *values) -> None:
        self.values = values


#: ``BOOL`` declares a boolean, ``ANY`` any value (only the key must be present).
BOOL = object()
ANY = object()
NON_NEGATIVE = Num(0)
RATIO = Num(0.0, 1.0)
TEXT = Str()


def fields(names: str, schema) -> dict:
    """Declare each whitespace-separated name in ``names`` as ``schema``."""
    return dict.fromkeys(names.split(), schema)


LATENCY_SUMMARY = fields("count mean_us p50_us p99_us min_us max_us", NON_NEGATIVE)


class _Violation(Exception):
    """The first violation found, re-raised as the caller's error class."""


def validate_document(document, schema, error: type[Exception]) -> None:
    """Walk ``document`` against ``schema``; raise ``error`` on a violation."""
    try:
        _walk(schema, document, "")
    except _Violation as violation:
        raise error(str(violation)) from None


def failed_gates(document, gates) -> list[str]:
    """The message of every ``(message, predicate)`` gate ``document`` fails.

    Gates are verdicts about a document that already passed its schema, so
    every row may read any declared key.

    >>> gates = (("no shots", lambda d: d["shots"] > 0), ("errors", lambda d: not d["errors"]))
    >>> failed_gates({"shots": 0, "errors": 2}, gates)
    ['no shots', 'errors']
    """
    return [message for message, holds in gates if not holds(document)]


def _require(condition, message: str) -> None:
    if not condition:
        raise _Violation(message)


def _walk(schema, value, path: str) -> None:
    where = path or "document"
    if isinstance(schema, dict):
        _walk(Obj(schema), value, path)
    elif isinstance(schema, Obj):
        _require(isinstance(value, dict), f"{where}: expected an object")
        if schema.switch is not None:
            _walk({schema.switch: BOOL}, value, path)
            if not value[schema.switch]:
                return
        missing = f"{path}: missing key" if path else "missing top-level key"
        for key in schema.fields:
            _require(key in value, f"{missing} {key!r}")
        for key, entry in schema.fields.items():
            _walk(entry, value[key], f"{path}.{key}" if path else key)
        for message, holds in schema.rules:
            _require(holds(value), f"{path}: {message}" if path else message)
    elif isinstance(schema, Nullable):
        if value is not None:
            _walk(schema.inner, value, path)
    elif isinstance(schema, Arr):
        kind = "non-empty array" if schema.nonempty else "array"
        _require(
            isinstance(value, list) and (value or not schema.nonempty), f"{where} must be a {kind}"
        )
        for index, item in enumerate(value):
            _walk(schema.item, item, f"{path}[{index}]")
    elif isinstance(schema, Map):
        _require(isinstance(value, dict), f"{where} must be an object")
        for key, item in value.items():
            _require(
                not schema.count_keys
                or (isinstance(key, str) and key.isdecimal() and int(key) >= 1),
                f"{where}: key {key!r} must be a positive-integer string",
            )
            _walk(schema.value, item, f"{path}[{key!r}]")
    elif isinstance(schema, Num):
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{where}: expected a number, got {type(value).__name__}",
        )
        _require(schema.low is None or value >= schema.low, f"{where}: {value} < {schema.low}")
        _require(schema.high is None or value <= schema.high, f"{where}: {value} > {schema.high}")
    elif isinstance(schema, Str):
        kind = "string" if schema.empty else "non-empty string"
        _require(isinstance(value, str) and (value or schema.empty), f"{where} must be a {kind}")
    elif isinstance(schema, Const):
        expected = " or ".join(map(repr, schema.values))
        _require(value in schema.values, f"{where} must be {expected}, got {value!r}")
    elif schema is BOOL:
        _require(isinstance(value, bool), f"{where} must be a boolean")


def current_commit() -> str:
    """The commit the benchmark ran at: ``$GITHUB_SHA``, git, or ``unknown``."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def write_document(document: dict, path: str | Path) -> Path:
    """Write ``document`` as indented, key-sorted JSON (atomic: temp + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_suffix(path.suffix + ".tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    tmp_path.replace(path)
    return path
