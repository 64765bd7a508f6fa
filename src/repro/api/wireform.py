"""One field-driven wire form for the package's JSON-facing dataclasses.

A dataclass that mixes in :class:`WireForm` gets ``to_dict``, ``from_dict``
and ``from_file`` derived from its fields.  Each field's annotation compiles
once per class into two functions, one per direction:

* ``int`` takes any integer through :func:`operator.index`, but not a bool;
* ``float`` takes any real number but a bool, and stores ``float(value)``;
* ``str`` takes only a string, and ``bool`` only a bool;
* ``X | None`` takes ``None`` or an ``X``;
* ``tuple[T, ...]`` and ``list[T]`` travel as lists; a fixed ``tuple[A, B]``
  of scalars as a list of that length, and a ``set[T]`` of scalars as a
  sorted list;
* ``dict[int, T]`` of a scalar ``T`` travels keyed by decimal strings (JSON
  has no other keys), and ``Counter`` as an object of integer counts sorted
  by key;
* a nested :class:`WireForm` class travels as its own ``to_dict``.

Nothing is coerced.  A value of another type raises ``TypeError`` naming the
field, a missing key takes the field's default, a missing required field
raises ``TypeError`` and an unknown key raises ``ValueError``.

>>> from dataclasses import dataclass
>>> @dataclass(frozen=True)
... class Probe(WireForm):
...     distance: int
...     rates: tuple[float, ...] = ()
...     label: str | None = None
>>> Probe(3, (0.5,)).to_dict()
{'distance': 3, 'rates': [0.5], 'label': None}
>>> Probe.from_dict({"distance": 3, "rates": [1]})
Probe(distance=3, rates=(1.0,), label=None)
>>> Probe.from_dict({"distance": 5.7})
Traceback (most recent call last):
...
TypeError: Probe.distance must be an integer, got float
>>> Probe.from_dict({"distance": True})
Traceback (most recent call last):
...
TypeError: Probe.distance must be an integer, got bool
>>> Probe.from_dict({"distance": 3, "label": 7})
Traceback (most recent call last):
...
TypeError: Probe.label must be a string, got int
>>> Probe.from_dict({"rates": []})
Traceback (most recent call last):
...
TypeError: Probe.distance is required
>>> Probe.from_dict({"distance": 3, "rate": [0.5]})
Traceback (most recent call last):
...
ValueError: unknown Probe fields: ['rate']
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import operator
import types
import typing
from collections import Counter
from functools import cache
from pathlib import Path

_SCALARS = (int, float, str, bool)
_NOUNS = {int: "an integer", float: "a real number", str: "a string", bool: "a bool"}

#: Field metadata key of :func:`omitted_at_default`.
_OMIT = "wireform.omitted_at_default"
#: The ``omit`` entry of a field that is always written.
_ALWAYS = object()


def omitted_at_default(default):
    """A dataclass field that ``to_dict`` leaves out while it holds ``default``.

    For fields added after a wire form was pinned: forms (and every content
    hash over them) that do not use the field stay byte-identical.

    >>> from dataclasses import dataclass
    >>> @dataclass(frozen=True)
    ... class Shot(WireForm):
    ...     defects: tuple[int, ...]
    ...     erasures: tuple[int, ...] = omitted_at_default(())
    >>> Shot((1, 4)).to_dict(), Shot((1,), (0,)).to_dict()
    ({'defects': [1, 4]}, {'defects': [1], 'erasures': [0]})
    """
    return dataclasses.field(default=default, metadata={_OMIT: True})


def _refused(where: str, noun: str, value) -> TypeError:
    return TypeError(f"{where} must be {noun}, got {type(value).__name__}")


def _expect(value, kinds, where: str, noun: str = "an object") -> None:
    if not isinstance(value, kinds):
        raise _refused(where, noun, value)


def _scalar(kind: type, where: str):
    """The loader of a scalar annotation."""
    noun = _NOUNS[kind]
    if kind is int:

        def load(value):
            if type(value) is int:
                return value
            if not isinstance(value, bool):
                try:
                    return operator.index(value)
                except TypeError:
                    pass
            raise _refused(where, noun, value)

    elif kind is float:

        def load(value):
            if type(value) is float:
                return value
            if isinstance(value, numbers.Real) and not isinstance(value, bool):
                return float(value)
            raise _refused(where, noun, value)

    else:

        def load(value):
            if isinstance(value, kind):
                return value
            raise _refused(where, noun, value)

    return load


def _int_key(key, where: str) -> int:
    if type(key) is str:
        try:
            number = int(key)
        except ValueError:
            pass
        else:
            if str(number) == key:
                return number
    raise TypeError(f"a key of {where} must be a decimal integer string, got {key!r}")


@cache
def _compile(annotation, where: str) -> tuple:
    """``(dump, load)`` of a resolved annotation.  ``dump`` is ``None`` when
    the wire value is the value itself; ``load`` checks a wire value and
    rebuilds the field value, naming ``where`` in its errors."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (types.UnionType, typing.Union) and len(args) == 2 and type(None) in args:
        inner_dump, inner_load = _compile(args[0] if args[1] is type(None) else args[1], where)
        return (
            inner_dump and (lambda value: None if value is None else inner_dump(value)),
            lambda value: None if value is None else inner_load(value),
        )
    if annotation in _SCALARS:
        return None, _scalar(annotation, where)
    if annotation is Counter:
        count = _scalar(int, f"a count of {where}")

        def load_counter(value):
            _expect(value, dict, where)
            if not all(type(key) is str and type(n) is int for key, n in value.items()):
                for key in value:
                    _expect(key, str, f"a key of {where}", "a string")
                value = {key: count(n) for key, n in value.items()}
            return Counter(value)

        return (lambda value: {key: value[key] for key in sorted(value)}), load_counter
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        item = args[0]
        item_dump, item_load = _compile(item, f"an entry of {where}")
        # A list whose entries all have exactly a scalar item type passes as
        # is: the common case, checked in one pass at C speed.
        exact = {item} if item in _SCALARS else set()

        def load_items(value):
            if not isinstance(value, (list, tuple)):
                raise _refused(where, "a list", value)
            if not exact or not {*map(type, value)} <= exact:
                value = [item_load(entry) for entry in value]
            return origin(value)

        if item_dump is None:
            return list, load_items
        return (lambda value: [item_dump(entry) for entry in value]), load_items
    if origin is tuple and all(arg in _SCALARS for arg in args):
        loads = [_scalar(arg, f"an entry of {where}") for arg in args]
        uniform = set(args) if len(set(args)) == 1 else set()

        def load_row(value):
            _expect(value, (list, tuple), where, "a list")
            if len(value) != len(loads):
                raise ValueError(f"{where} must hold {len(loads)} values, got {len(value)}")
            if uniform and {*map(type, value)} <= uniform:
                return tuple(value)
            return tuple(load(entry) for load, entry in zip(loads, value))

        return list, load_row
    if origin is set and args[0] in _SCALARS:
        member = _scalar(args[0], f"an entry of {where}")

        def load_set(value):
            _expect(value, (list, tuple), where, "a list")
            return {member(entry) for entry in value}

        return sorted, load_set
    if origin is dict and args[0] is int and args[1] in _SCALARS:
        entry_load = _scalar(args[1], f"an entry of {where}")

        def load_keyed(value):
            _expect(value, dict, where)
            return {_int_key(key, where): entry_load(entry) for key, entry in value.items()}

        return (lambda value: {str(key): entry for key, entry in value.items()}), load_keyed
    if isinstance(annotation, type) and issubclass(annotation, WireForm):

        def load_nested(value):
            _expect(value, dict, where, f"a {annotation.__name__} object")
            return annotation.from_dict(value)

        return (lambda value: value.to_dict()), load_nested
    raise TypeError(f"no wire form for {annotation!r}")


@cache
def _plan(cls) -> tuple:
    """``(fields, names)`` of a class: one ``(name, dump, load, omit,
    required)`` entry per field, and the set of field names."""
    hints = typing.get_type_hints(cls)
    fields = tuple(
        (
            spec.name,
            *_compile(hints[spec.name], f"{cls.__name__}.{spec.name}"),
            spec.default if spec.metadata.get(_OMIT) else _ALWAYS,
            spec.default is dataclasses.MISSING and spec.default_factory is dataclasses.MISSING,
        )
        for spec in dataclasses.fields(cls)
    )
    return fields, frozenset(entry[0] for entry in fields)


def dump(annotation, value):
    """The wire form of one ``value`` of the type ``annotation``.

    >>> dump(Counter, Counter(b=2, a=1))
    {'a': 1, 'b': 2}
    >>> dump(list[tuple[int, int]], [(0, -1)])
    [[0, -1]]
    """
    dumper = _compile(annotation, "value")[0]
    return value if dumper is None else dumper(value)


def load(annotation, value, where: str):
    """``value`` checked against ``annotation`` and rebuilt; ``where`` names
    it in errors.

    >>> load(Counter, {"grow": 2}, "counters")
    Counter({'grow': 2})
    >>> load(bool | None, "no", "logical_flip")
    Traceback (most recent call last):
    ...
    TypeError: logical_flip must be a bool, got str
    """
    return _compile(annotation, where)[1](value)


def dump_fields(obj, cls) -> dict:
    """The wire form of ``obj`` under the fields of ``cls`` (``obj``'s class
    or one of its dataclass bases)."""
    data = {}
    for name, dumper, _load, omit, _required in _plan(cls)[0]:
        value = getattr(obj, name)
        if omit is _ALWAYS or value != omit:
            data[name] = value if dumper is None else dumper(value)
    return data


def load_fields(cls, data, given=()) -> dict:
    """The constructor keywords of ``cls`` that ``data`` describes, plus the
    ``given`` ones, which are taken as they are: their keys in ``data`` are
    not read."""
    if not isinstance(data, dict):
        raise _refused(cls.__name__, "an object", data)
    fields, names = _plan(cls)
    if not data.keys() <= names:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(data.keys() - names, key=str)}")
    kwargs = dict(given)
    for name, _dump, loader, _omit, required in fields:
        if name in kwargs:
            continue
        if name in data:
            kwargs[name] = loader(data[name])
        elif required:
            raise TypeError(f"{cls.__name__}.{name} is required")
    return kwargs


class WireForm:
    """Mixin deriving ``to_dict``, ``from_dict`` and ``from_file`` from the
    fields of a dataclass (see the module docstring for the rules).

    >>> from repro.graphs import Syndrome
    >>> Syndrome.from_dict(Syndrome((1, 4), logical_flip=True).to_dict())
    Syndrome(defects=(1, 4), error_edges=(), logical_flip=True, erasures=())
    """

    def to_dict(self) -> dict:
        """The JSON-shaped wire form: one key per field."""
        return dump_fields(self, type(self))

    @classmethod
    def from_dict(cls, data: dict, **given):
        """Inverse of :meth:`to_dict`.  Fields passed as keywords are taken
        as they are, in place of the ones ``data`` would give.

        >>> from repro.graphs import Syndrome
        >>> Syndrome.from_dict({"defects": [2], "logical_flip": "no"}, logical_flip=None)
        Syndrome(defects=(2,), error_edges=(), logical_flip=None, erasures=())
        """
        return cls(**load_fields(cls, data, given))

    @classmethod
    def from_file(cls, path: str | Path):
        """Load an instance from the JSON file at ``path``."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
