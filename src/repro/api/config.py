"""Per-decoder configuration dataclasses.

Each registry entry owns one :class:`DecoderConfig` subclass whose fields map
one-to-one onto the keyword arguments of the backend's constructor.  Configs
are frozen (hashable, safe to share between sessions and worker processes)
and replace the ad-hoc ``**kwargs`` that used to be threaded through
``cli.py`` and the evaluation harness.

This module depends on nothing but the standard library so the decoder
packages and the registry can both import it freely.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import asdict, dataclass

from .hashing import content_hash

#: Default internal dual scale (half-weight units).  Mirrors
#: :data:`repro.core.dual.DEFAULT_DUAL_SCALE`, which cannot be imported here
#: without a circular import; ``tests/test_api.py`` asserts they stay equal.
DEFAULT_DUAL_SCALE = 2


def strict_integer(value, name: str) -> int:
    """``value`` as an ``int``, refusing floats, strings and bools (which
    ``int()`` would truncate, parse or coerce into some other value).

    >>> strict_integer(3, "scale")
    3
    >>> strict_integer(1.5, "max_defects")
    Traceback (most recent call last):
    ...
    TypeError: max_defects must be an integer, got float
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None


def _strict_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be a bool, got {type(value).__name__}")
    return value


def _nested_config(value, name: str) -> "DecoderConfig | None":
    if value is None:
        return None
    if not isinstance(value, dict) or "fields" not in value:
        raise TypeError(
            f"{name} must be a decoder config object (type and fields), "
            f"got {type(value).__name__}"
        )
    return DecoderConfig.from_dict(value)


@dataclass(frozen=True)
class DecoderConfig:
    """Base class of all decoder configurations.

    >>> MicroBlossomConfig().to_kwargs()
    {'enable_prematching': True, 'stream': True, 'scale': 2}
    >>> MicroBlossomConfig().replace(stream=False).stream
    False
    """

    def to_kwargs(self) -> dict:
        """Constructor keyword arguments for the backend."""
        return asdict(self)

    def replace(self, **changes) -> "DecoderConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def config_hash(self) -> str:
        """Stable 16-hex-digit content hash of this configuration.

        Covers the concrete config class and every field, so two configs
        hash equally exactly when they would build identical decoders.  The
        decode service keys its LRU of reusable sessions by
        ``(code, decoder, config_hash)`` (see :mod:`repro.service`), and the
        hash is stable across processes — unlike ``hash(config)``.

        >>> MicroBlossomConfig().config_hash() == MicroBlossomConfig().config_hash()
        True
        >>> MicroBlossomConfig().config_hash() != MicroBlossomConfig(scale=4).config_hash()
        True
        """
        return content_hash({"config": type(self).__name__, "fields": asdict(self)})

    def to_dict(self) -> dict:
        """JSON-shaped wire form: the concrete class name plus every field.

        Nested configs (``LUTConfig.fallback_config``) serialise recursively;
        :meth:`from_dict` restores the exact subclass.  This is the codec the
        network decode service puts on the wire inside a
        :class:`repro.service.SessionKey`.

        >>> MicroBlossomConfig(scale=4).to_dict()["type"]
        'MicroBlossomConfig'
        """
        fields = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, DecoderConfig):
                value = value.to_dict()
            fields[spec.name] = value
        return {"type": type(self).__name__, "fields": fields}

    @classmethod
    def from_dict(cls, data: dict) -> "DecoderConfig":
        """Inverse of :meth:`to_dict`; returns the concrete subclass instance.

        Each field value must already have its annotated type — nothing is
        coerced, so a wire form names exactly one configuration: a ``bool``
        field takes only a bool, an ``int`` field any integer but a bool,
        and a nested config only a config object.

        >>> config = LUTConfig(fallback_config=MicroBlossomConfig(scale=4))
        >>> DecoderConfig.from_dict(config.to_dict()) == config
        True
        >>> DecoderConfig.from_dict({"type": "LUTConfig", "fields": {"max_defects": 1.5}})
        Traceback (most recent call last):
        ...
        TypeError: LUTConfig.max_defects must be an integer, got float
        """
        try:
            concrete = _CONFIG_CLASSES[data["type"]]
        except KeyError:
            raise ValueError(f"unknown decoder config type {data.get('type')!r}") from None
        fields = data["fields"]
        if not isinstance(fields, dict):
            raise TypeError(f"config fields must be an object, got {type(fields).__name__}")
        known = {spec.name: spec.type for spec in dataclasses.fields(concrete)}
        kwargs = {}
        for name, value in fields.items():
            if name not in known:
                raise ValueError(f"{concrete.__name__} has no field {name!r}")
            check = _FIELD_CHECKS[known[name]]
            kwargs[name] = check(value, f"{concrete.__name__}.{name}")
        return concrete(**kwargs)


@dataclass(frozen=True)
class MicroBlossomConfig(DecoderConfig):
    """Configuration of the Micro Blossom heterogeneous decoder.

    ``stream`` selects round-wise fusion (paper §6); ``enable_prematching``
    the in-accelerator handling of isolated Conflicts (paper §5.2); ``scale``
    the internal dual scale in half-weight units.
    """

    enable_prematching: bool = True
    stream: bool = True
    scale: int = DEFAULT_DUAL_SCALE


@dataclass(frozen=True)
class ParityBlossomConfig(DecoderConfig):
    """Configuration of the Parity Blossom software (CPU) baseline."""

    scale: int = DEFAULT_DUAL_SCALE


@dataclass(frozen=True)
class UnionFindConfig(DecoderConfig):
    """Configuration of the Union-Find decoder (no tunables yet)."""


@dataclass(frozen=True)
class ReferenceConfig(DecoderConfig):
    """Configuration of the reference MWPM decoder (no tunables yet)."""


#: Default memory budget of a LUT pre-decoder's table (bytes).
DEFAULT_LUT_BUDGET_BYTES = 8 << 20


@dataclass(frozen=True)
class LUTConfig(DecoderConfig):
    """Configuration of the table-lookup pre-decoder family (``lut+<fallback>``).

    ``max_defects`` bounds the defect-set sizes precomputed into the table
    (0 is always present — the dedicated zero-defect fast path), and
    ``cluster_radius`` restricts two-defect entries to local clusters: pairs
    at most that many decoding-graph hops apart.  ``memory_budget_bytes``
    caps the table size (construction stops deterministically at the budget).
    ``fallback_config`` configures the wrapped backend; ``None`` uses the
    fallback's registry default, so ``lut+X`` decodes exactly like ``X``.

    >>> LUTConfig().max_defects
    2
    >>> LUTConfig(max_defects=1).config_hash() != LUTConfig().config_hash()
    True
    """

    max_defects: int = 2
    cluster_radius: int = 2
    memory_budget_bytes: int = DEFAULT_LUT_BUDGET_BYTES
    fallback_config: DecoderConfig | None = None

    def to_kwargs(self) -> dict:
        """Constructor keyword arguments for :class:`repro.lut.LUTDecoder`.

        Shallow on purpose: :func:`dataclasses.asdict` would recurse into the
        nested ``fallback_config`` dataclass and hand the factory a plain
        dict, but the LUT decoder needs the config instance itself.
        """
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }


#: The wire check of each field annotation a config class uses (the
#: annotations are strings under ``from __future__ import annotations``).
_FIELD_CHECKS = {
    "bool": _strict_bool,
    "int": strict_integer,
    "DecoderConfig | None": _nested_config,
}

#: Concrete config classes by name — the lookup table of
#: :meth:`DecoderConfig.from_dict` (wire deserialisation).
_CONFIG_CLASSES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        MicroBlossomConfig,
        ParityBlossomConfig,
        UnionFindConfig,
        ReferenceConfig,
        LUTConfig,
    )
}
