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
from dataclasses import asdict, dataclass

from .hashing import content_hash
from .wireform import WireForm, dump_fields, load_fields

#: Default internal dual scale (half-weight units).  Mirrors
#: :data:`repro.core.dual.DEFAULT_DUAL_SCALE`, which cannot be imported here
#: without a circular import; ``tests/test_api.py`` asserts they stay equal.
DEFAULT_DUAL_SCALE = 2


@dataclass(frozen=True)
class DecoderConfig(WireForm):
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
        # The wire form differs from the fields: it is tagged with the
        # concrete class, which is what lets from_dict rebuild a subclass.
        return {"type": type(self).__name__, "fields": dump_fields(self, type(self))}

    @classmethod
    def from_dict(cls, data: dict) -> "DecoderConfig":
        """Inverse of :meth:`to_dict`; returns the concrete subclass instance.

        Each field takes only its annotated type (:mod:`repro.api.wireform`),
        so a wire form names exactly one configuration.

        >>> config = LUTConfig(fallback_config=MicroBlossomConfig(scale=4))
        >>> DecoderConfig.from_dict(config.to_dict()) == config
        True
        """
        if not isinstance(data, dict) or data.keys() != {"type", "fields"}:
            raise TypeError("a DecoderConfig object holds exactly a type and fields")
        concrete = _CONFIG_CLASSES.get(data["type"])
        if concrete is None:
            raise ValueError(f"unknown decoder config type {data['type']!r}")
        return concrete(**load_fields(concrete, data["fields"]))


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
