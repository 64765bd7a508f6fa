"""String-keyed decoder registry.

The registry is the single place that maps stable decoder names (the ones
accepted by the CLI's ``--decoder`` flag, by :class:`~repro.api.session.DecoderSession`
and by :func:`~repro.api.batch.decode_batch`) onto backend constructors and
their :class:`~repro.api.config.DecoderConfig` classes.

Built-in backends are imported lazily inside their factory functions so that
``repro.api`` never imports the decoder packages at module level (they import
:mod:`repro.api.outcome` themselves, which would be circular).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from ..graphs.decoding_graph import DecodingGraph
from .erasure import erasure_aware
from .config import (
    DecoderConfig,
    LUTConfig,
    MicroBlossomConfig,
    ParityBlossomConfig,
    ReferenceConfig,
    UnionFindConfig,
)


class UnknownDecoderError(KeyError):
    """Raised when a decoder name is not present in the registry."""


@dataclass(frozen=True)
class DecoderCapabilities:
    """What a registered backend can do, as advertised by the registry.

    The flags drive feature dispatch instead of ``hasattr`` probing:
    ``native_streaming`` selects the incremental round-push implementation in
    :func:`repro.stream.get_streaming_decoder` (non-native backends are
    wrapped in a :class:`repro.stream.SlidingWindowAdapter`) and ``exact``
    marks backends guaranteed to realise the minimum-weight perfect matching.
    Whether a backend has a published timing model is not a flag: the
    latency/stream engines and sweeps read
    :data:`repro.evaluation.DECODERS_WITH_TIMING_MODELS`, the keys of the one
    decoder-to-timing-model table.
    """

    #: Implements :class:`~repro.api.protocol.StreamingDecoder` itself.
    native_streaming: bool = False
    #: Guaranteed to produce a minimum-weight perfect matching.
    exact: bool = False
    #: Resolves small defect sets through a precomputed lookup table
    #: (the ``lut+<fallback>`` family, :mod:`repro.lut`); lookup hits are
    #: exact by construction and misses fall through to the wrapped backend.
    lut_predecode: bool = False


@dataclass(frozen=True)
class DecoderSpec:
    """One registry entry: how to build a decoder and configure it."""

    name: str
    factory: Callable[[DecodingGraph, DecoderConfig], object]
    config_cls: type[DecoderConfig]
    description: str = ""
    default_config: DecoderConfig | None = field(default=None)
    capabilities: DecoderCapabilities = field(default_factory=DecoderCapabilities)

    def make_config(self) -> DecoderConfig:
        return self.default_config if self.default_config is not None else self.config_cls()


_REGISTRY: dict[str, DecoderSpec] = {}


def register_decoder(
    name: str,
    factory: Callable[[DecodingGraph, DecoderConfig], object],
    config_cls: type[DecoderConfig] = DecoderConfig,
    description: str = "",
    default_config: DecoderConfig | None = None,
    overwrite: bool = False,
    capabilities: DecoderCapabilities | None = None,
) -> DecoderSpec:
    """Register a decoder backend under a stable string name.

    ``factory(graph, config)`` must return an object satisfying the
    :class:`~repro.api.protocol.Decoder` protocol.  ``capabilities`` declares
    what the backend supports (defaults to a plain batch decoder without a
    timing model).  Re-registering an existing name raises ``ValueError``
    unless ``overwrite=True``.
    """
    if not name:
        raise ValueError("decoder name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(
            f"decoder {name!r} is already registered (pass overwrite=True to replace)"
        )
    spec = DecoderSpec(
        name=name,
        factory=factory,
        config_cls=config_cls,
        description=description,
        default_config=default_config,
        capabilities=capabilities if capabilities is not None else DecoderCapabilities(),
    )
    _REGISTRY[name] = spec
    return spec


def unregister_decoder(name: str) -> None:
    """Remove a registered decoder (mainly for tests of user extensions)."""
    _REGISTRY.pop(name, None)


def available_decoders() -> tuple[str, ...]:
    """Sorted names of every registered decoder.

    >>> [n for n in available_decoders() if not n.startswith("lut+")]
    ['micro-blossom', 'micro-blossom-batch', 'parity-blossom', 'reference', 'union-find']
    >>> [n[len("lut+"):] for n in available_decoders() if n.startswith("lut+")]
    ['micro-blossom', 'micro-blossom-batch', 'parity-blossom', 'reference', 'union-find']
    """
    return tuple(sorted(_REGISTRY))


def decoder_spec(name: str) -> DecoderSpec:
    """Look up a registry entry, raising :class:`UnknownDecoderError`.

    >>> decoder_spec("union-find").config_cls.__name__
    'UnionFindConfig'
    >>> decoder_spec("no-such-decoder")
    Traceback (most recent call last):
        ...
    repro.api.registry.UnknownDecoderError: "unknown decoder 'no-such-decoder'; ..."
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownDecoderError(
            f"unknown decoder {name!r}; available: {', '.join(available_decoders())}"
        ) from None


def decoder_capabilities(name: str) -> DecoderCapabilities:
    """The capability flags of a registered decoder.

    >>> decoder_capabilities("micro-blossom").native_streaming
    True
    >>> decoder_capabilities("reference").exact
    True
    """
    return decoder_spec(name).capabilities


def resolve_config(name: str, config: DecoderConfig | None) -> tuple[DecoderSpec, DecoderConfig]:
    """The registry entry of ``name`` and the configuration to build it with.

    ``None`` selects the entry's default configuration; any other ``config``
    must be an instance of the entry's config class.  Every entry point that
    takes a ``(name, config)`` pair checks it here.

    >>> resolve_config("union-find", None)[1] == UnionFindConfig()
    True
    >>> resolve_config("union-find", MicroBlossomConfig())
    Traceback (most recent call last):
        ...
    TypeError: decoder 'union-find' expects a UnionFindConfig, got MicroBlossomConfig
    """
    spec = decoder_spec(name)
    if config is None:
        return spec, spec.make_config()
    if not isinstance(config, spec.config_cls):
        raise TypeError(
            f"decoder {name!r} expects a {spec.config_cls.__name__}, "
            f"got {type(config).__name__}"
        )
    return spec, config


def get_decoder(
    name: str,
    graph: DecodingGraph,
    config: DecoderConfig | None = None,
):
    """Build the decoder registered under ``name`` for ``graph``.

    ``config`` must be an instance of the entry's config class (the entry's
    default configuration is used when omitted).

    >>> from repro.graphs import circuit_level_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.01))
    >>> get_decoder("union-find", graph).name
    'union-find'
    """
    spec, config = resolve_config(name, config)
    return spec.factory(graph, config)


# ---------------------------------------------------------------------------
# built-in backends (factories import lazily to avoid circular imports)
# ---------------------------------------------------------------------------
def _build_micro_blossom(graph: DecodingGraph, config: DecoderConfig):
    from ..core.decoder import MicroBlossomDecoder

    return MicroBlossomDecoder(graph, **config.to_kwargs())


def _build_parity_blossom(graph: DecodingGraph, config: DecoderConfig):
    from ..parity.decoder import ParityBlossomDecoder

    return ParityBlossomDecoder(graph, **config.to_kwargs())


def _build_union_find(graph: DecodingGraph, config: DecoderConfig):
    from ..unionfind.decoder import UnionFindDecoder

    return UnionFindDecoder(graph, **config.to_kwargs())


def _build_reference(graph: DecodingGraph, config: DecoderConfig):
    from ..matching.reference import ReferenceDecoder

    return ReferenceDecoder(graph, **config.to_kwargs())


register_decoder(
    "micro-blossom",
    functools.partial(erasure_aware, _build_micro_blossom),
    MicroBlossomConfig,
    "Micro Blossom heterogeneous decoder with round-wise fusion (stream mode)",
    capabilities=DecoderCapabilities(native_streaming=True, exact=True),
)
register_decoder(
    "micro-blossom-batch",
    functools.partial(erasure_aware, _build_micro_blossom),
    MicroBlossomConfig,
    "Micro Blossom decoding all measurement rounds at once (batch mode)",
    default_config=MicroBlossomConfig(stream=False),
    # Deliberately not marked native_streaming: this entry exists to measure
    # the batch baseline, so the stream factory replays it through the
    # SlidingWindowAdapter instead of fusing rounds.
    capabilities=DecoderCapabilities(exact=True),
)
register_decoder(
    "parity-blossom",
    functools.partial(erasure_aware, _build_parity_blossom),
    ParityBlossomConfig,
    "Parity Blossom software MWPM baseline (sequential CPU phases)",
    capabilities=DecoderCapabilities(exact=True),
)
register_decoder(
    "union-find",
    functools.partial(erasure_aware, _build_union_find),
    UnionFindConfig,
    "Weighted-growth Union-Find decoder (Helios-class approximation)",
)
register_decoder(
    "reference",
    functools.partial(erasure_aware, _build_reference),
    ReferenceConfig,
    "Reference exact MWPM decoder on the dense syndrome graph",
    capabilities=DecoderCapabilities(exact=True),
)


def _build_lut(graph: DecodingGraph, config: DecoderConfig, fallback: str):
    from ..lut.decoder import LUTDecoder

    return LUTDecoder(graph, fallback, **config.to_kwargs())


def _register_lut_family() -> None:
    """Register ``lut+<fallback>`` for every base backend (see :mod:`repro.lut`).

    The wrapper mirrors the fallback's capability flags — a LUT miss is the
    fallback path unchanged, so ``lut+X`` streams natively and is exact
    exactly when ``X`` is.  It has no timing model: the published latency
    models are keyed by base decoder name (paper hardware), not by the
    software lookup layer.
    """
    for base in tuple(_REGISTRY):
        caps = _REGISTRY[base].capabilities
        register_decoder(
            f"lut+{base}",
            # functools.partial (not a closure) keeps the factory picklable
            # for the evaluation engine's process-pool workers.
            functools.partial(_build_lut, fallback=base),
            LUTConfig,
            f"Table-lookup pre-decoder over '{base}' "
            "(exact LUT hits, bit-identical fallback on misses)",
            capabilities=DecoderCapabilities(
                native_streaming=caps.native_streaming,
                exact=caps.exact,
                lut_predecode=True,
            ),
        )


_register_lut_family()
