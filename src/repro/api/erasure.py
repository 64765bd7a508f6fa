"""Erasure-aware decoding: heralded erasures as zero-weight graph variants.

A heralded erasure is a *located* error: the hardware flags an edge whose
error happened with probability 1/2, so the edge's log-likelihood weight is
0 and any matching may use it for free.  Decoders themselves stay oblivious —
:func:`erasure_aware` wraps every built-in registry factory and routes each
syndrome to a decoder built on the matching
:meth:`repro.graphs.DecodingGraph.with_erasures` variant:

* graphs whose noise model has no erasure component (or no recorded noise
  model at all) get the raw backend — zero overhead, byte-identical
  behavior to earlier releases;
* on erasure graphs, syndromes with empty ``erasures`` use the base decoder,
  and erased syndromes use a per-erasure-set variant decoder from a small
  LRU (erasure sets repeat heavily at realistic rates — most shots erase
  nothing or one edge).

Streaming: a stream opened with no erasures delegates straight to the (native)
backend; a stream with erasures buffers its rounds and batch-decodes the full
instance on the variant at :meth:`ErasureAwareDecoder.finalize` — deferred
exactly like the growing-window :class:`repro.stream.SlidingWindowAdapter`,
so streamed outcomes stay identical to batch outcomes.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import MatchingResult, Syndrome
from .config import DecoderConfig
from .outcome import DecodeOutcome
from .protocol import check_stream_begin, check_stream_round

#: Variant decoders kept alive per wrapped decoder (LRU).  Erasure patterns
#: at realistic rates are heavily repeated (mostly empty or single-edge), so
#: a small cache captures nearly all reuse without unbounded growth.
VARIANT_CACHE_SIZE = 16


def erasure_aware(
    factory: Callable[[DecodingGraph, DecoderConfig], object],
    graph: DecodingGraph,
    config: DecoderConfig,
):
    """Registry-factory wrapper adding erasure support to a backend.

    Applied to the built-in factories as ``functools.partial(erasure_aware,
    factory)`` (module-level callables, so registry entries stay picklable
    for process-pool workers).  Returns the raw backend unless the graph's
    recorded noise model actually produces erasures.
    """
    model = graph.noise_model
    if model is None or model.erasure <= 0.0:
        return factory(graph, config)
    return ErasureAwareDecoder(factory, graph, config)


@dataclass
class _BufferedStream:
    """Rounds of an erased stream, held until the deferred finalize decode."""

    erasures: tuple[int, ...]
    rounds: list[tuple[int, ...]] = field(default_factory=list)


class ErasureAwareDecoder:
    """Route syndromes to per-erasure-set variant decoders.

    Satisfies :class:`repro.api.Decoder` (and, when the wrapped backend
    does, :class:`repro.api.StreamingDecoder`); every other attribute
    delegates to the base decoder built on the unerased graph.
    """

    def __init__(
        self,
        factory: Callable[[DecodingGraph, DecoderConfig], object],
        graph: DecodingGraph,
        config: DecoderConfig,
    ) -> None:
        self._factory = factory
        self.graph = graph
        self._config = config
        self._base = factory(graph, config)
        self._variants: OrderedDict[tuple[int, ...], object] = OrderedDict()
        self._buffered: _BufferedStream | None = None

    @property
    def name(self) -> str:
        return self._base.name

    def _decoder_for(self, erasures: tuple[int, ...]):
        """The decoder serving one erasure set (LRU-cached variants)."""
        if not erasures:
            return self._base
        cached = self._variants.get(erasures)
        if cached is None:
            cached = self._factory(self.graph.with_erasures(erasures), self._config)
            self._variants[erasures] = cached
            while len(self._variants) > VARIANT_CACHE_SIZE:
                self._variants.popitem(last=False)
        else:
            self._variants.move_to_end(erasures)
        return cached

    # ------------------------------------------------------------------
    # Decoder protocol
    # ------------------------------------------------------------------
    def decode(self, syndrome: Syndrome) -> MatchingResult:
        return self._decoder_for(syndrome.erasures).decode(syndrome)

    def decode_to_correction(self, syndrome: Syndrome) -> set[int]:
        return self._decoder_for(syndrome.erasures).decode_to_correction(syndrome)

    def decode_detailed(self, syndrome: Syndrome) -> DecodeOutcome:
        return self._decoder_for(syndrome.erasures).decode_detailed(syndrome)

    # ------------------------------------------------------------------
    # StreamingDecoder protocol (meaningful when the base streams natively)
    # ------------------------------------------------------------------
    def begin(
        self,
        graph: DecodingGraph | None = None,
        rounds_hint: int | None = None,
        erasures: Iterable[int] = (),
    ) -> None:
        """Open a stream; erased streams buffer for a deferred batch decode."""
        check_stream_begin(self.graph, graph, rounds_hint)
        erasures = tuple(sorted(set(int(e) for e in erasures)))
        if not erasures:
            self._buffered = None
            self._base.begin(graph, rounds_hint)
            return
        self._buffered = _BufferedStream(erasures=erasures)

    def push_round(self, defects: Iterable[int]) -> Counter:
        stream = self._buffered
        if stream is None:
            return self._base.push_round(defects)
        defects = check_stream_round(self.graph, len(stream.rounds), defects)
        stream.rounds.append(defects)
        # All decoding work is deferred to finalize (the variant graph is
        # only worth building once the full instance is visible), so pushes
        # are free — mirroring the growing-window adapter's accounting.
        return Counter()

    def finalize(self) -> DecodeOutcome:
        stream = self._buffered
        if stream is None:
            return self._base.finalize()
        self._buffered = None
        defects = tuple(sorted(d for rounds in stream.rounds for d in rounds))
        return self._decoder_for(stream.erasures).decode_detailed(
            Syndrome(defects=defects, erasures=stream.erasures)
        )

    def __getattr__(self, item: str):
        base = self.__dict__.get("_base")
        if base is None:  # during __init__, before _base exists
            raise AttributeError(item)
        return getattr(base, item)
