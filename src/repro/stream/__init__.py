"""First-class streaming decode subsystem (paper §6: round-wise fusion).

This package turns decoding into an *online* problem: measurement rounds are
pushed into a :class:`repro.api.StreamingDecoder` one at a time
(``begin`` → ``push_round`` → ``finalize``) instead of handing the decoder a
fully-materialised syndrome.  Two implementations exist:

* backends whose registry entry advertises
  :attr:`~repro.api.DecoderCapabilities.native_streaming` (Micro Blossom)
  fuse each round into the running solution so only constant work remains
  when the final round arrives;
* every other backend is lifted onto the protocol by
  :class:`SlidingWindowAdapter`, with a configurable window / commit depth.

:func:`get_streaming_decoder` is the single constructor: it consults the
registry's capability flags and returns whichever implementation applies.
The continuous-stream evaluation harness lives in
:class:`repro.evaluation.StreamEngine`; the protocol itself is documented in
``docs/streaming.md``.
"""

from __future__ import annotations

from ..api.config import DecoderConfig
from ..api.protocol import StreamingDecoder
from ..api.registry import decoder_spec, get_decoder
from ..graphs.decoding_graph import DecodingGraph
from .adapter import DEFECTS_DECODED, SlidingWindowAdapter, StreamOutcome, check_window


def get_streaming_decoder(
    name: str,
    graph: DecodingGraph,
    config: DecoderConfig | None = None,
    *,
    window: int | None = None,
    commit_depth: int | None = None,
) -> StreamingDecoder:
    """Build a streaming decoder for a registered backend.

    Backends flagged ``native_streaming`` in the registry are returned
    directly (they implement the protocol themselves); all others are wrapped
    in a :class:`SlidingWindowAdapter`.  Passing a finite ``window`` forces
    the adapter even for native backends, so the overlapping-window scheme
    can be compared against true round-wise fusion on the same backend.

    >>> from repro.graphs import circuit_level_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.01))
    >>> type(get_streaming_decoder("micro-blossom", graph)).__name__  # native
    'MicroBlossomDecoder'
    >>> type(get_streaming_decoder("union-find", graph)).__name__     # adapted
    'SlidingWindowAdapter'
    """
    check_window(window, commit_depth)
    decoder = get_decoder(name, graph, config)
    if decoder_spec(name).capabilities.native_streaming and window is None:
        return decoder
    return SlidingWindowAdapter(decoder, window=window, commit_depth=commit_depth)


__all__ = [
    "DEFECTS_DECODED",
    "SlidingWindowAdapter",
    "StreamOutcome",
    "StreamingDecoder",
    "get_streaming_decoder",
]
