"""The typed decoder contract implemented by every backend.

The :class:`Decoder` protocol is the single surface the CLI, the Monte-Carlo
harness, the batch API and the examples program against.  All four built-in
backends (``micro-blossom``, ``parity-blossom``, ``union-find``,
``reference``) satisfy it structurally — no inheritance required — and
user-registered decoders only need to provide the same three methods.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Protocol, runtime_checkable

from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import MatchingResult, Syndrome
from .outcome import DecodeOutcome


@runtime_checkable
class Decoder(Protocol):
    """What every decoder of this package exposes.

    ``decode`` returns the defect-level matching, ``decode_to_correction``
    the physical correction (decoding-graph edge indices), and
    ``decode_detailed`` the full :class:`~repro.api.outcome.DecodeOutcome`
    with the operation counts consumed by the latency models.

    The protocol is ``runtime_checkable``:

    >>> from repro.api import get_decoder
    >>> from repro.graphs import circuit_level_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.01))
    >>> isinstance(get_decoder("union-find", graph), Decoder)
    True
    """

    #: Stable registry-style identifier of the backend.
    name: str
    #: The decoding graph the decoder was built for.
    graph: DecodingGraph

    def decode(self, syndrome: Syndrome) -> MatchingResult:
        """Return the defect-level matching for one syndrome."""
        ...

    def decode_to_correction(self, syndrome: Syndrome) -> set[int]:
        """Return the correction as a set of decoding-graph edge indices."""
        ...

    def decode_detailed(self, syndrome: Syndrome) -> DecodeOutcome:
        """Return the matching/correction plus all recorded statistics."""
        ...


@runtime_checkable
class StreamingDecoder(Protocol):
    """The incremental round-push protocol (paper §6: round-wise fusion).

    A streaming decoder consumes one measurement round at a time instead of a
    fully-materialised :class:`~repro.graphs.syndrome.Syndrome`:

    1. :meth:`begin` opens a stream (``rounds_hint`` lets backends pre-size
       state; passing a ``graph`` asserts it is the one the decoder was built
       for);
    2. :meth:`push_round` hands over the defects of the next measurement
       round — the round is decoded *as it arrives*, and the returned
       operation-count delta is what the round cost (the
       :class:`~repro.evaluation.StreamEngine` feeds it to the timing models
       for backlog accounting);
    3. :meth:`finalize` closes the stream and returns the
       :class:`~repro.api.outcome.DecodeOutcome` of the whole instance, with
       a matching weight and correction identical to batch-decoding the same
       syndrome on the same backend.

    ``micro-blossom`` implements the protocol natively (constant work left
    after the final round); every batch :class:`Decoder` can be lifted onto it
    with :class:`repro.stream.SlidingWindowAdapter`.  The registry records
    which backends stream natively
    (:attr:`~repro.api.registry.DecoderCapabilities.native_streaming`).
    """

    #: Stable registry-style identifier of the backend.
    name: str
    #: The decoding graph the decoder streams over.
    graph: DecodingGraph

    def begin(
        self,
        graph: DecodingGraph | None = None,
        rounds_hint: int | None = None,
        erasures: Iterable[int] = (),
    ) -> None:
        """Open a new stream (discarding any stream still in flight).

        ``erasures`` carries the shot's heralded erased edges (known when
        the stream opens: erasure heralds arrive with the measurement
        hardware's leakage flags, before decoding starts).  Backends without
        erasure support raise ``ValueError`` on a non-empty set; the
        erasure-aware registry wrapper (:mod:`repro.api.erasure`) and the
        :class:`repro.stream.SlidingWindowAdapter` honor it.
        """
        ...

    def push_round(self, defects: Iterable[int]) -> Counter:
        """Feed the defects of the next measurement round; return its cost."""
        ...

    def finalize(self) -> DecodeOutcome:
        """Close the stream and return the outcome of the whole instance."""
        ...


def check_stream_begin(
    graph: DecodingGraph, requested: DecodingGraph | None, rounds_hint: int | None
) -> None:
    """Validate :meth:`StreamingDecoder.begin` arguments for a stream on ``graph``.

    >>> from repro.graphs import circuit_level_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.01))
    >>> check_stream_begin(graph, graph, graph.num_layers + 1)
    Traceback (most recent call last):
    ...
    ValueError: rounds_hint 4 exceeds the graph's 3 measurement rounds
    """
    if requested is not None and requested is not graph:
        raise ValueError("streaming decoder was built for a different graph")
    if rounds_hint is not None and rounds_hint > graph.num_layers:
        raise ValueError(
            f"rounds_hint {rounds_hint} exceeds the graph's "
            f"{graph.num_layers} measurement rounds"
        )


def check_stream_round(graph: DecodingGraph, layer: int, defects: Iterable[int]) -> tuple[int, ...]:
    """Validate the defects pushed as round ``layer``; return them as a tuple.

    Raises ``ValueError`` when the stream already holds every round, or a
    defect is a virtual vertex or belongs to another round.  Call it before
    the round is recorded anywhere, so a rejected push leaves the stream
    as it was.

    >>> from repro.graphs import circuit_level_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.01))
    >>> virtual = next(v for v in graph.vertices_in_layer(0) if graph.is_virtual(v))
    >>> check_stream_round(graph, 0, [virtual])
    Traceback (most recent call last):
    ...
    ValueError: virtual vertex ... cannot be a defect
    """
    if layer >= graph.num_layers:
        raise ValueError(f"stream already received all {graph.num_layers} rounds")
    defects = tuple(defects)
    for defect in defects:
        vertex = graph.vertices[defect]
        if vertex.is_virtual:
            raise ValueError(f"virtual vertex {defect} cannot be a defect")
        if vertex.layer != layer:
            raise ValueError(f"defect {defect} belongs to round {vertex.layer}, not round {layer}")
    return defects
