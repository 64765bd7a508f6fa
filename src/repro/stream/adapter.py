"""Sliding-window adapter: lift any batch decoder onto the streaming protocol.

The adapter implements :class:`repro.api.StreamingDecoder` on top of a plain
batch :class:`repro.api.Decoder`, which opens the stream workload to every
backend of the registry (union-find, parity-blossom, the reference MWPM
decoder, and the batch-mode Micro Blossom baseline):

* **Growing window (``window=None``, the default).**  Rounds are buffered as
  they arrive and the whole instance is decoded once at :meth:`finalize`.
  The outcome is *exactly* the backend's batch outcome — matching weight and
  correction included — which is the mode the streamed-equals-batch
  conformance grid pins for every backend.  All decoding work lands after the
  final round, so the reaction latency measured by
  :class:`repro.evaluation.StreamEngine` is the batch latency: the baseline
  that round-wise fusion (native streaming) beats.

* **Finite window (``window=W``, ``commit_depth=C``).**  The classic
  overlapping-window scheme: whenever more than ``W`` rounds are pending, the
  backend decodes everything not yet committed, and decisions older than
  ``C`` rounds behind the window base become final — pairs whose defects all
  lie in committed rounds are frozen and never re-examined; defects matched
  beyond the commit horizon stay pending and are re-decoded in the next
  window.  Per-push work is then bounded by the window contents instead of
  the full history, at the price of a (slightly) sub-optimal total matching —
  the combined result is always a valid perfect matching, but its weight may
  exceed the global optimum.

Every :meth:`push_round` returns the operation counters the round actually
cost (plus the synthetic ``stream_defects_decoded`` count consumed by the
per-defect timing models), so the engine can account backlog build-up round
by round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..api.outcome import DecodeOutcome
from ..api.protocol import Decoder, check_stream_begin, check_stream_round
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import (
    BOUNDARY,
    MatchingResult,
    Syndrome,
    matching_from_correction,
    matching_weight,
)

#: Synthetic counter key: defects the backend (re-)decoded during one push or
#: finalize.  The per-defect timing models (Parity Blossom, Helios) read it.
DEFECTS_DECODED = "stream_defects_decoded"


@dataclass
class StreamOutcome(DecodeOutcome):
    """Outcome of a completed stream through :class:`SlidingWindowAdapter`."""

    #: Measurement rounds pushed through the stream.
    rounds: int = 0
    #: Defect pairs frozen by window commits before :meth:`finalize`.
    committed_pairs: int = 0
    window: int | None = None
    commit_depth: int | None = None
    #: Mirrors :class:`repro.core.decoder.MicroBlossomOutcome`'s flag so the
    #: timing models can recognise streamed outcomes generically.
    stream: bool = True


@dataclass
class _AdapterState:
    """Per-stream bookkeeping between ``begin`` and ``finalize``."""

    rounds: list[tuple[int, ...]] = field(default_factory=list)
    #: Heralded erased edges of this stream's shot (attached to every
    #: syndrome handed to the wrapped decoder).
    erasures: tuple[int, ...] = ()
    #: Defects not yet frozen by a window commit.
    pending: set[int] = field(default_factory=set)
    #: First round whose decisions are not yet final.
    base: int = 0
    committed_pairs: list[tuple[int, int]] = field(default_factory=list)
    committed_boundaries: dict[int, int] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)


def check_window(window: int | None, commit_depth: int | None) -> int | None:
    """Validate a sliding-window setting; return its commit depth.

    ``window=None`` is unbounded and takes no commit depth; a finite window
    commits ``max(1, window // 2)`` rounds per slide unless told otherwise.

    >>> check_window(4, None)
    2
    >>> check_window(None, 2)
    Traceback (most recent call last):
        ...
    ValueError: commit_depth requires a finite window
    """
    if window is None:
        if commit_depth is not None:
            raise ValueError("commit_depth requires a finite window")
        return None
    if window < 1:
        raise ValueError("window must be >= 1 (or None for unbounded)")
    if commit_depth is None:
        commit_depth = max(1, window // 2)
    if not 1 <= commit_depth <= window:
        raise ValueError("commit_depth must satisfy 1 <= commit_depth <= window")
    return commit_depth


class SlidingWindowAdapter:
    """Make a batch :class:`~repro.api.protocol.Decoder` streamable.

    >>> from repro.api import get_decoder
    >>> from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.02))
    >>> adapter = SlidingWindowAdapter(get_decoder("union-find", graph))
    >>> syndrome, rounds = SyndromeSampler(graph, seed=3).sample_rounds()
    >>> adapter.begin(graph)
    >>> costs = [adapter.push_round(r) for r in rounds]
    >>> adapter.finalize().defect_count == syndrome.defect_count
    True
    """

    def __init__(
        self,
        decoder: Decoder,
        window: int | None = None,
        commit_depth: int | None = None,
    ) -> None:
        self.commit_depth = check_window(window, commit_depth)
        self.decoder = decoder
        self.graph: DecodingGraph = decoder.graph
        self.window = window
        self._state: _AdapterState | None = None

    @property
    def name(self) -> str:
        return f"{self.decoder.name}+window"

    # ------------------------------------------------------------------
    # StreamingDecoder protocol
    # ------------------------------------------------------------------
    def begin(
        self,
        graph: DecodingGraph | None = None,
        rounds_hint: int | None = None,
        erasures: Iterable[int] = (),
    ) -> None:
        """Open a new stream; any stream still in flight is discarded.

        ``erasures`` (the shot's heralded erased edges, known up front) is
        attached to every syndrome handed to the wrapped decoder, which must
        be erasure-aware to honor it (the registry's built-in factories are;
        see :mod:`repro.api.erasure`).
        """
        check_stream_begin(self.graph, graph, rounds_hint)
        self._state = _AdapterState(
            erasures=tuple(sorted(set(int(e) for e in erasures)))
        )

    def push_round(self, defects: Iterable[int]) -> Counter:
        """Buffer the next round; decode and commit once the window fills."""
        state = self._state
        if state is None:
            raise RuntimeError("push_round before begin(); open a stream first")
        layer = len(state.rounds)
        defects = check_stream_round(self.graph, layer, defects)
        state.rounds.append(defects)
        state.pending.update(defects)
        work: Counter = Counter()
        if self.window is not None:
            while layer - state.base + 1 > self.window:
                work.update(self._slide(state))
        return work

    def finalize(self) -> DecodeOutcome:
        """Decode the tail of the stream and assemble the full outcome."""
        state = self._state
        if state is None:
            raise RuntimeError("finalize before begin(); open a stream first")
        self._state = None
        all_defects = tuple(
            sorted(d for round_defects in state.rounds for d in round_defects)
        )
        outcome = StreamOutcome(
            defect_count=len(all_defects),
            rounds=len(state.rounds),
            committed_pairs=len(state.committed_pairs),
            window=self.window,
            commit_depth=self.commit_depth,
        )
        if not all_defects:
            # Zero-defect fast path: nothing was ever decoded.
            outcome.result = MatchingResult()
            outcome.correction = set()
            outcome.counters = state.counters
            return outcome
        if not state.committed_pairs:
            # No pair was ever frozen, so every defect is still pending and
            # the stream reduces to one batch decode of the full instance —
            # outcome (weight and correction) identical to the backend's own
            # batch decode, even if window decodes ran along the way.
            backend = self.decoder.decode_detailed(
                Syndrome(defects=all_defects, erasures=state.erasures)
            )
            outcome.result = backend.result
            outcome.correction = backend.correction
            state.counters.update(backend.counters)
            state.counters[DEFECTS_DECODED] += len(all_defects)
            outcome.counters = state.counters
            return outcome
        pairs = list(state.committed_pairs)
        boundaries = dict(state.committed_boundaries)
        if state.pending:
            tail, _ = self._decode_pending(state)
            pairs.extend(tail.pairs)
            boundaries.update(tail.boundary_vertices)
        result = MatchingResult(pairs=pairs, boundary_vertices=boundaries)
        # Weight on the erased-variant graph when the shot carried heralded
        # erasures — consistent with the zero-weight edges the wrapped
        # decoder matched over.
        result.weight = matching_weight(
            self.graph.with_erasures(state.erasures), result
        )
        result.validate_perfect(all_defects)
        outcome.result = result
        outcome.committed_pairs = len(state.committed_pairs)
        outcome.counters = state.counters
        return outcome

    # ------------------------------------------------------------------
    # windowing internals
    # ------------------------------------------------------------------
    def _decode_pending(self, state: _AdapterState) -> tuple[MatchingResult, Counter]:
        """Batch-decode every pending defect; returns (matching, work)."""
        visible = tuple(sorted(state.pending))
        backend = self.decoder.decode_detailed(
            Syndrome(defects=visible, erasures=state.erasures)
        )
        if backend.result is not None:
            result = backend.result
        else:
            result = matching_from_correction(self.graph, visible, backend.correction)
        work = Counter(backend.counters)
        work[DEFECTS_DECODED] += len(visible)
        state.counters.update(work)
        return result, work

    def _slide(self, state: _AdapterState) -> Counter:
        """Decode the pending defects and freeze decisions behind the horizon.

        An empty pending set just advances the window base — no decode runs,
        no work is charged to the push.
        """
        horizon = state.base + self.commit_depth
        work: Counter = Counter()
        if state.pending:
            result, work = self._decode_pending(state)
            vertices = self.graph.vertices

            def layer_of(vertex: int) -> int:
                return vertices[vertex].layer

            for u, v in result.pairs:
                if layer_of(u) >= horizon:
                    continue
                if v == BOUNDARY:
                    state.committed_pairs.append((u, BOUNDARY))
                    boundary = result.boundary_vertices.get(u)
                    if boundary is not None:
                        state.committed_boundaries[u] = boundary
                    state.pending.discard(u)
                elif layer_of(v) < horizon:
                    state.committed_pairs.append((u, v))
                    state.pending.discard(u)
                    state.pending.discard(v)
        state.base = horizon
        return work
