"""Micro Blossom decoder front-end: CPU + accelerator co-simulation.

``MicroBlossomDecoder`` combines the software primal module with the
behavioural accelerator model and supports the three configurations evaluated
in the paper (Figure 10a):

* ``parallel dual phase`` only — pre-matching and streaming disabled;
* ``+ parallel primal phase`` — pre-matching of isolated Conflicts enabled;
* ``+ round-wise fusion`` — streaming, one measurement round at a time.

Every decode returns a :class:`MicroBlossomOutcome` carrying the matching
itself and all the operation counts needed by the latency model (§8.2):
accelerator instructions, blocking response reads, conflicts escalated to the
CPU, and — for stream decoding — the share of the work that happens after the
final measurement round arrived (which is what determines the decoding
latency).

The engines count one shot: every decode ``reset()``s them, which zeroes
their counters, so an outcome reports their counts as they are.  In stream
mode each round is fused by one internal push step that records no counter
delta of its own: :meth:`MicroBlossomDecoder.push_round` computes the round's
delta at the public boundary, from the snapshot the step took, while
``decode_detailed`` drives the same step, snapshots only the final round (the
one its ``post_final_round_counters`` are measured from) and reads the
outcome's totals.  A round costs the host only what it adds: an empty round
after the first defect keeps the node Covers and the pre-matches it finds, so
its one ``find obstacle`` (answered ``Finished`` unless the new round freed a
node) rebuilds neither; the counters are still charged as a full rebuild
would charge them (see :mod:`repro.core.dual`).

What Micro Blossom shares with Parity Blossom (:mod:`repro.parity`), the
engine cache and the dual-scale retry loop, lives in :class:`BlossomDriver`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..api.outcome import DecodeOutcome
from ..api.protocol import check_stream_begin, check_stream_round
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import (
    BOUNDARY,
    MatchingResult,
    Syndrome,
    correction_edges,
    matching_weight,
)
from .accelerator import MicroBlossomAccelerator, PreMatch
from .dual import DEFAULT_DUAL_SCALE, DualGraphState
from .interface import IntegralityError
from .primal import PrimalModule

#: Maximum internal dual-scale doublings attempted before giving up.
MAX_SCALE_RETRIES = 4


@dataclass
class MicroBlossomOutcome(DecodeOutcome):
    """Full record of one Micro Blossom decoding run."""

    post_final_round_counters: Counter = field(default_factory=Counter)
    prematched_pairs: int = 0
    stream: bool = False
    prematching: bool = True

    @property
    def hardware_report(self) -> dict[str, int]:
        """Bus and instruction statistics of the shot, from ``counters``."""
        return MicroBlossomAccelerator.hardware_report_from(self.counters)


@dataclass
class _StreamState:
    """State of one in-flight incremental stream (``begin`` … ``finalize``)."""

    accelerator: MicroBlossomAccelerator
    primal: PrimalModule
    scale: int
    #: Defects of every round pushed so far (replayed on a scale retry).
    rounds: list[tuple[int, ...]] = field(default_factory=list)
    #: Counter snapshot taken at the start of the latest round — the work
    #: recorded after it is what remains once the final round arrived
    #: (paper §8.2).
    last_snapshot: Counter = field(default_factory=Counter)
    #: Snapshot every round's start (``push_round`` reports each round's
    #: delta); otherwise only the final round's, the one ``finalize`` reads.
    every_round: bool = True
    retries: int = 0
    any_defects: bool = False


def _snapshot(dual: DualGraphState, primal: PrimalModule) -> Counter:
    """Both engines' counts of the shot so far (their keys are disjoint), as
    one new Counter without zero entries."""
    counts = {**dual.counters, **primal.counters}
    return Counter({key: value for key, value in counts.items() if value})


class BlossomDriver:
    """The decoder scaffolding Micro and Parity Blossom share (paper §8.1).

    Both run the same primal module against the same dual engine, so the
    driver owns what surrounds them: one dual engine and primal module per
    dual scale, kept alive across decodes, and the retry that doubles the
    scale when an :class:`IntegralityError` shows it was too coarse.
    Subclasses supply ``_build_engines(scale)`` and
    ``_decode_once(syndrome, scale)``.

    Each decode ``reset()``s the cached engines, which zeroes their counters,
    so its results and statistics equal those of a freshly built decoder:

    >>> from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.02))
    >>> syndrome = next(s for s in SyndromeSampler(graph, seed=1).sample_batch(20) if s.defects)
    >>> decoder = MicroBlossomDecoder(graph)
    >>> _ = decoder.decode_detailed(syndrome)
    >>> decoder.reset()
    >>> again = decoder.decode_detailed(syndrome)
    >>> fresh = MicroBlossomDecoder(graph).decode_detailed(syndrome)
    >>> (again.counters, again.result, again.scale_retries) == (fresh.counters, fresh.result, 0)
    True
    """

    def __init__(self, graph: DecodingGraph, scale: int = DEFAULT_DUAL_SCALE) -> None:
        self.graph = graph
        self.scale = scale
        self._engines: dict[int, tuple[DualGraphState, PrimalModule]] = {}

    def decode(self, syndrome: Syndrome) -> MatchingResult:
        """Decode a syndrome and return the defect-level matching."""
        return self.decode_detailed(syndrome).result

    def decode_to_correction(self, syndrome: Syndrome) -> set[int]:
        """Decode a syndrome and return the correction edge set."""
        return correction_edges(self.graph, self.decode(syndrome))

    def decode_detailed(self, syndrome: Syndrome) -> DecodeOutcome:
        """Decode a syndrome and return the matching plus all statistics.

        Every decode starts from ``self.scale``; a retry's doubled scale is
        confined to that decode (and its cached engines) and never leaks
        into later decodes of the same decoder or session.
        """
        outcome, retries = self._with_scale_retries(
            lambda scale: self._decode_once(syndrome, scale), self.scale
        )
        outcome.scale_retries = retries
        return outcome

    def reset(self) -> None:
        """Drop all cached engines; the next decode rebuilds them."""
        self._engines = {}

    def _acquire(self, scale: int) -> tuple[DualGraphState, PrimalModule]:
        """Return a dual/primal pair ready for one decode: freshly built,
        or the cached pair ``reset()`` (counters included)."""
        cached = self._engines.get(scale)
        if cached is None:
            cached = self._engines[scale] = self._build_engines(scale)
        else:
            for engine in cached:
                engine.reset()
        return cached

    @staticmethod
    def _with_scale_retries(attempt, scale: int, retries: int = 0):
        """Run ``attempt(scale)``, doubling the scale on :class:`IntegralityError`.

        ``retries`` counts doublings already spent; at most
        ``MAX_SCALE_RETRIES`` are allowed in total.  Returns the attempt's
        result and the retry count it succeeded at; the error raised when
        every retry failed names the last scale tried.
        """
        while True:
            try:
                return attempt(scale), retries
            except IntegralityError as error:
                if retries >= MAX_SCALE_RETRIES:
                    raise IntegralityError(
                        f"decoding failed even at dual scale {scale}: {error}"
                    ) from error
                retries += 1
                scale *= 2


class MicroBlossomDecoder(BlossomDriver):
    """Exact MWPM decoder with the Micro Blossom heterogeneous architecture.

    Besides the batch :class:`~repro.api.protocol.Decoder` surface, the class
    natively implements the incremental
    :class:`~repro.api.protocol.StreamingDecoder` protocol
    (``begin`` / ``push_round`` / ``finalize``): each pushed round is loaded
    and fused immediately, so only the residual work remains when the final
    round arrives.  ``decode_detailed`` with ``stream=True`` is simply the
    protocol driven from a fully-materialised syndrome.
    """

    name = "micro-blossom"

    def __init__(
        self,
        graph: DecodingGraph,
        enable_prematching: bool = True,
        stream: bool = False,
        scale: int = DEFAULT_DUAL_SCALE,
    ) -> None:
        super().__init__(graph, scale)
        self.enable_prematching = enable_prematching
        self.stream = stream
        self._rounds = graph.num_layers
        self._stream_state: _StreamState | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def decode_detailed(self, syndrome: Syndrome) -> MicroBlossomOutcome:
        """Decode a syndrome and return the matching plus all statistics.

        In stream mode the syndrome is replayed through the incremental
        round-push protocol, one measurement round at a time.
        """
        if not self.stream:
            return super().decode_detailed(syndrome)
        # Every round is pushed, so no snapshot at the start is ever read.
        self._stream_state = _StreamState(*self._acquire(self.scale), self.scale, every_round=False)
        for round_defects in syndrome.defects_by_layer(self.graph):
            self._push(round_defects)
        return self.finalize()

    def reset(self) -> None:
        """Drop all cached engines and any stream in flight."""
        super().reset()
        self._stream_state = None

    # ------------------------------------------------------------------
    # incremental streaming (StreamingDecoder protocol, paper §6)
    # ------------------------------------------------------------------
    def begin(
        self,
        graph: DecodingGraph | None = None,
        rounds_hint: int | None = None,
        erasures: Iterable[int] = (),
    ) -> None:
        """Open a new stream; any stream still in flight is discarded."""
        check_stream_begin(self.graph, graph, rounds_hint)
        if tuple(erasures):
            raise ValueError(
                "micro-blossom streams on fixed edge weights; heralded "
                "erasures need the erasure-aware registry wrapper "
                "(repro.api.erasure)"
            )
        accelerator, primal = self._acquire(self.scale)
        self._stream_state = _StreamState(
            accelerator=accelerator,
            primal=primal,
            scale=self.scale,
            last_snapshot=_snapshot(accelerator, primal),
        )

    def push_round(self, defects: Iterable[int]) -> Counter:
        """Fuse the next measurement round; return the work it cost.

        The round is decoded *now*: its defects are loaded, matchings to the
        receding fusion boundary are broken, and the primal module runs to
        quiescence.  The returned counter delta is the complete cost of the
        round, computed here from the snapshot the push step took at the
        round's start (``decode_detailed`` drives the same step without it).
        An :class:`IntegralityError` is resolved by replaying every pushed
        round at a doubled internal scale, exactly like the batch path's
        retry — so streamed outcomes match batch outcomes even on
        retry-triggering instances; that push returns the replay's whole
        accumulated delta.
        """
        since = self._push(defects)
        state = self._stream_state
        return _snapshot(state.accelerator, state.primal) - since

    def _push(self, defects: Iterable[int]) -> Counter:
        """Fuse the next round, retrying at doubled scales on
        :class:`IntegralityError`; return the counter snapshot the round's
        work is measured from (the replay's start after a retry)."""
        state = self._stream_state
        if state is None:
            raise RuntimeError("push_round before begin(); open a stream first")
        layer = len(state.rounds)
        defects = check_stream_round(self.graph, layer, defects)
        state.rounds.append(defects)

        def attempt(scale: int) -> Counter:
            # The first attempt fuses the round into the running engines; a
            # doubled scale replays every round on fresh ones.
            if scale == state.scale:
                self._stream_step(state, layer, defects)
                return state.last_snapshot
            state.scale = scale
            return self._stream_replay(state)

        since, state.retries = self._with_scale_retries(attempt, state.scale, state.retries)
        return since

    def finalize(self) -> MicroBlossomOutcome:
        """Close the stream and return the outcome of the whole instance.

        Rounds never pushed keep acting as the fusion boundary, so a stream
        closed early decodes the instance "as seen so far".  The outcome's
        ``post_final_round_counters`` cover everything recorded since the
        final pushed round arrived — the quantity that determines decoding
        latency (paper §8.2).

        Otherwise ``counters``, the engines' counts since ``begin`` reset
        them, is exactly that reset plus the pushes' deltas
        (``prematched_defects``, a high-water mark, aside).  The one
        exception is a stream that never loaded a defect: collecting its
        result scans for pre-matches, which builds the Covers once here,
        outside every push, so ``cover_cells_updated`` gains the boundary
        rows' cells (10 at d=5).
        """
        state = self._stream_state
        if state is None:
            raise RuntimeError("finalize before begin(); open a stream first")
        accelerator, primal = state.accelerator, state.primal
        post_final = _snapshot(accelerator, primal) - state.last_snapshot
        defects = tuple(sorted(d for round_defects in state.rounds for d in round_defects))
        prematched = accelerator.prematched_pairs()
        result = self._collect_result(defects, prematched, primal)
        outcome = MicroBlossomOutcome(
            result=result,
            defect_count=len(defects),
            counters=_snapshot(accelerator, primal),
            post_final_round_counters=post_final,
            prematched_pairs=len(prematched),
            stream=True,
            prematching=self.enable_prematching,
        )
        outcome.scale_retries = state.retries
        self._stream_state = None
        return outcome

    def _stream_step(
        self, state: _StreamState, layer: int, defects: tuple[int, ...]
    ) -> None:
        """Fuse one round into the running solution.

        ``state.last_snapshot`` is set to the counters at the round's start
        (the final round's only, unless ``state.every_round``); the round's
        cost is whatever accrues after it.
        """
        accelerator, primal = state.accelerator, state.primal
        if state.every_round or layer == self._rounds - 1:
            state.last_snapshot = _snapshot(accelerator, primal)
        accelerator.load(defects, layers={layer})
        if defects or state.any_defects:
            # Zero-defect fast path: with no defect loaded so far there is no
            # node to re-examine, so an empty round is just a layer load.
            state.any_defects = state.any_defects or bool(defects)
            primal.break_boundary_matches(accelerator.real_by_layer[layer])
            primal.run()

    def _stream_replay(self, state: _StreamState) -> Counter:
        """Re-run every pushed round at ``state.scale`` on fresh engines.

        Returns the counter snapshot taken before the first replayed round:
        the push that triggered the retry is charged for all the re-done
        work, since the deltas earlier pushes reported belong to the
        abandoned engine.
        """
        accelerator, primal = self._acquire(state.scale)
        state.accelerator = accelerator
        state.primal = primal
        state.any_defects = False
        since = _snapshot(accelerator, primal)
        for layer, defects in enumerate(state.rounds):
            self._stream_step(state, layer, defects)
        return since

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _build_engines(self, scale: int) -> tuple[MicroBlossomAccelerator, PrimalModule]:
        accelerator = MicroBlossomAccelerator(
            self.graph, scale=scale, enable_prematching=self.enable_prematching
        )
        return accelerator, PrimalModule(self.graph, accelerator)

    def _decode_once(self, syndrome: Syndrome, scale: int) -> MicroBlossomOutcome:
        accelerator, primal = self._acquire(scale)
        accelerator.load(syndrome.defects)
        primal.run()
        post_final = _snapshot(accelerator, primal)
        prematched = accelerator.prematched_pairs()
        result = self._collect_result(syndrome.defects, prematched, primal)
        return MicroBlossomOutcome(
            result=result,
            defect_count=syndrome.defect_count,
            counters=_snapshot(accelerator, primal),
            post_final_round_counters=post_final,
            prematched_pairs=len(prematched),
            stream=False,
            prematching=self.enable_prematching,
        )

    def _collect_result(
        self, defects: tuple[int, ...], prematched: list[PreMatch], primal: PrimalModule
    ) -> MatchingResult:
        result = primal.collect_matching()
        for prematch in prematched:
            if prematch.peer_is_boundary:
                result.pairs.append((prematch.defect, BOUNDARY))
                result.boundary_vertices[prematch.defect] = prematch.peer
            else:
                result.pairs.append((prematch.defect, prematch.peer))
        result.weight = matching_weight(self.graph, result)
        result.validate_perfect(defects)
        return result
