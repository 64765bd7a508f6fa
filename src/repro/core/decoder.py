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

In stream mode each round is fused by one internal push step that records no
counter delta of its own: :meth:`MicroBlossomDecoder.push_round` computes the
round's delta at the public boundary, from the snapshot the step took, while
``decode_detailed`` drives the same step, snapshots only the final round (the
one its ``post_final_round_counters`` are measured from) and reads the
outcome's totals.  A round costs the host only what it adds: an empty round
after the first defect keeps the node Covers and the pre-matches it finds, so
its one ``find obstacle`` (answered ``Finished`` unless the new round freed a
node) rebuilds neither; the counters are still charged as a full rebuild
would charge them (see :mod:`repro.core.dual`).

The decoder keeps its accelerator model and primal module alive across
decodes (``reuse_engines=True``, the default): each shot snapshots the
counters, ``reset()``s both engines and reports per-shot counter deltas, so
the results and statistics are identical to a freshly-built decoder while the
per-shot construction cost disappears from the Monte-Carlo hot path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..api.outcome import DecodeOutcome, counter_delta
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import (
    BOUNDARY,
    MatchingResult,
    Syndrome,
    correction_edges,
    matching_weight,
)
from .accelerator import MicroBlossomAccelerator, PreMatch
from .dual import DEFAULT_DUAL_SCALE
from .interface import IntegralityError
from .primal import PrimalModule

#: Maximum internal dual-scale doublings attempted before giving up.
MAX_SCALE_RETRIES = 4


@dataclass
class MicroBlossomOutcome(DecodeOutcome):
    """Full record of one Micro Blossom decoding run."""

    post_final_round_counters: Counter = field(default_factory=Counter)
    hardware_report: dict = field(default_factory=dict)
    prematched_pairs: int = 0
    stream: bool = False
    prematching: bool = True


@dataclass
class _StreamState:
    """State of one in-flight incremental stream (``begin`` … ``finalize``)."""

    accelerator: MicroBlossomAccelerator
    primal: PrimalModule
    baseline: dict
    scale: int
    #: Defects of every round pushed so far (replayed on a scale retry).
    rounds: list[tuple[int, ...]] = field(default_factory=list)
    #: Absolute counter snapshot taken at the start of the latest round —
    #: the work recorded after it is what remains once the final round
    #: arrived (paper §8.2).
    last_snapshot: dict = field(default_factory=dict)
    #: Snapshot every round's start (``push_round`` reports each round's
    #: delta); otherwise only the final round's, the one ``finalize`` reads.
    every_round: bool = True
    retries: int = 0
    any_defects: bool = False


def _snapshot(accelerator: MicroBlossomAccelerator, primal: PrimalModule) -> dict:
    """Absolute counters of both engines as one dict (their keys are disjoint)."""
    return {**accelerator.counters, **primal.counters}


class MicroBlossomDecoder:
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
        reuse_engines: bool = True,
    ) -> None:
        self.graph = graph
        self.enable_prematching = enable_prematching
        self.stream = stream
        self.scale = scale
        self.reuse_engines = reuse_engines
        self._rounds = graph.num_layers
        self._engines: dict[int, tuple[MicroBlossomAccelerator, PrimalModule]] = {}
        self._stream_state: _StreamState | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def decode(self, syndrome: Syndrome) -> MatchingResult:
        """Decode a syndrome and return the defect-level matching."""
        return self.decode_detailed(syndrome).result

    def decode_to_correction(self, syndrome: Syndrome) -> set[int]:
        """Decode a syndrome and return the correction edge set."""
        return correction_edges(self.graph, self.decode(syndrome))

    def decode_detailed(self, syndrome: Syndrome) -> MicroBlossomOutcome:
        """Decode a syndrome and return the matching plus all statistics.

        Every decode starts from ``self.scale``; when an
        :class:`IntegralityError` forces a retry at a doubled scale, the
        doubled scale is confined to that retry (and its cached engine) and
        never leaks into subsequent decodes of the same decoder or session.
        In stream mode the syndrome is replayed through the incremental
        round-push protocol, one measurement round at a time.
        """
        if self.stream:
            self.begin(rounds_hint=self.graph.num_layers)
            self._stream_state.every_round = False
            for round_defects in syndrome.defects_by_layer(self.graph):
                self._push(round_defects)
            return self.finalize()
        scale = self.scale
        last_error: IntegralityError | None = None
        for retry in range(MAX_SCALE_RETRIES + 1):
            try:
                outcome = self._decode_once(syndrome, scale)
                outcome.scale_retries = retry
                return outcome
            except IntegralityError as error:
                last_error = error
                scale *= 2
        raise IntegralityError(
            f"decoding failed even at dual scale {scale}: {last_error}"
        )

    def reset(self) -> None:
        """Drop all cached engines; the next decode rebuilds them."""
        self._engines = {}
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
        if graph is not None and graph is not self.graph:
            raise ValueError("streaming decoder was built for a different graph")
        if tuple(erasures):
            raise ValueError(
                "micro-blossom streams on fixed edge weights; heralded "
                "erasures need the erasure-aware registry wrapper "
                "(repro.api.erasure)"
            )
        if rounds_hint is not None and rounds_hint > self.graph.num_layers:
            raise ValueError(
                f"rounds_hint {rounds_hint} exceeds the graph's "
                f"{self.graph.num_layers} measurement rounds"
            )
        accelerator, primal, baseline = self._acquire(self.scale)
        self._stream_state = _StreamState(
            accelerator=accelerator,
            primal=primal,
            baseline=baseline,
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
        return counter_delta(since, _snapshot(state.accelerator, state.primal))

    def _push(self, defects: Iterable[int]) -> dict:
        """Fuse the next round, retrying at doubled scales on
        :class:`IntegralityError`; return the counter snapshot the round's
        work is measured from (the replay's start after a retry)."""
        state = self._stream_state
        if state is None:
            raise RuntimeError("push_round before begin(); open a stream first")
        layer = len(state.rounds)
        if layer >= self._rounds:
            raise ValueError(f"stream already received all {self._rounds} rounds")
        defects = tuple(defects)
        for defect in defects:
            if self.graph.vertices[defect].layer != layer:
                raise ValueError(
                    f"defect {defect} belongs to round "
                    f"{self.graph.vertices[defect].layer}, not round {layer}"
                )
        state.rounds.append(defects)
        try:
            self._stream_step(state, layer, defects)
            return state.last_snapshot
        except IntegralityError as error:
            last_error = error
        while state.retries < MAX_SCALE_RETRIES:
            state.retries += 1
            state.scale *= 2
            try:
                return self._stream_replay(state)
            except IntegralityError as error:
                last_error = error
        raise IntegralityError(
            f"stream decoding failed even at dual scale {state.scale}: {last_error}"
        )

    def finalize(self) -> MicroBlossomOutcome:
        """Close the stream and return the outcome of the whole instance.

        Rounds never pushed keep acting as the fusion boundary, so a stream
        closed early decodes the instance "as seen so far".  The outcome's
        ``post_final_round_counters`` cover everything recorded since the
        final pushed round arrived — the quantity that determines decoding
        latency (paper §8.2).

        Otherwise ``counters`` is exactly ``begin``'s reset plus the pushes'
        deltas (``prematched_defects``, a high-water mark, aside).  The one
        exception is a stream that never loaded a defect: collecting its
        result scans for pre-matches, which builds the Covers once here,
        outside every push, so ``cover_cells_updated`` gains the boundary
        rows' cells (10 at d=5).
        """
        state = self._stream_state
        if state is None:
            raise RuntimeError("finalize before begin(); open a stream first")
        accelerator, primal = state.accelerator, state.primal
        post_final = counter_delta(state.last_snapshot, _snapshot(accelerator, primal))
        defects = tuple(sorted(d for round_defects in state.rounds for d in round_defects))
        prematched = accelerator.prematched_pairs()
        result = self._collect_result(defects, prematched, primal)
        counters = counter_delta(state.baseline, _snapshot(accelerator, primal))
        outcome = MicroBlossomOutcome(
            result=result,
            defect_count=len(defects),
            counters=counters,
            post_final_round_counters=post_final,
            hardware_report=MicroBlossomAccelerator.hardware_report_from(counters),
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

    def _stream_replay(self, state: _StreamState) -> dict:
        """Re-run every pushed round at ``state.scale`` on fresh engines.

        Returns the counter snapshot taken before the first replayed round:
        the push that triggered the retry is charged for all the re-done
        work, since the deltas earlier pushes reported belong to the
        abandoned engine.
        """
        accelerator, primal, baseline = self._acquire(state.scale)
        state.accelerator = accelerator
        state.primal = primal
        state.baseline = baseline
        state.any_defects = False
        since = _snapshot(accelerator, primal)
        for layer, defects in enumerate(state.rounds):
            self._stream_step(state, layer, defects)
        return since

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _acquire(
        self, scale: int
    ) -> tuple[MicroBlossomAccelerator, PrimalModule, dict]:
        """Return an accelerator/primal pair ready for one decode.

        Engines are cached per dual scale.  For a reused pair the returned
        baseline holds the counters accumulated by previous shots (snapshotted
        *before* the reset, so the reset instruction is accounted to the new
        shot exactly as construction-time reset is for a fresh pair).
        """
        if self.reuse_engines:
            cached = self._engines.get(scale)
            if cached is not None:
                accelerator, primal = cached
                baseline = _snapshot(accelerator, primal)
                accelerator.reset()
                primal.reset()
                return accelerator, primal, baseline
        accelerator = MicroBlossomAccelerator(
            self.graph, scale=scale, enable_prematching=self.enable_prematching
        )
        primal = PrimalModule(self.graph, accelerator)
        if self.reuse_engines:
            self._engines[scale] = (accelerator, primal)
        return accelerator, primal, {}

    def _decode_once(self, syndrome: Syndrome, scale: int) -> MicroBlossomOutcome:
        accelerator, primal, baseline = self._acquire(scale)
        accelerator.load(syndrome.defects)
        primal.run()
        post_final = counter_delta(baseline, _snapshot(accelerator, primal))
        prematched = accelerator.prematched_pairs()
        result = self._collect_result(syndrome.defects, prematched, primal)
        counters = counter_delta(baseline, _snapshot(accelerator, primal))
        return MicroBlossomOutcome(
            result=result,
            defect_count=syndrome.defect_count,
            counters=counters,
            post_final_round_counters=post_final,
            hardware_report=MicroBlossomAccelerator.hardware_report_from(counters),
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
