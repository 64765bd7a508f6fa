"""Continuous-stream evaluation engine (reaction latency and backlog).

The :class:`StreamEngine` evaluates decoders under the paper's *online*
workload: measurement rounds arrive every ``round_interval_seconds`` (1 µs on
superconducting hardware, :data:`repro.latency.MEASUREMENT_ROUND_SECONDS`)
and are pushed into a :class:`repro.api.StreamingDecoder` as they arrive.
For each shot the engine records

* **reaction latency** — the modelled time from the arrival of the *final*
  measurement round until the decode completes.  Work is converted to seconds
  by the backend's published timing model applied to the operation counters
  recorded *after* the final round arrived (last ``push_round`` plus
  ``finalize``), the same §8.2 convention as Figure 10b — plus any backlog the
  earlier rounds left behind;
* **backlog** — how far decoding lags behind the measurement cadence while
  the stream is in flight: each round's push work is scheduled no earlier
  than its arrival and no earlier than the previous round's completion, and
  the worst spill past the next arrival is the shot's backlog.  A backlog of
  zero means the decoder keeps up with the 1 µs round interval;
* **logical errors** — streamed corrections are compared against the ground
  truth exactly like the batch Monte-Carlo engine.

**Sharding / seeding contract.**  Mirrors
:class:`~repro.evaluation.engine.MonteCarloEngine`: a run of ``max_shots``
shots splits into fixed-size shards, shard ``i`` — one independent
*logical-qubit stream* with its own decoder state — draws its syndromes from
a sampler seeded ``SeedSequence([seed, i])`` and decodes them back to back.
Shards are merged strictly in shard order, so results are a pure function of
``(seed, shard_size, max_shots)``; ``workers`` only changes wall-clock time.
Syndromes are emitted round-by-round
(:meth:`~repro.graphs.syndrome.SyndromeSampler.sample_rounds`), bit-identical
to batch sampling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..api.batch import WorkerPool
from ..api.config import DecoderConfig
from ..api.registry import resolve_config
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import SyndromeSampler
from ..latency.model import MEASUREMENT_ROUND_SECONDS
from ..stream import get_streaming_decoder
from ..stream.adapter import check_window
from .engine import (
    DEFAULT_SHARD_SIZE,
    LatencyHistogram,
    MonteCarloEngine,
    RateEstimate,
    StreamLatencyFn,
    plan_run,
    stream_latency_fn,
)


@dataclass(frozen=True)
class StreamShardResult:
    """Merged statistics of one decoded logical-qubit stream (= one shard)."""

    index: int
    shots: int
    errors: int
    defects: int
    rounds: int
    reaction: LatencyHistogram
    max_backlog_seconds: float
    counters: Counter


@dataclass
class StreamEngineResult(RateEstimate):
    """Merged outcome of a :class:`StreamEngine` run."""

    shots: int
    errors: int
    shards: list[StreamShardResult] = field(default_factory=list)
    reaction: LatencyHistogram = field(default_factory=LatencyHistogram)
    max_backlog_seconds: float = 0.0
    defects: int = 0
    rounds: int = 0
    counters: Counter = field(default_factory=Counter)

    @property
    def streams(self) -> int:
        """Concurrent logical-qubit streams the run drove (= shards)."""
        return len(self.shards)


def reaction_counters(earlier: Counter, total: Counter) -> Counter:
    """Post-final-round work: the outcome total minus the earlier pushes.

    Clamped at zero per key: after a mid-stream scale retry the push that
    triggered it re-reports work of rounds whose original deltas belong to an
    abandoned engine, so the earlier-push sum can exceed the outcome total —
    the residue must never price negative seconds of work.
    """
    residue: Counter = Counter()
    for key, value in total.items():
        difference = value - earlier.get(key, 0)
        if difference > 0:
            residue[key] = difference
    return residue


# ---------------------------------------------------------------------------
# the per-stream decode loop (run by the worker pool, inline or per process)
# ---------------------------------------------------------------------------
def _run_stream_shard(
    graph: DecodingGraph,
    session,
    latency_fn: StreamLatencyFn,
    index: int,
    shots: int,
    seed: int,
    round_interval: float,
) -> StreamShardResult:
    sampler = SyndromeSampler(graph, seed=MonteCarloEngine.shard_seed(seed, index))
    reaction = LatencyHistogram()
    errors = 0
    defects = 0
    rounds_total = 0
    max_backlog = 0.0
    counters: Counter = Counter()
    for _ in range(shots):
        syndrome, rounds = sampler.sample_rounds()
        if syndrome.logical_flip is None:
            raise ValueError("sampled syndrome lacks ground truth")
        session.begin(graph, rounds_hint=len(rounds), erasures=syndrome.erasures)
        pushes = [session.push_round(round_defects) for round_defects in rounds]
        outcome = session.finalize()
        counters.update(outcome.counters)
        defects += syndrome.defect_count
        rounds_total += len(rounds)
        # Everything not spent on rounds before the last one is reaction work:
        # the final push plus finalize.
        earlier: Counter = Counter()
        for push in pushes[:-1]:
            earlier.update(push)
        residue = reaction_counters(earlier, outcome.counters)
        # Schedule the earlier pushes against the measurement cadence.
        finish = 0.0
        for index_r, push in enumerate(pushes[:-1]):
            start = max(index_r * round_interval, finish)
            finish = start + latency_fn(push)
            max_backlog = max(max_backlog, finish - (index_r + 1) * round_interval)
        last_arrival = (len(rounds) - 1) * round_interval
        completion = max(last_arrival, finish) + latency_fn(residue)
        reaction.add(completion - last_arrival)
        correction = outcome.correction_edges(graph)
        if graph.crosses_observable(correction) != syndrome.logical_flip:
            errors += 1
    return StreamShardResult(
        index=index,
        shots=shots,
        errors=errors,
        defects=defects,
        rounds=rounds_total,
        reaction=reaction,
        max_backlog_seconds=max(0.0, max_backlog),
        counters=counters,
    )


def _stream_runner(graph, name, config, window, commit_depth, round_interval):
    """Pool builder: one streaming session per process, reused for every
    ``(index, shots, seed)`` stream the process decodes."""
    session = get_streaming_decoder(name, graph, config, window=window, commit_depth=commit_depth)
    latency_fn = stream_latency_fn(name, graph)

    def run(task: tuple) -> StreamShardResult:
        index, shots, seed = task
        return _run_stream_shard(graph, session, latency_fn, index, shots, seed, round_interval)

    return run


class StreamEngine:
    """Sharded continuous-stream estimator of reaction latency and accuracy.

    ``decoder`` must be a registry name whose backend has a published timing
    model (see :func:`stream_latency_fn`).  ``window`` / ``commit_depth``
    configure the :class:`repro.stream.SlidingWindowAdapter` for backends
    without native streaming; a finite window also forces the adapter for
    native backends, enabling window-vs-fusion comparisons on Micro Blossom
    itself.  Window settings, the config type and the timing model are all
    checked here, so a bad argument fails the same way at any ``workers``.

    >>> from repro.graphs import circuit_level_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.02))
    >>> result = StreamEngine(graph, "micro-blossom", shard_size=8).run(20, seed=1)
    >>> [(shard.index, shard.shots) for shard in result.shards], result.reaction.count
    ([(0, 8), (1, 8), (2, 4)], 20)
    """

    def __init__(
        self,
        graph: DecodingGraph,
        decoder: str = "micro-blossom",
        config: DecoderConfig | None = None,
        *,
        window: int | None = None,
        commit_depth: int | None = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        workers: int = 1,
        round_interval_seconds: float = MEASUREMENT_ROUND_SECONDS,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if round_interval_seconds <= 0:
            raise ValueError("round_interval_seconds must be positive")
        resolve_config(decoder, config)  # fail fast on bad names/configs
        check_window(window, commit_depth)
        # A missing timing model fails here too, not in a worker.
        stream_latency_fn(decoder, graph)
        self.graph = graph
        self.decoder_name = decoder
        self.config = config
        self.window = window
        self.commit_depth = commit_depth
        self.shard_size = shard_size
        self.workers = workers
        self.round_interval_seconds = round_interval_seconds

    def run(self, max_shots: int, seed: int | None = 0) -> StreamEngineResult:
        """Stream-decode ``max_shots`` shots across seed-stable shards.

        Every shard is one independent logical-qubit stream; ``seed = None``
        draws a fresh base seed from OS entropy (not reproducible).
        """
        plan, seed = plan_run(max_shots, self.shard_size, seed)
        result = StreamEngineResult(shots=0, errors=0)
        with WorkerPool(
            min(self.workers, len(plan)),
            _stream_runner,
            self.graph,
            self.decoder_name,
            self.config,
            self.window,
            self.commit_depth,
            self.round_interval_seconds,
        ) as pool:
            shards = pool.map([(index, shots, seed) for index, shots in enumerate(plan)])
        for shard in shards:  # merged strictly in shard order
            result.shards.append(shard)
            result.shots += shard.shots
            result.errors += shard.errors
            result.defects += shard.defects
            result.rounds += shard.rounds
            result.counters.update(shard.counters)
            result.reaction.merge(shard.reaction)
            result.max_backlog_seconds = max(
                result.max_backlog_seconds, shard.max_backlog_seconds
            )
        return result
