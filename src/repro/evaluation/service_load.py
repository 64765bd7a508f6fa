"""Service load evaluation: replay synthetic request traces, measure the tail.

:class:`ServiceLoadEngine` is the service-layer sibling of
:class:`~repro.evaluation.engine.MonteCarloEngine` and
:class:`~repro.evaluation.stream.StreamEngine`: it drives a decode front end
— an in-process :class:`repro.service.DecodeService`, or a
:class:`repro.service.net.NetClient` connected to a network server — with
the seed-stable request trace of a :class:`repro.service.TraceSpec` and
reports what a capacity planner needs —
request throughput, queue-delay and end-to-end latency percentiles, the
realised micro-batch size histogram, session-cache effectiveness, load-shed
counts, and (under a :class:`repro.service.faults.FaultPlan`) the fault
accounting that proves isolation: error/retry counters, per-scenario
fairness, and the poisoned-request ledger.

Two determinism layers coexist deliberately:

* **Outcomes are worker-independent.**  Which syndrome each request carries
  and what its decode returns are pure functions of the trace spec (and the
  fault plan) — decoder sessions are bit-identical under reuse, so
  concurrency, batching and completion order cannot change any outcome.
  :attr:`ServiceLoadResult.outcome_digest` hashes every per-request outcome
  in request order, and :attr:`ServiceLoadResult.healthy_digest` hashes only
  the non-poisoned, non-shed ones — the digest the hostile smoke compares
  across worker counts and fault plans.  Equal digests across worker counts
  are pinned by ``tests/test_service.py``, and across front ends (in-process
  and over TCP at several worker-process counts) by ``tests/test_net.py``.
* **Timings are measurements.**  Throughput, queue delay, latency and batch
  sizes are wall-clock observations of *this* machine under *this*
  configuration — exactly what ``BENCH_service.json`` tracks across commits
  (like ``shots_per_second`` in ``BENCH_sweep.json``), and exactly what must
  not be part of any bit-identity contract.

With ``verify_identity=True`` every healthy response is additionally checked
bit-identical (correction edge set, matching weight, exactness) against a
direct ``decode_detailed`` on a freshly-built decoder — the acceptance gate
CI runs in the smoke benchmark.  Slow-consumer stream outcomes are checked
against a directly-driven streaming decoder the same way.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace

from ..api.hashing import content_hash
from ..api.registry import get_decoder
from ..api.wireform import WireForm
from ..service.config import ServiceConfig
from ..service.service import DecodeService, service_histogram
from ..service.trace import TraceSpec, generate_trace
from .engine import LatencyHistogram


@dataclass
class ServiceLoadResult:
    """Everything one trace replay measured.

    The deterministic part (``requests``, ``errors``, the digests, the fault
    ledger) is a pure function of the trace spec and fault plan; all timing
    fields are machine- and run-dependent measurements.
    """

    requests: int
    completed: int
    shed: int
    errors: int
    evaluated: int
    elapsed_seconds: float
    queue_delay: LatencyHistogram
    latency: LatencyHistogram
    batch_sizes: Counter = field(default_factory=Counter)
    batches: int = 0
    session_stats: dict = field(default_factory=dict)
    cache_hits: int = 0
    outcome_cache: dict = field(default_factory=lambda: {"enabled": False})
    identity_checked: int = 0
    identity_mismatches: int = 0
    outcome_digest: str = ""
    #: Requests answered with ``STATUS_ERROR`` (poisoned decode or exhausted
    #: session-build retries) — disjoint from ``completed`` and ``shed``.
    error_responses: int = 0
    #: Session-build retry attempts the service performed.
    retries: int = 0
    #: Poisoned requests the fault plan injected, and how many of them the
    #: service correctly resolved with ``STATUS_ERROR``.  Isolation holds
    #: exactly when the two are equal.
    poisoned: int = 0
    poisoned_errored: int = 0
    #: Per-scenario completion ledger: offered / poisoned / completed / shed
    #: / errors plus the healthy completion ratio of each scenario.
    per_scenario: list = field(default_factory=list)
    #: Order-stable digest over healthy (non-poisoned, decoded) outcomes only.
    healthy_digest: str = ""
    #: Slow-consumer streams replayed, and how many of their outcomes
    #: diverged from a directly-driven streaming decoder (or never resolved).
    streams: int = 0
    stream_mismatches: int = 0
    #: Wire-level statistics of a network replay (``NetClient.wire_stats()``:
    #: negotiated codec, byte/frame counts, coalesced-batch histogram);
    #: ``None`` for in-process replays, which have no wire.
    wire: dict | None = None

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of wall-clock replay time."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds

    @property
    def logical_error_rate(self) -> float:
        """Logical errors per ground-truth-carrying completed request."""
        return self.errors / self.evaluated if self.evaluated else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests that were load-shed."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def min_completion_ratio(self) -> float:
        """Worst per-scenario healthy completion ratio (fairness floor)."""
        ratios = [row["completion_ratio"] for row in self.per_scenario]
        return min(ratios) if ratios else 1.0

    @property
    def max_completion_ratio(self) -> float:
        """Best per-scenario healthy completion ratio (fairness ceiling)."""
        ratios = [row["completion_ratio"] for row in self.per_scenario]
        return max(ratios) if ratios else 1.0

    @property
    def mean_batch_size(self) -> float:
        total = sum(self.batch_sizes.values())
        if not total:
            return 0.0
        return sum(size * count for size, count in self.batch_sizes.items()) / total


@dataclass(frozen=True)
class SaturationPoint(WireForm):
    """One rung of a closed-loop saturation ladder."""

    clients: int
    requests: int
    completed: int
    elapsed_seconds: float
    throughput_rps: float
    latency_p50_us: float
    latency_p99_us: float
    healthy_digest: str


@dataclass
class SaturationResult:
    """A full closed-loop saturation sweep: the ladder plus its knee.

    ``digest_match`` asserts the determinism contract rung by rung: offered
    load changes *when* requests run, never *what* they decode, so every
    rung must reproduce the same healthy digest.
    """

    points: list[SaturationPoint]
    knee_clients: int
    knee_throughput_rps: float
    digest_match: bool

    @property
    def peak_throughput_rps(self) -> float:
        return max((point.throughput_rps for point in self.points), default=0.0)


def find_knee(points: list[SaturationPoint], threshold: float = 0.10) -> SaturationPoint:
    """The ladder's throughput knee: the last rung still worth climbing to.

    Walking the ladder in client order, the knee is the rung after which
    adding clients stops paying — the first rung whose successor improves
    throughput by less than ``threshold`` (fractionally).  A ladder that is
    still gaining at the top returns its last rung (the knee lies beyond the
    sweep; callers see ``knee_clients == max(ladder)`` and can extend it).
    """
    if not points:
        raise ValueError("saturation sweep produced no points")
    knee = points[0]
    for point in points[1:]:
        if knee.throughput_rps <= 0:
            knee = point
            continue
        gain = point.throughput_rps / knee.throughput_rps - 1.0
        if gain < threshold:
            return knee
        knee = point
    return knee


#: The :class:`repro.service.ServiceConfig` a load replay runs under unless
#: given another: smaller batches and a tighter flush deadline than the
#: service's own defaults (a trace's scenarios rarely fill 32-deep batches).
#: ``repro serve-net`` sizes its servers with it too, so network and
#: in-process replays compare at identical service sizing.
DEFAULT_LOAD_CONFIG = ServiceConfig(max_batch_size=16, max_wait_seconds=0.001)


class ServiceLoadEngine:
    """Replay a seed-stable synthetic trace through a decode front end.

    The front end is anything with the surface
    :class:`repro.service.DecodeService` and
    :class:`repro.service.net.NetClient` share — ``submit``,
    ``decode_many``, ``open_stream``, use as a context manager.  ``front`` is
    a zero-argument factory called once per :meth:`run`; the default builds
    ``DecodeService(config)``.  A network replay passes
    ``lambda: NetClient(host, port)`` together with the server's ``config``
    (the trace's poisoned requests come from its fault plan).
    ``drain_timeout_seconds`` bounds the post-replay ``close()`` of a front
    end that takes a timeout (``DecodeService``): exceeding it raises
    :class:`repro.service.ServiceDrainError` instead of hanging — the hostile
    smoke's hung-close gate.

    >>> from repro.service import Scenario, ServiceConfig, TraceSpec
    >>> spec = TraceSpec("t", (Scenario(3, physical_error_rate=0.02),), requests=6)
    >>> result = ServiceLoadEngine(spec, config=ServiceConfig(workers=2)).run()
    >>> result.completed
    6
    >>> result.shed
    0
    """

    def __init__(
        self,
        trace,
        *,
        config: ServiceConfig = DEFAULT_LOAD_CONFIG,
        front=None,
        repeats: int = 1,
        drain_timeout_seconds: float | None = None,
    ) -> None:
        if not isinstance(trace, TraceSpec):
            raise TypeError(f"trace must be a TraceSpec, got {type(trace).__name__}")
        if not isinstance(config, ServiceConfig):
            raise TypeError(f"config must be a ServiceConfig, got {type(config).__name__}")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.trace = trace
        #: The service configuration: the default front end is built from
        #: it, and its fault plan poisons the expanded trace.
        self.config = config
        self.fault_plan = config.fault_plan
        self.front = front if front is not None else lambda: DecodeService(config)
        self.drain_timeout_seconds = drain_timeout_seconds
        #: Replay the whole trace this many times through ONE front end; each
        #: pass fully drains before the next starts.  Pass 2+ re-submits the
        #: same syndromes, which is exactly what exercises the
        #: content-addressed outcome cache — the ``serve-bench`` cache
        #: comparison runs both sides at repeats=2 so the cached second pass
        #: is measured against a decoded second pass.
        self.repeats = repeats

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def _replay(self, front, requests) -> list:
        """One pass of single-shot traffic; responses in trace order."""
        if self.trace.arrival == "closed":
            return self._replay_closed(front, requests)
        if not any(traced.arrival_offset_seconds for traced in requests):
            # Back to back: one call, so a network front end can pack the
            # whole pass into ring-grouped request-batch frames.
            return front.decode_many([traced.request for traced in requests])
        return self._replay_open(front, requests)

    def _replay_open(self, front, requests) -> list:
        """Open loop: submit on the trace's schedule, ignore completions."""
        start = time.monotonic()
        futures = []
        for traced in requests:
            delay = traced.arrival_offset_seconds - (time.monotonic() - start)
            if delay > 0:
                time.sleep(delay)
            futures.append(front.submit(traced.request))
        return [future.result() for future in futures]

    def _replay_closed(self, front, requests) -> list:
        """Closed loop: ``clients`` callers, each one request in flight."""
        responses: list = [None] * len(requests)
        cursor = iter(range(len(requests)))
        cursor_lock = threading.Lock()

        def client() -> None:
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                responses[index] = front.submit(requests[index].request).result()
                if self.trace.think_seconds > 0:
                    time.sleep(self.trace.think_seconds)

        threads = [
            threading.Thread(target=client, name=f"load-client-{i}")
            for i in range(self.trace.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return responses

    def _start_streams(self, front, trace, outcomes: list, base: int) -> list:
        """Launch one slow-consumer thread per traced stream; return threads.

        Each thread holds a long-lived stream open, pushing rounds with
        ``stream_push_gap_seconds`` of think time — the connection occupies
        the shared scheduler while the single-shot replay runs concurrently.
        ``outcomes[base + i]`` stays ``None`` if the stream failed, which
        :meth:`_verify_streams` counts as a mismatch.
        """
        gap = trace.spec.stream_push_gap_seconds

        def consume(slot: int, traced) -> None:
            key = trace.spec.scenarios[traced.scenario_index].session_key()
            stream = front.open_stream(key)
            pending = [stream.begin()]
            for round_defects in traced.rounds:
                pending.append(stream.push_round(round_defects))
                if gap > 0:
                    time.sleep(gap)
            outcome = stream.finalize().result()
            for future in pending:  # all resolved: surface any push error
                future.result(0)
            outcomes[slot] = outcome

        threads = [
            threading.Thread(
                target=consume,
                args=(base + i, traced),
                name=f"slow-consumer-{traced.index}",
            )
            for i, traced in enumerate(trace.streams)
        ]
        for thread in threads:
            thread.start()
        return threads

    def run(self, verify_identity: bool = False) -> ServiceLoadResult:
        """Expand the trace, replay it, and aggregate the measurements."""
        trace = generate_trace(self.trace, fault_plan=self.fault_plan)
        sequence = list(trace.requests) * self.repeats
        stream_outcomes: list = [None] * (len(trace.streams) * self.repeats)
        responses: list = []
        with self.front() as front:
            started = time.perf_counter()
            # Each pass drains fully (the replay helpers block on every
            # future) before the next begins, so pass 2+ submissions see the
            # outcome cache populated by the previous pass.  Slow-consumer
            # streams run concurrently with each pass's single-shot traffic.
            for pass_index in range(self.repeats):
                stream_threads = self._start_streams(
                    front, trace, stream_outcomes, pass_index * len(trace.streams)
                )
                responses.extend(self._replay(front, trace.requests))
                for thread in stream_threads:
                    thread.join()
            elapsed = time.perf_counter() - started
            if self.drain_timeout_seconds is not None:
                # Drain under a timeout: a hung close is a fault-isolation
                # failure the caller must see, not a wedged benchmark.
                front.close(timeout=self.drain_timeout_seconds)
        # Front-end specific observability: DecodeService reports its session
        # LRU, outcome cache and retries; NetClient its wire traffic.
        snapshot = front.stats_snapshot() if hasattr(front, "stats_snapshot") else {}
        queue_delay = service_histogram()
        latency = service_histogram()
        batch_members: Counter = Counter()
        for response in responses:
            if response.ok:
                queue_delay.add(response.queue_delay_seconds)
                latency.add(response.latency_seconds)
            if response.batch_size:
                batch_members[response.batch_size] += 1
        # Every member of a batch of size s reports s: one batch per s
        # responses (decoded or failed — both occupy a batch slot).
        batch_sizes = Counter(
            {size: -(-members // size) for size, members in batch_members.items()}
        )
        result = ServiceLoadResult(
            requests=len(sequence),
            completed=sum(1 for r in responses if r.ok),
            shed=sum(1 for r in responses if r.status == "shed"),
            errors=0,
            evaluated=0,
            elapsed_seconds=elapsed,
            queue_delay=queue_delay,
            latency=latency,
            batch_sizes=batch_sizes,
            batches=sum(batch_sizes.values()),
            session_stats=snapshot.get("sessions", {}),
            cache_hits=sum(1 for r in responses if r.cached),
            outcome_cache=snapshot.get("outcome_cache", {"enabled": False}),
            error_responses=sum(1 for r in responses if r.status == "error"),
            retries=snapshot.get("retries", 0),
            streams=len(stream_outcomes),
            wire=front.wire_stats() if hasattr(front, "wire_stats") else None,
        )
        _evaluate_outcomes(trace, sequence, responses, result)
        if verify_identity:
            self._verify_identity(trace, sequence, responses, result)
            self._verify_streams(trace, stream_outcomes, result)
        else:
            result.stream_mismatches = sum(1 for o in stream_outcomes if o is None)
        return result

    # ------------------------------------------------------------------
    # saturation
    # ------------------------------------------------------------------
    def saturate(
        self,
        client_ladder=(1, 2, 4, 8),
        *,
        knee_threshold: float = 0.10,
    ) -> SaturationResult:
        """Closed-loop saturation sweep: find the service's throughput knee.

        The engine's trace is re-shaped to a **closed loop** (``clients``
        concurrent callers, each with one request in flight) and replayed
        once per ladder rung through a fresh front end from the same factory.
        Offered load rises with the rung; completed throughput rises until
        the service saturates, and :func:`find_knee` marks the rung where
        the marginal gain drops below ``knee_threshold``.

        Per the determinism contract, every rung reproduces the same
        ``healthy_digest`` (load shapes timing, never outcomes) —
        ``digest_match`` reports it so benchmarks can gate on it.
        """
        ladder = sorted({int(clients) for clients in client_ladder})
        if not ladder or ladder[0] < 1:
            raise ValueError("client_ladder must contain ints >= 1")
        if not 0.0 < knee_threshold < 1.0:
            raise ValueError("knee_threshold must be in (0, 1)")
        points: list[SaturationPoint] = []
        for clients in ladder:
            spec = replace(
                self.trace,
                arrival="closed",
                clients=clients,
                rate_rps=None,
                burst_size=None,
            )
            rung = ServiceLoadEngine(
                spec,
                config=self.config,
                front=self.front,
                repeats=self.repeats,
                drain_timeout_seconds=self.drain_timeout_seconds,
            ).run()
            points.append(
                SaturationPoint(
                    clients=clients,
                    requests=rung.requests,
                    completed=rung.completed,
                    elapsed_seconds=rung.elapsed_seconds,
                    throughput_rps=rung.throughput_rps,
                    latency_p50_us=rung.latency.percentile(50) * 1e6,
                    latency_p99_us=rung.latency.percentile(99) * 1e6,
                    healthy_digest=rung.healthy_digest,
                )
            )
        knee = find_knee(points, knee_threshold)
        return SaturationResult(
            points=points,
            knee_clients=knee.clients,
            knee_throughput_rps=knee.throughput_rps,
            digest_match=len({point.healthy_digest for point in points}) == 1,
        )

    # ------------------------------------------------------------------
    # outcome verification
    # ------------------------------------------------------------------
    def _verify_identity(self, trace, sequence, responses, result: ServiceLoadResult) -> None:
        """Re-decode every healthy request directly and compare bit for bit."""
        decoders: dict[int, object] = {}
        for traced, response in zip(sequence, responses):
            if traced.poisoned or not response.ok:
                continue
            index = traced.scenario_index
            if index not in decoders:
                key = traced.request.session
                decoders[index] = get_decoder(key.decoder, trace.graphs[index], key.config)
            direct = decoders[index].decode_detailed(traced.request.syndrome)
            graph = trace.graphs[index]
            result.identity_checked += 1
            if (
                direct.correction_edges(graph)
                != response.outcome.correction_edges(graph)
                or direct.weight != response.outcome.weight
                or direct.is_exact != response.outcome.is_exact
            ):
                result.identity_mismatches += 1

    def _verify_streams(self, trace, stream_outcomes, result: ServiceLoadResult) -> None:
        """Check every slow-consumer outcome against a direct streaming decode."""
        if not stream_outcomes:
            return
        from ..stream import get_streaming_decoder

        expected: dict[int, object] = {}
        for slot, outcome in enumerate(stream_outcomes):
            traced = trace.streams[slot % len(trace.streams)]
            if outcome is None:  # the stream thread died before finalize
                result.stream_mismatches += 1
                continue
            graph = trace.graphs[traced.scenario_index]
            if traced.index not in expected:
                key = trace.spec.scenarios[traced.scenario_index].session_key()
                decoder = get_streaming_decoder(key.decoder, graph, key.config)
                decoder.begin(graph)
                for round_defects in traced.rounds:
                    decoder.push_round(round_defects)
                expected[traced.index] = decoder.finalize()
            direct = expected[traced.index]
            if (
                direct.correction_edges(graph) != outcome.correction_edges(graph)
                or direct.weight != outcome.weight
            ):
                result.stream_mismatches += 1


def _evaluate_outcomes(trace, sequence, responses, result: ServiceLoadResult) -> None:
    """Count logical errors, fold outcomes into the order-stable digests,
    and build the per-scenario fairness ledger."""
    per_scenario = [
        {
            "scenario": index,
            "decoder": scenario.decoder,
            "offered": 0,
            "poisoned": 0,
            "completed": 0,
            "shed": 0,
            "errors": 0,
        }
        for index, scenario in enumerate(trace.spec.scenarios)
    ]
    records = []
    healthy_records = []
    for traced, response in zip(sequence, responses):
        row = per_scenario[traced.scenario_index]
        row["offered"] += 1
        if traced.poisoned:
            result.poisoned += 1
            row["poisoned"] += 1
            if response.status == "error":
                result.poisoned_errored += 1
                row["errors"] += 1
            records.append(f"{traced.index}:poisoned:{response.status}")
            continue
        if response.status == "shed":
            row["shed"] += 1
            records.append(f"{traced.index}:shed")
            continue
        if response.status == "error":
            row["errors"] += 1
            records.append(f"{traced.index}:error")
            continue
        row["completed"] += 1
        graph = trace.graphs[traced.scenario_index]
        syndrome = traced.request.syndrome
        correction = sorted(response.outcome.correction_edges(graph))
        record = f"{traced.index}:ok:{correction}:w={response.outcome.weight}"
        if syndrome.logical_flip is not None:
            result.evaluated += 1
            error = graph.crosses_observable(set(correction)) != syndrome.logical_flip
            if error:
                result.errors += 1
            record += f":err={int(error)}"
        records.append(record)
        healthy_records.append(record)
    for row in per_scenario:
        healthy_offered = row["offered"] - row["poisoned"]
        row["completion_ratio"] = row["completed"] / healthy_offered if healthy_offered else 1.0
    result.per_scenario = per_scenario
    result.outcome_digest = content_hash({"outcomes": records})
    result.healthy_digest = content_hash({"outcomes": healthy_records})
