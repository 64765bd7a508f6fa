"""The decode-service front end: coalesce, dispatch, fan out, shed.

:class:`DecodeService` multiplexes many concurrent single-shot decode
requests onto the batched machinery the repository already has:

1. **Admission.**  :meth:`~DecodeService.submit` places the request on a
   *bounded* queue.  A full queue is backpressure: under the ``"block"``
   overload policy the submitter waits (optionally with a timeout, raising
   :class:`ServiceOverloadedError`); under ``"shed"`` the request is answered
   immediately with a :data:`~repro.service.request.STATUS_SHED` response and
   never reaches a decoder.
2. **Coalescing.**  A dispatcher thread drains the queue into a
   :class:`~repro.service.batcher.MicroBatcher`: requests sharing a
   :class:`~repro.service.request.SessionKey` accumulate into one batch that
   flushes on ``max_batch_size`` or ``max_wait_seconds`` — whichever first.
3. **Dispatch.**  Flushed batches fan out across a thread pool of
   ``workers``.  Each worker fetches the batch's reusable
   :class:`repro.api.DecoderSession` from the service's LRU
   (:class:`~repro.service.cache.SessionCache`), locks it, and decodes the
   batch back to back.  Results are **bit-identical** to calling
   ``decode_detailed`` directly — batching, caching and concurrency are
   invisible in the outcomes (pinned by ``tests/test_service.py``).
4. **Streams.**  :meth:`~DecodeService.open_stream` returns a long-lived
   :class:`ServiceStream` whose ``begin``/``push_round``/``finalize`` calls
   travel through the *same* bounded queue, dispatcher and worker pool as
   single-shot requests — one scheduler, one backpressure domain — while a
   per-stream serial executor preserves round order.

The service clock is injectable (``clock=time.monotonic`` by default) and the
batching core is pure (:mod:`repro.service.batcher`), so timing behaviour is
testable without real sleeps.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..api.outcome import DecodeOutcome
from ..evaluation.engine import LatencyHistogram
from ..lut.outcome_cache import OutcomeCache, outcome_cache_key
from ..stream import get_streaming_decoder
from .batcher import Batch, MicroBatcher
from .cache import SessionCache, SessionFactory, build_session
from .config import OVERLOAD_POLICIES, ServiceConfig
from .faults import FaultInjector
from .request import (
    STATUS_ERROR,
    STATUS_SHED,
    DecodeRequest,
    DecodeResponse,
    SessionKey,
)

__all__ = [
    "OVERLOAD_POLICIES",  # re-exported; lives in repro.service.config now
    "DecodeService",
    "ServiceClosedError",
    "ServiceDrainError",
    "ServiceOverloadedError",
    "ServiceStats",
    "ServiceStream",
    "service_histogram",
]

#: Service histograms span 100 ns .. 10 s (queue delays under load dwarf the
#: decode latencies the evaluation histograms are tuned for).
_HISTOGRAM_LOW = 1e-7
_HISTOGRAM_HIGH = 10.0


def service_histogram() -> LatencyHistogram:
    """A latency histogram with service-appropriate bounds (100 ns – 10 s)."""
    return LatencyHistogram(low=_HISTOGRAM_LOW, high=_HISTOGRAM_HIGH)


class ServiceClosedError(RuntimeError):
    """Raised when submitting to a closed (or never-started, then closed) service."""


class ServiceOverloadedError(RuntimeError):
    """Raised when the bounded queue stays full past the submission timeout."""


class ServiceDrainError(RuntimeError):
    """Raised by :meth:`DecodeService.close` when the drain exceeds its timeout.

    A clean drain is part of the service's fault-isolation contract: stuck
    here means some admitted work (a wedged batch, a hung worker) never
    resolved — exactly what the hostile smoke gate must fail on rather than
    hang CI.
    """


@dataclass
class ServiceStats:
    """Aggregate counters of one :class:`DecodeService` instance.

    Updated under the service's stats lock; read a consistent copy with
    :meth:`DecodeService.stats_snapshot`.
    """

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    #: Requests resolved with a :data:`~repro.service.request.STATUS_ERROR`
    #: response — a failed decode (e.g. poisoned syndrome) or an exhausted
    #: session-build retry budget.  Every submitted request is accounted for:
    #: ``submitted == completed + shed + errors + in-flight``.
    errors: int = 0
    #: Session-build retry attempts (each failed build below the retry
    #: budget counts one).
    retries: int = 0
    batches: int = 0
    stream_ops: int = 0
    cache_hits: int = 0
    batch_sizes: Counter = field(default_factory=Counter)
    queue_delay: LatencyHistogram = field(default_factory=service_histogram)
    latency: LatencyHistogram = field(default_factory=service_histogram)

    @property
    def mean_batch_size(self) -> float:
        total = sum(self.batch_sizes.values())
        if not total:
            return 0.0
        return sum(size * count for size, count in self.batch_sizes.items()) / total


class _DecodeJob:
    """One queued single-shot request plus its response future.

    ``cache_key`` is the request's outcome-cache key, carried through the
    micro-batcher so the worker can publish the decode into the cache —
    ``None`` when the service runs without an outcome cache.
    """

    __slots__ = ("request", "future", "arrival_seconds", "cache_key")

    def __init__(
        self,
        request: DecodeRequest,
        future: Future,
        arrival: float,
        cache_key: str | None = None,
    ):
        self.request = request
        self.future = future
        self.arrival_seconds = arrival
        self.cache_key = cache_key


class _StreamJob:
    """One queued stream operation (begin/push/finalize) plus its future."""

    __slots__ = ("stream", "op", "payload", "future", "arrival_seconds")

    def __init__(self, stream: "ServiceStream", op: str, payload, future: Future, arrival: float):
        self.stream = stream
        self.op = op
        self.payload = payload
        self.future = future
        self.arrival_seconds = arrival

    def run(self):
        decoder = self.stream.decoder
        if self.op == "begin":
            decoder.begin(self.stream.graph, rounds_hint=self.payload)
            return None
        if self.op == "push":
            return decoder.push_round(self.payload)
        return decoder.finalize()


class _SerialExecutor:
    """Run jobs on a shared pool, strictly one at a time, in FIFO order.

    Each :class:`ServiceStream` owns one: stream operations may be decoded by
    any worker thread, but never concurrently and never out of order — the
    round-push protocol is stateful.
    """

    def __init__(self, pool: ThreadPoolExecutor) -> None:
        self._pool = pool
        self._jobs: deque = deque()
        self._active = False
        self._lock = threading.Lock()

    def submit(self, job) -> None:
        with self._lock:
            self._jobs.append(job)
            if self._active:
                return
            self._active = True
        self._pool.submit(self._drain)

    def _drain(self) -> None:
        while True:
            with self._lock:
                if not self._jobs:
                    self._active = False
                    return
                job = self._jobs.popleft()
            if not job.future.set_running_or_notify_cancel():
                continue
            try:
                result = job.run()
            except BaseException as exc:  # propagate to the caller's future
                job.future.set_exception(exc)
            else:
                job.future.set_result(result)


_STOP = object()


class DecodeService:
    """Asynchronous decode front end with dynamic micro-batching.

    Lifecycle: construct → :meth:`start` (or use as a context manager) →
    :meth:`submit`/:meth:`decode`/:meth:`open_stream` → :meth:`close`.
    Submissions are accepted before :meth:`start` (they wait on the queue),
    which is also how tests exercise backpressure deterministically.

    Sizing and policy live in a :class:`~repro.service.ServiceConfig`; the
    remaining keyword arguments (``clock``, ``session_factory``, ``sleep``)
    are runtime injection points, not configuration.

    >>> from repro.graphs import SyndromeSampler
    >>> from repro.service import CodeSpec, DecodeRequest, SessionKey
    >>> key = SessionKey(CodeSpec(3, physical_error_rate=0.02), "union-find")
    >>> sampler = SyndromeSampler(CodeSpec(3, physical_error_rate=0.02).build_graph(), seed=5)
    >>> with DecodeService(ServiceConfig(workers=2, max_wait_seconds=0.001)) as service:
    ...     response = service.decode(DecodeRequest(key, sampler.sample()))
    >>> response.ok and response.batch_size >= 1
    True
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        session_factory: SessionFactory = build_session,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if config is None:
            config = ServiceConfig()
        elif not isinstance(config, ServiceConfig):
            raise TypeError(f"config must be a ServiceConfig, got {type(config).__name__}")
        self.config = config
        self.workers = config.workers
        self.overload_policy = config.overload_policy
        self.session_build_retries = config.session_build_retries
        self.session_build_backoff_seconds = config.session_build_backoff_seconds
        self._clock = clock
        self._sleep = sleep
        # Deterministic fault injection (repro.service.faults): wraps the
        # session factory with seed-stable build crashes and delays straggler
        # workers.  None, or an inactive plan, injects nothing.
        fault_plan = config.fault_plan
        self._injector: FaultInjector | None = (
            FaultInjector(fault_plan)
            if fault_plan is not None and fault_plan.is_active()
            else None
        )
        if self._injector is not None:
            session_factory = self._injector.wrap_factory(session_factory)
        self._queue: queue_module.Queue = queue_module.Queue(maxsize=config.queue_capacity)
        self._batcher = MicroBatcher(
            max_batch_size=config.max_batch_size,
            max_wait_seconds=config.max_wait_seconds,
        )
        self._sessions = SessionCache(
            max_sessions=config.max_sessions, session_factory=session_factory
        )
        # Content-addressed decode-outcome cache (repro.lut), consulted in
        # submit() before a request ever reaches the micro-batcher.  None /
        # 0 / negative ⇒ disabled (the default: memoisation across requests
        # is only worth its bytes for repeat-heavy traffic).
        cache_bytes = config.outcome_cache_bytes
        self.outcome_cache: OutcomeCache | None = (
            OutcomeCache(cache_bytes) if cache_bytes is not None and cache_bytes > 0 else None
        )
        self._pool: ThreadPoolExecutor | None = None
        self._dispatcher: threading.Thread | None = None
        self._started = False
        self._closed = False
        self._stats_lock = threading.Lock()
        self.stats = ServiceStats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def sessions(self) -> SessionCache:
        """The service's LRU of reusable decoder sessions."""
        return self._sessions

    def start(self) -> "DecodeService":
        """Spin up the worker pool and the dispatcher thread (idempotent)."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        if self._started:
            return self
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-service",
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-service-dispatch",
            daemon=True,
        )
        self._started = True
        self._dispatcher.start()
        return self

    def close(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work, drain everything already admitted, shut down.

        ``timeout`` bounds the dispatcher drain: if admitted work has not
        drained within ``timeout`` seconds, :class:`ServiceDrainError` is
        raised instead of hanging forever — the hostile smoke benchmark runs
        ``close`` under a timeout so a non-isolated fault fails CI instead of
        wedging it.  ``None`` (the default) waits indefinitely.
        """
        if self._closed:
            return
        self._closed = True
        if not self._started:
            # Never started: nothing will drain the queue — fail the waiters.
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue_module.Empty:
                    break
                job.future.set_exception(ServiceClosedError("service closed before start"))
            return
        self._queue.put(_STOP)
        self._dispatcher.join(timeout)
        if self._dispatcher.is_alive():
            raise ServiceDrainError(
                f"service failed to drain within {timeout}s: the dispatcher is "
                "still processing admitted work (wedged batch or hung worker?)"
            )
        self._pool.shutdown(wait=wait)
        # A submit() racing close() can slip its job in behind the sentinel
        # (the _closed check and the put are not atomic); the dispatcher has
        # already exited, so fail those futures rather than leave them hanging.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue_module.Empty:
                break
            if job is not _STOP:
                job.future.set_exception(ServiceClosedError("service closed during submit"))

    def __enter__(self) -> "DecodeService":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, request: DecodeRequest, timeout: float | None = None) -> Future:
        """Queue one decode request; returns a future of :class:`DecodeResponse`.

        Backpressure at a full queue follows the service's overload policy:
        ``"block"`` waits up to ``timeout`` seconds (forever when ``None``)
        and raises :class:`ServiceOverloadedError` on expiry; ``"shed"``
        resolves the future immediately with a
        :data:`~repro.service.request.STATUS_SHED` response.

        With an outcome cache configured, a content-addressed hit resolves
        the future right here — the request never touches the queue, the
        micro-batcher or a decoder session (``response.cached`` is True).
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        future: Future = Future()
        arrival = self._clock()
        cache_key: str | None = None
        if self.outcome_cache is not None:
            cache_key = outcome_cache_key(request.session.key(), request.syndrome)
            outcome = self.outcome_cache.get(cache_key)
            if outcome is not None:
                latency = max(0.0, self._clock() - arrival)
                with self._stats_lock:
                    self.stats.submitted += 1
                    self.stats.completed += 1
                    self.stats.cache_hits += 1
                    # A hit never queues, but it IS a completed request: give
                    # both histograms one sample each so their counts stay in
                    # lock-step with `completed` (queue delay is exactly 0).
                    self.stats.queue_delay.add(0.0)
                    self.stats.latency.add(latency)
                future.set_result(
                    DecodeResponse(
                        request=request,
                        outcome=outcome,
                        latency_seconds=latency,
                        cached=True,
                    )
                )
                return future
        job = _DecodeJob(request, future, arrival, cache_key)
        try:
            if self.overload_policy == "shed":
                self._queue.put_nowait(job)
            else:
                self._queue.put(job, timeout=timeout)
        except queue_module.Full:
            if self.overload_policy == "shed":
                # A shed request was still *offered* — count it in submitted
                # too, so `submitted == completed + shed + errors + in-flight`
                # holds and the bench artifacts report true offered load.
                with self._stats_lock:
                    self.stats.submitted += 1
                    self.stats.shed += 1
                future.set_result(DecodeResponse(request=request, status=STATUS_SHED))
                return future
            raise ServiceOverloadedError(
                f"queue stayed full for {timeout}s (capacity "
                f"{self._queue.maxsize}); raise queue_capacity, add workers, "
                "or use overload_policy='shed'"
            ) from None
        with self._stats_lock:
            self.stats.submitted += 1
        return future

    def decode(self, request: DecodeRequest, timeout: float | None = None) -> DecodeResponse:
        """Synchronous convenience wrapper: :meth:`submit` + wait."""
        return self.submit(request).result(timeout)

    def decode_many(
        self, requests: Iterable[DecodeRequest], timeout: float | None = None
    ) -> list[DecodeResponse]:
        """Submit many requests, then wait for all (responses in input order)."""
        futures = [self.submit(request) for request in requests]
        return [future.result(timeout) for future in futures]

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    def open_stream(
        self,
        key: SessionKey,
        *,
        window: int | None = None,
        commit_depth: int | None = None,
    ) -> "ServiceStream":
        """Open a long-lived streaming connection through the scheduler.

        The stream shares the service's bounded queue, dispatcher and worker
        pool with single-shot traffic; its own round order is preserved by a
        per-stream serial executor.  Requires a started service.
        """
        if not self._started or self._closed:
            raise ServiceClosedError("open_stream requires a started, open service")
        return ServiceStream(self, key, window=window, commit_depth=commit_depth)

    def _enqueue_stream(self, job: _StreamJob, timeout: float | None) -> None:
        if self._closed:
            raise ServiceClosedError("service is closed")
        try:
            if self.overload_policy == "shed":
                self._queue.put_nowait(job)
            else:
                self._queue.put(job, timeout=timeout)
        except queue_module.Full:
            # Dropping a round would corrupt the stream, so overload on the
            # stream path is always an error, never a silent shed.
            raise ServiceOverloadedError("queue full; stream operations cannot be shed") from None
        with self._stats_lock:
            self.stats.stream_ops += 1

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        batcher = self._batcher
        while True:
            deadline = batcher.next_deadline()
            timeout = None if deadline is None else max(0.0, deadline - self._clock())
            try:
                job = self._queue.get(timeout=timeout)
            except queue_module.Empty:
                job = None
            if job is _STOP:
                for batch in batcher.drain():
                    self._dispatch_batch(batch)
                return
            if isinstance(job, _StreamJob):
                job.stream._serial.submit(job)
            elif job is not None:
                full = batcher.add(job.request.session, job, self._clock())
                if full is not None:
                    self._dispatch_batch(full)
            for batch in batcher.due(self._clock()):
                self._dispatch_batch(batch)

    def _dispatch_batch(self, batch: Batch) -> None:
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.batch_sizes[batch.size] += 1
        self._pool.submit(self._run_batch, batch)

    def _acquire_with_retry(self, batch: Batch):
        """Build/fetch the batch's session, retrying crashes with backoff.

        Returns the cache entry, or the final exception once the bounded
        retry budget (``session_build_retries``) is exhausted.  Transient
        build crashes — real ones or injected by a
        :class:`~repro.service.faults.FaultPlan` — are therefore invisible
        to callers beyond added latency.
        """
        attempt = 0
        while True:
            try:
                return self._sessions.acquire(batch.key)
            except BaseException as exc:
                if attempt >= self.session_build_retries:
                    return exc
                attempt += 1
                with self._stats_lock:
                    self.stats.retries += 1
                if self.session_build_backoff_seconds > 0:
                    self._sleep(self.session_build_backoff_seconds * attempt)

    def _fail_job(self, job: _DecodeJob, exc: BaseException, started: float, batch: Batch) -> None:
        """Resolve one job with a STATUS_ERROR response (isolated failure).

        The response still reports its ``batch_size``: a failed request
        occupied a batch slot like any other.
        """
        done = self._clock()
        with self._stats_lock:
            self.stats.errors += 1
        job.future.set_result(
            DecodeResponse(
                request=job.request,
                status=STATUS_ERROR,
                queue_delay_seconds=max(0.0, started - job.arrival_seconds),
                latency_seconds=max(0.0, done - job.arrival_seconds),
                batch_size=batch.size,
                error=f"{type(exc).__name__}: {exc}",
            )
        )

    def _run_batch(self, batch: Batch) -> None:
        if self._injector is not None:
            delay = self._injector.worker_delay()
            if delay > 0:  # straggling worker: timing-only, never outcomes
                self._sleep(delay)
        started = self._clock()
        entry = self._acquire_with_retry(batch)
        if isinstance(entry, BaseException):
            # Session build kept crashing past the retry budget.  The batch
            # fails as responses, not exceptions: a crashed build is a
            # service-side fault, and callers see a uniform STATUS_ERROR
            # surface whether one request or a whole batch was affected.
            for job in batch.items:
                if job.future.set_running_or_notify_cancel():
                    self._fail_job(job, entry, started, batch)
            return
        with entry.lock:
            for job in batch.items:
                if not job.future.set_running_or_notify_cancel():
                    continue
                try:
                    outcome = entry.session.decode_detailed(job.request.syndrome)
                except BaseException as exc:
                    # Isolation: a poisoned request resolves ITS future with
                    # STATUS_ERROR; the rest of the batch decodes normally on
                    # the same session.  The raise may have left the stateful
                    # decoder half-mutated, so restore the pristine state
                    # before the next request touches it.
                    try:
                        entry.session.reset()
                    except BaseException as reset_exc:  # pragma: no cover
                        exc = reset_exc
                    self._fail_job(job, exc, started, batch)
                    continue
                if self.outcome_cache is not None and job.cache_key is not None:
                    self.outcome_cache.put(job.cache_key, outcome)
                done = self._clock()
                queue_delay = max(0.0, started - job.arrival_seconds)
                latency = max(0.0, done - job.arrival_seconds)
                with self._stats_lock:
                    self.stats.completed += 1
                    self.stats.queue_delay.add(queue_delay)
                    self.stats.latency.add(latency)
                job.future.set_result(
                    DecodeResponse(
                        request=job.request,
                        outcome=outcome,
                        queue_delay_seconds=queue_delay,
                        latency_seconds=latency,
                        batch_size=batch.size,
                    )
                )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """One consistent plain-dict snapshot of service + session statistics.

        The whole snapshot — request counters, queue depth, and the nested
        session/outcome-cache/fault snapshots — is assembled under the stats
        lock, so the top-level counters are mutually consistent: a reader
        never observes ``completed`` incremented without its latency sample,
        or a ``submitted``/``completed`` pair torn across a request.

        What may still race (by design — workers only take the stats lock at
        request *completion*): the nested snapshots take their own component
        locks inside the stats lock, so the session and outcome-cache
        counters can run *ahead* of the request counters by work currently
        in flight (e.g. a cache ``put`` whose request has not yet counted as
        ``completed``), and ``queue_depth`` is an instantaneous
        :meth:`queue.Queue.qsize` reading that admissions concurrent with
        the snapshot may already have moved.
        """
        with self._stats_lock:
            stats = self.stats
            snapshot = {
                "submitted": stats.submitted,
                "completed": stats.completed,
                "shed": stats.shed,
                "errors": stats.errors,
                "retries": stats.retries,
                "batches": stats.batches,
                "stream_ops": stats.stream_ops,
                "cache_hits": stats.cache_hits,
                "mean_batch_size": stats.mean_batch_size,
                "batch_sizes": dict(stats.batch_sizes),
                "queue_delay_p99_us": stats.queue_delay.percentile(99) * 1e6,
                "latency_p99_us": stats.latency.percentile(99) * 1e6,
                # Instantaneous admission-queue depth (jobs admitted but not
                # yet drained by the dispatcher; includes stream operations).
                "queue_depth": self._queue.qsize(),
            }
            # Each component takes its own lock (workers mutate their
            # hit/miss/eviction counters concurrently, and an unlocked read
            # could observe a torn combination).  Nesting those reads inside
            # the stats lock is deadlock-free — no code path acquires the
            # stats lock while holding a component lock.
            snapshot["sessions"] = self._sessions.stats_snapshot()
            snapshot["outcome_cache"] = (
                self.outcome_cache.stats_snapshot()
                if self.outcome_cache is not None
                else {"enabled": False}
            )
            snapshot["faults"] = (
                self._injector.stats_snapshot() if self._injector is not None else None
            )
        return snapshot


class ServiceStream:
    """A long-lived streaming connection multiplexed through the service.

    Mirrors the :class:`repro.api.StreamingDecoder` protocol, except every
    method returns a :class:`concurrent.futures.Future` because the operation
    travels through the service's queue and worker pool: ``begin()`` →
    ``Future[None]``, ``push_round(defects)`` → ``Future[Counter]`` (the
    round's operation-count cost), ``finalize()`` → ``Future[DecodeOutcome]``.
    Outcomes are identical to driving a directly-built streaming decoder —
    the service only schedules; it never alters results.
    """

    def __init__(
        self,
        service: DecodeService,
        key: SessionKey,
        *,
        window: int | None = None,
        commit_depth: int | None = None,
    ) -> None:
        self.service = service
        self.key = key
        # Build the graph directly: going through the session LRU would
        # construct (and possibly evict) a full batch session just to read
        # its graph, polluting the cache and its hit/miss statistics.
        self.graph = key.code.build_graph()
        self.decoder = get_streaming_decoder(
            key.decoder,
            self.graph,
            key.config,
            window=window,
            commit_depth=commit_depth,
        )
        self._serial = _SerialExecutor(service._pool)

    def _submit(self, op: str, payload, timeout: float | None = None) -> Future:
        future: Future = Future()
        job = _StreamJob(self, op, payload, future, self.service._clock())
        self.service._enqueue_stream(job, timeout)
        return future

    def begin(self, rounds_hint: int | None = None) -> Future:
        """Open a new stream on the connection's decoder."""
        return self._submit("begin", rounds_hint)

    def push_round(self, defects: Iterable[int]) -> Future:
        """Feed the next measurement round; resolves to its cost ``Counter``."""
        return self._submit("push", tuple(defects))

    def finalize(self) -> Future:
        """Close the stream; resolves to the full :class:`DecodeOutcome`."""
        return self._submit("finalize", None)

    def decode_rounds(
        self, rounds: Iterable[Iterable[int]], timeout: float | None = None
    ) -> DecodeOutcome:
        """Convenience: begin, push every round, finalize, wait for the outcome.

        A failure in ``begin`` or any push is re-raised here — the serial
        executor resolves those futures before ``finalize``'s, so by the time
        the outcome is available every earlier future is done and an outcome
        computed from a partially-failed stream is never returned silently.
        """
        pending = [self.begin()]
        for round_defects in rounds:
            pending.append(self.push_round(round_defects))
        outcome = self.finalize().result(timeout)
        for future in pending:  # all resolved: re-raise the first push error
            future.result(0)
        return outcome
