"""Asynchronous decode service with dynamic micro-batching.

Every entry point built in PRs 1–4 — the CLI, the Monte-Carlo engines, the
streaming adapters — assumes one offline caller that owns its decoder.  This
package adds the missing production layer: a front end that serves *many
concurrent callers* by coalescing their single-shot requests onto the batched
machinery underneath, trading a bounded queueing delay for amortised
per-request cost (the pLUTo argument from PAPERS.md, applied to decoding):

* :class:`DecodeService` — bounded-queue admission with a configurable
  overload policy (block or load-shed), a dynamic
  :class:`~repro.service.batcher.MicroBatcher` (flush on batch size or
  deadline, whichever first), an LRU
  :class:`~repro.service.cache.SessionCache` of reusable
  :class:`repro.api.DecoderSession`\\ s keyed by
  ``(code, noise, decoder, config-hash)``, and a worker pool the coalesced
  batches fan out across.  Results are bit-identical to direct decoding.
* :class:`~repro.service.service.ServiceStream` — long-lived streaming
  connections (``begin`` / ``push_round`` / ``finalize``) multiplexed through
  the same scheduler and backpressure domain.
* An optional content-addressed :class:`repro.lut.OutcomeCache`
  (``outcome_cache_bytes=...``) mounted in front of the micro-batcher:
  repeated ``(session key, defect set)`` requests resolve in O(1) at
  submission, before they ever occupy a queue slot.
* :class:`TraceSpec` / :func:`generate_trace` — seed-stable synthetic request
  traces (open/closed-loop arrivals, weighted scenario mixes, plus the
  hostile families of :func:`hostile_trace`: flash-crowd bursts, Pareto
  heavy-tailed inter-arrivals, Zipf session skew, slow-consumer streams)
  replayed by :class:`repro.evaluation.ServiceLoadEngine`.
* :class:`~repro.service.faults.FaultPlan` — declarative, seed-stable fault
  injection (worker stragglers, session-build crashes with bounded
  retry/backoff, poisoned requests) resolved as isolated
  :data:`STATUS_ERROR` responses while the rest of the batch completes
  bit-identically.
* :func:`service_bench_document` / :func:`validate_service_bench` — the
  schema-validated ``BENCH_service.json`` CI publishes per commit
  (``python -m repro serve-bench``), with the pinned hostile-mix series of
  ``--hostile-smoke`` and the ``saturation`` block (offered-load knee +
  process-scaling series) of ``serve-net --smoke``;
  :data:`SERVICE_BENCH_GATES` holds every pass/fail verdict about it.
* :mod:`repro.service.net` — the network tier (imported on demand, not
  re-exported here): an asyncio TCP front end
  (:class:`~repro.service.net.NetServer`) speaking a length-prefixed
  protocol (canonical JSON or the negotiated binary codec), multi-process
  workers that inherit the prewarmed decoding graphs at fork,
  consistent-hash session routing, and a pipelined synchronous
  :class:`~repro.service.net.NetClient`.

Quickstart (see ``docs/service.md`` for the full tour)::

    from repro.service import (
        CodeSpec, DecodeRequest, DecodeService, ServiceConfig, SessionKey,
    )

    key = SessionKey(CodeSpec(distance=5, physical_error_rate=0.01))
    with DecodeService(ServiceConfig(workers=4, max_batch_size=32)) as service:
        future = service.submit(DecodeRequest(key, syndrome))
        response = future.result()       # .outcome == direct decode_detailed
"""

from ..lut.outcome_cache import OutcomeCache, OutcomeCacheStats, outcome_cache_key
from .batcher import Batch, MicroBatcher
from .bench import (
    SERVICE_BENCH_GATES,
    SERVICE_BENCH_SCHEMA_VERSION,
    WIRE_SPEEDUP_FLOOR,
    ServiceBenchSchemaError,
    cache_comparison_entry,
    fairness_entry,
    hostile_mix_entry,
    saturation_entry,
    service_bench_document,
    validate_service_bench,
    wire_entry,
    write_service_bench,
)
from .cache import SessionCache, SessionCacheStats, SessionEntry, build_session
from .config import OVERLOAD_POLICIES, ServiceConfig
from .faults import (
    HOSTILE_SMOKE_PLAN,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    poisoned_syndrome,
)
from .request import (
    INTERNED_SESSIONS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    CodeSpec,
    DecodeRequest,
    DecodeResponse,
    SessionKey,
    intern_session,
)
from .service import (
    DecodeService,
    ServiceClosedError,
    ServiceDrainError,
    ServiceOverloadedError,
    ServiceStats,
    ServiceStream,
    service_histogram,
)
from .trace import (
    HOSTILE_FAMILIES,
    HOSTILE_SMOKE_TRACES,
    INTERARRIVALS,
    SMOKE_TRACE,
    Scenario,
    Trace,
    TracedRequest,
    TracedStream,
    TraceSpec,
    generate_trace,
    hostile_trace,
    make_trace,
    zipf_scenarios,
)

__all__ = [
    "Batch",
    "MicroBatcher",
    "SERVICE_BENCH_GATES",
    "SERVICE_BENCH_SCHEMA_VERSION",
    "WIRE_SPEEDUP_FLOOR",
    "ServiceBenchSchemaError",
    "cache_comparison_entry",
    "fairness_entry",
    "hostile_mix_entry",
    "saturation_entry",
    "service_bench_document",
    "validate_service_bench",
    "wire_entry",
    "write_service_bench",
    "SessionCache",
    "SessionCacheStats",
    "SessionEntry",
    "build_session",
    "OutcomeCache",
    "OutcomeCacheStats",
    "outcome_cache_key",
    "HOSTILE_SMOKE_PLAN",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "poisoned_syndrome",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "CodeSpec",
    "DecodeRequest",
    "DecodeResponse",
    "SessionKey",
    "INTERNED_SESSIONS",
    "intern_session",
    "OVERLOAD_POLICIES",
    "ServiceConfig",
    "DecodeService",
    "ServiceClosedError",
    "ServiceDrainError",
    "ServiceOverloadedError",
    "ServiceStats",
    "ServiceStream",
    "service_histogram",
    "HOSTILE_FAMILIES",
    "HOSTILE_SMOKE_TRACES",
    "INTERARRIVALS",
    "SMOKE_TRACE",
    "Scenario",
    "Trace",
    "TracedRequest",
    "TracedStream",
    "TraceSpec",
    "generate_trace",
    "hostile_trace",
    "make_trace",
    "zipf_scenarios",
]
