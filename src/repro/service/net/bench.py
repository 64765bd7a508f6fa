"""Network-path benchmarking: process scaling and the wire-codec comparison.

Every replay here is a :class:`~repro.evaluation.ServiceLoadEngine` run whose
front end is a :class:`~repro.service.net.client.NetClient` connected to a
real :class:`~repro.service.net.server.NetServer` over loopback TCP — the
*same* replay loop, aggregation and digests as in-process serving, so
``healthy_digest`` equality between the two paths compares identical record
constructions.  The network layer is required to be a pure transport: any
digest difference is a bug, not noise.

* :func:`scaling_bench` runs that replay at several worker-process counts
  and reports throughput, per-process scaling efficiency
  (``throughput[p] / (p × throughput[1])``), whether every count produced
  the same healthy digest, and the machine's CPU count — scaling numbers
  from a 1-core container are honest only with the core count attached.
* :func:`wire_comparison` replays the same trace against one server in
  :data:`WIRE_PAIRS` interleaved pairs — each pair once with the negotiated
  binary codec and batched ``decode_many`` frames, once with a client forced
  to the JSON-v1 per-request wire format — and reports the median pair's
  throughput and wire statistics, its end-to-end speedup, and whether every
  pass produced one healthy digest.  Every pass runs against a warm
  worker-side outcome cache so the comparison measures the wire, not the
  decoders.
"""

from __future__ import annotations

import os

from ...evaluation.service_load import (
    DEFAULT_LOAD_CONFIG,
    ServiceLoadEngine,
    ServiceLoadResult,
)
from ..config import ServiceConfig
from ..trace import TraceSpec
from .client import NetClient
from .protocol import CODEC_JSON, SUPPORTED_CODECS
from .server import NetServer

#: Worker-process counts the scaling series sweeps by default.
DEFAULT_PROCESS_COUNTS = (1, 2, 4)

#: Interleaved v2/v1 replay pairs :func:`wire_comparison` takes the median
#: of: one pass of ≈200 requests is ≈40 ms on a shared 2-core host, where a
#: single scheduling hiccup moves a lone ratio by tens of percent.
WIRE_PAIRS = 3


def prewarm_specs(spec: TraceSpec):
    """The distinct :class:`~repro.service.CodeSpec`s of a trace's scenarios
    (what the server packs into shared memory before forking workers)."""
    seen: dict[str, object] = {}
    for scenario in spec.scenarios:
        code = scenario.code()
        seen.setdefault(code.key(), code)
    return tuple(seen.values())


def wire_comparison(
    spec: TraceSpec,
    *,
    processes: int = 2,
    config: ServiceConfig = DEFAULT_LOAD_CONFIG,
    repeats: int = 2,
) -> dict:
    """Binary-batched (codec 2) vs per-request JSON (codec 1) wire replay.

    One server serves every pass.  The worker-side outcome cache is forced
    on and warmed with an untimed pass first, so the measured passes spend
    their time on the wire and the front end — the thing this comparison is
    about — instead of re-decoding; decode cost is identical on both sides
    either way.  Then :data:`WIRE_PAIRS` v2/v1 pairs run back to back, and
    the pair with the median v2/v1 ratio is reported.  Returns the
    ``wire.comparison`` block of the BENCH_service document::

        {"processes", "requests",
         "v2": {codec, bytes/frames, throughput_rps, healthy_digest, ...},
         "v1": {...},
         "speedup": v2.throughput / v1.throughput (the median pair's),
         "digest_match": every pass produced one healthy digest}
    """
    if not config.outcome_cache_bytes:
        config = config.replace(outcome_cache_bytes=8 << 20)
    server = NetServer(config, processes=processes, prewarm=prewarm_specs(spec))
    host, port = server.start()

    def replay(codecs: tuple[int, ...], repeats: int) -> ServiceLoadResult:
        engine = ServiceLoadEngine(
            spec,
            config=config,
            front=lambda: NetClient(host, port, codecs=codecs),
            repeats=repeats,
        )
        return engine.run()

    try:
        replay(SUPPORTED_CODECS, 1)  # untimed: warms the outcome caches
        pairs = [
            (replay(SUPPORTED_CODECS, repeats), replay((CODEC_JSON,), repeats))
            for _ in range(WIRE_PAIRS)
        ]
    finally:
        server.stop()
    ratios = [
        v2.throughput_rps / v1.throughput_rps if v1.throughput_rps > 0 else 0.0
        for v2, v1 in pairs
    ]
    median = sorted(range(len(pairs)), key=ratios.__getitem__)[len(pairs) // 2]
    v2, v1 = pairs[median]
    return {
        "processes": processes,
        "requests": v2.requests,
        "v2": {**v2.wire, "throughput_rps": v2.throughput_rps, "healthy_digest": v2.healthy_digest},
        "v1": {**v1.wire, "throughput_rps": v1.throughput_rps, "healthy_digest": v1.healthy_digest},
        "speedup": ratios[median],
        "digest_match": len({run.healthy_digest for pair in pairs for run in pair}) == 1,
    }


def scaling_entry(process_counts, results: dict[int, ServiceLoadResult]) -> dict:
    """The ``saturation.scaling`` block from per-process-count replays."""
    counts = list(process_counts)
    base = results[counts[0]].throughput_rps
    return {
        "cpu_count": os.cpu_count() or 1,
        "process_counts": counts,
        "series": [
            {
                "processes": count,
                "completed": results[count].completed,
                "throughput_rps": results[count].throughput_rps,
                "latency_p99_us": results[count].latency.percentile(99) * 1e6,
                "healthy_digest": results[count].healthy_digest,
                "identity_mismatches": results[count].identity_mismatches,
                "stream_mismatches": results[count].stream_mismatches,
                "error_responses": results[count].error_responses,
                "efficiency": (
                    results[count].throughput_rps / (count / counts[0] * base)
                    if base > 0
                    else 0.0
                ),
            }
            for count in counts
        ],
    }


def scaling_bench(
    spec: TraceSpec,
    *,
    process_counts=DEFAULT_PROCESS_COUNTS,
    config: ServiceConfig = DEFAULT_LOAD_CONFIG,
    repeats: int = 1,
) -> tuple[dict, dict[int, ServiceLoadResult]]:
    """Replay ``spec`` at each worker-process count; returns (entry, results).

    Each count gets a fresh server and one identity-verified engine run
    through a :class:`NetClient` (verification re-decodes after the timed
    replay, so it never moves the throughput).  ``entry`` is the JSON-shaped
    ``saturation.scaling`` block (:func:`scaling_entry`); ``results`` maps
    process count to its full :class:`~repro.evaluation.ServiceLoadResult`.
    The entry carries what :data:`repro.service.SERVICE_BENCH_GATES` reads:
    each count's ``healthy_digest`` and its identity, stream and error counts.
    """
    counts = [int(count) for count in process_counts]
    if not counts or any(count < 1 for count in counts):
        raise ValueError("process_counts must be a non-empty list of ints >= 1")
    results: dict[int, ServiceLoadResult] = {}
    for count in counts:
        server = NetServer(config, processes=count, prewarm=prewarm_specs(spec))
        host, port = server.start()
        try:
            engine = ServiceLoadEngine(
                spec, config=config, front=lambda: NetClient(host, port), repeats=repeats
            )
            results[count] = engine.run(verify_identity=True)
        finally:
            server.stop()
    return scaling_entry(counts, results), results
