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
* :func:`wire_comparison` replays the same trace twice against one server —
  once with the negotiated binary codec and batched ``decode_many`` frames,
  once with a client forced to the JSON-v1 per-request wire format — and
  reports both sides' throughput and wire statistics, the end-to-end
  speedup, and whether the two paths' healthy digests agree.  Both passes
  run against a warm worker-side outcome cache so the comparison measures
  the wire, not the decoders.
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

    One server serves both passes.  The worker-side outcome cache is forced
    on and warmed with an untimed pass first, so the measured passes spend
    their time on the wire and the front end — the thing this comparison is
    about — instead of re-decoding; decode cost is identical on both sides
    either way.  Returns the schema-v5 ``wire.comparison`` block::

        {"processes", "requests",
         "v2": {codec, bytes/frames, throughput_rps, healthy_digest, ...},
         "v1": {...},
         "speedup": v2.throughput / v1.throughput,
         "digest_match": both passes produced one healthy digest}
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
        v2 = replay(SUPPORTED_CODECS, repeats)
        v1 = replay((CODEC_JSON,), repeats)
    finally:
        server.stop()
    return {
        "processes": processes,
        "requests": v2.requests,
        "v2": {**v2.wire, "throughput_rps": v2.throughput_rps, "healthy_digest": v2.healthy_digest},
        "v1": {**v1.wire, "throughput_rps": v1.throughput_rps, "healthy_digest": v1.healthy_digest},
        "speedup": v2.throughput_rps / v1.throughput_rps if v1.throughput_rps > 0 else 0.0,
        "digest_match": v2.healthy_digest == v1.healthy_digest,
    }


def scaling_entry(process_counts, results: dict[int, ServiceLoadResult]) -> dict:
    """The ``saturation.scaling`` block from per-process-count replays."""
    counts = list(process_counts)
    base = results[counts[0]].throughput_rps
    digests = {results[count].healthy_digest for count in counts}
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
                "efficiency": (
                    results[count].throughput_rps / (count / counts[0] * base)
                    if base > 0
                    else 0.0
                ),
            }
            for count in counts
        ],
        "digest_match": len(digests) == 1,
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
    process count to its full :class:`~repro.evaluation.ServiceLoadResult`
    for further gating (the CI smoke asserts every ``healthy_digest`` equals
    the in-process one and every identity check passed).
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
