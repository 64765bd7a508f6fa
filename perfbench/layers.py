"""Per-layer metrics: what each one measures and which end-to-end metric it
should move, on which workload.

``BENCHMARK.json`` fixes the metric names, units and bounds but has no room
for this map, so it lives here; ``selfcheck.py --trace 1`` prints it and
every self-check verifies that it names exactly the per-layer metrics of
``BENCHMARK.json``.  Layers use the program's module names.  A layer that a
workload does not exercise reports 0 on that workload (for example every
``net.*`` metric on ``mc-d9-mb``).
"""

from __future__ import annotations

from common import mean, median, percentile

#: per-layer metric -> (what it measures, the end-to-end metric it moves)
LAYER_MAP = {
    "host.calib_ms": ("median calibration-kernel time: how fast the host was", "- (audit)"),
    "host.raw_throughput_per_s": ("shots or requests per raw host second", "- (audit)"),
    "host.raw_setup_s": ("median raw set-up seconds", "- (audit)"),
    "graphs.build_s": ("decoding-graph build (repro.graphs)", "setup_s, all workloads"),
    "graphs.sample_us_per_shot": (
        "SyndromeSampler.sample_batch time per shot, under 0.2 % of a shot",
        "shots_per_s on mc-d9-mb (attribution only)",
    ),
    "core.decode_ms_p50": (
        "DecoderSession.decode_detailed span per non-trivial shot",
        "shots_per_s on mc-d9-mb; requests_per_s, latency_p90_ms on serve-d5-mb",
    ),
    "core.decode_ms_p99": (
        "as core.decode_ms_p50, 99th percentile",
        "latency_p90_ms on mc-d9-mb and serve-d5-mb",
    ),
    "core.accel_share": (
        "share of decode time inside MicroBlossomAccelerator instruction calls",
        "shots_per_s on mc-d9-mb; requests_per_s on serve-d5-mb",
    ),
    "core.accel_ms_per_shot": (
        "self time of accelerator instruction calls per decode",
        "shots_per_s on mc-d9-mb; requests_per_s on serve-d5-mb",
    ),
    "core.primal_ms_per_shot": (
        "decode self time outside accelerator calls (PrimalModule, glue)",
        "shots_per_s on mc-d9-mb; requests_per_s on serve-d5-mb",
    ),
    "core.find_obstacle_us": (
        "time per find_obstacle call",
        "shots_per_s on mc-d9-mb; requests_per_s on serve-d5-mb",
    ),
    "core.instructions_per_shot": (
        "accelerator instructions per decode (exact)",
        "model_latency_mean_us, model_latency_tail_us and shots_per_s on mc-d9-mb",
    ),
    "core.edges_scanned_per_shot": (
        "dual-engine edge scans per decode (exact)",
        "shots_per_s on mc-d9-mb",
    ),
    "core.prematch_share": (
        "pre-matched defects over defects loaded (exact)",
        "model_latency_mean_us and shots_per_s on mc-d9-mb",
    ),
    "service.queue_delay_ms_p50": (
        "DecodeResponse.queue_delay_seconds of decoded requests",
        "latency_p50_ms on net-d5-lut",
    ),
    "service.queue_delay_ms_p99": (
        "as service.queue_delay_ms_p50, 99th percentile",
        "latency_p90_ms on serve-d5-mb",
    ),
    "service.exec_ms": (
        "mean service latency minus queue delay of decoded requests",
        "requests_per_s on serve-d5-mb and net-d5-lut",
    ),
    "service.submit_us": ("DecodeService.submit call time", "latency_p50_ms on serve-d5-mb"),
    "service.callback_lag_us": (
        "median client latency minus service-reported latency",
        "latency_p50_ms on serve-d5-mb",
    ),
    "service.batch_size_mean": (
        "mean micro-batch size of decoded requests",
        "requests_per_s on serve-d5-mb and net-d5-lut",
    ),
    "service.session_builds": (
        "session-cache misses from stats_snapshot() (exact)",
        "setup_s on serve-d5-mb",
    ),
    "lut.outcome_cache_hit_ratio": (
        "OutcomeCache hits over requests",
        "latency_p50_ms on serve-d5-mb",
    ),
    "lut.table_hit_ratio": (
        "lut_hit over lut_hit + lut_miss outcome counters (exact)",
        "requests_per_s on net-d5-lut",
    ),
    "net.transport_ms_p50": (
        "client latency minus worker-reported latency (wire, front end, pipe)",
        "latency_p50_ms, requests_per_s on net-d5-lut",
    ),
    "net.submit_us": ("NetClient.submit call time", "requests_per_s on net-d5-lut"),
    "net.bytes_per_request": (
        "wire bytes sent and received per request",
        "requests_per_s on net-d5-lut",
    ),
    "net.requests_per_frame": (
        "requests per request frame sent (client coalescing)",
        "requests_per_s on net-d5-lut",
    ),
    "net.server_start_s": (
        "server process start until its port is reported",
        "setup_s on net-d5-lut",
    ),
    "trace.overhead_share": (
        "traced over untraced calibrated time per operation, minus 1",
        "- (audit)",
    ),
}

#: Per-layer metric prefixes each workload exercises; the others read 0.
EXERCISED = {
    "mc-d9-mb": ("host.", "graphs.", "core.", "trace."),
    "serve-d5-mb": ("host.", "graphs.", "core.", "service.", "lut.", "trace."),
    "net-d5-lut": ("host.", "graphs.", "service.", "lut.", "net.", "trace."),
}

#: Counters whose sum is the number of accelerator instructions issued.
INSTRUCTION_COUNTERS = (
    "instr_load",
    "instr_grow",
    "instr_find_obstacle",
    "instr_set_direction",
    "instr_set_cover",
    "instr_reset",
)


def fill_unexercised(workload: str, names, metrics: dict) -> None:
    """Report 0 for the per-layer metrics of layers ``workload`` bypasses."""
    for name in names:
        if not name.startswith(EXERCISED[workload]):
            metrics.setdefault(name, 0.0)


def core_counts(counters, decodes: int) -> dict:
    """Exact ``repro.core`` counts per decode, from summed outcome counters."""
    per = max(1, decodes)
    instructions = sum(counters.get(name, 0) for name in INSTRUCTION_COUNTERS)
    loaded = max(1, counters.get("defects_loaded", 0))
    return {
        "core.instructions_per_shot": instructions / per,
        "core.edges_scanned_per_shot": counters.get("edges_scanned", 0) / per,
        "core.prematch_share": counters.get("prematched_defects", 0) / loaded,
    }


def span_metrics(tracer, factor, nontrivial) -> dict:
    """Per-layer timings from the spans of a traced run.

    ``factor(ns)`` calibrates a host interval starting at ``ns``;
    ``nontrivial(request_id)`` tells whether a decode had defects.  Only
    accelerator calls made directly by such a decode are counted.
    """
    own = tracer.self_times_ns()
    spans = tracer.spans
    decodes, find_obstacle = [], []
    decode_ns = accel_ns = 0
    accel_ms = primal_ms = 0.0
    for index, (name, start, end, parent, request) in enumerate(spans):
        if name == "api.decode" and nontrivial(request):
            scale = factor(start) * 1e-6
            decodes.append((end - start) * scale)
            primal_ms += own[index] * scale
            decode_ns += end - start
        elif (
            name.startswith("core.accel.")
            and parent >= 0
            and spans[parent][0] == "api.decode"
            and nontrivial(spans[parent][4])
        ):
            scale = factor(start) * 1e-6
            accel_ms += (end - start) * scale
            accel_ns += end - start
            if name == "core.accel.find_obstacle":
                find_obstacle.append((end - start) * scale * 1e3)
    count = max(1, len(decodes))
    return {
        "core.decode_ms_p50": median(decodes),
        "core.decode_ms_p99": percentile(decodes, 99),
        "core.accel_share": accel_ns / decode_ns if decode_ns else 0.0,
        "core.accel_ms_per_shot": accel_ms / count,
        "core.primal_ms_per_shot": primal_ms / count,
        "core.find_obstacle_us": mean(find_obstacle),
    }
