"""``BENCH_service.json`` — the service-layer performance trajectory.

CI's ``perf-trajectory`` job replays the pinned smoke trace
(:data:`repro.service.SMOKE_TRACE`) through the decode service on every push
and publishes one JSON document per commit: request throughput, queue-delay
and end-to-end latency percentiles, the realised micro-batch size histogram,
session-cache and outcome-cache effectiveness (:mod:`repro.lut`), the fault
and overload ledger, the optional saturation, scaling and wire blocks, and
the bit-identity verdict against direct decodes.  ``docs/service.md`` holds
the field-by-field layout and the schema history.  Consecutive artifacts
form the service trajectory, the front-end counterpart of
``BENCH_sweep.json`` (:mod:`repro.sweeps.bench`): a scheduling or batching
regression shows up as a latency/throughput shift at identical, seed-pinned
work.

:data:`SERVICE_BENCH_SCHEMA` is the schema gate, walked by
:func:`validate_service_bench`; the CLI's ``serve-bench`` validates before
writing and CI fails on any violation (or on a non-zero identity mismatch
count).
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

from ..api.bench_schema import (
    ANY,
    BOOL,
    LATENCY_SUMMARY,
    NON_NEGATIVE,
    RATIO,
    TEXT,
    Arr,
    Const,
    Map,
    Nullable,
    Num,
    Obj,
    current_commit,
    fields,
    validate_document,
    write_document,
)
from ..evaluation.engine import LatencyHistogram

#: Version of the BENCH_service document layout; bump on breaking changes
#: (history in ``docs/service.md``).
SERVICE_BENCH_SCHEMA_VERSION = 5


class ServiceBenchSchemaError(ValueError):
    """Raised when a BENCH_service document violates the published schema."""


def _histogram_entry(histogram: LatencyHistogram) -> dict:
    return {
        "count": histogram.count,
        "mean_us": histogram.mean * 1e6,
        "p50_us": histogram.percentile(50) * 1e6,
        "p99_us": histogram.percentile(99) * 1e6,
        "min_us": (0.0 if histogram.count == 0 else histogram.min_seconds * 1e6),
        "max_us": histogram.max_seconds * 1e6,
    }


def cache_comparison_entry(off_result, on_result) -> dict:
    """The ``cache_comparison`` block: one trace replayed cache-off then -on.

    Both arguments are :class:`repro.evaluation.ServiceLoadResult` runs of the
    *same* trace; ``throughput_ratio`` is on/off (>1 ⇒ the cache helped).
    """

    def _side(result) -> dict:
        return {
            "completed": result.completed,
            "cache_hits": result.cache_hits,
            "throughput_rps": result.throughput_rps,
            "latency_p99_us": result.latency.percentile(99) * 1e6,
        }

    ratio = (
        on_result.throughput_rps / off_result.throughput_rps
        if off_result.throughput_rps > 0
        else 0.0
    )
    return {"off": _side(off_result), "on": _side(on_result), "throughput_ratio": ratio}


def fairness_entry(result) -> dict:
    """The ``fairness`` block: per-scenario healthy completion ratios.

    Each scenario's ratio is ``completed / (offered - poisoned)`` — poisoned
    requests are the fault plan's, not the scheduler's, so they are excluded
    from the denominator.  ``min``/``max`` summarise the spread: a scheduler
    that starves one session key under Zipf skew shows up as a low ``min``.
    """
    return {
        "per_scenario": [dict(row) for row in result.per_scenario],
        "min_completion_ratio": result.min_completion_ratio,
        "max_completion_ratio": result.max_completion_ratio,
    }


def hostile_mix_entry(family: str, trace, plan, result) -> dict:
    """One ``hostile_mix`` series entry: a hostile family replayed faulted.

    ``family`` names the traffic shape (one of
    :data:`repro.service.HOSTILE_FAMILIES`), ``trace`` / ``plan`` the pinned
    :class:`~repro.service.trace.TraceSpec` and
    :class:`~repro.service.faults.FaultPlan` replayed, and ``result`` the
    :class:`repro.evaluation.ServiceLoadResult`.  ``isolated`` is the
    series' pass/fail verdict: every poisoned request resolved as an error,
    no healthy request was lost to one, and identity held.
    """
    isolated = (
        result.poisoned_errored == result.poisoned
        and result.error_responses == result.poisoned
        and result.identity_mismatches == 0
        and result.stream_mismatches == 0
    )
    return {
        "family": family,
        "trace_hash": trace.trace_hash(),
        "plan_hash": plan.plan_hash(),
        "requests": result.requests,
        "completed": result.completed,
        "shed": result.shed,
        "error_responses": result.error_responses,
        "poisoned": result.poisoned,
        "poisoned_errored": result.poisoned_errored,
        "retries": result.retries,
        "streams": result.streams,
        "stream_mismatches": result.stream_mismatches,
        "shed_rate": result.shed_rate,
        "min_completion_ratio": result.min_completion_ratio,
        "max_completion_ratio": result.max_completion_ratio,
        "throughput_rps": result.throughput_rps,
        "latency_p99_us": result.latency.percentile(99) * 1e6,
        "identity_checked": result.identity_checked,
        "identity_mismatches": result.identity_mismatches,
        "healthy_digest": result.healthy_digest,
        "isolated": isolated,
    }


def saturation_entry(saturation, scaling: dict | None = None) -> dict:
    """The ``saturation`` block: the offered-load ladder plus its knee.

    ``saturation`` is a :class:`repro.evaluation.SaturationResult` from
    :meth:`repro.evaluation.ServiceLoadEngine.saturate`; ``scaling`` is the
    (optional) network-path process-scaling series from
    :func:`repro.service.net.bench.scaling_entry`.
    """
    return {
        "mode": "closed-loop",
        "client_ladder": [point.clients for point in saturation.points],
        "points": [point.to_dict() for point in saturation.points],
        "knee": {
            "clients": saturation.knee_clients,
            "throughput_rps": saturation.knee_throughput_rps,
        },
        "peak_throughput_rps": saturation.peak_throughput_rps,
        "digest_match": saturation.digest_match,
        "scaling": scaling,
    }


def wire_entry(stats: dict | None = None, comparison: dict | None = None) -> dict:
    """The ``wire`` block: network wire statistics plus the codec comparison.

    ``stats`` is :meth:`repro.service.net.client.NetClient.wire_stats` from a
    network replay (``None`` when the primary run was in-process);
    ``comparison`` is :func:`repro.service.net.bench.wire_comparison`'s
    v2-vs-v1 block (``None`` when not run).
    """
    return {"stats": stats, "comparison": comparison}


def service_bench_document(
    trace,
    result,
    *,
    commit: str | None = None,
    timestamp: str | None = None,
    cache_comparison: dict | None = None,
    fault_plan=None,
    hostile_mix: list | None = None,
    saturation: dict | None = None,
    wire: dict | None = None,
) -> dict:
    """Build the BENCH_service document for one load-engine run.

    ``trace`` is the :class:`~repro.service.trace.TraceSpec` the
    :class:`repro.evaluation.ServiceLoadEngine` replayed, ``result`` the
    :class:`repro.evaluation.ServiceLoadResult` it returned; the document
    embeds the trace (with its content hash) next to the measurements.
    ``cache_comparison`` is an optional :func:`cache_comparison_entry` block,
    ``fault_plan`` the :class:`~repro.service.faults.FaultPlan` the primary
    run injected, ``hostile_mix`` an optional list of
    :func:`hostile_mix_entry` blocks, ``saturation`` an optional
    :func:`saturation_entry` block, and ``wire`` an optional
    :func:`wire_entry` block — all ``None`` when not run (the keys are
    always present).
    """
    return {
        "schema_version": SERVICE_BENCH_SCHEMA_VERSION,
        "commit": commit if commit is not None else current_commit(),
        "timestamp": timestamp
        if timestamp is not None
        else datetime.now(timezone.utc).isoformat(),
        "trace": {"hash": trace.trace_hash(), **trace.to_dict()},
        "requests": result.requests,
        "completed": result.completed,
        "shed": result.shed,
        "evaluated": result.evaluated,
        "errors": result.errors,
        "logical_error_rate": result.logical_error_rate,
        "elapsed_seconds": result.elapsed_seconds,
        "throughput_rps": result.throughput_rps,
        "queue_delay": _histogram_entry(result.queue_delay),
        "latency": _histogram_entry(result.latency),
        "batches": result.batches,
        "mean_batch_size": result.mean_batch_size,
        "batch_size_histogram": {
            str(size): count for size, count in sorted(result.batch_sizes.items())
        },
        "sessions": dict(result.session_stats),
        "cache_hits": result.cache_hits,
        "outcome_cache": dict(result.outcome_cache),
        "cache_comparison": cache_comparison,
        "error_responses": result.error_responses,
        "retries": result.retries,
        "shed_rate": result.shed_rate,
        "fairness": fairness_entry(result),
        "fault_plan": None if fault_plan is None else fault_plan.to_dict(),
        "hostile_mix": hostile_mix,
        "saturation": saturation,
        "wire": wire,
        "identity": {
            "checked": result.identity_checked,
            "mismatches": result.identity_mismatches,
        },
        "outcome_digest": result.outcome_digest,
        "healthy_digest": result.healthy_digest,
    }


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------
_COUNT_HISTOGRAM = Map(Num(1), count_keys=True)
_REQUEST_LEDGER = (
    "completed + shed + error_responses must equal requests",
    lambda d: d["completed"] + d["shed"] + d["error_responses"] == d["requests"],
)


def _batch_ledger(document: dict) -> bool:
    """Failed requests occupy batch slots too, so they count as batched."""
    batched = sum(int(size) * count for size, count in document["batch_size_histogram"].items())
    return batched + document["cache_hits"] == document["completed"] + document["error_responses"]


_CACHE_SIDE = fields("completed cache_hits throughput_rps latency_p99_us", NON_NEGATIVE)
_CACHE_COMPARISON = Obj(
    {"off": _CACHE_SIDE, "on": _CACHE_SIDE, "throughput_ratio": NON_NEGATIVE},
    ("off ran with the cache (cache_hits > 0)", lambda c: c["off"]["cache_hits"] == 0),
)
_FAIRNESS_ROW = Obj(
    {
        **fields("scenario offered poisoned completed shed errors", NON_NEGATIVE),
        "completion_ratio": RATIO,
    },
    # Poisoned, completed and shed are disjoint request sets; errors may
    # overlap poisoned (a poisoned request resolving as an error).
    (
        "ledger exceeds offered requests",
        lambda r: r["poisoned"] + r["completed"] + r["shed"] <= r["offered"],
    ),
)
_FAIRNESS = Obj(
    {
        "per_scenario": Arr(_FAIRNESS_ROW, nonempty=True),
        **fields("min_completion_ratio max_completion_ratio", RATIO),
    },
    (
        "min_completion_ratio exceeds max_completion_ratio",
        lambda f: f["min_completion_ratio"] <= f["max_completion_ratio"],
    ),
)
_HOSTILE_RUN = Obj(
    {
        **fields("family trace_hash plan_hash healthy_digest", TEXT),
        **fields("requests completed shed error_responses poisoned poisoned_errored", NON_NEGATIVE),
        **fields("retries streams stream_mismatches throughput_rps latency_p99_us", NON_NEGATIVE),
        **fields("identity_checked identity_mismatches", NON_NEGATIVE),
        **fields("shed_rate min_completion_ratio max_completion_ratio", RATIO),
        "isolated": BOOL,
    },
    _REQUEST_LEDGER,
    ("poisoned_errored exceeds poisoned", lambda e: e["poisoned_errored"] <= e["poisoned"]),
)
_SCALING_ROW = {
    **fields("processes completed throughput_rps latency_p99_us efficiency", NON_NEGATIVE),
    "healthy_digest": TEXT,
}
_SCALING = Obj(
    {
        "cpu_count": Num(1),
        # Items are held to the numeric series processes by the rule below.
        "process_counts": Arr(ANY, nonempty=True),
        "series": Arr(_SCALING_ROW),
        "digest_match": BOOL,
    },
    (
        "series processes must match process_counts",
        lambda s: [row["processes"] for row in s["series"]] == s["process_counts"],
    ),
)
_LADDER_POINT = {
    **fields("clients requests completed elapsed_seconds", NON_NEGATIVE),
    **fields("throughput_rps latency_p50_us latency_p99_us", NON_NEGATIVE),
    "healthy_digest": TEXT,
}
_SATURATION = Obj(
    {
        "mode": Const("closed-loop"),
        # Items are held to the numeric points' clients by the first rule.
        "client_ladder": Arr(ANY, nonempty=True),
        "points": Arr(_LADDER_POINT),
        "knee": fields("clients throughput_rps", NON_NEGATIVE),
        "peak_throughput_rps": NON_NEGATIVE,
        "digest_match": BOOL,
        "scaling": Nullable(_SCALING),
    },
    (
        "points clients must match client_ladder",
        lambda s: [point["clients"] for point in s["points"]] == s["client_ladder"],
    ),
    (
        "client_ladder must be strictly increasing",
        lambda s: s["client_ladder"] == sorted(set(s["client_ladder"])),
    ),
    ("knee is not a ladder rung", lambda s: s["knee"]["clients"] in s["client_ladder"]),
)
_WIRE_STATS = {
    "codec": Const(1, 2),
    **fields("frames_sent bytes_sent frames_received bytes_received", NON_NEGATIVE),
    "batch_histogram": _COUNT_HISTOGRAM,
}
_WIRE_RUN = {**_WIRE_STATS, "throughput_rps": NON_NEGATIVE, "healthy_digest": TEXT}
_WIRE_COMPARISON = {
    **fields("processes requests", Num(1)),
    "v2": _WIRE_RUN,
    "v1": {**_WIRE_RUN, "codec": Const(1)},
    "speedup": NON_NEGATIVE,
    "digest_match": BOOL,
}
_WIRE = {"stats": Nullable(_WIRE_STATS), "comparison": Nullable(_WIRE_COMPARISON)}
_TRACE = {**fields("hash name requests seed arrival", ANY), "scenarios": Arr(ANY, nonempty=True)}
_FAULT_PLAN = {
    **fields("name seed straggler_workers straggler_delay_seconds session_crash_attempts", ANY),
    **fields("session_crash_rate poison_rate", RATIO),
}

#: The BENCH_service document schema, walked by :func:`validate_service_bench`.
SERVICE_BENCH_SCHEMA = Obj(
    {
        "schema_version": Const(SERVICE_BENCH_SCHEMA_VERSION),
        **fields("commit timestamp outcome_digest healthy_digest", TEXT),
        "trace": _TRACE,
        "requests": Num(1),
        **fields("completed shed error_responses retries evaluated errors", NON_NEGATIVE),
        **fields("elapsed_seconds throughput_rps batches mean_batch_size cache_hits", NON_NEGATIVE),
        **fields("logical_error_rate shed_rate", RATIO),
        **fields("queue_delay latency", LATENCY_SUMMARY),
        "batch_size_histogram": _COUNT_HISTOGRAM,
        "sessions": fields("hits misses evictions", NON_NEGATIVE),
        "outcome_cache": Obj(
            {
                "enabled": BOOL,
                **fields("hits misses evictions entries bytes_resident max_bytes", NON_NEGATIVE),
                "hit_rate": RATIO,
            },
            switch="enabled",
        ),
        "cache_comparison": Nullable(_CACHE_COMPARISON),
        "fairness": _FAIRNESS,
        "fault_plan": Nullable(_FAULT_PLAN),
        "hostile_mix": Nullable(Arr(_HOSTILE_RUN, nonempty=True)),
        "saturation": Nullable(_SATURATION),
        "wire": Nullable(_WIRE),
        "identity": Obj(
            fields("checked mismatches", NON_NEGATIVE),
            ("mismatches exceed checked", lambda i: i["mismatches"] <= i["checked"]),
        ),
    },
    _REQUEST_LEDGER,
    ("evaluated exceeds completed", lambda d: d["evaluated"] <= d["completed"]),
    ("errors exceed evaluated", lambda d: d["errors"] <= d["evaluated"]),
    ("cache_hits exceed completed", lambda d: d["cache_hits"] <= d["completed"]),
    ("batched requests + cache_hits must equal completed + error_responses", _batch_ledger),
)


def validate_service_bench(document: dict) -> None:
    """Validate a BENCH_service document; raises on any schema violation.

    >>> validate_service_bench({})
    Traceback (most recent call last):
        ...
    repro.service.bench.ServiceBenchSchemaError: missing top-level key 'schema_version'
    """
    validate_document(document, SERVICE_BENCH_SCHEMA, ServiceBenchSchemaError)


def write_service_bench(document: dict, path: str | Path) -> Path:
    """Validate and write the document (atomic via temp + rename)."""
    validate_service_bench(document)
    return write_document(document, path)
