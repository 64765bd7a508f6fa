"""``BENCH_sweep.json`` — the machine-readable performance trajectory.

CI's ``perf-trajectory`` job runs the pinned smoke sweep on every push and
publishes one JSON document per commit: logical error rate ± SE per point
(zero-failure points as rule-of-three upper bounds), decode throughput in
shots/sec, and latency-histogram summaries.  Consecutive artifacts form the
repo's performance trajectory — a regression on a hot path shows up as a
drop in ``shots_per_second`` (or a shift in ``latency.p99_us``) between two
commits at identical, seed-pinned work.

:data:`BENCH_SCHEMA` is the schema gate, walked by :func:`validate_bench`;
the CLI's ``sweep export-bench`` validates before writing and CI fails on any
violation.
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
    Str,
    current_commit,
    fields,
    validate_document,
    write_document,
)
from ..evaluation.scaling import fit_logical_error_scaling
from .fits import scaling_points
from .runner import SweepRunResult
from .store import PointResult

#: Version of the BENCH document layout; bump on breaking changes
#: (history in ``docs/sweeps.md``).
BENCH_SCHEMA_VERSION = 3


class BenchSchemaError(ValueError):
    """Raised when a BENCH document violates the published schema."""


def _fallback_throughputs(results: list[PointResult]) -> dict[tuple, float]:
    """Index base-decoder points by their (cell, decoder) for speedup pairing."""
    index: dict[tuple, float] = {}
    for result in results:
        point = result.point
        if point.decoder.startswith("lut+"):
            continue
        cell = (
            point.distance,
            point.noise,
            point.physical_error_rate,
            point.streaming,
            point.decoder,
        )
        index[cell] = result.shots_per_second
    return index


def _lut_entry(result: PointResult, fallback_sps: dict[tuple, float]) -> dict | None:
    """The per-point ``lut`` block: hit stats + measured speedup-vs-fallback.

    ``speedup_vs_fallback`` compares the lut point's shots/sec against the
    same sweep's matching base-decoder point (same distance, noise, error
    rate, streaming flag) — null when the sweep ran no such point or either
    throughput is unusable.  The two points decode different seed-derived
    syndromes (the decoder name joins the seed derivation), which is exactly
    right for a throughput ratio: same workload distribution, not same shots.
    """
    if result.lut is None:
        return None
    point = result.point
    cell = (
        point.distance,
        point.noise,
        point.physical_error_rate,
        point.streaming,
        point.decoder[len("lut+"):],
    )
    base_sps = fallback_sps.get(cell, 0.0)
    speedup = None
    if base_sps > 0.0 and result.shots_per_second > 0.0:
        speedup = result.shots_per_second / base_sps
    return {
        **result.lut.to_dict(),
        "hit_rate": result.lut.hit_rate,
        "speedup_vs_fallback": speedup,
    }


def _point_entry(result: PointResult, fallback_sps: dict[tuple, float]) -> dict:
    point = result.point
    latency = None
    if result.latency is not None:
        latency = {
            "count": result.latency.count,
            "mean_us": result.latency.mean_seconds * 1e6,
            "p50_us": result.latency.p50_seconds * 1e6,
            "p99_us": result.latency.p99_seconds * 1e6,
            "min_us": result.latency.min_seconds * 1e6,
            "max_us": result.latency.max_seconds * 1e6,
        }
    return {
        "distance": point.distance,
        "noise": point.noise,
        "physical_error_rate": point.physical_error_rate,
        "decoder": point.decoder,
        # Streaming points report reaction-latency percentiles (time left
        # after the final measurement round) instead of decode latency.
        "streaming": point.streaming,
        "seed": point.seed,
        "shots": result.shots,
        "errors": result.errors,
        "logical_error_rate": result.rate,
        "standard_error": result.standard_error,
        "error_rate_upper_bound": result.upper_bound,
        "zero_failures": result.zero_failures,
        "stopped_early": result.stopped_early,
        "shots_per_second": result.shots_per_second,
        "elapsed_seconds": result.elapsed_seconds,
        "latency": latency,
        "lut": _lut_entry(result, fallback_sps),
    }


def bench_document(
    run: SweepRunResult,
    *,
    commit: str | None = None,
    timestamp: str | None = None,
) -> dict:
    """Build the BENCH document for one sweep run (validated by the caller)."""
    spec = run.spec
    fallback_sps = _fallback_throughputs(run.results)
    fits: dict[str, dict | None] = {}
    for noise in spec.noise_models:
        for decoder in spec.decoders:
            slice_key = f"{noise}/{decoder}"
            usable = scaling_points(run.results, noise=noise, decoder=decoder)
            try:
                scaling = fit_logical_error_scaling(usable)
                fits[slice_key] = {
                    "amplitude": scaling.amplitude,
                    "threshold": scaling.threshold,
                    "points_used": len(usable),
                }
            except ValueError:
                fits[slice_key] = None
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "commit": commit if commit is not None else current_commit(),
        "timestamp": timestamp
        if timestamp is not None
        else datetime.now(timezone.utc).isoformat(),
        "spec": {"hash": run.spec_hash, **spec.to_dict()},
        "points": [
            _point_entry(result, fallback_sps) for result in run.results
        ],
        "fits": fits,
    }


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------
_LUT_BLOCK = {
    **fields("hits misses zero_defect_hits", NON_NEGATIVE),
    "hit_rate": RATIO,
    "speedup_vs_fallback": Nullable(NON_NEGATIVE),
}
_POINT = Obj(
    {
        "distance": Num(3),
        **fields("noise decoder", Str(empty=True)),
        **fields("physical_error_rate logical_error_rate error_rate_upper_bound", RATIO),
        **fields("streaming zero_failures stopped_early", BOOL),
        "shots": Num(1),
        **fields("seed errors standard_error shots_per_second elapsed_seconds", NON_NEGATIVE),
        "latency": Nullable(LATENCY_SUMMARY),
        "lut": Nullable(_LUT_BLOCK),
    },
    ("errors exceed shots", lambda p: p["errors"] <= p["shots"]),
    ("zero_failures inconsistent with errors", lambda p: p["zero_failures"] == (p["errors"] == 0)),
    (
        "zero-failure point must carry a positive upper bound",
        lambda p: not p["zero_failures"] or p["error_rate_upper_bound"] > 0,
    ),
    (
        "batch lut+ point must carry a lut block",
        lambda p: p["lut"] is not None or p["streaming"] or not p["decoder"].startswith("lut+"),
    ),
    ("lut block on non-lut decoder", lambda p: p["lut"] is None or p["decoder"].startswith("lut+")),
)

#: The BENCH document schema, walked by :func:`validate_bench`.
BENCH_SCHEMA = {
    "schema_version": Const(BENCH_SCHEMA_VERSION),
    "commit": TEXT,
    "timestamp": TEXT,
    "spec": fields("hash name distances physical_error_rates decoders shots", ANY),
    "points": Arr(_POINT, nonempty=True),
    "fits": Map(Nullable({"amplitude": NON_NEGATIVE, "threshold": RATIO, "points_used": Num(2)})),
}


def validate_bench(document: dict) -> None:
    """Validate a BENCH document; raises :class:`BenchSchemaError` on violation.

    >>> validate_bench({"schema_version": 3})
    Traceback (most recent call last):
        ...
    repro.sweeps.bench.BenchSchemaError: missing top-level key 'commit'
    """
    validate_document(document, BENCH_SCHEMA, BenchSchemaError)


def write_bench(document: dict, path: str | Path) -> Path:
    """Validate and write the BENCH document (atomic via temp + rename)."""
    validate_bench(document)
    return write_document(document, path)
