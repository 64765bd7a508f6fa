"""Monte-Carlo harness and experiment runners for every table and figure."""

from .engine import (
    DECODERS_WITH_TIMING_MODELS,
    DEFAULT_SHARD_SIZE,
    EngineResult,
    binomial_standard_error,
    LatencyHistogram,
    MonteCarloEngine,
    ShardResult,
    modelled_latency_fn,
    modelled_trivial_latency_seconds,
    rule_of_three_upper_bound,
)
from .experiments import (
    DEFAULT_PHYSICAL_ERROR_RATE,
    IMPROVEMENT_CONFIGS,
    amdahl_profile,
    build_graph,
    calibrate_scalings,
    effective_error_grid,
    format_rows,
    improvement_breakdown,
    latency_distribution,
    latency_sweep,
    resource_usage_table,
    stream_vs_batch,
)
from .monte_carlo import (
    LogicalErrorRateResult,
    estimate_logical_error_rate,
    expected_defect_count,
    expected_error_count,
    wilson_interval,
)
from .scaling import (
    DEFAULT_MWPM_SCALING,
    DEFAULT_UNION_FIND_TREND,
    AccuracyRatioTrend,
    LogicalErrorScaling,
    fit_accuracy_ratio_trend,
    fit_logical_error_scaling,
)
from .stream import (
    StreamEngine,
    StreamEngineResult,
    StreamShardResult,
    stream_latency_fn,
)

#: Service-layer exports resolved lazily (PEP 562): ``service_load`` imports
#: :mod:`repro.service`, which itself imports :mod:`repro.evaluation.engine`
#: — importing it eagerly here would create a package-initialisation cycle.
_SERVICE_EXPORTS = (
    "DEFAULT_LOAD_CONFIG",
    "SaturationPoint",
    "SaturationResult",
    "ServiceLoadEngine",
    "ServiceLoadResult",
    "find_knee",
)


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from . import service_load

        return getattr(service_load, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DECODERS_WITH_TIMING_MODELS",
    "DEFAULT_SHARD_SIZE",
    "binomial_standard_error",
    "EngineResult",
    "LatencyHistogram",
    "MonteCarloEngine",
    "ShardResult",
    "modelled_latency_fn",
    "modelled_trivial_latency_seconds",
    "rule_of_three_upper_bound",
    "DEFAULT_PHYSICAL_ERROR_RATE",
    "IMPROVEMENT_CONFIGS",
    "amdahl_profile",
    "build_graph",
    "calibrate_scalings",
    "effective_error_grid",
    "format_rows",
    "improvement_breakdown",
    "latency_distribution",
    "latency_sweep",
    "resource_usage_table",
    "stream_vs_batch",
    "LogicalErrorRateResult",
    "estimate_logical_error_rate",
    "expected_defect_count",
    "expected_error_count",
    "wilson_interval",
    "DEFAULT_MWPM_SCALING",
    "DEFAULT_UNION_FIND_TREND",
    "AccuracyRatioTrend",
    "LogicalErrorScaling",
    "fit_accuracy_ratio_trend",
    "fit_logical_error_scaling",
    "StreamEngine",
    "StreamEngineResult",
    "StreamShardResult",
    "stream_latency_fn",
    "DEFAULT_LOAD_CONFIG",
    "SaturationPoint",
    "SaturationResult",
    "ServiceLoadEngine",
    "ServiceLoadResult",
    "find_knee",
]
