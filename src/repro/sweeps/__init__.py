"""Declarative, resumable sweep orchestration over the Monte-Carlo engine.

See ``docs/sweeps.md`` for the full tour: :class:`SweepSpec` expands into
seed-stable :class:`SweepPoint`\\ s, :func:`run_sweep` executes them on the
sharded :class:`~repro.evaluation.engine.MonteCarloEngine` with cache hits
served from a JSON-lines :class:`ResultStore`, and
:func:`bench_document` / :func:`validate_bench` produce the
``BENCH_sweep.json`` performance trajectory consumed by CI.
"""

from ..evaluation.engine import rule_of_three_upper_bound
from .bench import (
    BENCH_SCHEMA_VERSION,
    BenchSchemaError,
    bench_document,
    current_commit,
    validate_bench,
    write_bench,
)
from .fits import fit_sweep_scaling, report_rows, scaling_points
from .runner import (
    SweepRunResult,
    build_point_graph,
    run_point,
    run_sweep,
    validate_spec_axes,
)
from .spec import SMOKE_SPEC, SweepPoint, SweepSpec, derive_point_seed, make_spec
from .store import (
    LatencySummary,
    LUTStats,
    PointResult,
    ResultStore,
    StoreError,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchSchemaError",
    "bench_document",
    "current_commit",
    "validate_bench",
    "write_bench",
    "fit_sweep_scaling",
    "report_rows",
    "scaling_points",
    "SweepRunResult",
    "build_point_graph",
    "run_point",
    "run_sweep",
    "validate_spec_axes",
    "SMOKE_SPEC",
    "SweepPoint",
    "SweepSpec",
    "derive_point_seed",
    "make_spec",
    "LatencySummary",
    "LUTStats",
    "PointResult",
    "ResultStore",
    "StoreError",
    "rule_of_three_upper_bound",
]
