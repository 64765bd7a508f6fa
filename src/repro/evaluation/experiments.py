"""Experiment runners regenerating every table and figure of the evaluation.

Each function returns plain rows (lists of dictionaries) so the benchmarks,
the examples and the CLI can all share them.  Default parameters are
deliberately small so that the pytest-benchmark targets finish quickly; the
examples show how to launch paper-scale sweeps.

Figure/table mapping (see docs/paper_map.md):

* :func:`amdahl_profile` — Figure 2
* :func:`latency_sweep` — Figure 9 (top row)
* :func:`latency_distribution` — Figure 9 (bottom row)
* :func:`improvement_breakdown` — Figure 10a
* :func:`stream_vs_batch` — Figure 10b
* :func:`effective_error_grid` — Figure 11
* :func:`resource_usage_table` — Table 4

>>> rows = improvement_breakdown(distances=(3,), physical_error_rate=0.01, samples=4)
>>> [row["configuration"] for row in rows]  # doctest: +NORMALIZE_WHITESPACE
['parity-blossom (CPU)', '+ parallel dual phase', '+ parallel primal phase',
 '+ round-wise fusion']
>>> rows[-1]["speedup_vs_cpu"] > 1.0
True
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..api.config import DecoderConfig, MicroBlossomConfig, ParityBlossomConfig
from ..api.outcome import DecodeOutcome
from ..api.session import DecoderSession
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.noise import noise_model_by_name
from ..graphs.surface_code import surface_code_decoding_graph
from ..graphs.syndrome import SyndromeSampler
from ..latency.cutoff import LatencyStatistics, cutoff_latency, exponential_tail_fit
from ..latency.effective import EffectiveErrorRate
from ..latency.model import (
    HeliosLatencyModel,
    MicroBlossomLatencyModel,
    ParityBlossomLatencyModel,
)
from ..resources.estimate import paper_row, resource_table
from .engine import modelled_latency_fn
from .monte_carlo import expected_defect_count
from .scaling import (
    DEFAULT_MWPM_SCALING,
    DEFAULT_UNION_FIND_TREND,
    fit_accuracy_ratio_trend,
    fit_logical_error_scaling,
)

#: Physical error rate used by most latency experiments in the paper.
DEFAULT_PHYSICAL_ERROR_RATE = 0.001


def build_graph(
    distance: int,
    physical_error_rate: float,
    noise: str = "circuit_level",
    rounds: int | None = None,
) -> DecodingGraph:
    """Construct the rotated-surface-code decoding graph used by experiments."""
    model = noise_model_by_name(noise, physical_error_rate)
    return surface_code_decoding_graph(distance, model, rounds=rounds)


def _decode_shots(
    graph: DecodingGraph,
    decoder: str,
    samples: int,
    seed: int,
    config: DecoderConfig | None = None,
) -> list[DecodeOutcome]:
    """Decode every seeded shot, trivial ones included, through one session."""
    session = DecoderSession(graph, decoder, config)
    shots = SyndromeSampler(graph, seed=seed).sample_batch(samples)
    return [session.decode_detailed(shot) for shot in shots]


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Figure 2 — dual vs primal CPU time and Amdahl potential speedup
# ---------------------------------------------------------------------------
def amdahl_profile(
    distances: Sequence[int] = (3, 5, 7),
    physical_error_rate: float = DEFAULT_PHYSICAL_ERROR_RATE,
    samples: int = 30,
    seed: int = 0,
) -> list[dict]:
    """CPU-time split of Parity Blossom and the Amdahl upper bound (Figure 2)."""
    rows: list[dict] = []
    model = ParityBlossomLatencyModel()
    for distance in distances:
        graph = build_graph(distance, physical_error_rate)
        dual_total = 0.0
        primal_total = 0.0
        for outcome in _decode_shots(graph, "parity-blossom", samples, seed + distance):
            dual, primal = model.phase_seconds(outcome.counters, outcome.defect_count)
            dual_total += dual + model.base_seconds * 0.5
            primal_total += primal + model.base_seconds * 0.5
        total = dual_total + primal_total
        dual_fraction = dual_total / total if total else 0.0
        rows.append(
            {
                "distance": distance,
                "dual_fraction": dual_fraction,
                "primal_fraction": 1.0 - dual_fraction,
                "potential_speedup": 1.0 / (1.0 - dual_fraction)
                if dual_fraction < 1.0
                else float("inf"),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 9 (top) — average decoding latency vs p and d
# ---------------------------------------------------------------------------
def latency_sweep(
    distances: Sequence[int] = (3, 5, 7),
    error_rates: Sequence[float] = (0.0005, 0.001, 0.005),
    samples: int = 20,
    seed: int = 1,
    workers: int = 1,
    store=None,
) -> list[dict]:
    """Average decoding latency of Parity Blossom and Micro Blossom.

    Runs as a declarative :class:`repro.sweeps.SweepSpec` on the sharded
    Monte-Carlo engine: each ``(d, p, decoder)`` cell is a seed-stable sweep
    point, trivial shots contribute the timing model's floor latency, and an
    optional ``store`` (a :class:`repro.sweeps.ResultStore`) makes repeated
    or interrupted grids resume instead of recompute.
    """
    from ..sweeps import make_spec, run_sweep

    spec = make_spec(
        "figure9-latency",
        distances,
        error_rates,
        ("parity-blossom", "micro-blossom"),
        samples,
        seed=seed,
        collect_latency=True,
    )
    run = run_sweep(spec, store, workers=workers)
    rows: list[dict] = []
    for result in run.results:
        point = result.point
        rows.append(
            {
                "decoder": point.decoder,
                "distance": point.distance,
                "physical_error_rate": point.physical_error_rate,
                "mean_latency_us": result.latency.mean_seconds * 1e6,
                "mean_defects": result.mean_defects,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 9 (bottom) — latency distribution and k-cutoff latencies
# ---------------------------------------------------------------------------
def latency_distribution(
    distance: int = 5,
    physical_error_rate: float = DEFAULT_PHYSICAL_ERROR_RATE,
    samples: int = 200,
    seed: int = 2,
    logical_error_rate_hint: float | None = None,
) -> dict:
    """Latency distribution, k-cutoff latencies and exponential tail fits."""
    graph = build_graph(distance, physical_error_rate)
    logical_error_rate = logical_error_rate_hint or DEFAULT_MWPM_SCALING.predict(
        distance, physical_error_rate
    )
    result: dict = {
        "distance": distance,
        "physical_error_rate": physical_error_rate,
        "logical_error_rate": logical_error_rate,
    }
    for name in ("parity-blossom", "micro-blossom"):
        latency_of = modelled_latency_fn(name, graph)
        latencies = [latency_of(o) for o in _decode_shots(graph, name, samples, seed)]
        stats = LatencyStatistics.from_samples(latencies)
        entry = {
            "average_latency_us": stats.mean * 1e6,
            "max_latency_us": stats.maximum * 1e6,
            "p99_latency_us": stats.percentile_99 * 1e6,
            "cutoffs_us": {
                k: cutoff_latency(latencies, logical_error_rate, k) * 1e6
                for k in (1.0, 0.1, 0.01)
            },
            "latencies_us": [value * 1e6 for value in latencies],
        }
        try:
            intercept, decay = exponential_tail_fit(latencies)
            entry["tail_fit"] = {"intercept": intercept, "decay_us": decay * 1e6}
        except ValueError:
            entry["tail_fit"] = None
        result[name] = entry
    return result


# ---------------------------------------------------------------------------
# Figure 10a — contribution of each key idea
# ---------------------------------------------------------------------------
IMPROVEMENT_CONFIGS: tuple[tuple[str, str, DecoderConfig], ...] = (
    ("parity-blossom (CPU)", "parity-blossom", ParityBlossomConfig()),
    (
        "+ parallel dual phase",
        "micro-blossom",
        MicroBlossomConfig(enable_prematching=False, stream=False),
    ),
    ("+ parallel primal phase", "micro-blossom", MicroBlossomConfig(stream=False)),
    ("+ round-wise fusion", "micro-blossom", MicroBlossomConfig()),
)


def improvement_breakdown(
    distances: Sequence[int] = (3, 5, 7),
    physical_error_rate: float = DEFAULT_PHYSICAL_ERROR_RATE,
    samples: int = 20,
    seed: int = 3,
) -> list[dict]:
    """Latency of the four decoder configurations of Figure 10a."""
    rows: list[dict] = []
    for distance in distances:
        graph = build_graph(distance, physical_error_rate)
        baseline_us = None
        for label, decoder, config in IMPROVEMENT_CONFIGS:
            latency_of = modelled_latency_fn(decoder, graph)
            outcomes = _decode_shots(graph, decoder, samples, seed, config)
            mean_us = _mean(latency_of(o) for o in outcomes) * 1e6
            if baseline_us is None:
                baseline_us = mean_us
            rows.append(
                {
                    "configuration": label,
                    "distance": distance,
                    "physical_error_rate": physical_error_rate,
                    "mean_latency_us": mean_us,
                    "speedup_vs_cpu": baseline_us / mean_us if mean_us else float("inf"),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 10b — batch vs stream decoding latency vs measurement rounds
# ---------------------------------------------------------------------------
def stream_vs_batch(
    distance: int = 5,
    physical_error_rate: float = DEFAULT_PHYSICAL_ERROR_RATE,
    rounds_list: Sequence[int] = (2, 4, 6, 8),
    samples: int = 15,
    seed: int = 4,
    workers: int = 1,
) -> list[dict]:
    """Reaction latency as a function of the number of measurement rounds.

    Both columns come from the continuous-stream
    :class:`~repro.evaluation.stream.StreamEngine` driving the same
    seed-stable shots round by round: ``micro-blossom`` fuses each round as
    it arrives (native streaming) so the reaction latency — the work left
    after the final round — stays flat, while ``micro-blossom-batch``
    (replayed through the sliding-window adapter) defers all decoding to the
    final round and its reaction latency grows with the round count.
    """
    from .stream import StreamEngine

    rows: list[dict] = []
    for rounds in rounds_list:
        graph = build_graph(distance, physical_error_rate, rounds=rounds)
        latencies = {}
        for label, decoder in (
            ("batch", "micro-blossom-batch"),
            ("stream", "micro-blossom"),
        ):
            engine = StreamEngine(graph, decoder, workers=workers)
            result = engine.run(samples, seed=seed)
            latencies[label] = result.reaction.mean
        rows.append(
            {
                "distance": distance,
                "rounds": rounds,
                "batch_latency_us": latencies["batch"] * 1e6,
                "stream_latency_us": latencies["stream"] * 1e6,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 11 — effective logical error rate grid
# ---------------------------------------------------------------------------
def calibrate_scalings(
    calibration_samples: int = 400,
    seed: int = 5,
    store=None,
    workers: int = 1,
) -> tuple:
    """Fit the logical-error scaling law and the Union-Find accuracy penalty.

    Calibration runs Monte Carlo at small distances and moderate error rates
    where logical errors are observable; if too few errors are seen the
    documented defaults are used instead.  The grid runs as a
    :class:`repro.sweeps.SweepSpec`; pass a :class:`repro.sweeps.ResultStore`
    to cache the (expensive) calibration points across calls, and ``workers``
    to fan out decoding.  Zero-failure points never enter the fits — their
    estimate is degenerate (see ``LogicalErrorRateResult.upper_bound``).
    """
    from ..sweeps import make_spec, run_sweep

    spec = make_spec(
        "scaling-calibration",
        (3, 5),
        (0.02, 0.03),
        ("reference", "union-find"),
        calibration_samples,
        seed=seed,
    )
    run = run_sweep(spec, store, workers=workers)
    by_cell = {
        (r.point.distance, r.point.physical_error_rate, r.point.decoder): r
        for r in run.results
    }
    scaling_points: list[tuple[int, float, float]] = []
    ratio_points: list[tuple[int, float]] = []
    for distance in spec.distances:
        for physical in spec.physical_error_rates:
            mwpm = by_cell[(distance, physical, "reference")]
            uf = by_cell[(distance, physical, "union-find")]
            if mwpm.errors:
                scaling_points.append((distance, physical, mwpm.rate))
                if uf.errors:
                    ratio_points.append((distance, uf.rate / mwpm.rate))
    try:
        scaling = fit_logical_error_scaling(scaling_points)
        if not 0.001 < scaling.threshold < 0.2:
            scaling = DEFAULT_MWPM_SCALING
    except ValueError:
        scaling = DEFAULT_MWPM_SCALING
    try:
        trend = fit_accuracy_ratio_trend(ratio_points)
        if trend.growth_per_distance < 1.0:
            trend = DEFAULT_UNION_FIND_TREND
    except ValueError:
        trend = DEFAULT_UNION_FIND_TREND
    return scaling, trend


def effective_error_grid(
    distances: Sequence[int] = (3, 5, 7, 9, 11, 13, 15),
    error_rates: Sequence[float] = (0.0001, 0.0005, 0.001, 0.005),
    calibration_samples: int = 0,
    seed: int = 6,
    store=None,
    workers: int = 1,
) -> list[dict]:
    """Additional logical error ratio (p_eff / p_MWPM − 1) for three decoders.

    ``calibration_samples > 0`` triggers a Monte-Carlo calibration of the
    scaling laws (resumable through ``store``, parallel over ``workers`` —
    see :func:`calibrate_scalings`); otherwise the documented defaults are
    used (fast path for benchmarks).  Latencies use the analytic
    average-latency models, which is exact enough because Figure 11 only
    depends on average latency (§8.3).
    """
    if calibration_samples:
        scaling, uf_trend = calibrate_scalings(
            calibration_samples, seed, store=store, workers=workers
        )
    else:
        scaling, uf_trend = DEFAULT_MWPM_SCALING, DEFAULT_UNION_FIND_TREND
    helios_model = HeliosLatencyModel()
    parity_model = ParityBlossomLatencyModel()
    rows: list[dict] = []
    for distance in distances:
        for physical in error_rates:
            graph = build_graph(distance, physical)
            expected_defects = expected_defect_count(graph)
            defects_per_round = expected_defects / max(1, graph.num_layers)
            mwpm_rate = scaling.predict(distance, physical)
            uf_rate = min(1.0, mwpm_rate * uf_trend.predict(distance))

            micro_model = MicroBlossomLatencyModel(distance, graph.num_edges)
            latencies = {
                "helios": helios_model.latency_seconds(distance, expected_defects),
                "parity-blossom": parity_model.expected_latency_seconds(
                    expected_defects
                ),
                "micro-blossom": micro_model.expected_latency_seconds(
                    defects_per_round, graph.num_layers
                ),
            }
            rates = {
                "helios": uf_rate,
                "parity-blossom": mwpm_rate,
                "micro-blossom": mwpm_rate,
            }
            row = {
                "distance": distance,
                "physical_error_rate": physical,
                "mwpm_logical_error_rate": mwpm_rate,
            }
            best_decoder = None
            best_ratio = None
            for decoder in ("helios", "parity-blossom", "micro-blossom"):
                effective = EffectiveErrorRate(
                    logical_error_rate=rates[decoder],
                    average_latency_seconds=latencies[decoder],
                    distance=distance,
                )
                ratio = effective.additional_error_ratio(mwpm_rate)
                row[f"{decoder}_ratio"] = ratio
                row[f"{decoder}_latency_us"] = latencies[decoder] * 1e6
                if best_ratio is None or ratio < best_ratio:
                    best_ratio = ratio
                    best_decoder = decoder
            row["best_decoder"] = best_decoder
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table 4 — resource usage and maximum clock frequency
# ---------------------------------------------------------------------------
def resource_usage_table(distances: Sequence[int] = (3, 5, 7, 9, 11, 13, 15)) -> list[dict]:
    """Modelled resource usage next to the published Table 4 values."""
    rows: list[dict] = []
    for estimate in resource_table(list(distances)):
        published = paper_row(estimate.distance) or {}
        rows.append(
            {
                "distance": estimate.distance,
                "num_vertices": estimate.num_vertices,
                "num_edges": estimate.num_edges,
                "vpu_bits": estimate.vpu_state_bits,
                "epu_bits": estimate.epu_state_bits,
                "cpu_memory_kb": estimate.cpu_memory_bytes / 1000.0,
                "fpga_memory_kbits": estimate.fpga_memory_kbits,
                "luts": estimate.luts,
                "clock_mhz": estimate.clock_frequency_mhz,
                "paper_luts": published.get("luts"),
                "paper_freq_mhz": published.get("freq_mhz"),
                "paper_vpu_bits": published.get("vpu_bits"),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# formatting helper shared by benchmarks and examples
# ---------------------------------------------------------------------------
def format_rows(rows: Sequence[dict], columns: Sequence[str]) -> str:
    """Render rows as a fixed-width text table (for benchmark/example output)."""
    header = "  ".join(f"{column:>18}" for column in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:>18.4g}")
            else:
                cells.append(f"{str(value):>18}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
