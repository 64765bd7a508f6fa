"""Tests of the Monte-Carlo harness, scaling fits, and experiment runners."""

from __future__ import annotations

import math

import pytest

from repro.evaluation import (
    DEFAULT_MWPM_SCALING,
    amdahl_profile,
    effective_error_grid,
    estimate_logical_error_rate,
    expected_defect_count,
    expected_error_count,
    fit_accuracy_ratio_trend,
    fit_logical_error_scaling,
    format_rows,
    improvement_breakdown,
    latency_distribution,
    latency_sweep,
    resource_usage_table,
    stream_vs_batch,
    wilson_interval,
)
from repro.evaluation.experiments import build_graph
from repro.graphs import SyndromeSampler
from repro.matching import ReferenceDecoder
from repro.unionfind import UnionFindDecoder


class TestMonteCarlo:
    def test_logical_error_rate_estimate(self):
        graph = build_graph(3, 0.03)
        reference = ReferenceDecoder(graph)
        result = estimate_logical_error_rate(graph, reference, 150, seed=1)
        assert result.samples == 150
        assert 0.0 <= result.rate <= 1.0
        assert result.standard_error >= 0.0

    def test_union_find_decoder_supported(self):
        graph = build_graph(3, 0.03)
        union_find = UnionFindDecoder(graph)
        result = estimate_logical_error_rate(graph, union_find, 100, seed=2)
        assert 0.0 <= result.rate <= 1.0

    def test_expected_defect_count_matches_empirical(self):
        graph = build_graph(3, 0.02)
        predicted = expected_defect_count(graph)
        sampler = SyndromeSampler(graph, seed=3)
        samples = 600
        observed = sum(sampler.sample().defect_count for _ in range(samples)) / samples
        assert observed == pytest.approx(predicted, rel=0.25)

    def test_expected_error_count(self):
        graph = build_graph(3, 0.02)
        assert expected_error_count(graph) == pytest.approx(
            sum(e.probability for e in graph.edges)
        )

    def test_invalid_sample_count(self):
        graph = build_graph(3, 0.02)
        with pytest.raises(ValueError):
            estimate_logical_error_rate(graph, ReferenceDecoder(graph), 0)

    def test_wilson_interval_contains_point_estimate(self):
        low, high = wilson_interval(5, 100)
        assert low < 0.05 < high
        with pytest.raises(ValueError):
            wilson_interval(1, 0)

    def test_zero_failure_estimate_surfaces_rule_of_three_bound(self):
        from repro.evaluation import LogicalErrorRateResult

        degenerate = LogicalErrorRateResult(samples=300, errors=0)
        assert degenerate.zero_failures
        assert degenerate.rate == 0.0
        assert degenerate.standard_error == pytest.approx(0.0, abs=1e-10)
        assert degenerate.upper_bound == pytest.approx(0.01)
        observed = LogicalErrorRateResult(samples=300, errors=6)
        assert not observed.zero_failures
        assert observed.upper_bound > observed.rate

    def test_explicit_sampler_honors_workers(self):
        graph = build_graph(3, 0.03)
        sequential = estimate_logical_error_rate(
            graph, "reference", 80, sampler=SyndromeSampler(graph, seed=21)
        )
        parallel = estimate_logical_error_rate(
            graph, "reference", 80, sampler=SyndromeSampler(graph, seed=21), workers=3
        )
        assert (sequential.samples, sequential.errors) == (
            parallel.samples,
            parallel.errors,
        )

    def test_explicit_sampler_rejects_early_stopping(self):
        graph = build_graph(3, 0.03)
        with pytest.raises(ValueError):
            estimate_logical_error_rate(
                graph,
                "reference",
                50,
                sampler=SyndromeSampler(graph, seed=1),
                target_standard_error=0.01,
            )


class TestScalingFits:
    def test_fit_recovers_synthetic_parameters(self):
        amplitude, threshold = 0.1, 0.01
        points = []
        for distance in (3, 5, 7):
            for p in (0.001, 0.002, 0.004):
                p_l = amplitude * (p / threshold) ** ((distance + 1) / 2)
                points.append((distance, p, p_l))
        fitted = fit_logical_error_scaling(points)
        assert fitted.amplitude == pytest.approx(amplitude, rel=0.05)
        assert fitted.threshold == pytest.approx(threshold, rel=0.05)

    def test_fit_requires_positive_points(self):
        with pytest.raises(ValueError):
            fit_logical_error_scaling([(3, 0.001, 0.0)])

    def test_prediction_clamped_to_one(self):
        assert DEFAULT_MWPM_SCALING.predict(3, 0.4) == 1.0

    def test_prediction_decreases_with_distance(self):
        high = DEFAULT_MWPM_SCALING.predict(3, 0.001)
        low = DEFAULT_MWPM_SCALING.predict(9, 0.001)
        assert low < high

    def test_accuracy_trend_fit(self):
        trend = fit_accuracy_ratio_trend([(3, 1.2), (5, 1.4), (7, 1.7)])
        assert trend.predict(9) > trend.predict(3)
        assert trend.predict(3) >= 1.0

    def test_accuracy_trend_single_point(self):
        trend = fit_accuracy_ratio_trend([(5, 1.5)])
        assert trend.predict(11) == pytest.approx(1.5)

    def test_accuracy_trend_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_accuracy_ratio_trend([])


class TestExperimentRunners:
    def test_amdahl_profile_rows(self):
        rows = amdahl_profile(distances=(3,), samples=5, seed=0)
        assert len(rows) == 1
        row = rows[0]
        assert 0.0 < row["dual_fraction"] < 1.0
        assert row["potential_speedup"] > 1.0

    def test_latency_sweep_rows(self):
        rows = latency_sweep(distances=(3,), error_rates=(0.002,), samples=5, seed=1)
        decoders = {row["decoder"] for row in rows}
        assert decoders == {"parity-blossom", "micro-blossom"}
        assert all(row["mean_latency_us"] > 0 for row in rows)

    def test_latency_distribution_structure(self):
        result = latency_distribution(distance=3, samples=30, seed=2)
        for name in ("parity-blossom", "micro-blossom"):
            entry = result[name]
            assert entry["average_latency_us"] > 0
            assert set(entry["cutoffs_us"]) == {1.0, 0.1, 0.01}
            assert len(entry["latencies_us"]) == 30

    def test_improvement_breakdown_has_four_configurations(self):
        rows = improvement_breakdown(distances=(3,), samples=5, seed=3)
        assert len(rows) == 4
        assert rows[0]["configuration"].startswith("parity")
        assert rows[0]["speedup_vs_cpu"] == pytest.approx(1.0)

    def test_stream_vs_batch_rows(self):
        rows = stream_vs_batch(distance=3, rounds_list=(2, 3), samples=5, seed=4)
        assert [row["rounds"] for row in rows] == [2, 3]
        assert all(row["stream_latency_us"] > 0 for row in rows)

    def test_effective_error_grid_structure(self):
        rows = effective_error_grid(distances=(3, 9), error_rates=(0.0001, 0.005))
        assert len(rows) == 4
        for row in rows:
            assert row["best_decoder"] in {"helios", "parity-blossom", "micro-blossom"}
            for decoder in ("helios", "parity-blossom", "micro-blossom"):
                assert row[f"{decoder}_ratio"] >= 0.0
                assert not math.isnan(row[f"{decoder}_ratio"])

    def test_effective_error_grid_shape_matches_paper(self):
        """Micro Blossom should win in the bulk of the grid; the software
        decoder is competitive only at the very smallest p·d corner."""
        rows = effective_error_grid(
            distances=(3, 9, 13), error_rates=(0.0001, 0.001, 0.005)
        )
        by_key = {(row["distance"], row["physical_error_rate"]): row for row in rows}
        assert by_key[(9, 0.001)]["best_decoder"] == "micro-blossom"
        assert by_key[(13, 0.001)]["best_decoder"] == "micro-blossom"
        small_corner = by_key[(3, 0.0001)]
        assert small_corner["parity-blossom_ratio"] < small_corner["helios_ratio"]

    def test_resource_usage_rows(self):
        rows = resource_usage_table(distances=(3, 13))
        assert rows[0]["distance"] == 3
        assert rows[1]["paper_luts"] == 553_000
        assert rows[1]["luts"] > rows[0]["luts"]

    def test_format_rows(self):
        rows = [{"a": 1.23456, "b": "x"}, {"a": 2, "b": "y"}]
        text = format_rows(rows, ["a", "b"])
        assert "1.235" in text
        assert "y" in text
        assert len(text.splitlines()) == 4
