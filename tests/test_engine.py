"""Tests of the sharded Monte-Carlo engine and its determinism contract."""

from __future__ import annotations

import math

import pytest

from repro.api import decode_batch
from repro.evaluation import (
    EngineResult,
    LatencyHistogram,
    MonteCarloEngine,
    estimate_logical_error_rate,
    modelled_latency_fn,
)
from repro.graphs import (
    SyndromeSampler,
    circuit_level_noise,
    surface_code_decoding_graph,
)
from repro.matching import ReferenceDecoder


@pytest.fixture(scope="module")
def noisy_d3():
    return surface_code_decoding_graph(3, circuit_level_noise(0.04))


def _engine_fingerprint(result: EngineResult) -> tuple:
    return (
        result.shots,
        result.errors,
        result.stopped_early,
        [(s.index, s.shots, s.errors, s.decoded_shots) for s in result.shards],
        sorted(result.counters.items()),
        result.histogram.counts if result.histogram else None,
        result.histogram.sum_seconds if result.histogram else None,
    )


class TestDeterminism:
    def test_workers_do_not_change_the_result(self, noisy_d3):
        """Satellite regression: identical output for workers=1 vs workers=4."""
        results = []
        for workers in (1, 4):
            engine = MonteCarloEngine(
                noisy_d3,
                "micro-blossom-batch",
                shard_size=32,
                workers=workers,
                latency_fn=modelled_latency_fn("micro-blossom-batch", noisy_d3),
            )
            results.append(engine.run(160, seed=5))
        assert _engine_fingerprint(results[0]) == _engine_fingerprint(results[1])

    def test_decode_batch_workers_do_not_change_outcomes(self, noisy_d3):
        syndromes = [
            s for s in SyndromeSampler(noisy_d3, seed=8).sample_batch(60) if s.defects
        ]
        sequential = decode_batch(noisy_d3, "parity-blossom", syndromes, workers=1)
        parallel = decode_batch(noisy_d3, "parity-blossom", syndromes, workers=4)
        assert sequential.weights == parallel.weights
        assert sequential.counters == parallel.counters
        assert [o.correction_edges(noisy_d3) for o in sequential.outcomes] == [
            o.correction_edges(noisy_d3) for o in parallel.outcomes
        ]

    def test_same_seed_same_result_across_engines(self, noisy_d3):
        first = MonteCarloEngine(noisy_d3, "reference", shard_size=25).run(75, seed=3)
        second = MonteCarloEngine(noisy_d3, "reference", shard_size=25).run(75, seed=3)
        assert _engine_fingerprint(first) == _engine_fingerprint(second)

    def test_different_seeds_differ(self, noisy_d3):
        runs = [
            MonteCarloEngine(noisy_d3, "parity-blossom", shard_size=50).run(
                100, seed=s
            )
            for s in (1, 2)
        ]
        assert _engine_fingerprint(runs[0]) != _engine_fingerprint(runs[1])


class TestAccounting:
    def test_matches_manual_loop_over_shard_samplers(self, noisy_d3):
        """The engine is exactly 'sample each shard, decode, tally'."""
        engine = MonteCarloEngine(noisy_d3, "reference", shard_size=40)
        result = engine.run(100, seed=12)
        decoder = ReferenceDecoder(noisy_d3)
        errors = 0
        shots = 0
        for index, size in enumerate((40, 40, 20)):
            sampler = engine.shard_sampler(12, index)
            for syndrome in sampler.sample_batch(size):
                shots += 1
                if not syndrome.defects:
                    errors += syndrome.logical_flip
                    continue
                correction = decoder.decode_to_correction(syndrome)
                if noisy_d3.crosses_observable(correction) != syndrome.logical_flip:
                    errors += 1
        assert result.shots == shots == 100
        assert result.errors == errors

    def test_partial_final_shard(self, noisy_d3):
        result = MonteCarloEngine(noisy_d3, "reference", shard_size=64).run(150, seed=0)
        assert [s.shots for s in result.shards] == [64, 64, 22]
        assert result.shots == 150

    def test_estimate_logical_error_rate_rides_the_engine(self, noisy_d3):
        estimate = estimate_logical_error_rate(
            noisy_d3, "reference", 100, seed=12, shard_size=40
        )
        direct = MonteCarloEngine(noisy_d3, "reference", shard_size=40).run(
            100, seed=12
        )
        assert (estimate.samples, estimate.errors) == (direct.shots, direct.errors)

    def test_decoder_instance_supported_sequentially(self, noisy_d3):
        decoder = ReferenceDecoder(noisy_d3)
        by_instance = MonteCarloEngine(noisy_d3, decoder, shard_size=30).run(60, seed=4)
        by_name = MonteCarloEngine(noisy_d3, "reference", shard_size=30).run(60, seed=4)
        assert by_instance.errors == by_name.errors
        with pytest.raises(ValueError):
            MonteCarloEngine(noisy_d3, decoder, workers=2)

    def test_invalid_arguments(self, noisy_d3):
        with pytest.raises(ValueError):
            MonteCarloEngine(noisy_d3, "reference", shard_size=0)
        with pytest.raises(ValueError):
            MonteCarloEngine(noisy_d3, "reference", workers=0)
        engine = MonteCarloEngine(noisy_d3, "reference")
        with pytest.raises(ValueError):
            engine.run(0)
        with pytest.raises(ValueError):
            engine.run(10, target_standard_error=0.0)


class TestEarlyStopping:
    def test_stops_at_target_standard_error(self):
        graph = surface_code_decoding_graph(3, circuit_level_noise(0.06))
        engine = MonteCarloEngine(graph, "reference", shard_size=50)
        result = engine.run(2000, seed=1, target_standard_error=0.05)
        assert result.stopped_early
        assert result.shots < 2000
        assert result.shots % 50 == 0  # stops only at shard boundaries
        assert result.errors > 0
        assert result.standard_error <= 0.05

    def test_early_stop_is_worker_invariant(self):
        graph = surface_code_decoding_graph(3, circuit_level_noise(0.06))
        runs = [
            MonteCarloEngine(
                graph, "micro-blossom-batch", shard_size=25, workers=workers
            ).run(600, seed=9, target_standard_error=0.06)
            for workers in (1, 3)
        ]
        assert _engine_fingerprint(runs[0]) == _engine_fingerprint(runs[1])

    def test_no_stop_without_observed_errors(self):
        graph = surface_code_decoding_graph(3, circuit_level_noise(0.001))
        result = MonteCarloEngine(graph, "reference", shard_size=50).run(
            100, seed=0, target_standard_error=0.1
        )
        # at p = 0.1% and 100 shots no logical error occurs: the run must not
        # early-stop on the degenerate 0 +/- 0 estimate
        assert result.errors == 0
        assert not result.stopped_early
        assert result.shots == 100


class TestLatencyHistogram:
    def test_mean_and_extremes_are_exact(self):
        histogram = LatencyHistogram()
        histogram.extend([1e-6, 2e-6, 3e-6])
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(2e-6)
        assert histogram.min_seconds == pytest.approx(1e-6)
        assert histogram.max_seconds == pytest.approx(3e-6)

    def test_percentile_bin_accuracy(self):
        histogram = LatencyHistogram()
        values = [i * 1e-7 + 1e-8 for i in range(1, 200)]
        histogram.extend(values)
        exact = sorted(values)[int(0.99 * len(values)) - 1]
        assert histogram.percentile(99) == pytest.approx(exact, rel=0.25)
        assert histogram.percentile(0) <= histogram.percentile(50)
        assert histogram.percentile(50) <= histogram.percentile(100)
        assert histogram.percentile(100) == pytest.approx(max(values))

    def test_merge_accumulates(self):
        first = LatencyHistogram()
        second = LatencyHistogram()
        first.extend([1e-6, 5e-6])
        second.extend([2e-6])
        first.merge(second)
        assert first.count == 3
        assert first.sum_seconds == pytest.approx(8e-6)
        assert sum(first.counts) == 3

    def test_merge_rejects_different_binning(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(num_bins=8))

    def test_out_of_range_values_clamp_into_edge_bins(self):
        histogram = LatencyHistogram(low=1e-6, high=1e-3, num_bins=10)
        histogram.add(1e-9)
        histogram.add(1.0)
        assert histogram.counts[0] == 1
        assert histogram.counts[-1] == 1
        assert histogram.max_seconds == 1.0

    @pytest.mark.parametrize(
        "bounds", [(1e-9, 1e-2, 112), (1e-6, 1e-3, 10), (2.5e-7, 3.0, 97)]
    )
    def test_add_bins_match_the_reference_formula(self, bounds):
        """``add`` caches the span's log and compares instead of calling
        min/max; every bin index must equal the plain formula's."""
        low, high, num_bins = bounds

        def reference_bin(seconds: float) -> int:
            if seconds <= low:
                return 0
            position = math.log(seconds / low) / math.log(high / low)
            return min(num_bins - 1, int(position * num_bins))

        # Log-uniform over two decades either side of [low, high], plus the
        # bounds themselves, their float neighbours and every bin edge.
        span = math.log(high / low)
        values = [low * math.exp(span * (k / 4000.0 * 1.4 - 0.2)) for k in range(4001)]
        values += [low, high, math.nextafter(low, 0.0), math.nextafter(low, 1.0)]
        values += [math.nextafter(high, 0.0), math.nextafter(high, math.inf), 0.0, 1e3]
        values += [low * (high / low) ** (k / num_bins) for k in range(num_bins + 1)]
        histogram = LatencyHistogram(low=low, high=high, num_bins=num_bins)
        expected = [0] * num_bins
        for value in values:
            histogram.add(value)
            expected[reference_bin(value)] += 1
            single = LatencyHistogram(low=low, high=high, num_bins=num_bins)
            single.add(value)
            assert single.counts.index(1) == reference_bin(value), value
        assert histogram.counts == expected
        assert histogram.min_seconds == min(values)
        assert histogram.max_seconds == max(values)
        assert histogram.count == len(values)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            LatencyHistogram(low=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(num_bins=0)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)


class TestModelledLatency:
    def test_each_modelled_decoder_produces_positive_latency(self, noisy_d3):
        syndrome = next(
            s
            for s in SyndromeSampler(noisy_d3, seed=1).sample_batch(50)
            if s.defects
        )
        for name in ("micro-blossom", "micro-blossom-batch", "parity-blossom", "union-find"):
            from repro.api import get_decoder

            latency_fn = modelled_latency_fn(name, noisy_d3)
            outcome = get_decoder(name, noisy_d3).decode_detailed(syndrome)
            assert latency_fn(outcome) > 0.0

    def test_reference_has_no_model(self, noisy_d3):
        with pytest.raises(ValueError):
            modelled_latency_fn("reference", noisy_d3)

    def test_requires_distance_metadata(self, noisy_d3):
        from repro.graphs import DecodingGraph

        bare = DecodingGraph(noisy_d3.vertices, noisy_d3.edges)
        with pytest.raises(ValueError):
            modelled_latency_fn("parity-blossom", bare)

    def test_histogram_covers_every_decoded_shot(self, noisy_d3):
        engine = MonteCarloEngine(
            noisy_d3,
            "parity-blossom",
            shard_size=40,
            latency_fn=modelled_latency_fn("parity-blossom", noisy_d3),
        )
        result = engine.run(120, seed=6)
        assert result.histogram.count == result.decoded_shots
        assert 0 < result.decoded_shots <= 120
        assert result.histogram.mean > 0.0
