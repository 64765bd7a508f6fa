"""End-to-end tests of the Micro Blossom decoder (batch and stream modes)."""

from __future__ import annotations

import pytest

from repro.core import MicroBlossomDecoder, MicroBlossomOutcome
from repro.graphs import (
    SyndromeSampler,
    circuit_level_noise,
    residual_defects,
    surface_code_decoding_graph,
)
from repro.graphs.syndrome import correction_edges
from repro.matching import ReferenceDecoder


@pytest.fixture(scope="module")
def decoding_setup():
    graph = surface_code_decoding_graph(5, circuit_level_noise(0.02))
    return graph, ReferenceDecoder(graph), SyndromeSampler(graph, seed=77)


class TestExactness:
    def test_matches_reference_weight(self, decoding_setup):
        graph, reference, sampler = decoding_setup
        decoder = MicroBlossomDecoder(graph)
        for _ in range(25):
            syndrome = sampler.sample()
            if not syndrome.defects:
                continue
            assert decoder.decode(syndrome).weight == reference.decode(syndrome).weight

    def test_matches_reference_without_prematching(self, decoding_setup):
        graph, reference, sampler = decoding_setup
        decoder = MicroBlossomDecoder(graph, enable_prematching=False)
        for _ in range(15):
            syndrome = sampler.sample()
            if not syndrome.defects:
                continue
            assert decoder.decode(syndrome).weight == reference.decode(syndrome).weight

    def test_stream_matches_batch_weight(self, decoding_setup):
        graph, _reference, sampler = decoding_setup
        batch = MicroBlossomDecoder(graph, stream=False)
        stream = MicroBlossomDecoder(graph, stream=True)
        for _ in range(15):
            syndrome = sampler.sample()
            if not syndrome.defects:
                continue
            assert stream.decode(syndrome).weight == batch.decode(syndrome).weight

    def test_correction_annihilates_all_defects(self, decoding_setup):
        graph, _reference, sampler = decoding_setup
        decoder = MicroBlossomDecoder(graph)
        for _ in range(15):
            syndrome = sampler.sample()
            result = decoder.decode(syndrome)
            correction = correction_edges(graph, result)
            assert residual_defects(graph, syndrome, correction) == ()

    def test_empty_syndrome(self, decoding_setup):
        graph, _, _ = decoding_setup
        from repro.graphs import Syndrome

        result = MicroBlossomDecoder(graph).decode(Syndrome(defects=()))
        assert result.pairs == []
        assert result.weight == 0


class TestOutcome:
    def test_decode_detailed_fields(self, decoding_setup):
        graph, _, sampler = decoding_setup
        decoder = MicroBlossomDecoder(graph, stream=True)
        syndrome = sampler.sample()
        outcome = decoder.decode_detailed(syndrome)
        assert isinstance(outcome, MicroBlossomOutcome)
        assert outcome.defect_count == syndrome.defect_count
        assert outcome.stream is True
        assert outcome.prematching is True
        assert outcome.scale_retries == 0
        assert outcome.weight == outcome.result.weight
        assert "bus_words" in outcome.hardware_report
        assert outcome.counters["instr_find_obstacle"] >= 1

    def test_post_final_round_counters_subset_of_total(self, decoding_setup):
        graph, _, sampler = decoding_setup
        decoder = MicroBlossomDecoder(graph, stream=True)
        syndrome = None
        for _ in range(20):
            candidate = sampler.sample()
            if candidate.defect_count >= 2:
                syndrome = candidate
                break
        if syndrome is None:
            pytest.skip("no multi-defect syndrome sampled")
        outcome = decoder.decode_detailed(syndrome)
        for key, value in outcome.post_final_round_counters.items():
            assert value <= outcome.counters[key]

    def test_batch_post_counters_equal_totals(self, decoding_setup):
        graph, _, sampler = decoding_setup
        decoder = MicroBlossomDecoder(graph, stream=False)
        syndrome = sampler.sample()
        outcome = decoder.decode_detailed(syndrome)
        assert (
            outcome.post_final_round_counters["instr_find_obstacle"]
            == outcome.counters["instr_find_obstacle"]
        )

    def test_prematching_reduces_cpu_interactions(self):
        graph = surface_code_decoding_graph(5, circuit_level_noise(0.003))
        sampler = SyndromeSampler(graph, seed=5)
        with_prematch = MicroBlossomDecoder(graph, enable_prematching=True)
        without_prematch = MicroBlossomDecoder(graph, enable_prematching=False)
        conflicts_with = 0
        conflicts_without = 0
        for _ in range(30):
            syndrome = sampler.sample()
            if not syndrome.defects:
                continue
            conflicts_with += with_prematch.decode_detailed(syndrome).counters[
                "conflicts_reported"
            ]
            conflicts_without += without_prematch.decode_detailed(syndrome).counters[
                "conflicts_reported"
            ]
        assert conflicts_with < conflicts_without

    def test_prematched_pairs_counted(self, path_graph_builder):
        graph = path_graph_builder()
        decoder = MicroBlossomDecoder(graph)
        from repro.graphs import Syndrome

        outcome = decoder.decode_detailed(Syndrome(defects=(2, 3)))
        assert outcome.prematched_pairs == 1
        assert outcome.result.weight == graph.edges[0].weight
