"""Tests for the syndrome graph, the brute-force oracle and the reference decoder."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graphs import BOUNDARY, SyndromeSampler, circuit_level_noise
from repro.graphs import surface_code_decoding_graph
from repro.matching import (
    MAX_BRUTE_FORCE_DEFECTS,
    ReferenceDecoder,
    brute_force_matching,
    build_syndrome_graph,
)


class TestSyndromeGraph:
    def test_pairwise_distances_match_graph(self, path_graph_builder):
        graph = path_graph_builder()
        syndrome_graph = build_syndrome_graph(graph, [1, 2, 3])
        weight = graph.edges[0].weight
        assert syndrome_graph.distance(1, 2) == weight
        assert syndrome_graph.distance(1, 3) == 2 * weight
        assert syndrome_graph.distance(2, 3) == weight

    def test_boundary_distances(self, path_graph_builder):
        graph = path_graph_builder()
        syndrome_graph = build_syndrome_graph(graph, [1, 2, 3])
        weight = graph.edges[0].weight
        assert syndrome_graph.boundary_distance[1] == weight
        assert syndrome_graph.boundary_distance[2] == 2 * weight
        assert syndrome_graph.boundary_vertex[1] == 0
        assert syndrome_graph.boundary_vertex[3] == 4

    def test_rejects_virtual_defects(self, path_graph_builder):
        graph = path_graph_builder()
        with pytest.raises(ValueError):
            build_syndrome_graph(graph, [0, 1])

    def test_matching_weight_helper(self, path_graph_builder):
        graph = path_graph_builder()
        syndrome_graph = build_syndrome_graph(graph, [1, 3])
        weight = graph.edges[0].weight
        assert syndrome_graph.matching_weight([(1, 3)]) == 2 * weight
        assert (
            syndrome_graph.matching_weight([(1, BOUNDARY), (3, BOUNDARY)], BOUNDARY)
            == 2 * weight
        )

    def test_triangle_inequality(self, surface_d3_circuit, sampler_d3):
        syndrome = sampler_d3.sample_batch(20)
        defects = sorted({d for s in syndrome for d in s.defects})[:6]
        if len(defects) < 3:
            pytest.skip("not enough defects sampled")
        syndrome_graph = build_syndrome_graph(surface_d3_circuit, defects)
        a, b, c = defects[:3]
        assert syndrome_graph.distance(a, c) <= (
            syndrome_graph.distance(a, b) + syndrome_graph.distance(b, c)
        )


class TestBruteForce:
    def test_empty_syndrome(self, path_graph_builder):
        graph = path_graph_builder()
        result = brute_force_matching(build_syndrome_graph(graph, []))
        assert result.pairs == []
        assert result.weight == 0

    def test_single_defect_goes_to_boundary(self, path_graph_builder):
        graph = path_graph_builder()
        result = brute_force_matching(build_syndrome_graph(graph, [1]))
        assert result.pairs == [(1, BOUNDARY)]
        assert result.weight == graph.edges[0].weight

    def test_adjacent_pair_matched_together(self, path_graph_builder):
        graph = path_graph_builder()
        result = brute_force_matching(build_syndrome_graph(graph, [1, 2]))
        weight = graph.edges[0].weight
        # Matching the two defects directly costs `weight`; sending both to
        # their nearest boundaries costs weight + 2 * weight.
        assert result.weight == weight
        assert set(result.pairs) == {(1, 2)}

    def test_three_defects_use_boundary(self, path_graph_builder):
        graph = path_graph_builder()
        result = brute_force_matching(build_syndrome_graph(graph, [1, 2, 3]))
        weight = graph.edges[0].weight
        # Optimal: match 2-3 (or 1-2) and send the remaining defect to its
        # boundary at distance `weight`.
        assert result.weight == 2 * weight
        result.validate_perfect([1, 2, 3])

    def test_too_many_defects_rejected(self, surface_d5_circuit):
        defects = [
            v
            for v in range(surface_d5_circuit.num_vertices)
            if not surface_d5_circuit.is_virtual(v)
        ][: MAX_BRUTE_FORCE_DEFECTS + 2]
        syndrome_graph = build_syndrome_graph(surface_d5_circuit, defects)
        with pytest.raises(ValueError):
            brute_force_matching(syndrome_graph)


class TestReferenceDecoder:
    def test_empty_syndrome(self, surface_d3_circuit):
        result = ReferenceDecoder(surface_d3_circuit).decode([])
        assert result.pairs == []
        assert result.weight == 0

    def test_single_defect(self, path_graph_builder):
        graph = path_graph_builder()
        result = ReferenceDecoder(graph).decode([2])
        assert result.pairs == [(2, BOUNDARY)]
        assert result.weight == 2 * graph.edges[0].weight

    def test_agrees_with_brute_force_on_random_syndromes(self):
        graph = surface_code_decoding_graph(5, circuit_level_noise(0.02))
        sampler = SyndromeSampler(graph, seed=99)
        reference = ReferenceDecoder(graph)
        checked = 0
        for _ in range(40):
            syndrome = sampler.sample()
            if not 0 < syndrome.defect_count <= 12:
                continue
            brute = brute_force_matching(build_syndrome_graph(graph, syndrome.defects))
            assert reference.decode(syndrome).weight == brute.weight
            checked += 1
        assert checked >= 5

    def test_matching_is_perfect(self, surface_d5_circuit):
        sampler = SyndromeSampler(surface_d5_circuit, seed=3)
        reference = ReferenceDecoder(surface_d5_circuit)
        for _ in range(20):
            syndrome = sampler.sample()
            result = reference.decode(syndrome)
            result.validate_perfect(syndrome.defects)

    def test_wire_form_does_not_depend_on_the_hash_seed(self):
        """Two processes with different ``PYTHONHASHSEED`` decode the same
        seeded shots into byte-identical wire forms (pair order included)."""
        script = (
            "import json\n"
            "from repro.api import DecoderSession\n"
            "from repro.graphs import SyndromeSampler, circuit_level_noise\n"
            "from repro.graphs import surface_code_decoding_graph\n"
            "graph = surface_code_decoding_graph(5, circuit_level_noise(0.005))\n"
            "session = DecoderSession(graph, 'reference')\n"
            "shots = SyndromeSampler(graph, seed=2026).sample_batch(100)\n"
            "print(json.dumps([session.decode_detailed(s).to_dict() for s in shots]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                check=True,
                timeout=300,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1", "2")
        ]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_optimal_weight_helper(self, path_graph_builder):
        graph = path_graph_builder()
        decoder = ReferenceDecoder(graph)
        assert decoder.optimal_weight([1, 2]) == graph.edges[0].weight
