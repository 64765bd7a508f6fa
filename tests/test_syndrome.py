"""Tests for error sampling, syndromes and matching-result evaluation."""

from __future__ import annotations

import pytest

from repro.graphs import (
    BOUNDARY,
    MatchingResult,
    SyndromeSampler,
    circuit_level_noise,
    correction_edges,
    is_logical_error,
    residual_defects,
    surface_code_decoding_graph,
)
from repro.graphs.syndrome import matching_weight


class TestSampler:
    def test_seeded_sampler_is_deterministic(self, surface_d3_circuit):
        first = SyndromeSampler(surface_d3_circuit, seed=7).sample_batch(5)
        second = SyndromeSampler(surface_d3_circuit, seed=7).sample_batch(5)
        assert [s.defects for s in first] == [s.defects for s in second]
        assert [s.error_edges for s in first] == [s.error_edges for s in second]

    def test_different_seeds_differ(self, surface_d3_circuit):
        graph = surface_code_decoding_graph(5, circuit_level_noise(0.05))
        first = SyndromeSampler(graph, seed=1).sample_batch(10)
        second = SyndromeSampler(graph, seed=2).sample_batch(10)
        assert [s.error_edges for s in first] != [s.error_edges for s in second]

    def test_defects_exclude_virtual_vertices(self, surface_d3_circuit, sampler_d3):
        for _ in range(20):
            syndrome = sampler_d3.sample()
            for defect in syndrome.defects:
                assert not surface_d3_circuit.is_virtual(defect)

    def test_syndrome_from_errors_parity(self, surface_d3_circuit, sampler_d3):
        graph = surface_d3_circuit
        edge = graph.edges[0]
        syndrome = sampler_d3.syndrome_from_errors([edge.index])
        expected = {
            v for v in (edge.u, edge.v) if not graph.is_virtual(v)
        }
        assert set(syndrome.defects) == expected

    def test_two_errors_on_shared_vertex_cancel(self, surface_d3_circuit, sampler_d3):
        graph = surface_d3_circuit
        # Find two edges sharing a real vertex.
        shared = None
        for vertex in range(graph.num_vertices):
            if graph.is_virtual(vertex):
                continue
            incident = graph.neighbors(vertex)
            if len(incident) >= 2:
                shared = (vertex, incident[0][0], incident[1][0])
                break
        assert shared is not None
        vertex, edge_a, edge_b = shared
        syndrome = sampler_d3.syndrome_from_errors([edge_a, edge_b])
        assert vertex not in syndrome.defects

    def test_logical_flip_recorded(self, surface_d3_circuit, sampler_d3):
        observable_edge = next(iter(surface_d3_circuit.observable_edges))
        syndrome = sampler_d3.syndrome_from_errors([observable_edge])
        assert syndrome.logical_flip is True


class TestMatchingResult:
    def test_validate_perfect_accepts_complete_matching(self):
        result = MatchingResult(pairs=[(1, 2), (3, BOUNDARY)])
        result.validate_perfect([1, 2, 3])

    def test_validate_perfect_rejects_missing_defect(self):
        result = MatchingResult(pairs=[(1, 2)])
        with pytest.raises(ValueError):
            result.validate_perfect([1, 2, 3])

    def test_validate_perfect_rejects_duplicate(self):
        result = MatchingResult(pairs=[(1, 2), (2, BOUNDARY)])
        with pytest.raises(ValueError):
            result.validate_perfect([1, 2])

    def test_matched_vertices(self):
        result = MatchingResult(pairs=[(4, 5), (6, BOUNDARY)])
        assert sorted(result.matched_vertices()) == [4, 5, 6]


class TestEvaluation:
    def test_correction_annihilates_defects(self, surface_d3_circuit, sampler_d3):
        graph = surface_d3_circuit
        edge = next(
            e
            for e in graph.edges
            if not graph.is_virtual(e.u) and not graph.is_virtual(e.v)
        )
        syndrome = sampler_d3.syndrome_from_errors([edge.index])
        result = MatchingResult(pairs=[(edge.u, edge.v)])
        correction = correction_edges(graph, result)
        assert residual_defects(graph, syndrome, correction) == ()

    def test_correct_matching_avoids_logical_error(self, surface_d3_circuit, sampler_d3):
        graph = surface_d3_circuit
        edge = next(
            e
            for e in graph.edges
            if not graph.is_virtual(e.u) and not graph.is_virtual(e.v)
        )
        syndrome = sampler_d3.syndrome_from_errors([edge.index])
        result = MatchingResult(pairs=[(edge.u, edge.v)])
        assert is_logical_error(graph, syndrome, result) is False

    def test_boundary_match_uses_nearest_virtual_when_unspecified(
        self, surface_d3_circuit, sampler_d3
    ):
        graph = surface_d3_circuit
        observable_edge = next(iter(graph.observable_edges))
        edge = graph.edges[observable_edge]
        defect = edge.u if not graph.is_virtual(edge.u) else edge.v
        syndrome = sampler_d3.syndrome_from_errors([observable_edge])
        result = MatchingResult(pairs=[(defect, BOUNDARY)])
        correction = correction_edges(graph, result)
        assert residual_defects(graph, syndrome, correction) == ()

    def test_wrong_matching_is_logical_error(self):
        graph = surface_code_decoding_graph(3, circuit_level_noise(0.01))
        sampler = SyndromeSampler(graph, seed=0)
        observable_edge = next(iter(graph.observable_edges))
        edge = graph.edges[observable_edge]
        defect = edge.u if not graph.is_virtual(edge.u) else edge.v
        syndrome = sampler.syndrome_from_errors([observable_edge])
        # Match the defect to the *other* boundary: the correction plus the
        # error now forms a boundary-to-boundary chain, i.e. a logical error.
        far_boundary = [
            v
            for v in graph.virtual_vertices
            if v != graph.nearest_virtual(defect)[1]
            and graph.vertices[v].layer == graph.vertices[defect].layer
        ]
        result = MatchingResult(
            pairs=[(defect, BOUNDARY)], boundary_vertices={defect: far_boundary[0]}
        )
        assert is_logical_error(graph, syndrome, result) is True

    def test_is_logical_error_requires_ground_truth(self, surface_d3_circuit):
        from repro.graphs import Syndrome

        syndrome = Syndrome(defects=())
        with pytest.raises(ValueError):
            is_logical_error(surface_d3_circuit, syndrome, MatchingResult())

    def test_matching_weight_pairs_and_boundary(self, path_graph_builder):
        graph = path_graph_builder()
        weight = graph.edges[0].weight
        result = MatchingResult(
            pairs=[(1, 3), (2, BOUNDARY)], boundary_vertices={2: 0}
        )
        assert matching_weight(graph, result) == 2 * weight + 2 * weight

    def test_matching_weight_uses_nearest_boundary_by_default(self, path_graph_builder):
        graph = path_graph_builder()
        weight = graph.edges[0].weight
        result = MatchingResult(pairs=[(1, BOUNDARY)])
        assert matching_weight(graph, result) == weight
