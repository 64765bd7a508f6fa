"""Unit tests for the decoding-graph data structures."""

from __future__ import annotations

import pytest

from repro.graphs import (
    DEFAULT_MAX_WEIGHT,
    WEIGHT_DOUBLING,
    DecodingGraph,
    Edge,
    GraphBuilder,
    Vertex,
    quantized_weight,
)


class TestQuantizedWeight:
    def test_reference_probability_maps_to_max_weight(self):
        assert quantized_weight(0.001, 0.001) == DEFAULT_MAX_WEIGHT

    def test_larger_probability_gives_smaller_weight(self):
        heavy = quantized_weight(0.001, 0.001)
        light = quantized_weight(0.01, 0.001)
        assert light < heavy

    def test_weight_never_below_one(self):
        assert quantized_weight(0.4999, 0.0001) == 1

    def test_weight_never_above_max(self):
        assert quantized_weight(0.00001, 0.001) == DEFAULT_MAX_WEIGHT

    def test_custom_max_weight(self):
        assert quantized_weight(0.001, 0.001, max_weight=7) == 7

    @pytest.mark.parametrize("probability", [0.0, 0.5, 0.7, -0.1])
    def test_invalid_probability_rejected(self, probability):
        with pytest.raises(ValueError):
            quantized_weight(probability, 0.001)

    @pytest.mark.parametrize("reference", [0.0, 0.5, 1.2])
    def test_invalid_reference_rejected(self, reference):
        with pytest.raises(ValueError):
            quantized_weight(0.01, reference)


class TestEdge:
    def test_other_endpoint(self):
        edge = Edge(0, 3, 7, 2, 0.01)
        assert edge.other(3) == 7
        assert edge.other(7) == 3

    def test_other_rejects_non_endpoint(self):
        edge = Edge(0, 3, 7, 2, 0.01)
        with pytest.raises(ValueError):
            edge.other(5)


class TestGraphBuilder:
    def test_builds_consistent_indices(self):
        builder = GraphBuilder()
        a = builder.add_vertex(0, 0, 0)
        b = builder.add_vertex(0, 0, 1)
        edge = builder.add_edge(a, b, 0.01, 0.01)
        graph = builder.build()
        assert graph.num_vertices == 2
        assert graph.num_edges == 1
        assert graph.edges[edge].u == a
        assert graph.edges[edge].v == b

    def test_weights_are_doubled(self):
        builder = GraphBuilder()
        a = builder.add_vertex(0, 0, 0)
        b = builder.add_vertex(0, 0, 1)
        builder.add_edge(a, b, 0.01, 0.01)
        graph = builder.build()
        assert graph.edges[0].weight == WEIGHT_DOUBLING * DEFAULT_MAX_WEIGHT
        assert graph.edges[0].weight % 2 == 0

    def test_duplicate_edge_rejected(self):
        builder = GraphBuilder()
        a = builder.add_vertex(0, 0, 0)
        b = builder.add_vertex(0, 0, 1)
        builder.add_edge(a, b, 0.01, 0.01)
        with pytest.raises(ValueError):
            builder.add_edge(b, a, 0.01, 0.01)


class TestDecodingGraphValidation:
    def test_rejects_misordered_vertices(self):
        vertices = [Vertex(1, 0, 0, 0)]
        with pytest.raises(ValueError):
            DecodingGraph(vertices, [])

    def test_rejects_self_loop(self):
        vertices = [Vertex(0, 0, 0, 0)]
        edges = [Edge(0, 0, 0, 1, 0.01)]
        with pytest.raises(ValueError):
            DecodingGraph(vertices, edges)

    def test_rejects_out_of_range_endpoint(self):
        vertices = [Vertex(0, 0, 0, 0), Vertex(1, 0, 0, 1)]
        edges = [Edge(0, 0, 5, 1, 0.01)]
        with pytest.raises(ValueError):
            DecodingGraph(vertices, edges)

    def test_rejects_negative_weight(self):
        vertices = [Vertex(0, 0, 0, 0), Vertex(1, 0, 0, 1)]
        edges = [Edge(0, 0, 1, -2, 0.01)]
        with pytest.raises(ValueError):
            DecodingGraph(vertices, edges)


class TestShortestPaths:
    def test_path_distances_on_line(self, path_graph_builder):
        graph = path_graph_builder()
        weight = graph.edges[0].weight
        assert graph.distance(1, 2) == weight
        assert graph.distance(1, 3) == 2 * weight
        assert graph.distance(0, 4) == 4 * weight

    def test_shortest_path_edges_reconstruct_distance(self, path_graph_builder):
        graph = path_graph_builder()
        path = graph.shortest_path_edges(1, 3)
        assert sum(graph.edges[e].weight for e in path) == graph.distance(1, 3)
        assert len(path) == 2

    def test_nearest_virtual(self, path_graph_builder):
        graph = path_graph_builder()
        distance, vertex = graph.nearest_virtual(1)
        assert vertex == 0
        assert distance == graph.edges[0].weight
        distance, vertex = graph.nearest_virtual(3)
        assert vertex == 4

    def test_search_is_kept_per_source_and_runs_only_as_far_as_asked(self, path_graph_builder):
        graph = path_graph_builder()
        weight = graph.edges[0].weight
        search = graph.search(1)
        assert graph.search(1) is search
        assert list(graph._searches) == [1]
        # A new search settles only the distance-0 level.
        assert (search.order, search.reach) == ([1], [0])
        # The neighbours' distances are final once no heap entry is smaller,
        # before anything pops.
        assert graph.distance(1, 2) == weight
        assert search.order == [1]
        assert search.ball(weight) == [[1, 0, 2], [0, weight, weight]]
        # Settling vertex 4 finishes its level; nothing lies beyond it.
        assert graph.distance(1, 4) == 3 * weight
        assert search.order == [1, 0, 2, 3, 4]
        assert len(search.distances) == graph.num_vertices

    def test_shortest_path_to_self_is_empty(self, path_graph_builder):
        graph = path_graph_builder()
        assert graph.shortest_path_edges(2, 2) == []


class TestObservableAndLayers:
    def test_observable_edges_from_flags(self, path_graph_builder):
        graph = path_graph_builder()
        assert graph.observable_edges == frozenset({0})
        assert graph.crosses_observable([0])
        assert graph.crosses_observable({0, 1, 2})
        assert not graph.crosses_observable([1, 2])

    def test_correction_from_pairs_cancels_shared_edges(self, path_graph_builder):
        graph = path_graph_builder()
        correction = graph.correction_from_pairs([(1, 3), (1, 3)])
        assert correction == set()

    def test_vertices_in_layer(self, surface_d3_circuit):
        layer0 = surface_d3_circuit.vertices_in_layer(0)
        assert layer0
        assert all(surface_d3_circuit.vertices[v].layer == 0 for v in layer0)

    def test_num_layers(self, surface_d3_circuit):
        assert surface_d3_circuit.num_layers == 3

    def test_edge_between(self, path_graph_builder):
        graph = path_graph_builder()
        assert graph.edge_between(1, 2) is not None
        assert graph.edge_between(1, 3) is None

    def test_counts(self, path_graph_builder):
        graph = path_graph_builder()
        assert graph.num_real_vertices == 3
        assert len(graph.virtual_vertices) == 2
        assert graph.total_weight() == 4 * graph.edges[0].weight
        assert graph.max_weight() == graph.edges[0].weight
