"""Property tests for the lazy shortest-path search of the decoding graph.

Every answer of :class:`repro.graphs.decoding_graph.DistanceSearch` — and of
the graph queries built on it — must equal that of one full Dijkstra run
from the same source, whatever order the queries extend the search in.
"""

from __future__ import annotations

import heapq
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import DecodingGraph, Edge, Vertex


def full_dijkstra(graph: DecodingGraph, source: int) -> tuple[list[int], list[int | None]]:
    """The oracle: one uninterrupted heapq Dijkstra over the whole graph."""
    distances = [math.inf] * graph.num_vertices
    predecessors: list[int | None] = [None] * graph.num_vertices
    distances[source] = 0
    heap = [(0, source)]
    while heap:
        dist, vertex = heapq.heappop(heap)
        if dist > distances[vertex]:
            continue
        for edge_index, neighbor in graph.adjacency[vertex]:
            candidate = dist + graph.edges[edge_index].weight
            if candidate < distances[neighbor]:
                distances[neighbor] = candidate
                predecessors[neighbor] = edge_index
                heapq.heappush(heap, (candidate, neighbor))
    return [-1 if d == math.inf else d for d in distances], predecessors


def oracle_path(graph, predecessors, source, target) -> list[int]:
    path, current = [], target
    while current != source:
        path.append(predecessors[current])
        current = graph.edges[predecessors[current]].other(current)
    return path[::-1]


def oracle_nearest_virtual(graph, distances) -> tuple[int, int]:
    best = (-1, -1)
    for virtual in graph.virtual_vertices:
        if distances[virtual] >= 0 and (best[0] < 0 or distances[virtual] < best[0]):
            best = (distances[virtual], virtual)
    return best


def oracle_ball(distances, radius) -> list[list[int]]:
    reached = sorted((d, v) for v, d in enumerate(distances) if 0 <= d <= radius)
    return [[v for _d, v in reached], [d for d, _v in reached]]


@st.composite
def graphs(draw):
    """A small graph: a main part with zero-weight edges and several virtual
    vertices, plus a part no main vertex can reach."""
    main = draw(st.integers(3, 9))
    apart = draw(st.integers(1, 3))
    count = main + apart
    virtual = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    for index in draw(st.sets(st.integers(0, count - 1), min_size=2, max_size=3)):
        virtual[index] = True
    pairs = [(u, v) for u in range(main) for v in range(u + 1, main)]
    pairs += [(u, v) for u in range(main, count) for v in range(u + 1, count)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=2))
    weights = draw(
        st.lists(st.sampled_from([0, 0, 2, 4, 6, 10]), min_size=len(chosen), max_size=len(chosen))
    )
    vertices = [Vertex(i, 0, 0, i, is_virtual=virtual[i]) for i in range(count)]
    edges = [Edge(i, u, v, w, 0.1) for i, ((u, v), w) in enumerate(zip(chosen, weights))]
    return DecodingGraph(vertices, edges)


#: One query of the primitive: ("ball", radius), ("target", vertex) or
#: ("virtual", _).  A list of them is one extension order.
queries = st.lists(
    st.tuples(st.sampled_from(["ball", "target", "virtual"]), st.integers(0, 40)),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(graphs(), queries, st.data())
def test_every_answer_matches_a_full_dijkstra_in_any_extension_order(graph, order, data):
    source = data.draw(st.integers(0, graph.num_vertices - 1), label="source")
    distances, predecessors = full_dijkstra(graph, source)
    search = graph.search(source)
    # Radius first, target first or nearest virtual first: the queries run
    # in the drawn order, each answer checked as it comes.
    for kind, value in order:
        if kind == "ball":
            assert search.ball(value) == oracle_ball(distances, value)
        elif kind == "target":
            target = value % graph.num_vertices
            assert graph.distance(source, target) == distances[target]
        else:
            assert graph.nearest_virtual(source) == oracle_nearest_virtual(graph, distances)
        assert search.order == oracle_ball(distances, math.inf)[0][: len(search.order)]
        assert len(search.distances) <= graph.num_vertices
    # Then every answer, on the search as those queries left it.
    assert graph.nearest_virtual(source) == oracle_nearest_virtual(graph, distances)
    for target in range(graph.num_vertices):
        assert graph.distance(source, target) == distances[target]
        if distances[target] >= 0:
            expected = oracle_path(graph, predecessors, source, target)
            assert graph.shortest_path_edges(source, target) == expected
    for radius in range(max(distances) + 2):
        assert search.ball(radius) == oracle_ball(distances, radius)
    assert search.order == oracle_ball(distances, math.inf)[0]
    assert len(search.order) == sum(d >= 0 for d in distances) < graph.num_vertices
