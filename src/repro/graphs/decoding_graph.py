"""Decoding graph data structures.

A decoding graph ``G = (V, E, W)`` is derived from a QEC code and a noise model
(paper §2).  Each vertex corresponds to a stabilizer measurement (or a virtual
boundary vertex); each edge corresponds to an independent error mechanism with
probability ``p_e`` and weight ``w_e = log((1 - p_e) / p_e)``.

Weights are quantised to small non-negative integers (the paper's prototype
uses 4-bit weights with a maximum of 14, §8.1) and then doubled internally so
that all dual variables of the blossom algorithm stay integral even when two
covers meet in the middle of an edge.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Container, Iterable, Sequence

#: Internal multiplier applied to every quantised weight so that half-integral
#: dual updates of the blossom algorithm become integral.
WEIGHT_DOUBLING = 2

#: Default maximum quantised weight (4-bit representation, paper §8.1).
DEFAULT_MAX_WEIGHT = 14

#: Sentinel distinguishing "noise model not parsed yet" from "absent".
_UNSET = object()


@dataclass(frozen=True)
class Vertex:
    """A vertex of the decoding graph.

    Attributes:
        index: position of the vertex in ``DecodingGraph.vertices``.
        layer: measurement round this vertex belongs to (0 for 2D graphs).
        row, col: spatial coordinates inside the layer.
        is_virtual: True for boundary (virtual) vertices, which represent the
            unknown measurements along the code boundary and never host defects.
    """

    index: int
    layer: int
    row: int
    col: int
    is_virtual: bool = False


@dataclass(frozen=True)
class Edge:
    """An edge of the decoding graph (one independent error mechanism)."""

    index: int
    u: int
    v: int
    weight: int
    probability: float
    #: True if this error flips the logical observable used for evaluation.
    observable: bool = False
    #: Classification used by noise models and resource accounting.
    kind: str = "spatial"

    def other(self, vertex: int) -> int:
        """Return the endpoint of the edge that is not ``vertex``."""
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"vertex {vertex} is not an endpoint of edge {self.index}")


def quantized_weight(
    probability: float,
    reference_probability: float,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> int:
    """Quantise ``log((1-p)/p)`` onto ``1..max_weight`` (before doubling).

    ``reference_probability`` is the smallest error probability present in the
    graph; it maps to ``max_weight`` so that the full dynamic range of the
    fixed-point representation is used (paper §8.1: "maximum edge weight 14").
    """
    if not 0.0 < probability < 0.5:
        raise ValueError("edge probability must lie in (0, 0.5)")
    if not 0.0 < reference_probability < 0.5:
        raise ValueError("reference probability must lie in (0, 0.5)")
    raw = math.log((1.0 - probability) / probability)
    raw_max = math.log((1.0 - reference_probability) / reference_probability)
    scaled = int(round(raw / raw_max * max_weight))
    return max(1, min(max_weight, scaled))


class DecodingGraph:
    """A weighted decoding graph with virtual (boundary) vertices.

    Vertices and edges are fixed at construction.  The shortest-path searches
    it keeps for decoders and the reference MWPM decoder grow as queries
    reach further, so threads sharing a graph must take turns.
    """

    def __init__(
        self,
        vertices: Sequence[Vertex],
        edges: Sequence[Edge],
        observable_edges: Iterable[int] | None = None,
        metadata: dict | None = None,
    ) -> None:
        self.vertices: list[Vertex] = list(vertices)
        self.edges: list[Edge] = list(edges)
        self.metadata: dict = dict(metadata or {})
        self._validate()
        self.adjacency: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for edge in self.edges:
            self.adjacency[edge.u].append((edge.index, edge.v))
            self.adjacency[edge.v].append((edge.index, edge.u))
        if observable_edges is None:
            observable_edges = [e.index for e in self.edges if e.observable]
        self.observable_edges: frozenset[int] = frozenset(observable_edges)
        self.virtual_vertices: list[int] = [
            v.index for v in self.vertices if v.is_virtual
        ]
        self._layers: list[list[int]] = []
        for vertex in self.vertices:
            while len(self._layers) <= vertex.layer:
                self._layers.append([])
            self._layers[vertex.layer].append(vertex.index)
        self._virtual_set = frozenset(self.virtual_vertices)
        self._weights = [edge.weight for edge in self.edges]
        self._searches: dict[int, DistanceSearch] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for i, vertex in enumerate(self.vertices):
            if vertex.index != i:
                raise ValueError("vertex indices must be consecutive and ordered")
        seen: set[tuple[int, int]] = set()
        for i, edge in enumerate(self.edges):
            if edge.index != i:
                raise ValueError("edge indices must be consecutive and ordered")
            if edge.u == edge.v:
                raise ValueError("self loops are not allowed in decoding graphs")
            if not (0 <= edge.u < len(self.vertices)) or not (
                0 <= edge.v < len(self.vertices)
            ):
                raise ValueError("edge endpoint out of range")
            if edge.weight < 0:
                raise ValueError("edge weights must be non-negative")
            key = (min(edge.u, edge.v), max(edge.u, edge.v))
            if key in seen:
                raise ValueError(f"duplicate edge between {key}")
            seen.add(key)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_real_vertices(self) -> int:
        return self.num_vertices - len(self.virtual_vertices)

    def is_virtual(self, vertex: int) -> bool:
        return self.vertices[vertex].is_virtual

    def neighbors(self, vertex: int) -> list[tuple[int, int]]:
        """Return ``(edge_index, neighbor_vertex)`` pairs incident to ``vertex``."""
        return self.adjacency[vertex]

    def edge_between(self, u: int, v: int) -> Edge | None:
        """Return the edge connecting ``u`` and ``v`` if it exists."""
        for edge_index, neighbor in self.adjacency[u]:
            if neighbor == v:
                return self.edges[edge_index]
        return None

    def total_weight(self) -> int:
        return sum(edge.weight for edge in self.edges)

    def max_weight(self) -> int:
        return max((edge.weight for edge in self.edges), default=0)

    # ------------------------------------------------------------------
    # shortest paths
    # ------------------------------------------------------------------
    def search(self, source: int) -> "DistanceSearch":
        """The search from ``source``, kept, and run only as far as asked."""
        search = self._searches.get(source)
        if search is None:
            search = self._searches[source] = DistanceSearch(self, source)
        return search

    def distance(self, u: int, v: int) -> int:
        """Shortest-path distance between two vertices (-1 if disconnected)."""
        return self.search(u).distance_to(v)

    def shortest_path_edges(self, u: int, v: int) -> list[int]:
        """Edge indices along one shortest path from ``u`` to ``v``."""
        search = self.search(u)
        if search.distance_to(v) < 0:
            raise ValueError(f"vertices {u} and {v} are disconnected")
        path, current = [], v
        while current != u:
            path.append(search.predecessors[current])
            current = self.edges[path[-1]].other(current)
        return path[::-1]

    def nearest_virtual(self, vertex: int) -> tuple[int, int]:
        """Return ``(distance, virtual_vertex)`` of the closest boundary vertex.

        The lowest-index one wins a tie.  Returns ``(-1, -1)`` when the
        graph has no virtual vertices reachable from ``vertex``.

        >>> from repro.graphs import code_capacity_noise, surface_code_decoding_graph
        >>> graph = surface_code_decoding_graph(3, code_capacity_noise(0.01))
        >>> graph.virtual_vertices, graph.nearest_virtual(0), graph.nearest_virtual(3)
        ([4, 5], (28, 4), (28, 5))
        """
        return self.search(vertex).nearest(self._virtual_set)

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------
    def correction_from_pairs(
        self, pairs: Iterable[tuple[int, int]]
    ) -> set[int]:
        """Turn matched defect pairs into a correction (a set of edge indices).

        Each pair contributes one shortest path between its endpoints; edges
        appearing an even number of times cancel out (XOR semantics).
        """
        correction: set[int] = set()
        for u, v in pairs:
            for edge_index in self.shortest_path_edges(u, v):
                correction.symmetric_difference_update({edge_index})
        return correction

    def crosses_observable(self, edge_indices: Iterable[int]) -> bool:
        """Parity of the given edge set restricted to the logical observable."""
        crossings = sum(1 for index in edge_indices if index in self.observable_edges)
        return crossings % 2 == 1

    def vertices_in_layer(self, layer: int) -> list[int]:
        if not 0 <= layer < len(self._layers):
            return []
        return list(self._layers[layer])

    @property
    def num_layers(self) -> int:
        return max(1, len(self._layers))

    @property
    def noise_model(self):
        """The :class:`repro.graphs.NoiseModel` this graph was built under.

        Parsed (once, then cached) from ``metadata["noise"]``, which the
        surface-code builder records; ``None`` for graphs built without it
        (hand-assembled test graphs, legacy metadata).
        """
        model = getattr(self, "_noise_model", _UNSET)
        if model is _UNSET:
            data = self.metadata.get("noise")
            if data is None:
                model = None
            else:
                from .noise import NoiseModel

                model = NoiseModel.from_dict(data)
            self._noise_model = model
        return model

    def with_erasures(self, erasures: Iterable[int]) -> "DecodingGraph":
        """A graph variant in which the given edges carry zero weight.

        Heralded erasures are located errors: an erased edge flipped with
        probability 1/2, so its log-likelihood weight is 0 and any decoder
        may use it for free.  Returns ``self`` when ``erasures`` is empty;
        otherwise a new graph sharing vertices, observable set, and metadata,
        whose shortest-path searches start afresh (erasures change shortest
        paths).
        """
        from dataclasses import replace

        erased = sorted(set(int(e) for e in erasures))
        if not erased:
            return self
        for index in erased:
            if not 0 <= index < self.num_edges:
                raise ValueError(f"erased edge index {index} out of range")
        edges = list(self.edges)
        for index in erased:
            edges[index] = replace(edges[index], weight=0)
        return DecodingGraph(
            self.vertices,
            edges,
            observable_edges=self.observable_edges,
            metadata=self.metadata,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DecodingGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"layers={self.num_layers}, virtual={len(self.virtual_vertices)})"
        )


class DistanceSearch:
    """A Dijkstra from one source that runs only as far as it is asked to.

    Paused, it pops the same heap sequence as a full run, so distances and
    predecessor edges are the full run's.  Each :meth:`extend` finishes its
    last distance level and sorts what it settled (zero-weight edges can
    settle a lower vertex later at equal distance), so ``order`` holds
    every vertex within some distance by ``(distance, vertex)``, ``reach``
    their distances.  Its dicts and lists hold one entry per vertex at most.

    >>> from repro.graphs import code_capacity_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, code_capacity_noise(0.01))
    >>> search = graph.search(0)
    >>> search.ball(27), search.ball(28), len(search.order), graph.num_vertices
    ([[0], [0]], [[0, 1, 2, 4], [0, 28, 28, 28]], 4, 6)
    >>> search.distance_to(3), search.nearest({5}), len(search.order)
    (56, (56, 5), 6)
    """

    def __init__(self, graph: DecodingGraph, source: int) -> None:
        self.distances: dict[int, int] = {source: 0}
        self.predecessors: dict[int, int] = {}
        self.order: list[int] = []  # settled vertices, nearest first
        self.reach: list[int] = []  # their distances
        self._heap: list[tuple[int, int]] = [(0, source)]
        self._graph = graph
        self.extend(0)
        # Every radius below ``_beyond`` reads this one ball.
        self._core = [self.order[:], self.reach[:]]
        self._beyond = self._heap[0][0] if self._heap else math.inf

    def extend(self, radius: float = math.inf, goal: Container[int] = ()) -> None:
        """Settle every vertex within ``radius``, or stop after the
        distance level at which a vertex of ``goal`` settles."""
        heap, distances, predecessors = self._heap, self.distances, self.predecessors
        adjacency, weights = self._graph.adjacency, self._graph._weights
        settled = []
        while heap and heap[0][0] <= radius:
            dist, vertex = heappop(heap)
            if dist > distances[vertex]:
                continue
            settled.append((dist, vertex))
            if vertex in goal:
                radius = dist
            for edge_index, neighbor in adjacency[vertex]:
                candidate = dist + weights[edge_index]
                known = distances.get(neighbor)
                if known is None or candidate < known:
                    distances[neighbor] = candidate
                    predecessors[neighbor] = edge_index
                    heappush(heap, (candidate, neighbor))
        settled.sort()
        self.order += [vertex for _dist, vertex in settled]
        self.reach += [dist for dist, _vertex in settled]

    def ball(self, radius: int) -> list[list[int]]:
        """``[vertices, distances]`` within ``radius``, as in ``order``."""
        if radius < self._beyond:
            return self._core
        if self._heap and self._heap[0][0] <= radius:
            self.extend(radius)
        end = bisect_right(self.reach, radius)
        return [self.order[:end], self.reach[:end]]

    def distance_to(self, vertex: int) -> int:
        """The distance to ``vertex``, -1 if it is unreachable."""
        # A tentative distance no larger than any heap entry is final.
        if self._heap and self.distances.get(vertex, math.inf) > self._heap[0][0]:
            self.extend(goal=(vertex,))
        return self.distances.get(vertex, -1)

    def nearest(self, goal: Container[int]) -> tuple[int, int]:
        """``(distance, vertex)`` of the nearest vertex of ``goal``, the
        lowest-index one on ties; ``(-1, -1)`` if none is reachable."""
        while True:
            for index, vertex in enumerate(self.order):
                if vertex in goal:
                    return self.reach[index], vertex
            if not self._heap:
                return -1, -1
            self.extend(goal=goal)


@dataclass
class GraphBuilder:
    """Incremental builder used by the code-family specific constructors."""

    max_weight: int = DEFAULT_MAX_WEIGHT
    vertices: list[Vertex] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    _edge_keys: set[tuple[int, int]] = field(default_factory=set)
    metadata: dict = field(default_factory=dict)

    def add_vertex(
        self, layer: int, row: int, col: int, is_virtual: bool = False
    ) -> int:
        index = len(self.vertices)
        self.vertices.append(Vertex(index, layer, row, col, is_virtual))
        return index

    def add_edge(
        self,
        u: int,
        v: int,
        probability: float,
        reference_probability: float,
        observable: bool = False,
        kind: str = "spatial",
    ) -> int:
        key = (min(u, v), max(u, v))
        if key in self._edge_keys:
            raise ValueError(f"duplicate edge between {key}")
        self._edge_keys.add(key)
        weight = WEIGHT_DOUBLING * quantized_weight(
            probability, reference_probability, self.max_weight
        )
        index = len(self.edges)
        self.edges.append(
            Edge(index, u, v, weight, probability, observable=observable, kind=kind)
        )
        return index

    def build(self) -> DecodingGraph:
        return DecodingGraph(self.vertices, self.edges, metadata=self.metadata)
