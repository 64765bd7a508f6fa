"""Union-Find decoder (the accuracy/latency trade-off baseline).

Helios [25, 26] — the fastest hardware Union-Find decoder — is the main
non-MWPM comparison point of the paper's effective-accuracy evaluation
(Figure 11).  The Union-Find decoder approximates MWPM decoding: clusters grow
from every defect, merge when they touch, stop when every cluster has even
parity or reaches the code boundary, and a peeling pass inside each cluster
produces the correction.  It is faster than MWPM decoding but loses accuracy
(the paper quotes up to ~1.7x more logical errors at d = 13, p = 0.1% for
Helios-class decoders, and ~5x for plain weighted-growth Union-Find at d = 21).

This implementation is the standard weighted-growth variant (Delfosse &
Nickerson) operating directly on the decoding graph, so it shares the graph
substrate and evaluation harness with the MWPM decoders.

Growth is frontier-based.  Each round walks only the adjacency of the active
clusters' vertices — the edges whose support is still below their weight,
each growing at a rate equal to its number of active endpoints — and grows
them in ascending edge index, so a round costs the size of the active
clusters' boundaries rather than the whole edge list, with the same support
updates, union order and counters as a full rescan.  A vertex whose edges are
all grown leaves its cluster's frontier for good (support only grows).  The
peel then walks the grown edges — saturated plus zero-weight (erased) ones —
in index order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..api.outcome import DecodeOutcome
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import MatchingResult, Syndrome, matching_from_correction

#: Safety bound on growth rounds (each round saturates at least one edge).
_MAX_GROWTH_ROUNDS_FACTOR = 4


@dataclass
class UnionFindOutcome(DecodeOutcome):
    """Correction produced by the Union-Find decoder plus work statistics."""

    growth_rounds: int = 0
    merges: int = 0


class _Clusters:
    """Union-find over decoding-graph vertices with parity/boundary tracking."""

    def __init__(self, is_virtual: list[bool], defects: set[int]) -> None:
        num_vertices = len(is_virtual)
        self.parent = list(range(num_vertices))
        self.rank = [0] * num_vertices
        self.parity = [0] * num_vertices
        self.touches_boundary = list(is_virtual)
        self.in_cluster = [False] * num_vertices
        for defect in defects:
            self.parity[defect] = 1
            self.in_cluster[defect] = True

    def find(self, vertex: int) -> int:
        parent = self.parent
        root = vertex
        while parent[root] != root:
            root = parent[root]
        while parent[vertex] != root:
            parent[vertex], vertex = root, parent[vertex]
        return root

    def union(self, root_u: int, root_v: int) -> int:
        """Merge two distinct roots; returns the surviving root."""
        if self.rank[root_u] < self.rank[root_v]:
            root_u, root_v = root_v, root_u
        self.parent[root_v] = root_u
        if self.rank[root_u] == self.rank[root_v]:
            self.rank[root_u] += 1
        self.parity[root_u] ^= self.parity[root_v]
        self.touches_boundary[root_u] = (
            self.touches_boundary[root_u] or self.touches_boundary[root_v]
        )
        return root_u

    def is_active(self, root: int) -> bool:
        """A cluster keeps growing while it has odd parity and no boundary."""
        return self.parity[root] == 1 and not self.touches_boundary[root]


class UnionFindDecoder:
    """Weighted-growth Union-Find decoder with peeling.

    >>> from repro.graphs import code_capacity_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, code_capacity_noise(0.05))
    >>> decoder = UnionFindDecoder(graph)
    >>> outcome = decoder.decode_detailed(Syndrome(defects=(0, 1)))
    >>> sorted(outcome.correction), outcome.growth_rounds, outcome.merges
    ([0], 1, 1)
    >>> outcome.counters["edges_grown"]  # three edges at each defect, edge 0 shared
    5
    >>> decoder.decode(Syndrome(defects=(0, 1))).pairs
    [(0, 1)]
    """

    name = "union-find"

    def __init__(self, graph: DecodingGraph) -> None:
        self.graph = graph
        self._weights = [edge.weight for edge in graph.edges]
        self._endpoints = [(edge.u, edge.v) for edge in graph.edges]
        self._is_virtual = [graph.is_virtual(v) for v in range(graph.num_vertices)]
        #: Zero-weight (erased) edges count as grown from the start: they never
        #: enter a frontier, but the peel uses them.
        self._zero_weight_edges = [
            index for index, weight in enumerate(self._weights) if weight == 0
        ]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def decode(self, syndrome: Syndrome) -> MatchingResult:
        """Pair up the defects along the correction's connected components.

        Union-Find is not a matching decoder, so the pairing is derived from
        the peeled correction: within each connected component of correction
        edges the defect endpoints are paired with each other, and a leftover
        defect is paired with the component's boundary vertex.  The weight is
        the total weight of the correction edges (not a shortest-path
        matching weight — the decoder is approximate by design).
        """
        outcome = self.decode_detailed(syndrome)
        return matching_from_correction(self.graph, syndrome.defects, outcome.correction)

    def decode_to_correction(self, syndrome: Syndrome) -> set[int]:
        return self.decode_detailed(syndrome).correction

    def decode_detailed(self, syndrome: Syndrome) -> UnionFindOutcome:
        defects = set(syndrome.defects)
        outcome = UnionFindOutcome(correction=set(), defect_count=syndrome.defect_count)
        if not defects:
            return outcome
        adjacency = self.graph.adjacency
        weights = self._weights
        endpoints = self._endpoints
        clusters = _Clusters(self._is_virtual, defects)
        find = clusters.find
        in_cluster = clusters.in_cluster
        support = [0] * len(weights)
        saturated: list[int] = []
        # root -> the cluster's vertices that may still touch an unsaturated
        # edge (fully saturated vertices are dropped the first time a scan
        # sees them: support only grows, so they never rejoin a frontier).
        boundary: dict[int, list[int]] = {d: [d] for d in defects}
        edges_grown = 0

        for _ in range(_MAX_GROWTH_ROUNDS_FACTOR * len(weights)):
            active_roots = [root for root in boundary if clusters.is_active(root)]
            if not active_roots:
                break
            outcome.growth_rounds += 1
            # Growth rate of an edge = number of its endpoints in active clusters.
            rates: dict[int, int] = {}
            for root in active_roots:
                kept = []
                for vertex in boundary[root]:
                    open_edge = False
                    for index, _neighbor in adjacency[vertex]:
                        if support[index] < weights[index]:
                            rates[index] = rates.get(index, 0) + 1
                            open_edge = True
                    if open_edge:
                        kept.append(vertex)
                boundary[root] = kept
            if not rates:
                break
            frontier = sorted(rates.items())
            # Grow until the first edge saturates (at least one unit).
            step = min(
                (weights[index] - support[index] + rate - 1) // rate for index, rate in frontier
            )
            newly_saturated: list[int] = []
            for index, rate in frontier:
                grown = support[index] + rate * step
                if grown >= weights[index]:
                    support[index] = weights[index]
                    newly_saturated.append(index)
                else:
                    support[index] = grown
            edges_grown += len(frontier)
            saturated.extend(newly_saturated)
            for index in newly_saturated:
                u, v = endpoints[index]
                for endpoint in (u, v):
                    if not in_cluster[endpoint]:
                        in_cluster[endpoint] = True
                        boundary[endpoint] = [endpoint]
                root_u, root_v = find(u), find(v)
                if root_u == root_v:
                    continue
                outcome.merges += 1
                vertices_u = boundary.pop(root_u)
                vertices_v = boundary.pop(root_v)
                if len(vertices_u) < len(vertices_v):
                    vertices_u, vertices_v = vertices_v, vertices_u
                vertices_u.extend(vertices_v)
                boundary[clusters.union(root_u, root_v)] = vertices_u

        if edges_grown:
            outcome.counters["edges_grown"] += edges_grown
        grown_edges = sorted(saturated + self._zero_weight_edges)
        outcome.correction = self._peel(grown_edges, defects)
        return outcome

    # ------------------------------------------------------------------
    # peeling (correction extraction inside each grown cluster)
    # ------------------------------------------------------------------
    def _peel(self, grown_edges: list[int], defects: set[int]) -> set[int]:
        """Peel a correction from the grown edges (ascending edge index)."""
        endpoints = self._endpoints
        is_virtual = self._is_virtual
        grown_adjacency: dict[int, list[tuple[int, int]]] = {}
        for index in grown_edges:
            u, v = endpoints[index]
            grown_adjacency.setdefault(u, []).append((index, v))
            grown_adjacency.setdefault(v, []).append((index, u))

        correction: set[int] = set()
        visited: set[int] = set()
        for start in sorted(defects):
            if start in visited:
                continue
            # Spanning tree of the grown component, re-rooted at its first
            # virtual vertex (BFS order) so the boundary can absorb parity.
            order, parents = _bfs_tree(grown_adjacency, start)
            visited.update(order)
            root = next((v for v in order if is_virtual[v]), start)
            if root != start:
                order, parents = _bfs_tree(grown_adjacency, root)
            defect_flag = {v: v in defects for v in order}
            for vertex in reversed(order[1:]):
                if defect_flag[vertex]:
                    edge_index, parent = parents[vertex]
                    correction.add(edge_index)
                    defect_flag[parent] = not defect_flag[parent]
            if defect_flag[root] and not is_virtual[root]:
                # Parity left on a non-boundary root: the cluster had odd
                # parity without boundary access, which growth should prevent.
                raise RuntimeError("union-find peeling left an unmatched defect")
        return correction


def _bfs_tree(
    adjacency: dict[int, list[tuple[int, int]]], root: int
) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """BFS order and ``vertex -> (edge, parent)`` tree of ``root``'s component."""
    order = [root]
    parents: dict[int, tuple[int, int]] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        vertex = queue.popleft()
        for edge_index, neighbor in adjacency.get(vertex, ()):
            if neighbor in seen:
                continue
            seen.add(neighbor)
            parents[neighbor] = (edge_index, vertex)
            order.append(neighbor)
            queue.append(neighbor)
    return order, parents
