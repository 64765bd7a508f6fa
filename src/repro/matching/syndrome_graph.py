"""Syndrome-graph construction.

Given a decoding graph and a syndrome (set of defect vertices), the *syndrome
graph* is the complete graph over the defect vertices whose edge weights are
shortest-path distances in the decoding graph, plus one "boundary" option per
defect (its distance to the nearest virtual vertex).  The classic MWPM decoder
(paper §2) solves a minimum-weight perfect matching on this graph; the
decoding-graph based decoders (Parity/Sparse/Micro Blossom) avoid building it
explicitly, but it remains the reference against which exactness is verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..graphs.decoding_graph import DecodingGraph


@dataclass
class SyndromeGraph:
    """Dense pairwise/boundary distances for a set of defect vertices."""

    graph: DecodingGraph
    defects: tuple[int, ...]
    pair_distance: dict[tuple[int, int], int] = field(default_factory=dict)
    boundary_distance: dict[int, int] = field(default_factory=dict)
    boundary_vertex: dict[int, int] = field(default_factory=dict)

    def distance(self, u: int, v: int) -> int:
        """Shortest decoding-graph distance between two defect vertices."""
        key = (min(u, v), max(u, v))
        return self.pair_distance[key]

    def matching_weight(
        self, pairs: Sequence[tuple[int, int]], boundary: int = -1
    ) -> int:
        """Total weight of a matching expressed as defect pairs.

        ``boundary`` is the sentinel value used for defects matched to the
        boundary (:data:`repro.graphs.syndrome.BOUNDARY`).
        """
        total = 0
        for u, v in pairs:
            if v == boundary:
                total += self.boundary_distance[u]
            else:
                total += self.distance(u, v)
        return total


def build_syndrome_graph(
    graph: DecodingGraph, defects: Sequence[int]
) -> SyndromeGraph:
    """Compute all pairwise and boundary distances for the given defects.

    Raises ``ValueError`` if any defect is a virtual vertex or if a defect
    cannot reach the boundary (decoding graphs built by this package always
    can).
    """
    defects = tuple(sorted(set(defects)))
    for defect in defects:
        if graph.is_virtual(defect):
            raise ValueError(f"defect {defect} is a virtual vertex")
    syndrome_graph = SyndromeGraph(graph=graph, defects=defects)
    for i, u in enumerate(defects):
        for v in defects[i + 1 :]:
            distance = graph.distance(u, v)
            if distance < 0:
                raise ValueError(f"defects {u} and {v} are disconnected")
            syndrome_graph.pair_distance[(u, v)] = distance
        best_distance, best_vertex = graph.nearest_virtual(u)
        if best_distance < 0:
            raise ValueError(f"defect {u} cannot reach the boundary")
        syndrome_graph.boundary_distance[u] = best_distance
        syndrome_graph.boundary_vertex[u] = best_vertex
    return syndrome_graph
