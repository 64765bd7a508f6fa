"""Reference exact MWPM decoder on the syndrome graph.

This is the classical decoding pipeline (paper §2): build the syndrome graph
(complete graph over defects, boundary option per defect) and solve a
minimum-weight perfect matching with a general-purpose matching solver.  The
boundary is handled with the standard construction: each defect ``i`` gets a
private boundary copy ``b_i`` connected to it by its boundary distance, and all
boundary copies are pairwise connected with weight zero, so a perfect matching
always exists and unmatched boundary copies pair up for free.

The heavy lifting of the general matching is delegated to ``networkx`` (an
independent, well-tested implementation of the blossom algorithm), which makes
this decoder a trustworthy oracle for verifying the decoders implemented from
scratch in :mod:`repro.core` and :mod:`repro.parity`.  For very small
instances, :mod:`repro.matching.brute_force` provides a second, fully
independent oracle.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from ..api.outcome import DecodeOutcome
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import BOUNDARY, MatchingResult, Syndrome, correction_edges
from .syndrome_graph import SyndromeGraph, build_syndrome_graph


def _solve_dense(syndrome_graph: SyndromeGraph) -> MatchingResult:
    defects = syndrome_graph.defects
    n = len(defects)
    if n == 0:
        return MatchingResult(pairs=[], weight=0)
    # Node 2i is defect i and node 2i + 1 its boundary copy.  Integer labels
    # hash the same in every process, so the matching networkx picks among
    # equal-weight ones does not depend on PYTHONHASHSEED.
    graph = nx.Graph()
    for i, u in enumerate(defects):
        graph.add_edge(2 * i, 2 * i + 1, weight=syndrome_graph.boundary_distance[u])
        for j in range(i + 1, n):
            graph.add_edge(2 * i, 2 * j, weight=syndrome_graph.distance(u, defects[j]))
            graph.add_edge(2 * i + 1, 2 * j + 1, weight=0)

    matching = nx.min_weight_matching(graph, weight="weight")

    pairs: list[tuple[int, int]] = []
    boundary_vertices: dict[int, int] = {}
    weight = 0
    # Pairs in defect order, so the result is canonical, not set order.
    for a, b in sorted(tuple(sorted(edge)) for edge in matching):
        if a % 2:
            continue  # two boundary copies pair up for free
        defect = defects[a // 2]
        if b % 2:
            pairs.append((defect, BOUNDARY))
            boundary_vertices[defect] = syndrome_graph.boundary_vertex[defect]
            weight += syndrome_graph.boundary_distance[defect]
        else:
            pairs.append((defect, defects[b // 2]))
            weight += syndrome_graph.distance(defect, defects[b // 2])
    result = MatchingResult(
        pairs=pairs, boundary_vertices=boundary_vertices, weight=weight
    )
    result.validate_perfect(defects)
    return result


class ReferenceDecoder:
    """Exact MWPM decoder via the dense syndrome graph.

    This decoder is accurate but quadratic in the number of defects (plus a
    general matching solve); it exists to verify exactness of the
    decoding-graph decoders and to provide a trusted accuracy baseline
    ("Sparse Blossom"-equivalent accuracy, since all exact MWPM decoders make
    the same predictions up to tie breaking).
    """

    name = "reference"

    def __init__(self, graph: DecodingGraph) -> None:
        self.graph = graph

    def decode(self, syndrome: Syndrome | Sequence[int]) -> MatchingResult:
        """Return an optimal matching of the syndrome's defects."""
        defects = (
            syndrome.defects if isinstance(syndrome, Syndrome) else tuple(syndrome)
        )
        syndrome_graph = build_syndrome_graph(self.graph, defects)
        return _solve_dense(syndrome_graph)

    def decode_to_correction(self, syndrome: Syndrome | Sequence[int]) -> set[int]:
        """Return the optimal correction as decoding-graph edge indices."""
        return correction_edges(self.graph, self.decode(syndrome))

    def decode_detailed(self, syndrome: Syndrome | Sequence[int]) -> DecodeOutcome:
        """Return the optimal matching wrapped in the shared outcome record.

        The reference decoder delegates to ``networkx`` and therefore has no
        operation counters; the outcome only carries the matching itself.
        """
        result = self.decode(syndrome)
        defects = (
            syndrome.defects if isinstance(syndrome, Syndrome) else tuple(syndrome)
        )
        return DecodeOutcome(result=result, defect_count=len(defects))

    def optimal_weight(self, syndrome: Syndrome | Sequence[int]) -> int:
        """Weight of an optimal matching (convenience for exactness tests)."""
        return self.decode(syndrome).weight
