"""Behavioural model of the Micro Blossom dual-phase accelerator.

The accelerator (paper §3–§6) contains one vertex PU per decoding-graph vertex
and one edge PU per edge, a broadcast network for instructions and a
convergecast tree for responses.  On top of the cover-based dual phase of
:class:`repro.core.dual.DualGraphState` this class adds the hardware-only
behaviour:

* **pre-matching of isolated Conflicts** (paper §5.2, Equations 1–3): pairs of
  defects — or a defect and a boundary vertex — whose Covers touch while no
  other Cover is nearby are matched entirely inside the PUs; their nodes stop
  growing without any CPU interaction and are only handed to the software if a
  third Cover later disturbs them;
* **round-wise fusion** (paper §6): syndrome layers are loaded one measurement
  round at a time; vertices of rounds not yet loaded behave like virtual
  boundary vertices;
* **bus/instruction accounting** used by the latency model: every instruction
  word and every blocking response read is counted, together with the number
  of accelerator clock cycles they occupy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..graphs.decoding_graph import DecodingGraph
from .dual import DEFAULT_DUAL_SCALE, DualGraphState
from .interface import GROW, HOLD, Obstacle


@dataclass(frozen=True)
class PreMatch:
    """A pair handled entirely inside the accelerator (isolated Conflict)."""

    defect: int
    peer: int
    edge: int
    peer_is_boundary: bool


class MicroBlossomAccelerator(DualGraphState):
    """Dual-phase accelerator with pre-matching and round-wise fusion."""

    def __init__(
        self,
        graph: DecodingGraph,
        scale: int = DEFAULT_DUAL_SCALE,
        enable_prematching: bool = True,
    ) -> None:
        self.enable_prematching = enable_prematching
        self._prematches: dict[int, PreMatch] = {}
        self._prematches_dirty = True
        #: Vertices whose pre-match may have changed while tightness did not
        #: (see :meth:`_recheck_prematches`).
        self._recheck: set[int] = set()
        self._directed: set[int] = set()
        super().__init__(graph, scale=scale)
        #: Zero-weight (erased) edges at each vertex, in adjacency order:
        #: always tight.
        self._always_tight: list[list[tuple[int, int]]] = [[] for _ in graph.adjacency]
        for edge in graph.edges:
            if not edge.weight:
                self._always_tight[edge.u].append((edge.index, edge.v))
                self._always_tight[edge.v].append((edge.index, edge.u))
        #: Per layer: the vertices next to (or in) the layer's real vertices,
        #: the only ones whose pre-match a load of that layer can change.
        self._layer_neighbourhood: list[frozenset[int]] = [
            frozenset(
                near
                for vertex in real
                for near in [vertex] + [n for _, n in graph.adjacency[vertex]]
            )
            for real in self.real_by_layer
        ]

    # ------------------------------------------------------------------
    # instruction accounting wrappers
    # ------------------------------------------------------------------
    def reset(self) -> None:
        super().reset()
        self._prematches = {}
        self._prematches_dirty = True
        self._recheck.clear()
        self._directed.clear()
        self.counters["bus_words"] = 1  # the reset instruction word

    def load(self, defects: Iterable[int], layers: Iterable[int] | None = None) -> None:
        known = len(self.defect_root)
        if layers is not None:
            layers = set(layers)
        super().load(defects, layers)
        # One load instruction per layer loaded; syndrome bits stream in
        # directly from the quantum control stack (paper Figure 5), so they do
        # not cross the CPU bus.
        self.counters["bus_words"] += 1 if layers is None else len(layers)
        if layers is None or len(self.defect_root) != known:
            # New defects (or the whole graph at once): rescan everything.
            self._prematches_dirty = True
        else:
            # Only boundary status moved, next to the loaded layers.
            for layer in layers:
                if 0 <= layer < len(self._layer_neighbourhood):
                    near = self._layer_neighbourhood[layer]
                    self._recheck.update(d for d in self.defect_root if d in near)

    def set_direction(self, node: int, direction: int) -> None:
        super().set_direction(node, direction)
        self._directed.add(node)
        self.counters["bus_words"] += 1
        if node < self._num_vertices:
            self._recheck.add(node)

    def create_blossom(self, children: Iterable[int], blossom_id: int) -> None:
        children = list(children)
        super().create_blossom(children, blossom_id)
        self.counters["bus_words"] += len(children)
        self._prematches_dirty = True

    def expand_blossom(self, blossom_id: int, new_roots) -> None:
        super().expand_blossom(blossom_id, new_roots)
        self.counters["bus_words"] += len(new_roots)
        self._prematches_dirty = True

    def grow(self, length: int) -> None:
        super().grow(length)
        self.counters["bus_words"] += 1
        self._prematches_dirty = True

    def find_obstacle(self) -> Obstacle:
        self.counters["bus_words"] += 1
        self.counters["response_reads"] += 1
        return super().find_obstacle()

    # ------------------------------------------------------------------
    # pre-matching (paper §5.2)
    # ------------------------------------------------------------------
    def _node_rates(self, nodes: list[int]) -> list[int]:
        return self._rates(nodes, self._current_prematches())

    def _direction_for_growth(self, node: int) -> int:
        # The pre-matches the last query answered with.
        return HOLD if node in self._prematches else self.node_direction.get(node, HOLD)

    def _rates(self, nodes: list[int], prematches: dict[int, PreMatch]) -> list[int]:
        """A pre-matched node holds without any CPU interaction (§5.2);
        every other node moves in the direction the CPU set."""
        direction = self.node_direction.get
        return [HOLD if node in prematches else direction(node, HOLD) for node in nodes]

    def _current_prematches(self) -> dict[int, PreMatch]:
        """The pre-matches of the current state, recomputed only after a
        change: in full after one that can move tightness (a grow, a load of
        new defects, a blossom change), and only around the vertices whose
        eligibility or boundary status moved otherwise."""
        if not self.enable_prematching:
            self._prematches = {}
        elif self._prematches_dirty or self._recheck:
            self._ensure_covers()
            if self._prematches_dirty:
                self._prematches = self._compute_prematches()
                self._prematches_dirty = False
            else:
                self._recheck_prematches()
            self._recheck.clear()
            if self._prematches:
                self.counters["prematched_defects"] = max(
                    self.counters.get("prematched_defects", 0), len(self._prematches)
                )
        return self._prematches

    def _prematch_eligible(self, vertex: int) -> bool:
        """A defect may be pre-matched only while it is still an autonomous
        singleton node: never sent a direction by the CPU (a node set back to
        GROW is still one the primal module tracks) and not absorbed into any
        blossom."""
        # Only loaded defects have a root.
        return (
            vertex not in self._directed
            and self.defect_root.get(vertex) == vertex
            and self.node_direction.get(vertex, HOLD) == GROW
        )

    def _tightness(self) -> dict[int, list[tuple[int, int]]]:
        """Tight edges ``(index, neighbour)`` at every vertex that has one
        besides its zero-weight edges (see :meth:`_tight_at`).

        The residue of a vertex is its largest Cover residual (0 when only a
        boundary or nothing covers it); an edge is tight when the residues
        of its two ends span it.  A zero-weight edge always is; any other
        tight edge has an end with a positive residue, and its other end is
        covered too (the Cover spans the edge), so only the edges between
        covered vertices are walked, once per change of the cells.
        """
        covers = self._node_covers()
        if covers.tight is None:
            cells, weight, always = covers.cells, self._weight, self._always_tight
            tight = covers.tight = {}
            for here, column in cells.items():
                residue = column[0][1]
                if residue <= 0:
                    continue
                for index, there in self._adjacency[here]:
                    other = cells.get(there)
                    if other is None or (there < here and other[0][1] > 0):
                        continue  # uncovered, or walked from ``there``
                    if weight[index] and residue + other[0][1] >= weight[index]:
                        for end, near in ((here, there), (there, here)):
                            if end not in tight:
                                tight[end] = list(always[end])
                            tight[end].append((index, near))
        return covers.tight

    def _tight_at(self, tight: dict, vertex: int) -> list[tuple[int, int]]:
        """Tight edges at ``vertex``, given :meth:`_tightness`."""
        return tight.get(vertex) or self._always_tight[vertex]

    def _prematch_of(self, defect: int, tight: dict) -> PreMatch | None:
        """The pre-match of one eligible defect (paper §5.2).

        Equation 1 pairs two defects joined by a tight edge that is the only
        one at either end.  Otherwise Equations 2/3 match the defect to a
        boundary vertex (virtual, or of a round not loaded yet) over its
        lowest-index tight boundary edge, provided no other tight edge leads
        to a defect or to a vertex that a third Cover reaches.
        """
        edges = self._tight_at(tight, defect)
        if len(edges) == 1:
            index, peer = edges[0]
            if len(self._tight_at(tight, peer)) == 1 and self._prematch_eligible(peer):
                edge = self.graph.edges[index]
                return PreMatch(defect=edge.u, peer=edge.v, edge=index, peer_is_boundary=False)
        boundary = None
        for index, near in edges:
            if self._boundary[near]:
                if boundary is None or index < boundary[0]:
                    boundary = (index, near)
            elif self.is_defect[near] or len(self._tight_at(tight, near)) > 1:
                return None
        if boundary is None:
            return None
        return PreMatch(defect=defect, peer=boundary[1], edge=boundary[0], peer_is_boundary=True)

    def _add_prematch(self, prematches: dict[int, PreMatch], defect: int, tight: dict) -> None:
        prematch = self._prematch_of(defect, tight)
        if prematch is not None:
            prematches[prematch.defect] = prematch
            if not prematch.peer_is_boundary:
                prematches[prematch.peer] = prematch

    def _compute_prematches(self) -> dict[int, PreMatch]:
        """Every eligible defect's pre-match, tightness recomputed if stale."""
        prematches: dict[int, PreMatch] = {}
        tight = self._tightness()
        for defect in self.defect_root:
            if defect not in prematches and self._prematch_eligible(defect):
                self._add_prematch(prematches, defect, tight)
        return prematches

    def _recheck_prematches(self) -> None:
        """Redo the pre-matches of the vertices in ``_recheck`` only.

        Tightness is unchanged since the last scan, so a defect's pre-match
        can only move if the defect, or the peer of its pre-match, lost its
        eligibility (a ``set direction``) or if a vertex next to it stopped
        being a boundary vertex (a load without new defects, which the
        loaded layer's neighbourhood covers).
        """
        prematches = self._prematches
        todo = set(self._recheck)
        for vertex in self._recheck:
            prematch = prematches.get(vertex)
            if prematch is not None and not prematch.peer_is_boundary:
                todo.update((prematch.defect, prematch.peer))
        for vertex in todo:
            prematches.pop(vertex, None)
        tight = self._tightness()
        for vertex in todo:
            if vertex not in prematches and self._prematch_eligible(vertex):
                self._add_prematch(prematches, vertex, tight)

    def prematched_pairs(self) -> list[PreMatch]:
        """Pairs still handled in hardware when decoding finishes (§5.2)."""
        unique: dict[int, PreMatch] = {}
        for prematch in self._current_prematches().values():
            unique[prematch.edge] = prematch
        return sorted(unique.values(), key=lambda p: p.edge)

    # ------------------------------------------------------------------
    # hardware report for the latency/resource models
    # ------------------------------------------------------------------
    def hardware_report(self) -> dict[str, int]:
        """Bus and instruction statistics of the shot since the last reset."""
        return self.hardware_report_from(self.counters)

    @staticmethod
    def hardware_report_from(counters) -> dict[str, int]:
        """Bus and instruction statistics from a shot's counters (a decode
        outcome's, or the accelerator's own)."""
        return {
            "bus_words": int(counters.get("bus_words", 0)),
            "response_reads": int(counters.get("response_reads", 0)),
            "grow_instructions": int(counters.get("instr_grow", 0)),
            "find_obstacle_instructions": int(
                counters.get("instr_find_obstacle", 0)
            ),
            "set_direction_instructions": int(
                counters.get("instr_set_direction", 0)
            ),
            "set_cover_instructions": int(counters.get("instr_set_cover", 0)),
            "conflicts_reported": int(counters.get("conflicts_reported", 0)),
            "defects_loaded": int(counters.get("defects_loaded", 0)),
        }
