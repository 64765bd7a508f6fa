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

import numpy as np

from ..graphs.decoding_graph import DecodingGraph
from .dual import DEFAULT_DUAL_SCALE, DualGraphState
from .interface import GROW, HOLD, Obstacle
from .instructions import (
    find_conflict_word,
    grow_word,
    load_defects_word,
    reset_word,
    set_cover_word,
    set_direction_word,
)


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
        self._prematched_floor: int = 0
        super().__init__(graph, scale=scale)

    # ------------------------------------------------------------------
    # instruction accounting wrappers
    # ------------------------------------------------------------------
    def reset(self) -> None:
        super().reset()
        self._prematches = {}
        self._prematches_dirty = True
        # ``prematched_defects`` is a per-shot high-water mark; remember the
        # cumulative value at reset so reused engines report per-shot deltas
        # identical to a freshly-built accelerator.
        self._prematched_floor = self.counters.get(
            "prematched_defects", getattr(self, "_prematched_floor", 0)
        )
        self.counters["bus_words"] = self.counters.get("bus_words", 0) + 1
        _ = reset_word()

    def load(self, defects: Iterable[int], layers: Iterable[int] | None = None) -> None:
        super().load(defects, layers)
        # One load instruction per layer loaded; syndrome bits stream in
        # directly from the quantum control stack (paper Figure 5), so they do
        # not cross the CPU bus.
        layer_count = 1 if layers is None else len(set(layers))
        for layer in range(layer_count):
            _ = load_defects_word(layer)
        self.counters["bus_words"] += layer_count
        self._prematches_dirty = True

    def set_direction(self, node: int, direction: int) -> None:
        super().set_direction(node, direction)
        _ = set_direction_word(min(node, 2**15 - 1), direction)
        self.counters["bus_words"] += 1
        self._prematches_dirty = True

    def create_blossom(self, children: Iterable[int], blossom_id: int) -> None:
        children = list(children)
        super().create_blossom(children, blossom_id)
        for child in children:
            _ = set_cover_word(min(child, 2**15 - 1), min(blossom_id, 2**15 - 1))
        self.counters["bus_words"] += len(children)
        self._prematches_dirty = True

    def expand_blossom(self, blossom_id: int, new_roots) -> None:
        super().expand_blossom(blossom_id, new_roots)
        for defect, root in new_roots.items():
            _ = set_cover_word(min(defect, 2**15 - 1), min(root, 2**15 - 1))
        self.counters["bus_words"] += len(new_roots)
        self._prematches_dirty = True

    def grow(self, length: int) -> None:
        super().grow(length)
        _ = grow_word(length)
        self.counters["bus_words"] += 1
        self._prematches_dirty = True

    def find_obstacle(self) -> Obstacle:
        _ = find_conflict_word()
        self.counters["bus_words"] += 1
        self.counters["response_reads"] += 1
        return super().find_obstacle()

    # ------------------------------------------------------------------
    # pre-matching (paper §5.2)
    # ------------------------------------------------------------------
    def _effective_directions(self) -> dict[int, int]:
        directions = dict(self.node_direction)
        for prematch in self._current_prematches().values():
            directions[prematch.defect] = HOLD
            if not prematch.peer_is_boundary:
                directions[prematch.peer] = HOLD
        return directions

    def _current_prematches(self) -> dict[int, PreMatch]:
        """The pre-matches of the current state, recomputed only after a
        change (every instruction that can change them marks them dirty)."""
        if not self.enable_prematching:
            self._prematches = {}
        elif self._prematches_dirty:
            self._prematches = self._compute_prematches()
            self._prematches_dirty = False
        return self._prematches

    def _direction_for_growth(self, node: int) -> int:
        if self.enable_prematching and node in self._prematches:
            return HOLD
        return self.node_direction.get(node, HOLD)

    def _prematch_eligible(self, vertex: int) -> bool:
        """A defect may be pre-matched only while it is still an autonomous
        singleton node growing with its default direction (never touched by
        the CPU and not absorbed into any blossom)."""
        return (
            self.loaded[vertex]
            and self.is_defect[vertex]
            and self.defect_root.get(vertex) == vertex
            and self.node_direction.get(vertex, HOLD) == GROW
        )

    def _compute_prematches(self) -> dict[int, PreMatch]:
        covers = self._ensure_covers()
        graph = self.graph
        # Residue of every vertex is its largest Cover residual (0 when only
        # a boundary or nothing covers it); an edge is tight when the
        # residues of its two ends span it.
        residue = np.maximum(covers.residual.max(axis=0), 0)
        edge_u, edge_v = self._edge_u, self._edge_v
        tight = residue[edge_u] + residue[edge_v] >= self._edge_weight
        tight_count = np.bincount(
            np.concatenate([edge_u[tight], edge_v[tight]]), minlength=graph.num_vertices
        )

        prematches: dict[int, PreMatch] = {}
        claimed: set[int] = set()

        def try_regular(edge) -> bool:
            """Equation 1: an isolated error away from any boundary."""
            u, v = edge.u, edge.v
            if not (self._prematch_eligible(u) and self._prematch_eligible(v)):
                return False
            if tight_count[u] != 1 or tight_count[v] != 1:
                return False
            prematch = PreMatch(defect=u, peer=v, edge=edge.index, peer_is_boundary=False)
            prematches[u] = prematch
            prematches[v] = prematch
            claimed.update((u, v))
            return True

        def try_boundary(edge) -> bool:
            """Equations 2/3: an isolated error on the (possibly fusion) boundary."""
            for defect, boundary in ((edge.u, edge.v), (edge.v, edge.u)):
                if not self.is_boundary_node(boundary):
                    continue
                if not self._prematch_eligible(defect):
                    continue
                safe = True
                for other_index, neighbor in graph.adjacency[defect]:
                    if other_index == edge.index or not tight[other_index]:
                        continue
                    if self.is_boundary_node(neighbor):
                        continue
                    if self.is_defect[neighbor] or tight_count[neighbor] > 1:
                        safe = False
                        break
                if not safe:
                    continue
                prematch = PreMatch(
                    defect=defect, peer=boundary, edge=edge.index, peer_is_boundary=True
                )
                prematches[defect] = prematch
                claimed.add(defect)
                return True
            return False

        for index in tight.nonzero()[0].tolist():
            edge = graph.edges[index]
            if edge.u in claimed or edge.v in claimed:
                continue
            if try_regular(edge):
                continue
            try_boundary(edge)
        if prematches:
            self.counters["prematched_defects"] = max(
                self.counters.get("prematched_defects", 0),
                self._prematched_floor + len(claimed),
            )
        return prematches

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
        """Bus and instruction statistics accumulated since construction."""
        return self.hardware_report_from(self.counters)

    @staticmethod
    def hardware_report_from(counters) -> dict[str, int]:
        """Bus and instruction statistics from a counter snapshot.

        Used with per-shot counter deltas when the accelerator model is
        reused across decodes (engine reuse / decoder sessions).
        """
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
