"""Dual-phase engine on the decoding graph (Parity-Blossom style Covers).

This module implements the dual phase of the blossom algorithm exactly in the
form accelerated by Micro Blossom (paper §4): every node ``S`` of the blossom
algorithm owns a *Cover* — the union of balls centred at its defect vertices
with radii equal to the accumulated dual variables — and the dual phase
repeatedly answers one question: *can the Covers keep growing, and if not,
which two nodes collided?*

The paper distributes the Covers over per-vertex state (Residue ``r_v``,
Touches ``T_v``, Nodes ``N_v``, Table 2) so that one processing unit per vertex
and per edge can maintain them with local rules (Table 1), and only the units
next to a Cover ever change state.  This class keeps the same state and
produces the same responses, and like the hardware it only touches the
vertices a Cover reaches and the edges at those vertices.

* **Covers.**  The ball of radius ``R(u)`` around a defect ``u`` comes
  from the graph's search from ``u`` (:meth:`DecodingGraph.search`), run
  only as far as the Cover reaches.  The residual of a node at
  vertex ``v`` is ``max(R(u) - d(u, v))`` over the node's defects; the
  vertex lies in the Cover iff the residual is ``>= 0``.  The defect-node
  Covers form one map from each covered vertex to its cells ``(node,
  residual, touch)`` in Cover order: residual descending, then node id
  ascending, where a node's Touch is its lowest-index defect that reaches
  the residual.  Virtual and not-yet-loaded vertices are boundary
  pseudo-nodes whose Cover is the ball of radius 0 around them: their own
  vertex, plus any vertex a zero-weight (erased) edge joins to it.  They are
  never listed; a per-load mask says which vertices they cover.
* **Queries.**  Conflict detection and the safe growth length (the
  Theorems of §4.2) read, at each vertex a defect node covers, the top two
  residuals over growing nodes and the top residual over holding ones
  (boundary pseudo-nodes hold at residual 0), and combine them across every
  edge at that vertex.  The first conflict in edge order (then in vertex
  order) is then replayed pair by pair in Cover order to name the two nodes
  and their Touches.

Operation counters (the inputs of the accelerator and CPU cost models) count
one shot, since ``reset()`` starts them afresh:

* ``cover_cells_updated`` grows, each time the Covers are rebuilt after a
  change, by the number of covered ``(node, vertex)`` cells plus the number
  of boundary sources (plus the vertices zero-weight edges add to their
  Covers);
* ``edges_scanned`` grows, per conflict scan, by the number of edges whose
  two endpoints are both covered, counting up to and including the
  conflicting edge (all of them when there is no edge-level conflict), and
  by ``num_edges`` per growth-length query.  Edges with two boundary-covered
  ends are counted from a mask derived once per load; every other such edge
  lies next to a vertex a defect node covers.

The host keeps the defect-node cells across loads that bring no new defect
(an empty measurement round in stream mode changes only the boundary, which
the queries read from the boundary mask), and rebuilds them from the balls
after any other change.  The counters are still charged as if the
hardware rebuilt everything: every query after a change charges the full
cell count, whatever the host reused to get it.

Dual variables are tracked per *defect vertex* as the accumulated cover radius
``R(u) = sum of y over the nodes containing u`` — precisely the quantity each
vPU can maintain locally because every ``grow`` instruction changes it by
``l * direction(Root(u))``.

Integer arithmetic: decoding-graph weights are even integers; the blossom
algorithm may nevertheless require half-integral dual updates.  The engine
therefore works in internal units of ``1 / scale`` weight units (``scale = 2``
by default).  In the rare event that an even finer step would be required, an
:class:`IntegralityError` is raised and the decoder retries with a doubled
scale (see :class:`repro.core.decoder.MicroBlossomDecoder`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..graphs.decoding_graph import DecodingGraph
from .interface import (
    Conflict,
    DualPhaseError,
    Finished,
    GrowLength,
    GROW,
    HOLD,
    IntegralityError,
    Obstacle,
)

#: Default internal dual scale (half-weight units), sufficient for the
#: half-integral dual updates of the blossom algorithm on integer weights.
DEFAULT_DUAL_SCALE = 2

#: Residual of a node at a vertex outside its Cover.  Far below any real
#: residual, so a sum involving it never reaches an edge weight and a
#: growth candidate derived from it is far above any real one.
ABSENT = -(1 << 40)

#: Growth candidates at or above this bound come from absent Covers.
_UNBOUNDED = 1 << 38

_FINISHED = Finished()


@dataclass(slots=True)
class Covers:
    """The defect-node Covers (paper §4.2, Table 2), by covered vertex.

    ``cells[v]`` lists ``(node, residual, touch)`` for every node whose
    Cover contains ``v``, in Cover order; ``nodes`` are the nodes that own
    defects, ascending, and ``count`` is the number of cells.
    """

    nodes: list[int]
    cells: dict[int, list[tuple[int, int, int]]]
    count: int
    #: Tight edges ``(index, neighbour)`` per vertex, derived on demand by
    #: subclasses that need them (the accelerator's pre-matching).
    tight: dict[int, list[tuple[int, int]]] | None = None


@dataclass(slots=True)
class _BoundaryView:
    """What the boundary pseudo-nodes cover, fixed between two loads."""

    #: Per vertex: whether a boundary pseudo-node covers it.
    covered: list[bool]
    #: Their cell count.
    cells: int
    #: Edges whose two ends are boundary-covered, and how many there are.
    both: np.ndarray
    both_count: int


class DualGraphState:
    """Cover-based dual phase of the blossom algorithm on a decoding graph.

    The class exposes the accelerator's instruction-set level interface
    (:class:`repro.core.interface.DualDriver`); the Micro Blossom accelerator
    and the Parity Blossom software baseline both build on it.
    """

    def __init__(self, graph: DecodingGraph, scale: int = DEFAULT_DUAL_SCALE) -> None:
        if scale < 1:
            raise ValueError("dual scale must be >= 1")
        self.graph = graph
        self.scale = scale
        self._adjacency = graph.adjacency
        self._edge_u = np.array([edge.u for edge in graph.edges], dtype=np.intp)
        self._edge_v = np.array([edge.v for edge in graph.edges], dtype=np.intp)
        self._weight = [edge.weight * scale for edge in graph.edges]
        self._virtual = np.array([v.is_virtual for v in graph.vertices], dtype=bool)
        self._zero_groups = _zero_distance_groups(graph)
        self._num_vertices = graph.num_vertices
        layers = [graph.vertices_in_layer(layer) for layer in range(graph.num_layers)]
        self._layer_vertices = [np.array(group, dtype=np.intp) for group in layers]
        #: Per layer: its real (non-virtual) vertices.  Loading the layer
        #: makes exactly these real, so they leave the fusion boundary.
        self.real_by_layer: list[frozenset[int]] = [
            frozenset(v for v in group if not graph.is_virtual(v)) for group in layers
        ]
        #: What the boundary covers while it is the virtual vertices alone
        #: (batch decoding).
        self._virtual_view = self._view_of(self._virtual)
        self.counters: Counter = Counter()
        self.reset()

    # ------------------------------------------------------------------
    # instruction set
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all PU state (the ``reset`` instruction) and start the
        counters of a new shot."""
        graph = self.graph
        self.loaded = np.zeros(graph.num_vertices, dtype=bool)
        self.is_defect = np.zeros(graph.num_vertices, dtype=bool)
        self._boundary = np.ones(graph.num_vertices, dtype=bool)
        self.defect_radius: dict[int, int] = {}
        self.defect_root: dict[int, int] = {}
        self.node_direction: dict[int, int] = {}
        #: True after every change: the next query charges a rebuild.
        self._charge_due = True
        #: ``None`` when the defect-node cells must be rebuilt.
        self._covers: Covers | None = None
        #: ``None`` after a load: the boundary moved.
        self._boundary_view: _BoundaryView | None = None
        self.counters.clear()
        self.counters["instr_reset"] = 1

    def load(self, defects: Iterable[int], layers: Iterable[int] | None = None) -> None:
        """Load syndrome data into the vPUs (the ``load defects`` instruction).

        When ``layers`` is None the whole graph is loaded at once (batch
        decoding).  Otherwise only vertices of the given measurement rounds are
        loaded and all other vertices keep acting as virtual boundary vertices
        (round-wise fusion, paper §6.2).
        """
        defects = set(defects)
        loaded = self.loaded
        fresh_defects = sorted(d for d in defects if not loaded[d])
        if layers is None:
            loaded[:] = True
            self._boundary = self._virtual.copy()
            self._boundary_view = self._virtual_view
        else:
            for layer in set(layers):
                if 0 <= layer < len(self._layer_vertices):
                    group = self._layer_vertices[layer]
                    loaded[group] = True
                    # A loaded vertex stays a boundary vertex only if virtual.
                    self._boundary[group] = self._virtual[group]
            self._boundary_view = None
        for vertex in fresh_defects:
            if not loaded[vertex]:
                continue
            if self._virtual[vertex]:
                raise DualPhaseError(f"virtual vertex {vertex} cannot be a defect")
            self.is_defect[vertex] = True
            self.defect_radius[vertex] = 0
            self.defect_root[vertex] = vertex
            # A freshly loaded defect is an unmatched singleton node and
            # starts growing without any CPU involvement.
            self.node_direction.setdefault(vertex, GROW)
            self._covers = None
        uncovered = [d for d in defects if not loaded[d]]
        if uncovered:
            raise DualPhaseError(
                f"defects {uncovered} lie outside the loaded measurement rounds"
            )
        self.counters["instr_load"] += 1
        self.counters["defects_loaded"] += len(defects)
        self._charge_due = True

    def set_direction(self, node: int, direction: int) -> None:
        """Broadcast a node direction (the ``set direction`` instruction)."""
        if direction not in (-1, 0, 1):
            raise ValueError("direction must be -1, 0 or +1")
        self.node_direction[node] = direction
        self.counters["instr_set_direction"] += 1
        # Directions change future growth only; covers themselves are intact.

    def create_blossom(self, children: Iterable[int], blossom_id: int) -> None:
        """Merge the Covers of ``children`` into a new blossom node."""
        children = set(children)
        if blossom_id in self.node_direction:
            raise DualPhaseError(f"node id {blossom_id} already exists")
        for defect, root in self.defect_root.items():
            if root in children:
                self.defect_root[defect] = blossom_id
        self.node_direction[blossom_id] = GROW
        self.counters["instr_set_cover"] += len(children)
        self._changed()

    def expand_blossom(self, blossom_id: int, new_roots: Mapping[int, int]) -> None:
        """Split a blossom Cover back into its children's Covers.

        ``new_roots`` maps every defect vertex previously rooted at
        ``blossom_id`` to its new outer node (computed by the primal module,
        which owns the blossom structure, paper §4.3).
        """
        for defect, root in new_roots.items():
            if self.defect_root.get(defect) != blossom_id:
                raise DualPhaseError(
                    f"defect {defect} is not rooted at blossom {blossom_id}"
                )
            self.defect_root[defect] = root
        remaining = [d for d, r in self.defect_root.items() if r == blossom_id]
        if remaining:
            raise DualPhaseError(
                f"blossom {blossom_id} still owns defects {remaining} after expansion"
            )
        self.node_direction.pop(blossom_id, None)
        self.counters["instr_set_cover"] += len(new_roots)
        self._changed()

    def grow(self, length: int) -> None:
        """Grow/shrink every Cover according to its direction (``grow l``)."""
        if length <= 0:
            raise ValueError("grow length must be positive")
        rates: dict[int, int] = {}
        for defect, root in self.defect_root.items():
            direction = rates.get(root)
            if direction is None:
                direction = rates[root] = self._direction_for_growth(root)
            if direction == HOLD:
                continue
            radius = self.defect_radius[defect] + length * direction
            if radius < 0:
                raise DualPhaseError(
                    f"cover radius of defect {defect} would become negative"
                )
            self.defect_radius[defect] = radius
        self.counters["instr_grow"] += 1
        self.counters["total_growth"] += length
        self._changed()

    def find_obstacle(self) -> Obstacle:
        """Report a Conflict, a safe growth length, or completion."""
        self.counters["instr_find_obstacle"] += 1
        covers = self._ensure_covers()
        rates = self._node_rates(covers.nodes)
        if max(rates, default=HOLD) <= 0:
            # Nothing grows: no conflict can exist, and nothing can move.
            self.counters["edges_scanned"] += self._edges_scanned(covers)
            return _FINISHED
        rate = dict(zip(covers.nodes, rates))
        tops = self._tops(covers, rate)
        edge, slack = self._edge_bounds(covers, rate, tops)
        conflict = self._scan_conflicts(covers, tops, edge)
        if conflict is not None:
            self.counters["conflicts_reported"] += 1
            return conflict
        length = self._max_grow_length(covers, rate, slack)
        if length is None:
            raise DualPhaseError("growing nodes exist but growth is unbounded")
        if length <= 0:
            raise IntegralityError(
                "dual update requires a step finer than the internal scale"
            )
        return GrowLength(length)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_boundary_node(self, node: int) -> bool:
        """True if ``node`` is a boundary pseudo-node (virtual or unloaded)."""
        if node >= self._num_vertices:
            return False
        return bool(self._boundary[node])

    def direction_of(self, node: int) -> int:
        return self.node_direction.get(node, HOLD)

    def radius_of(self, defect: int) -> int:
        """Accumulated cover radius of a defect vertex, in internal units."""
        return self.defect_radius[defect]

    def weight_units(self, internal: int) -> float:
        """Convert an internal dual quantity back into decoding-graph units."""
        return internal / self.scale

    def loaded_defects(self) -> list[int]:
        return sorted(self.defect_radius)

    # ------------------------------------------------------------------
    # hooks overridden by subclasses
    # ------------------------------------------------------------------
    def _effective_directions(self) -> dict[int, int]:
        """Direction of every known node as seen by the PUs."""
        nodes = list(self.node_direction)
        return dict(zip(nodes, self._node_rates(nodes)))

    def _node_rates(self, nodes: list[int]) -> list[int]:
        """Direction of each of ``nodes`` as seen by the PUs.

        The Micro Blossom accelerator overrides this to stall pre-matched
        nodes (paper §5.2) without any CPU interaction.
        """
        direction = self.node_direction.get
        return [direction(node, HOLD) for node in nodes]

    def _direction_for_growth(self, node: int) -> int:
        return self.node_direction.get(node, HOLD)

    def _changed(self) -> None:
        """The residuals moved: the cells are rebuilt at the next query."""
        self._covers = None
        self._charge_due = True

    # ------------------------------------------------------------------
    # cover maintenance
    # ------------------------------------------------------------------
    def _ensure_covers(self) -> Covers:
        """The Covers of the current state.  The first query after a change
        charges ``cover_cells_updated`` with every cell, as a full rebuild
        would, even where the host reuses cells it already has."""
        covers = self._node_covers()
        if self._charge_due:
            self._charge_due = False
            self.counters["cover_cells_updated"] += covers.count + self._boundary_cover().cells
        return covers

    def _node_covers(self) -> Covers:
        """The defect-node cells, rebuilt only after a change that moved them."""
        covers = self._covers
        if covers is None:
            covers = self._covers = self._build_covers()
        return covers

    def _build_covers(self) -> Covers:
        """Cells of every defect node's Cover, from its defects' balls."""
        search, scale = self.graph.search, self.scale
        members: dict[int, list[int]] = {}
        for defect in sorted(self.defect_radius):
            members.setdefault(self.defect_root[defect], []).append(defect)
        cells: dict[int, list[tuple[int, int, int]]] = {}
        count = 0
        for node in sorted(members):
            # Best residual per vertex; the lowest-index defect wins ties.
            best: dict[int, tuple[int, int]] = {}
            for defect in members[node]:
                radius = self.defect_radius[defect]
                for vertex, reach in zip(*search(defect).ball(radius // scale)):
                    residual = radius - reach * scale
                    held = best.get(vertex)
                    if held is None or residual > held[0]:
                        best[vertex] = (residual, defect)
            count += len(best)
            for vertex, (residual, touch) in best.items():
                cell = (node, residual, touch)
                column = cells.get(vertex)
                if column is None:
                    cells[vertex] = [cell]
                else:
                    column.append(cell)
        for column in cells.values():
            if len(column) > 1:
                # Nodes were added in ascending order, and the sort is stable.
                column.sort(key=_residual, reverse=True)
        return Covers(sorted(members), cells, count)

    def _boundary_cover(self) -> _BoundaryView:
        """What the boundary pseudo-nodes cover, derived once per load."""
        view = self._boundary_view
        if view is None:
            view = self._boundary_view = self._view_of(self._boundary)
        return view

    def _view_of(self, boundary: np.ndarray) -> _BoundaryView:
        """What the boundary pseudo-nodes at the vertices ``boundary`` marks
        cover.

        A boundary pseudo-node covers, at residual 0, every vertex at distance
        0 from it: its own vertex, plus those that zero-weight (erased) edges
        join to it.
        """
        if self._zero_groups is None:
            covered = boundary
            cells = int(np.count_nonzero(covered))
        else:
            group = self._zero_groups[1]
            counts = np.bincount(group[boundary], minlength=len(group))[group]
            covered = counts > 0
            cells = int(counts.sum())
        both = covered[self._edge_u] & covered[self._edge_v]
        return _BoundaryView(covered.tolist(), cells, both, int(np.count_nonzero(both)))

    def _cover_at(self, covers: Covers, vertex: int) -> list[tuple[int, int, int]]:
        """``(node, residual, touch)`` of every Cover at ``vertex`` in Cover order."""
        cells = list(covers.cells.get(vertex, ()))
        same = [vertex] if self._zero_groups is None else self._zero_groups[0][vertex]
        cells += [(node, 0, node) for node in same if self._boundary[node]]
        cells.sort(key=lambda cell: (-cell[1], cell[0]))
        return cells

    def _edges_scanned(self, covers: Covers, upto: int | None = None) -> int:
        """Edges whose two ends are covered, counting up to edge ``upto``
        (all of them when it is ``None``)."""
        boundary = self._boundary_cover()
        covered, cells = boundary.covered, covers.cells
        count = 0
        for here in cells:
            if covered[here]:
                continue  # its edges are counted from their other end or the prefix
            for edge, there in self._adjacency[here]:
                if upto is not None and edge > upto:
                    continue
                # An end only the defect nodes cover sees the edge from both
                # sides: count it from the lower one.
                count += covered[there] or (there > here and there in cells)
        if upto is None:
            return count + boundary.both_count
        return count + int(np.count_nonzero(boundary.both[: upto + 1]))

    # ------------------------------------------------------------------
    # conflict detection and growth length (Theorems of §4.2)
    # ------------------------------------------------------------------
    def _tops(self, covers: Covers, rate: dict[int, int]) -> dict[int, tuple[int, int, int, int]]:
        """Per vertex a defect node covers: the top residual over growing
        nodes and its node, the second one, and the top residual over
        holding nodes, boundary pseudo-nodes included (``ABSENT`` where
        there is none)."""
        covered = self._boundary_cover().covered
        tops = {}
        for vertex, cells in covers.cells.items():
            first = second = hold = ABSENT
            node_first = -1
            for node, residual, _touch in cells:
                direction = rate[node]
                if direction > 0:
                    if first == ABSENT:
                        first, node_first = residual, node
                    elif second == ABSENT:
                        second = residual
                elif direction == 0 and hold == ABSENT:
                    hold = residual
            if hold == ABSENT and covered[vertex]:
                hold = 0
            tops[vertex] = (first, node_first, second, hold)
        return tops

    def _edge_bounds(
        self, covers: Covers, rate: dict[int, int], tops: dict
    ) -> tuple[int | None, int]:
        """The ePU side of both Theorems of §4.2, over the edges at every
        vertex a growing Cover reaches: the first edge whose ends' residuals
        span it (an edge-level conflict), and the least growth that makes
        one do so or moves a Cover onto a vertex it has not reached yet."""
        cells, weight = covers.cells, self._weight
        first_edge = None
        best = _UNBOUNDED
        for here, (top, node, second, _hold) in tops.items():
            if top == ABSENT:
                continue
            for edge, there in self._adjacency[here]:
                limit = weight[edge]
                other = tops.get(there)
                if other is None:
                    # No defect node covers the other end (so no Cover spans
                    # the edge yet): the growing Cover must stop exactly when
                    # it arrives there, so that the Update stage can
                    # register the new vertex before continuing.
                    slack = limit - top
                else:
                    # Two distinct growing nodes close the slack at rate 2, a
                    # growing node and a holding one at rate 1.
                    pair = _pair_sum(top, node, second, other)
                    reach = top + other[3]
                    if pair >= limit or reach >= limit:
                        first_edge = edge if first_edge is None else min(first_edge, edge)
                    if reach < top:
                        reach = max(reach, _alone(cells[here], cells[there], rate))
                    slack = min((limit - pair) // 2, limit - reach)
                if slack < best:
                    best = slack
        return first_edge, best

    def _scan_conflicts(self, covers: Covers, tops: dict, edge: int | None) -> Conflict | None:
        """Theorem: Conflict Detection — the conflict on ``edge`` (the first
        edge-level one, if any), else the first vertex-level one."""
        if edge is not None:
            # Edge-level (ePUs): a growing node on one end and another
            # non-shrinking node on the other end whose residuals span it.
            self.counters["edges_scanned"] += self._edges_scanned(covers, edge)
            directions = self._effective_directions()
            end_u, end_v = self.graph.edges[edge].u, self.graph.edges[edge].v
            limit = self._weight[edge]
            for node_u, residual_u, touch_u in self._cover_at(covers, end_u):
                direction_u = directions.get(node_u, HOLD)
                for node_v, residual_v, touch_v in self._cover_at(covers, end_v):
                    if node_u == node_v:
                        continue
                    if direction_u + directions.get(node_v, HOLD) <= 0:
                        continue
                    if residual_u + residual_v >= limit:
                        return self._make_conflict(node_u, node_v, touch_u, touch_v, end_u, end_v)
            raise DualPhaseError(f"edge {edge} conflict vanished on replay")
        self.counters["edges_scanned"] += self._edges_scanned(covers)
        # Vertex-level detection (vPUs): two Covers overlapping on a vertex.
        overlaps = [
            vertex
            for vertex, (top, _node, second, hold) in tops.items()
            if second > ABSENT or (top > ABSENT and hold > ABSENT)
        ]
        if not overlaps:
            return None
        vertex = min(overlaps)
        directions = self._effective_directions()
        items = self._cover_at(covers, vertex)
        for i, (node_a, _residual_a, touch_a) in enumerate(items):
            direction_a = directions.get(node_a, HOLD)
            for node_b, _residual_b, touch_b in items[i + 1 :]:
                if direction_a + directions.get(node_b, HOLD) <= 0:
                    continue
                return self._make_conflict(node_a, node_b, touch_a, touch_b, vertex, vertex)
        raise DualPhaseError(f"vertex {vertex} conflict vanished on replay")

    def _make_conflict(
        self,
        node_1: int,
        node_2: int,
        touch_1: int,
        touch_2: int,
        vertex_1: int,
        vertex_2: int,
    ) -> Conflict:
        """Normalise a conflict so that a non-boundary node comes first."""
        if self.is_boundary_node(node_1) and not self.is_boundary_node(node_2):
            node_1, node_2 = node_2, node_1
            touch_1, touch_2 = touch_2, touch_1
            vertex_1, vertex_2 = vertex_2, vertex_1
        return Conflict(node_1, node_2, touch_1, touch_2, vertex_1, vertex_2)

    def _max_grow_length(self, covers: Covers, rate: dict[int, int], best: int) -> int | None:
        """Theorem: Local Length to Grow — ``best``, the ePU side, bounded
        by the vPU side."""
        self.counters["edges_scanned"] += self.graph.num_edges
        # Shrinking Covers must not recede past a vertex in one step, so that
        # Touches/Nodes can be updated consistently.
        if min(rate.values()) < 0:
            for column in covers.cells.values():
                for node, residual, _touch in column:
                    if 0 < residual < best and rate[node] < 0:
                        best = residual
        return best if best < _UNBOUNDED else None


def _residual(cell: tuple[int, int, int]) -> int:
    return cell[1]


def _pair_sum(top: int, node: int, second: int, other: tuple[int, int, int, int]) -> int:
    """Best sum of two growing residuals, one from each end, taken from
    distinct nodes."""
    other_top, other_node, other_second, _hold = other
    if node != other_node:
        return top + other_top
    return max(top + other_second, second + other_top)


def _alone(here: list, there: list, rate: dict[int, int]) -> int:
    """Top residual at ``here`` over growing nodes whose Cover misses the
    other end of the edge."""
    present = {node for node, _residual, _touch in there}
    for node, residual, _touch in here:
        if rate[node] > 0 and node not in present:
            return residual
    return ABSENT


def _zero_distance_groups(graph: DecodingGraph) -> tuple[list[list[int]], np.ndarray] | None:
    """Vertices at distance 0 from each vertex, and a group id per vertex.

    ``None`` when no edge has zero weight (every group is a single vertex).
    """
    if all(edge.weight for edge in graph.edges):
        return None
    groups: list[list[int] | None] = [None] * graph.num_vertices
    for start in range(graph.num_vertices):
        if groups[start] is not None:
            continue
        group = groups[start] = [start]
        for vertex in group:
            for edge_index, neighbor in graph.adjacency[vertex]:
                if graph.edges[edge_index].weight == 0 and groups[neighbor] is None:
                    groups[neighbor] = group
                    group.append(neighbor)
        group.sort()
    return groups, np.array([group[0] for group in groups], dtype=np.intp)
