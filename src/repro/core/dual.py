"""Dual-phase engine on the decoding graph (Parity-Blossom style Covers).

This module implements the dual phase of the blossom algorithm exactly in the
form accelerated by Micro Blossom (paper §4): every node ``S`` of the blossom
algorithm owns a *Cover* — the union of balls centred at its defect vertices
with radii equal to the accumulated dual variables — and the dual phase
repeatedly answers one question: *can the Covers keep growing, and if not,
which two nodes collided?*

The paper distributes the Covers over per-vertex state (Residue ``r_v``,
Touches ``T_v``, Nodes ``N_v``, Table 2) so that one processing unit per vertex
and per edge can maintain them with local rules (Table 1).  This class keeps
the same state and produces the same responses, computed the way the hardware
computes them: as a fixed number of data-parallel phases over all vertices
and edges at once, here numpy array operations.

* **Covers.**  Every defect ``u`` keeps its shortest-distance row ``d(u, ·)``
  (scaled, memoized per vertex).  The residual of a node at vertex ``v`` is
  ``max(R(u) - d(u, v))`` over the node's defects; the vertex lies in the
  Cover iff the residual is ``>= 0``.  All nodes together form one
  ``nodes × vertices`` residual matrix.  Virtual and not-yet-loaded vertices
  are boundary pseudo-nodes whose Cover is the ball of radius 0 around them:
  their own vertex, plus any vertex a zero-weight (erased) edge joins to it.
  One extra row (a mask of boundary sources) holds them all; a second one
  marks vertices that two boundary nodes reach.  The Cover order at a vertex
  is residual descending, then node id ascending, and a node's Touch there
  is its lowest-index defect that reaches the residual.
* **Queries.**  Conflict detection and the safe growth length (the
  Theorems of §4.2) reduce to two per-vertex reductions, the top-two
  residuals over growing nodes (with the row of the first, so that a node
  is never paired with itself) and the top residual over holding nodes,
  gathered at both ends of every edge next to a vertex covered by a defect
  node.  The first conflict in edge order (then in vertex order) is found
  with one ``nonzero``; only that one edge or vertex is then replayed pair
  by pair in Cover order to name the two nodes and their Touches.

Operation counters (the inputs of the accelerator and CPU cost models):

* ``cover_cells_updated`` grows, each time the Covers are rebuilt after a
  change, by the number of covered ``(node, vertex)`` cells plus the number
  of boundary sources (plus the vertices zero-weight edges add to their
  Covers);
* ``edges_scanned`` grows, per conflict scan, by the number of edges whose
  two endpoints are both covered, counting up to and including the
  conflicting edge (all of them when there is no edge-level conflict), and
  by ``num_edges`` per growth-length query.

The host keeps the node rows of the Covers across changes instead of
rebuilding them from the distance rows after every instruction.  A
``grow l`` shifts each non-HOLD node's row by ``±l``, a load appends one row
per new defect, and a load without new defects (an empty measurement round
in stream mode) changes only the boundary, which the queries read from the
boundary mask; the rows are rebuilt only after a reset or a blossom change.
The arrays only a Conflict or growth-length answer reads are derived on
first use, so a query that answers ``Finished`` (every idle stream round
ends with one) needs none of them.  The counters are still charged as if
the hardware rebuilt everything: every query after a change charges the
full cell count, whatever the host reused to get it.

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
class _NodeRows:
    """The defect-node part of the Covers, kept across grows and loads.

    ``reach[i, v]`` is ``max(R(u) - d(u, v))`` over the defects ``u`` of
    node ``nodes[i]``, before any masking: a grow shifts it.
    ``top`` is its column maximum (``ABSENT`` without nodes), ``by_defect``
    marks where it is ``>= 0`` and ``cells`` counts the covered ``(node,
    vertex)`` cells; all three are stale (``top`` is ``None``) after a
    shift until :meth:`DualGraphState._node_rows` refreshes them.
    """

    nodes: list[int]
    members: list[list[int]]
    reach: np.ndarray
    top: np.ndarray | None = None
    by_defect: np.ndarray | None = None
    cells: int = 0
    #: Tight edges and tight-edge count per vertex, kept by subclasses that
    #: need them (the accelerator's pre-matching) until the residues move.
    tightness: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(slots=True)
class Covers:
    """Per-vertex Cover state of every node (paper §4.2, Table 2).

    ``residual[i, v]`` is how far node ``nodes[i]``'s Cover extends beyond
    vertex ``v`` (``ABSENT`` outside the Cover); the rows after the last node
    hold the boundary pseudo-nodes at residual 0.  ``members[i]`` lists the
    node's defects in ascending order.  ``residual`` and the ``near`` edge
    arrays are only needed for a Conflict or growth-length answer, so they
    stay ``None`` until :meth:`DualGraphState._query_arrays` derives them.
    """

    nodes: list[int]
    members: list[list[int]]
    reach: np.ndarray
    #: Vertices covered by a defect node.
    by_defect: np.ndarray
    #: Edges whose two endpoints are both covered, and how many there are.
    both_covered: np.ndarray
    both_count: int
    residual: np.ndarray | None = None
    #: Column maximum of the boundary rows.
    boundary_top: np.ndarray | None = None
    #: Edges next to a vertex covered by a defect node, ascending.
    near: np.ndarray | None = None
    #: Ends of the ``near`` edges seen from each side: entry ``i`` of the
    #: first half reads edge ``near[i]`` from ``u`` to ``v``, the second
    #: half from ``v`` to ``u``.
    here: np.ndarray | None = None
    there: np.ndarray | None = None
    #: Weights of the ``near`` edges.
    weight: np.ndarray | None = None


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
        self._edge_u = np.array([edge.u for edge in graph.edges], dtype=np.intp)
        self._edge_v = np.array([edge.v for edge in graph.edges], dtype=np.intp)
        self._edge_weight = np.array([edge.weight * scale for edge in graph.edges], dtype=np.int64)
        self._virtual = np.array([v.is_virtual for v in graph.vertices], dtype=bool)
        self._zero_groups = _zero_distance_groups(graph)
        self._ends = np.concatenate((self._edge_u, self._edge_v))
        self._other_ends = np.concatenate((self._edge_v, self._edge_u))
        self._num_vertices = graph.num_vertices
        layers = [graph.vertices_in_layer(layer) for layer in range(graph.num_layers)]
        self._layer_vertices = [np.array(group, dtype=np.intp) for group in layers]
        #: Per layer: its real (non-virtual) vertices.  Loading the layer
        #: makes exactly these real, so they leave the fusion boundary.
        self.real_by_layer: list[frozenset[int]] = [
            frozenset(v for v in group if not graph.is_virtual(v)) for group in layers
        ]
        self._distance_rows: dict[int, np.ndarray] = {}
        self.counters: Counter = Counter()
        self.reset()

    # ------------------------------------------------------------------
    # instruction set
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all PU state (the ``reset`` instruction)."""
        graph = self.graph
        self.loaded = np.zeros(graph.num_vertices, dtype=bool)
        self.is_defect = np.zeros(graph.num_vertices, dtype=bool)
        self._boundary = np.ones(graph.num_vertices, dtype=bool)
        self.defect_radius: dict[int, int] = {}
        self.defect_root: dict[int, int] = {}
        self.node_direction: dict[int, int] = {}
        #: ``None`` after every change: the next query charges a rebuild.
        self._covers: Covers | None = None
        #: ``None`` when the node rows must be rebuilt from the distance rows.
        self._rows: _NodeRows | None = None
        #: Boundary pseudo-nodes covering each vertex, on erased-edge graphs.
        self._boundary_counts: np.ndarray | None = None
        self.counters["instr_reset"] += 1

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
        else:
            for layer in set(layers):
                if 0 <= layer < len(self._layer_vertices):
                    group = self._layer_vertices[layer]
                    loaded[group] = True
                    # A loaded vertex stays a boundary vertex only if virtual.
                    self._boundary[group] = self._virtual[group]
        self._boundary_counts = None
        added = []
        for vertex in fresh_defects:
            if not loaded[vertex]:
                continue
            if self._virtual[vertex]:
                raise DualPhaseError(f"virtual vertex {vertex} cannot be a defect")
            self.is_defect[vertex] = True
            added.append(vertex)
            self.defect_radius[vertex] = 0
            self.defect_root[vertex] = vertex
            # A freshly loaded defect is an unmatched singleton node and
            # starts growing without any CPU involvement.
            self.node_direction.setdefault(vertex, GROW)
        uncovered = [d for d in defects if not loaded[d]]
        if uncovered:
            raise DualPhaseError(
                f"defects {uncovered} lie outside the loaded measurement rounds"
            )
        if added and self._rows is not None:
            self._add_rows(self._rows, added)
        self.counters["instr_load"] += 1
        self.counters["defects_loaded"] += len(defects)
        self._covers = None

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
        self._covers = None
        self._rows = None

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
        self._covers = None
        self._rows = None

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
        rows = self._rows
        if rows is not None:
            # Every defect of a node moves by the same step, so the node's
            # row (a maximum over them) moves by it too.
            shift = np.array([rates[node] for node in rows.nodes], dtype=np.int64)
            if shift.any():
                rows.reach = rows.reach + (length * shift)[:, None]
                rows.top = None
        self.counters["instr_grow"] += 1
        self.counters["total_growth"] += length
        self._covers = None

    def find_obstacle(self) -> Obstacle:
        """Report a Conflict, a safe growth length, or completion."""
        self.counters["instr_find_obstacle"] += 1
        covers = self._ensure_covers()
        rates = self._node_rates(covers.nodes)
        if max(rates, default=HOLD) <= 0:
            # Nothing grows: no conflict can exist, and nothing can move.
            self.counters["edges_scanned"] += covers.both_count
            return _FINISHED
        self._query_arrays(covers)
        residual = covers.residual
        growing = residual[[row for row, rate in enumerate(rates) if rate > 0]]
        held = [row for row, rate in enumerate(rates) if rate == 0]
        hold = covers.boundary_top
        if held:
            hold = np.maximum(residual[held].max(axis=0), hold)
        grow = _top_two(growing)
        # Largest residual sums across every near edge: two distinct growing
        # nodes, one on each end, close its slack at rate 2; a growing node
        # and a holding one at rate 1.
        here, there = covers.here, covers.there
        count = len(covers.near)
        both = _pair_sum(grow[:, here[:count]], grow[:, there[:count]])
        mixed = (grow[0, here] + hold[there]).reshape(2, count).max(axis=0)
        conflict = self._scan_conflicts(covers, both, mixed, grow, hold)
        if conflict is not None:
            self.counters["conflicts_reported"] += 1
            return conflict
        length = self._max_grow_length(covers, rates, growing, both, mixed)
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

    # ------------------------------------------------------------------
    # cover maintenance
    # ------------------------------------------------------------------
    def _distance_row(self, vertex: int) -> np.ndarray:
        """Scaled shortest distances from ``vertex`` (unreachable: far away)."""
        row = self._distance_rows.get(vertex)
        if row is None:
            distances = np.array(self.graph.shortest_distances(vertex)[0], dtype=np.int64)
            row = np.where(distances < 0, -2 * ABSENT, distances * self.scale)
            self._distance_rows[vertex] = row
        return row

    def _ensure_covers(self) -> Covers:
        """The Covers of the current state.  The first query after a change
        charges ``cover_cells_updated`` with every cell, as a full rebuild
        would, even where the host reuses rows it already has."""
        covers = self._covers
        if covers is None:
            rows = self._node_rows()
            cells, covered = self._boundary_cover()
            self.counters["cover_cells_updated"] += rows.cells + cells
            covered = covered | rows.by_defect
            both_covered = covered[self._edge_u] & covered[self._edge_v]
            covers = self._covers = Covers(
                rows.nodes,
                rows.members,
                rows.reach,
                rows.by_defect,
                both_covered,
                int(np.count_nonzero(both_covered)),
            )
        return covers

    def _node_rows(self) -> _NodeRows:
        """The node rows, rebuilt only after a load of new defects or a
        blossom change, with their cell count and column maxima current."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._build_covers()
        if rows.top is None:
            reach = rows.reach
            if len(reach):
                rows.cells = int(np.count_nonzero(reach >= 0))
                rows.top = reach.max(axis=0)
            else:
                rows.cells = 0
                rows.top = np.full(self._num_vertices, ABSENT, dtype=np.int64)
            rows.by_defect = rows.top >= 0
            rows.tightness = None
        return rows

    def _add_rows(self, rows: _NodeRows, defects: list[int]) -> None:
        """Append the rows of freshly loaded singleton defects (radius 0).

        Row order carries no meaning (Cover order is residual, then node
        id), so the new rows go last.  Their reach is at most 0, so the
        column maxima clipped at 0 (the residues) stay as they are.
        """
        new = -np.array([self._distance_row(defect) for defect in defects])
        rows.nodes = rows.nodes + defects
        rows.members = rows.members + [[defect] for defect in defects]
        rows.reach = np.concatenate((rows.reach, new))
        if rows.top is not None:
            inside = new >= 0
            rows.cells += int(np.count_nonzero(inside))
            rows.top = np.maximum(rows.top, new.max(axis=0))
            rows.by_defect = rows.by_defect | inside.any(axis=0)

    def _build_covers(self) -> _NodeRows:
        """Node rows of every node's Cover, from the memoized distance rows."""
        members: dict[int, list[int]] = {}
        for defect in sorted(self.defect_radius):
            if self.defect_radius[defect] < 0:
                raise DualPhaseError("negative cover radius")
            members.setdefault(self.defect_root[defect], []).append(defect)
        nodes = sorted(members)
        groups = [members[node] for node in nodes]
        if nodes:
            order = [defect for group in groups for defect in group]
            radii = np.array([self.defect_radius[d] for d in order], dtype=np.int64)
            reach = radii[:, None] - np.array([self._distance_row(d) for d in order])
            if len(order) > len(nodes):
                starts = np.cumsum([0] + [len(group) for group in groups[:-1]])
                reach = np.maximum.reduceat(reach, starts, axis=0)
        else:
            reach = np.empty((0, self._num_vertices), dtype=np.int64)
        return _NodeRows(nodes=nodes, members=groups, reach=reach)

    def _query_arrays(self, covers: Covers) -> None:
        """Derive the residual matrix and the ``near`` edge arrays, which
        only Conflict and growth-length answers read."""
        if covers.residual is not None:
            return
        reach = covers.reach
        boundary = self._boundary_rows()
        covers.residual = np.concatenate((np.where(reach >= 0, reach, ABSENT), boundary))
        covers.boundary_top = boundary[0]
        by_defect = covers.by_defect
        near = (by_defect[self._edge_u] | by_defect[self._edge_v]).nonzero()[0]
        sides = np.concatenate((near, near + len(self._edge_u)))
        covers.near = near
        covers.here = self._ends[sides]
        covers.there = self._other_ends[sides]
        covers.weight = self._edge_weight[near]

    def _boundary_cover(self) -> tuple[int, np.ndarray]:
        """The boundary cell count and the vertices a boundary pseudo-node
        covers.

        A boundary pseudo-node covers, at residual 0, every vertex at distance
        0 from it: its own vertex, plus those that zero-weight (erased) edges
        join to it.
        """
        if self._zero_groups is None:
            return int(np.count_nonzero(self._boundary)), self._boundary
        counts = self._zero_group_counts()
        return int(counts.sum()), counts > 0

    def _boundary_rows(self) -> np.ndarray:
        """Boundary rows of the residual matrix.  Only the first two boundary
        nodes at a vertex matter to the queries, so at most two rows hold
        them."""
        if self._zero_groups is None:
            return np.where(self._boundary, 0, ABSENT)[None, :]
        return np.where(self._zero_group_counts() >= np.array([[1], [2]]), 0, ABSENT)

    def _zero_group_counts(self) -> np.ndarray:
        """How many boundary pseudo-nodes cover each vertex of an erased-edge
        graph: those of its zero-distance group."""
        counts = self._boundary_counts
        if counts is None:
            group = self._zero_groups[1]
            counts = np.bincount(group[self._boundary], minlength=len(group))[group]
            self._boundary_counts = counts
        return counts

    def _cover_at(self, covers: Covers, vertex: int) -> list[tuple[int, int, int]]:
        """``(node, residual, touch)`` of every Cover at ``vertex`` in Cover order."""
        column = covers.residual[: len(covers.nodes), vertex].tolist()
        cells = [
            (value, node, row)
            for row, (value, node) in enumerate(zip(column, covers.nodes))
            if value > ABSENT
        ]
        same = [vertex] if self._zero_groups is None else self._zero_groups[0][vertex]
        cells += [(0, node, -1) for node in same if self._boundary[node]]
        cells.sort(key=lambda cell: (-cell[0], cell[1]))
        return [(node, value, self._touch(covers, row, vertex, node)) for value, node, row in cells]

    def _touch(self, covers: Covers, row: int, vertex: int, node: int) -> int:
        """Lowest-index defect of the node that realises its residual."""
        if row < 0:
            return node
        target = covers.residual[row, vertex]
        for defect in covers.members[row]:
            if self.defect_radius[defect] - self._distance_row(defect)[vertex] == target:
                return defect
        raise DualPhaseError(f"no defect realises the cover at vertex {vertex}")

    # ------------------------------------------------------------------
    # conflict detection and growth length (Theorems of §4.2)
    # ------------------------------------------------------------------
    def _scan_conflicts(
        self,
        covers: Covers,
        both: np.ndarray,
        mixed: np.ndarray,
        grow: np.ndarray,
        hold: np.ndarray,
    ) -> Conflict | None:
        """Theorem: Conflict Detection — evaluated on every ePU and vPU."""
        # Edge-level detection (ePUs): a growing node on one end and another
        # non-shrinking node on the other end whose residuals span the edge.
        hits = (np.maximum(both, mixed) >= covers.weight).nonzero()[0]
        if hits.size:
            edge = int(covers.near[hits[0]])
            self.counters["edges_scanned"] += int(np.count_nonzero(covers.both_covered[: edge + 1]))
            directions = self._effective_directions()
            end_u, end_v = self.graph.edges[edge].u, self.graph.edges[edge].v
            limit = int(self._edge_weight[edge])
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
        self.counters["edges_scanned"] += covers.both_count
        # Vertex-level detection (vPUs): two Covers overlapping on a vertex.
        overlaps = ((grow[2] > ABSENT) | ((grow[0] > ABSENT) & (hold > ABSENT))).nonzero()[0]
        if not overlaps.size:
            return None
        vertex = int(overlaps[0])
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

    def _max_grow_length(
        self,
        covers: Covers,
        rates: list[int],
        growing: np.ndarray,
        both: np.ndarray,
        mixed: np.ndarray,
    ) -> int | None:
        """Theorem: Local Length to Grow — evaluated on every vPU and ePU."""
        self.counters["edges_scanned"] += self.graph.num_edges
        best = _UNBOUNDED
        count = len(covers.near)
        if count:
            # A growing Cover must not overshoot a vertex it has not reached
            # yet: stop exactly when the Cover boundary arrives there, so
            # that the Update stage can register the new vertex before
            # continuing.
            here, there = covers.here, covers.there
            alone = np.where(growing[:, there] > ABSENT, ABSENT, growing[:, here]).max(axis=0)
            alone = alone.reshape(2, count).max(axis=0)
            weight = covers.weight
            best = min(
                int((weight - both).min()) // 2,
                int((weight - np.maximum(mixed, alone)).min()),
            )
        # Shrinking Covers must not recede past a vertex in one step, so that
        # Touches/Nodes can be updated consistently (vPU-side term of the
        # theorem).
        if min(rates) < 0:
            shrinking = covers.residual[[row for row, rate in enumerate(rates) if rate < 0]]
            shrinking = shrinking[shrinking > 0]
            if shrinking.size:
                best = min(best, int(shrinking.min()))
        return best if best < _UNBOUNDED else None


def _top_two(values: np.ndarray) -> np.ndarray:
    """Per column: the largest value, its row and the second largest value
    (rows tell two distinct nodes apart from one node paired with itself)."""
    values = values.copy()
    columns = np.arange(values.shape[1])
    top = np.empty((3, values.shape[1]), dtype=np.int64)
    first_row = values.argmax(axis=0)
    top[0] = values[first_row, columns]
    top[1] = first_row
    values[first_row, columns] = ABSENT
    values.max(axis=0, out=top[2])
    return top


def _pair_sum(here: np.ndarray, there: np.ndarray) -> np.ndarray:
    """Best sum of one value from each side, taken from distinct rows."""
    first, row, second = here
    other_first, other_row, other_second = there
    return np.where(
        row != other_row,
        first + other_first,
        np.maximum(first + other_second, second + other_first),
    )


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
