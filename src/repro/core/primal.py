"""Primal phase of the blossom algorithm (the software half of Micro Blossom).

The primal module owns every dynamically-sized data structure of the blossom
algorithm — matched pairs, alternating trees, and the blossom hierarchy — and
resolves the Obstacles reported by the dual phase (paper §3.1, §5.1).  It only
talks to the dual phase through the accelerator instruction set: ``grow``,
``set direction``, ``set cover`` (create/expand blossom) and ``find conflict``.

The module is deliberately lazy: it creates its view of a node only when the
dual phase first reports a Conflict involving it.  Combined with the
accelerator's pre-matching of isolated Conflicts this is what reduces the
number of CPU–accelerator interactions from O(p|V|) to O(p²|V|) (paper §5).
The Parity Blossom software baseline uses the same module but registers every
defect eagerly (one CPU read per defect), reproducing the O(p|V|) behaviour.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import BOUNDARY, MatchingResult
from .interface import (
    Conflict,
    DualPhaseError,
    Finished,
    GrowLength,
    GROW,
    HOLD,
    SHRINK,
)

#: Safety bound on primal iterations, far above anything a valid decoding
#: instance can need; prevents silent infinite loops in case of a bug.
MAX_ITERATION_FACTOR = 200


@dataclass
class PrimalNode:
    """Software-side state of one blossom-algorithm node.

    A node is either a single defect vertex (``cycle`` empty, ``node_id`` is
    the vertex index) or a blossom (``cycle`` holds the odd ring of child
    nodes).  Tree and matching fields are only meaningful while the node is
    *outer*, i.e. not absorbed inside another blossom.
    """

    node_id: int
    y: int = 0
    direction: int = GROW
    parent_blossom: int | None = None
    cycle: list[int] = field(default_factory=list)
    #: ``cycle_links[i]`` is the tight edge realising the ring between
    #: ``cycle[i]`` and ``cycle[(i+1) % len(cycle)]`` as a pair of defect
    #: vertices ``(touch in cycle[i], touch in cycle[i+1])``.
    cycle_links: list[tuple[int, int]] = field(default_factory=list)
    tree_parent: int | None = None
    #: ``(touch in self, touch in parent)`` for the tree edge to the parent.
    parent_link: tuple[int, int] | None = None
    tree_children: set[int] = field(default_factory=set)
    match_node: int | None = None
    #: ``(touch in self, touch in peer)``; when matched to the boundary the
    #: peer touch is the boundary (virtual or unloaded) vertex itself.
    match_link: tuple[int, int] | None = None
    matched_to_boundary: bool = False

    @property
    def is_blossom(self) -> bool:
        return bool(self.cycle)

    @property
    def is_matched(self) -> bool:
        return self.matched_to_boundary or self.match_node is not None


class PrimalModule:
    """Alternating trees, matched pairs and blossoms on top of a dual driver."""

    def __init__(self, graph: DecodingGraph, dual) -> None:
        self.graph = graph
        self.dual = dual
        self._max_iterations = MAX_ITERATION_FACTOR * (graph.num_vertices + 10)
        self.counters: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        """Forget every node and every count so the module can decode a
        fresh syndrome."""
        self.nodes: dict[int, PrimalNode] = {}
        self._next_blossom_id = self.graph.num_vertices
        self.counters.clear()

    # ------------------------------------------------------------------
    # node bookkeeping
    # ------------------------------------------------------------------
    def register_defect(self, defect: int) -> PrimalNode:
        """Eagerly create the singleton node of a defect (Parity Blossom mode).

        Counts as one CPU read of the syndrome, which is exactly the cost the
        heterogeneous architecture avoids for isolated errors.
        """
        self.counters["defect_reads"] += 1
        return self._ensure_node(defect)

    def _ensure_node(self, node_id: int) -> PrimalNode:
        node = self.nodes.get(node_id)
        if node is not None:
            return node
        if node_id >= self.graph.num_vertices:
            raise DualPhaseError(f"unknown blossom node {node_id} reported by dual phase")
        if self.dual.is_boundary_node(node_id):
            raise DualPhaseError(f"boundary vertex {node_id} cannot become a node")
        # A lazily discovered singleton: it has been growing autonomously in
        # the dual phase, so mirror its accumulated dual variable.
        node = PrimalNode(node_id=node_id, y=self.dual.radius_of(node_id), direction=GROW)
        self.nodes[node_id] = node
        self.counters["nodes_discovered"] += 1
        return node

    def outer_nodes(self) -> list[PrimalNode]:
        return [node for node in self.nodes.values() if node.parent_blossom is None]

    def _tree_root(self, node: PrimalNode) -> PrimalNode:
        while node.tree_parent is not None:
            node = self.nodes[node.tree_parent]
        return node

    def _defects_of(self, node_id: int) -> set[int]:
        node = self.nodes[node_id]
        if not node.is_blossom:
            return {node_id}
        defects: set[int] = set()
        for child in node.cycle:
            defects |= self._defects_of(child)
        return defects

    def _cycle_child_containing(self, blossom: PrimalNode, defect: int) -> int:
        for child in blossom.cycle:
            if defect in self._defects_of(child):
                return child
        raise DualPhaseError(
            f"defect {defect} not found in blossom {blossom.node_id}"
        )

    def _set_direction(self, node: PrimalNode, direction: int) -> None:
        node.direction = direction
        self.dual.set_direction(node.node_id, direction)
        self.counters["direction_updates"] += 1

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drive the dual phase until no node can grow any further."""
        for _ in range(self._max_iterations):
            obstacle = self.dual.find_obstacle()
            self.counters["obstacle_queries"] += 1
            if isinstance(obstacle, Finished):
                self._check_all_matched()
                return
            if isinstance(obstacle, Conflict):
                self.counters["conflicts_resolved"] += 1
                self._resolve(obstacle)
                continue
            assert isinstance(obstacle, GrowLength)
            length = obstacle.length
            blocking: PrimalNode | None = None
            for node in self.outer_nodes():
                if node.direction == SHRINK and node.y < length:
                    length = node.y
                    blocking = node
            if blocking is not None and length == 0:
                self._expand_blossom(blocking)
                continue
            if length <= 0:
                raise DualPhaseError("non-positive growth with no blocking node")
            self.dual.grow(length)
            self.counters["grow_operations"] += 1
            for node in self.outer_nodes():
                if node.direction != HOLD:
                    node.y += node.direction * length
                    if node.y < 0:
                        raise DualPhaseError(
                            f"dual variable of node {node.node_id} became negative"
                        )
        raise DualPhaseError("primal phase did not converge (iteration limit)")

    def _check_all_matched(self) -> None:
        for node in self.outer_nodes():
            if not node.is_matched:
                raise DualPhaseError(
                    f"dual phase finished but node {node.node_id} is unmatched"
                )

    # ------------------------------------------------------------------
    # conflict resolution (paper §5.1: the three primal operations)
    # ------------------------------------------------------------------
    def _resolve(self, conflict: Conflict) -> None:
        node_1 = self._ensure_node(conflict.node_1)
        link = (conflict.touch_1, conflict.touch_2)
        if self.dual.is_boundary_node(conflict.node_2):
            if node_1.direction != GROW:
                raise DualPhaseError("boundary conflict with a non-growing node")
            self._augment_to_boundary(node_1, link)
            return
        node_2 = self._ensure_node(conflict.node_2)
        if node_1.direction != GROW:
            node_1, node_2 = node_2, node_1
            link = (link[1], link[0])
        if node_1.direction != GROW:
            raise DualPhaseError("conflict reported without a growing node")
        if node_2.direction == GROW:
            if self._tree_root(node_1) is self._tree_root(node_2):
                self._form_blossom(node_1, node_2, link)
            else:
                self._augment(node_1, node_2, link)
        elif node_2.direction == HOLD:
            if node_2.matched_to_boundary:
                self._augment_through(node_1, node_2, link)
            else:
                self._attach(node_1, node_2, link)
        else:
            raise DualPhaseError("conflict with a shrinking node cannot occur")

    # -- matched pair / alternating tree manipulation ----------------------
    def _rematch_path_to_root(self, node: PrimalNode) -> None:
        """Flip matched edges along the tree path from ``node`` to its root.

        ``node`` must be a "+" node; the caller gives it a new external match.
        Every "-" node on the path re-matches to its own tree parent.
        """
        current = node
        while current.tree_parent is not None:
            parent = self.nodes[current.tree_parent]
            if parent.tree_parent is None:
                raise DualPhaseError("alternating tree has a '-' root")
            grandparent = self.nodes[parent.tree_parent]
            parent.match_node = grandparent.node_id
            parent.match_link = parent.parent_link
            parent.matched_to_boundary = False
            grandparent.match_node = parent.node_id
            grandparent.match_link = (parent.parent_link[1], parent.parent_link[0])
            grandparent.matched_to_boundary = False
            current = grandparent

    def _tree_nodes(self, root: PrimalNode) -> list[PrimalNode]:
        nodes = []
        stack = [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(self.nodes[child] for child in node.tree_children)
        return nodes

    def _dissolve_tree(self, root: PrimalNode) -> None:
        """Turn every node of a tree into a free matched node (direction 0)."""
        for node in self._tree_nodes(root):
            if node.direction != HOLD:
                self._set_direction(node, HOLD)
            node.tree_parent = None
            node.parent_link = None
            node.tree_children = set()

    def _augment(self, node_1: PrimalNode, node_2: PrimalNode, link) -> None:
        """Both nodes are "+" in different trees: augment along both paths."""
        root_1 = self._tree_root(node_1)
        root_2 = self._tree_root(node_2)
        self._rematch_path_to_root(node_1)
        self._rematch_path_to_root(node_2)
        node_1.match_node = node_2.node_id
        node_1.match_link = (link[0], link[1])
        node_1.matched_to_boundary = False
        node_2.match_node = node_1.node_id
        node_2.match_link = (link[1], link[0])
        node_2.matched_to_boundary = False
        self._dissolve_tree(root_1)
        self._dissolve_tree(root_2)
        self.counters["augmentations"] += 1

    def _augment_to_boundary(self, node: PrimalNode, link) -> None:
        """A "+" node touched the boundary: its whole tree becomes matched."""
        root = self._tree_root(node)
        self._rematch_path_to_root(node)
        node.match_node = None
        node.match_link = (link[0], link[1])
        node.matched_to_boundary = True
        self._dissolve_tree(root)
        self.counters["augmentations"] += 1
        self.counters["boundary_matches"] += 1

    def _augment_through(self, node_1: PrimalNode, node_2: PrimalNode, link) -> None:
        """``node_2`` is matched to the boundary: the path extends through it."""
        root_1 = self._tree_root(node_1)
        self._rematch_path_to_root(node_1)
        node_1.match_node = node_2.node_id
        node_1.match_link = (link[0], link[1])
        node_1.matched_to_boundary = False
        node_2.match_node = node_1.node_id
        node_2.match_link = (link[1], link[0])
        node_2.matched_to_boundary = False
        self._dissolve_tree(root_1)
        self.counters["augmentations"] += 1

    def _attach(self, node_plus: PrimalNode, node_free: PrimalNode, link) -> None:
        """Attach a matched pair to an alternating tree ("-" then "+")."""
        mate = self.nodes[node_free.match_node]
        node_free.tree_parent = node_plus.node_id
        node_free.parent_link = (link[1], link[0])
        node_plus.tree_children.add(node_free.node_id)
        node_free.tree_children = {mate.node_id}
        mate.tree_parent = node_free.node_id
        mate.parent_link = mate.match_link
        mate.tree_children = set()
        self._set_direction(node_free, SHRINK)
        self._set_direction(mate, GROW)
        self.counters["tree_attachments"] += 1

    # -- blossoms ----------------------------------------------------------
    def _link_between(
        self, first: PrimalNode, second: PrimalNode, conflict_link
    ) -> tuple[int, int]:
        """Tight-edge touches between two consecutive cycle nodes."""
        if second.tree_parent == first.node_id and second.parent_link is not None:
            return (second.parent_link[1], second.parent_link[0])
        if first.tree_parent == second.node_id and first.parent_link is not None:
            return first.parent_link
        return conflict_link

    def _form_blossom(self, node_1: PrimalNode, node_2: PrimalNode, link) -> None:
        """Two "+" nodes of the same tree collided: shrink the odd cycle."""
        ancestors_1: list[PrimalNode] = [node_1]
        while ancestors_1[-1].tree_parent is not None:
            ancestors_1.append(self.nodes[ancestors_1[-1].tree_parent])
        ancestor_ids = {node.node_id: i for i, node in enumerate(ancestors_1)}
        path_2: list[PrimalNode] = []
        current = node_2
        while current.node_id not in ancestor_ids:
            path_2.append(current)
            if current.tree_parent is None:
                raise DualPhaseError("conflicting nodes are not in the same tree")
            current = self.nodes[current.tree_parent]
        lca = current
        path_1 = ancestors_1[: ancestor_ids[lca.node_id]]

        cycle_nodes: list[PrimalNode] = [lca] + list(reversed(path_1)) + path_2
        cycle_links: list[tuple[int, int]] = []
        for i, node in enumerate(cycle_nodes):
            peer = cycle_nodes[(i + 1) % len(cycle_nodes)]
            if {node.node_id, peer.node_id} == {node_1.node_id, node_2.node_id}:
                pair_link = link if node is node_1 else (link[1], link[0])
            else:
                pair_link = None
            cycle_links.append(
                pair_link
                if pair_link is not None
                else self._link_between(node, peer, link)
            )
        if len(cycle_nodes) % 2 == 0:
            raise DualPhaseError("blossom cycle must contain an odd number of nodes")

        blossom_id = self._next_blossom_id
        self._next_blossom_id += 1
        blossom = PrimalNode(
            node_id=blossom_id,
            y=0,
            direction=GROW,
            cycle=[node.node_id for node in cycle_nodes],
            cycle_links=cycle_links,
        )
        # Take over the LCA's place in the tree.
        blossom.tree_parent = lca.tree_parent
        blossom.parent_link = lca.parent_link
        blossom.match_node = lca.match_node
        blossom.match_link = lca.match_link
        blossom.matched_to_boundary = lca.matched_to_boundary
        if lca.match_node is not None:
            # The LCA's match partner must now point at the blossom instead.
            self.nodes[lca.match_node].match_node = blossom_id
        if lca.tree_parent is not None:
            parent = self.nodes[lca.tree_parent]
            parent.tree_children.discard(lca.node_id)
            parent.tree_children.add(blossom_id)
        cycle_ids = {node.node_id for node in cycle_nodes}
        absorbed_children: set[int] = set()
        for node in cycle_nodes:
            absorbed_children |= node.tree_children - cycle_ids
        blossom.tree_children = absorbed_children
        for child_id in absorbed_children:
            self.nodes[child_id].tree_parent = blossom_id
        for node in cycle_nodes:
            node.parent_blossom = blossom_id
            node.tree_parent = None
            node.parent_link = None
            node.tree_children = set()
            node.match_node = None
            node.match_link = None
            node.matched_to_boundary = False
            node.direction = HOLD
        self.nodes[blossom_id] = blossom
        self.dual.create_blossom(blossom.cycle, blossom_id)
        self.counters["blossoms_formed"] += 1

    def _expand_blossom(self, blossom: PrimalNode) -> None:
        """Expand a "-" blossom whose dual variable reached zero (obstacle 2a)."""
        if not blossom.is_blossom:
            raise DualPhaseError(
                f"single-vertex node {blossom.node_id} cannot be expanded"
            )
        if blossom.direction != SHRINK or blossom.y != 0:
            raise DualPhaseError("only shrinking blossoms with y=0 can be expanded")
        if blossom.tree_parent is None or blossom.match_node is None:
            raise DualPhaseError("a '-' blossom must have a parent and a match")
        parent = self.nodes[blossom.tree_parent]
        external_match = self.nodes[blossom.match_node]
        entry_touch, parent_touch = blossom.parent_link
        exit_touch, match_touch = blossom.match_link

        cycle = blossom.cycle
        n = len(cycle)
        entry_index = cycle.index(self._cycle_child_containing(blossom, entry_touch))
        exit_index = cycle.index(self._cycle_child_containing(blossom, exit_touch))

        def forward_path(start: int, end: int) -> list[int]:
            indices = [start]
            while indices[-1] != end:
                indices.append((indices[-1] + 1) % n)
            return indices

        if entry_index == exit_index:
            # The same child touches both the parent and the match: it alone
            # stays in the tree, all other children pair up around the ring.
            tree_path = [entry_index]
            other_path = [(entry_index + k) % n for k in range(n + 1)]
        else:
            path_forward = forward_path(entry_index, exit_index)
            path_backward = list(reversed(forward_path(exit_index, entry_index)))
            tree_path = path_forward if len(path_forward) % 2 == 1 else path_backward
            other_path = path_backward if tree_path is path_forward else path_forward

        def link_between_indices(i: int, j: int) -> tuple[int, int]:
            """Touches oriented from cycle index ``i`` towards cycle index ``j``."""
            if (i + 1) % n == j:
                return blossom.cycle_links[i]
            if (j + 1) % n == i:
                reverse = blossom.cycle_links[j]
                return (reverse[1], reverse[0])
            raise DualPhaseError("cycle indices are not adjacent")

        # Children along the even arc stay in the alternating tree.
        tree_children = [self.nodes[cycle[i]] for i in tree_path]
        previous = parent
        previous_id = parent.node_id
        parent.tree_children.discard(blossom.node_id)
        for position, node in enumerate(tree_children):
            node.parent_blossom = None
            node.tree_children = set()
            if position == 0:
                node.tree_parent = parent.node_id
                node.parent_link = (entry_touch, parent_touch)
                parent.tree_children.add(node.node_id)
            else:
                node.tree_parent = previous_id
                node.parent_link = link_between_indices(
                    tree_path[position], tree_path[position - 1]
                )
                self.nodes[previous_id].tree_children.add(node.node_id)
            direction = SHRINK if position % 2 == 0 else GROW
            self._set_direction(node, direction)
            previous_id = node.node_id
        # Matched edges inside the even arc alternate starting at the entry.
        for position in range(0, len(tree_children) - 1, 2):
            lower = tree_children[position]
            upper = tree_children[position + 1]
            link = link_between_indices(tree_path[position], tree_path[position + 1])
            lower.match_node = upper.node_id
            lower.match_link = link
            lower.matched_to_boundary = False
            upper.match_node = lower.node_id
            upper.match_link = (link[1], link[0])
            upper.matched_to_boundary = False
        exit_node = tree_children[-1]
        exit_node.match_node = external_match.node_id
        exit_node.match_link = (exit_touch, match_touch)
        exit_node.matched_to_boundary = False
        exit_node.tree_children = {external_match.node_id}
        external_match.tree_parent = exit_node.node_id
        external_match.match_node = exit_node.node_id

        # Children on the odd arc become free matched pairs.
        interior = other_path[1:-1]
        for position in range(0, len(interior), 2):
            first = self.nodes[cycle[interior[position]]]
            second = self.nodes[cycle[interior[position + 1]]]
            link = link_between_indices(interior[position], interior[position + 1])
            for node in (first, second):
                node.parent_blossom = None
                node.tree_parent = None
                node.parent_link = None
                node.tree_children = set()
            first.match_node = second.node_id
            first.match_link = link
            first.matched_to_boundary = False
            second.match_node = first.node_id
            second.match_link = (link[1], link[0])
            second.matched_to_boundary = False
            self._set_direction(first, HOLD)
            self._set_direction(second, HOLD)

        new_roots = {
            defect: child
            for child in cycle
            for defect in self._defects_of_child_after_expansion(child)
        }
        del self.nodes[blossom.node_id]
        self.dual.expand_blossom(blossom.node_id, new_roots)
        self.counters["blossoms_expanded"] += 1

    def _defects_of_child_after_expansion(self, child_id: int) -> set[int]:
        return self._defects_of(child_id)

    # ------------------------------------------------------------------
    # round-wise fusion support (paper §6.2)
    # ------------------------------------------------------------------
    def break_boundary_matches(self, vertices: set[int]) -> int:
        """Release matchings to boundary vertices that just became real.

        Called by the stream decoder right after a new measurement round is
        loaded: every node previously matched to one of the given (formerly
        virtual, now loaded) vertices becomes an unmatched growing tree again.
        Returns the number of matchings broken.
        """
        broken = 0
        for node in self.outer_nodes():
            if not node.matched_to_boundary or node.match_link is None:
                continue
            if node.match_link[1] in vertices:
                node.matched_to_boundary = False
                node.match_link = None
                node.match_node = None
                self._set_direction(node, GROW)
                broken += 1
        self.counters["fusion_breaks"] += broken
        return broken

    # ------------------------------------------------------------------
    # result extraction
    # ------------------------------------------------------------------
    def collect_matching(self) -> MatchingResult:
        """Expand the node-level matching into defect-level pairs."""
        pairs: list[tuple[int, int]] = []
        boundary_vertices: dict[int, int] = {}
        seen: set[int] = set()
        for node in self.outer_nodes():
            if node.node_id in seen:
                continue
            if node.matched_to_boundary:
                touch, boundary_vertex = node.match_link
                pairs.append((touch, BOUNDARY))
                boundary_vertices[touch] = boundary_vertex
                pairs.extend(self._internal_pairs(node, touch))
                seen.add(node.node_id)
            elif node.match_node is not None:
                peer = self.nodes[node.match_node]
                touch_self, touch_peer = node.match_link
                pairs.append((touch_self, touch_peer))
                pairs.extend(self._internal_pairs(node, touch_self))
                pairs.extend(self._internal_pairs(peer, touch_peer))
                seen.add(node.node_id)
                seen.add(peer.node_id)
            else:
                raise DualPhaseError(
                    f"node {node.node_id} is unmatched at extraction time"
                )
        return MatchingResult(pairs=pairs, boundary_vertices=boundary_vertices)

    def _internal_pairs(
        self, node: PrimalNode, exposed_defect: int
    ) -> list[tuple[int, int]]:
        if not node.is_blossom:
            return []
        exposed_child = self._cycle_child_containing(node, exposed_defect)
        index = node.cycle.index(exposed_child)
        pairs = self._internal_pairs(self.nodes[exposed_child], exposed_defect)
        n = len(node.cycle)
        offset = 1
        while offset < n:
            first_index = (index + offset) % n
            second_index = (index + offset + 1) % n
            first = self.nodes[node.cycle[first_index]]
            second = self.nodes[node.cycle[second_index]]
            link = node.cycle_links[first_index]
            pairs.append((link[0], link[1]))
            pairs.extend(self._internal_pairs(first, link[0]))
            pairs.extend(self._internal_pairs(second, link[1]))
            offset += 2
        return pairs
