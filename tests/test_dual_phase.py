"""Unit tests for the cover-based dual phase (DualGraphState)."""

from __future__ import annotations

import pytest

from repro.core import (
    Conflict,
    DualPhaseError,
    Finished,
    GrowLength,
    GROW,
    HOLD,
    SHRINK,
)
from repro.core.dual import DualGraphState


@pytest.fixture()
def path_graph(path_graph_builder):
    return path_graph_builder()


def internal_weight(graph, dual):
    """Internal (scaled) weight of the uniform edges of the path graph."""
    return graph.edges[0].weight * dual.scale


class TestLoading:
    def test_load_marks_defects_and_default_direction(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1, 3])
        assert dual.is_defect[1] and dual.is_defect[3]
        assert dual.radius_of(1) == 0
        assert dual.direction_of(1) == GROW
        assert dual.direction_of(2) == HOLD

    def test_load_rejects_virtual_defect(self, path_graph):
        dual = DualGraphState(path_graph)
        with pytest.raises(DualPhaseError):
            dual.load([0])

    def test_partial_layer_load_leaves_other_layers_boundary(self, surface_d3_circuit):
        dual = DualGraphState(surface_d3_circuit)
        layer0 = surface_d3_circuit.vertices_in_layer(0)
        defect = next(
            v for v in layer0 if not surface_d3_circuit.is_virtual(v)
        )
        dual.load([defect], layers={0})
        other_layer_vertex = surface_d3_circuit.vertices_in_layer(1)[0]
        assert dual.is_boundary_node(other_layer_vertex)
        assert not dual.is_boundary_node(defect)

    def test_load_defect_outside_loaded_layers_raises(self, surface_d3_circuit):
        dual = DualGraphState(surface_d3_circuit)
        layer1_defect = next(
            v
            for v in surface_d3_circuit.vertices_in_layer(1)
            if not surface_d3_circuit.is_virtual(v)
        )
        with pytest.raises(DualPhaseError):
            dual.load([layer1_defect], layers={0})

    def test_reset_clears_state(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1])
        dual.reset()
        assert dual.loaded_defects() == []

    def test_invalid_scale_rejected(self, path_graph):
        with pytest.raises(ValueError):
            DualGraphState(path_graph, scale=0)


class TestGrowthAndConflicts:
    def test_single_defect_reaches_boundary(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1])
        obstacle = dual.find_obstacle()
        assert isinstance(obstacle, GrowLength)
        assert obstacle.length == internal_weight(path_graph, dual)
        dual.grow(obstacle.length)
        conflict = dual.find_obstacle()
        assert isinstance(conflict, Conflict)
        assert conflict.node_1 == 1
        assert dual.is_boundary_node(conflict.node_2)
        assert conflict.touch_2 == 0  # the left virtual vertex

    def test_two_defects_conflict_in_the_middle(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1, 3])
        obstacle = dual.find_obstacle()
        assert isinstance(obstacle, GrowLength)
        # Vertices 1 and 3 are two edges apart; they grow toward each other at
        # combined rate 2, but each also approaches its own boundary at rate 1.
        w = internal_weight(path_graph, dual)
        assert obstacle.length == w
        dual.grow(obstacle.length)
        conflict = dual.find_obstacle()
        assert isinstance(conflict, Conflict)
        involved = {conflict.node_1, conflict.node_2}
        assert involved <= {1, 3, 0, 4}

    def test_growth_stops_at_uncovered_vertex(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1])
        obstacle = dual.find_obstacle()
        # The first stop is exactly at the neighbouring vertices (distance w).
        assert obstacle.length == internal_weight(path_graph, dual)

    def test_no_defects_is_finished(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([])
        assert isinstance(dual.find_obstacle(), Finished)

    def test_hold_direction_stops_growth(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1])
        dual.set_direction(1, HOLD)
        assert isinstance(dual.find_obstacle(), Finished)
        dual.grow(5)
        assert dual.radius_of(1) == 0

    def test_grow_requires_positive_length(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1])
        with pytest.raises(ValueError):
            dual.grow(0)

    def test_set_direction_validation(self, path_graph):
        dual = DualGraphState(path_graph)
        with pytest.raises(ValueError):
            dual.set_direction(1, 3)

    def test_conflict_reports_tight_touch_pair(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1, 2])
        obstacle = dual.find_obstacle()
        dual.grow(obstacle.length)
        conflict = dual.find_obstacle()
        assert isinstance(conflict, Conflict)
        touches = {conflict.touch_1, conflict.touch_2}
        # The tight edge is realised by the two defects themselves or by a
        # defect and its adjacent boundary vertex.
        assert touches <= {0, 1, 2}


class TestBlossomBookkeeping:
    def test_create_blossom_reroots_defects(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1, 2, 3])
        blossom_id = path_graph.num_vertices
        dual.create_blossom([1, 2, 3], blossom_id)
        assert dual.defect_root[1] == blossom_id
        assert dual.defect_root[2] == blossom_id
        assert dual.direction_of(blossom_id) == GROW

    def test_create_blossom_rejects_duplicate_id(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1, 2])
        with pytest.raises(DualPhaseError):
            dual.create_blossom([1, 2], 1)

    def test_expand_blossom_restores_roots(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1, 2, 3])
        blossom_id = path_graph.num_vertices
        dual.create_blossom([1, 2, 3], blossom_id)
        dual.expand_blossom(blossom_id, {1: 1, 2: 2, 3: 3})
        assert dual.defect_root[1] == 1
        assert dual.direction_of(blossom_id) == HOLD

    def test_expand_blossom_requires_complete_mapping(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1, 2, 3])
        blossom_id = path_graph.num_vertices
        dual.create_blossom([1, 2, 3], blossom_id)
        with pytest.raises(DualPhaseError):
            dual.expand_blossom(blossom_id, {1: 1})

    def test_expand_blossom_checks_root(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1, 2])
        with pytest.raises(DualPhaseError):
            dual.expand_blossom(99, {1: 1})

    def test_grow_tracks_blossom_direction(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1, 2, 3])
        blossom_id = path_graph.num_vertices
        dual.create_blossom([1, 2, 3], blossom_id)
        dual.set_direction(blossom_id, SHRINK)
        obstacle = dual.find_obstacle()
        assert isinstance(obstacle, Finished) or isinstance(obstacle, GrowLength)


class TestCounters:
    def test_counters_track_instructions(self, path_graph):
        dual = DualGraphState(path_graph)
        dual.load([1, 3])
        dual.find_obstacle()
        dual.grow(2)
        dual.set_direction(1, HOLD)
        assert dual.counters["instr_load"] == 1
        assert dual.counters["instr_find_obstacle"] == 1
        assert dual.counters["instr_grow"] == 1
        assert dual.counters["instr_set_direction"] == 1
        assert dual.counters["total_growth"] == 2

    def test_weight_units_conversion(self, path_graph):
        dual = DualGraphState(path_graph, scale=2)
        assert dual.weight_units(4) == 2.0


# ----------------------------------------------------------------------
# counter contract of the dual engine
# ----------------------------------------------------------------------
def _engine_pin(name, distance, error_rate, seed, shots, skip=0):
    """Content hash of every non-trivial shot's matching and counters."""
    from repro.api import get_decoder
    from repro.api.hashing import content_hash
    from repro.graphs import (
        SyndromeSampler,
        circuit_level_noise,
        surface_code_decoding_graph,
    )

    graph = surface_code_decoding_graph(distance, circuit_level_noise(error_rate))
    decoder = get_decoder(name, graph)
    batch = SyndromeSampler(graph, seed=seed).sample_batch(skip + shots)[skip:]
    records = []
    for syndrome in batch:
        if not syndrome.defects:
            continue
        outcome = decoder.decode_detailed(syndrome)
        records.append(
            {
                "defects": list(syndrome.defects),
                "pairs": outcome.result.to_dict(),
                "weight": outcome.weight,
                "counters": dict(outcome.counters),
                "post_final": dict(getattr(outcome, "post_final_round_counters", {})),
            }
        )
    assert records
    return content_hash(records)


#: ``(decoder, distance, p, seed, shots, skip)`` -> pinned content hash.
#: Every operation counter is part of the hash: the counters are the
#: accelerator and CPU cost models, so any engine change must keep them
#: bit-identical (or re-pin them here deliberately, with a reason).
_ENGINE_PINS = {
    ("micro-blossom", 5, 0.001, 41, 1200, 0): "8135b60d0cacee47",
    ("micro-blossom", 5, 0.005, 42, 240, 0): "cc9d036a74590e98",
    ("micro-blossom-batch", 5, 0.001, 41, 1200, 0): "90b3aa1c40c1a320",
    ("micro-blossom-batch", 5, 0.005, 42, 240, 0): "a3056dc3500c691b",
    ("parity-blossom", 5, 0.001, 41, 1200, 0): "82525c71b5c38e9d",
    ("parity-blossom", 5, 0.005, 42, 240, 0): "4653535dd3c040f8",
    ("micro-blossom-batch", 9, 0.001, 3, 120, 320): "b1e3c727031d259e",
}


@pytest.mark.parametrize("case", sorted(_ENGINE_PINS), ids=lambda case: "-".join(map(str, case)))
def test_engine_counters_are_pinned(case):
    assert _engine_pin(*case) == _ENGINE_PINS[case]


# ----------------------------------------------------------------------
# the array engine against a scalar loop reference
# ----------------------------------------------------------------------
def _reference_covers(dual):
    """Per-vertex ``[(node, residual, touch)]`` in Cover order, by loops."""
    graph = dual.graph
    members = {}
    for defect in sorted(dual.defect_radius):
        members.setdefault(dual.defect_root[defect], []).append(defect)
    covers = [[] for _ in range(graph.num_vertices)]
    for vertex in range(graph.num_vertices):
        for node, defects in members.items():
            best = None
            for defect in defects:
                distance = graph.distance(defect, vertex)
                residual = dual.defect_radius[defect] - distance * dual.scale
                if distance >= 0 and residual >= 0 and (best is None or residual > best[0]):
                    best = (residual, defect)
            if best is not None:
                covers[vertex].append((node, best[0], best[1]))
        for source in range(graph.num_vertices):
            if dual.is_boundary_node(source) and graph.distance(source, vertex) == 0:
                covers[vertex].append((source, 0, source))
        covers[vertex].sort(key=lambda cell: (-cell[1], cell[0]))
    return covers


def _reference_obstacle(dual, directions):
    """``(obstacle, edges scanned, cover cells)`` from the loop definitions."""
    graph = dual.graph
    covers = _reference_covers(dual)
    cells = sum(len(cover) for cover in covers)

    def rate(node):
        return directions.get(node, HOLD)

    def conflict(node_1, node_2, touch_1, touch_2, vertex_1, vertex_2):
        if dual.is_boundary_node(node_1) and not dual.is_boundary_node(node_2):
            return Conflict(node_2, node_1, touch_2, touch_1, vertex_2, vertex_1)
        return Conflict(node_1, node_2, touch_1, touch_2, vertex_1, vertex_2)

    scanned = 0
    for edge in graph.edges:
        if not covers[edge.u] or not covers[edge.v]:
            continue
        scanned += 1
        for node_u, residual_u, touch_u in covers[edge.u]:
            for node_v, residual_v, touch_v in covers[edge.v]:
                if node_u != node_v and rate(node_u) + rate(node_v) > 0:
                    if residual_u + residual_v >= edge.weight * dual.scale:
                        found = conflict(node_u, node_v, touch_u, touch_v, edge.u, edge.v)
                        return found, scanned, cells
    for vertex, cover in enumerate(covers):
        for i, (node_a, _residual_a, touch_a) in enumerate(cover):
            for node_b, _residual_b, touch_b in cover[i + 1 :]:
                if rate(node_a) + rate(node_b) > 0:
                    found = conflict(node_a, node_b, touch_a, touch_b, vertex, vertex)
                    return found, scanned, cells
    if not any(rate(root) > 0 for root in dual.defect_root.values()):
        return Finished(), scanned, cells
    candidates = []
    for edge in graph.edges:
        weight = edge.weight * dual.scale
        for here, there in ((edge.u, edge.v), (edge.v, edge.u)):
            inside = {node for node, _residual, _touch in covers[there]}
            for node_a, residual_a, _touch_a in covers[here]:
                if rate(node_a) > 0 and node_a not in inside:
                    candidates.append(weight - residual_a)
                for node_b, residual_b, _touch_b in covers[there]:
                    if node_a != node_b and rate(node_a) + rate(node_b) > 0:
                        slack = weight - residual_a - residual_b
                        candidates.append(slack // (rate(node_a) + rate(node_b)))
    for cover in covers:
        candidates += [residual for node, residual, _ in cover if rate(node) < 0 and residual > 0]
    return GrowLength(min(candidates)), scanned + graph.num_edges, cells


def _reference_prematches(dual):
    """Pre-matches by the edge-order scan of paper §5.2, from loop-built
    residues: the first tight edge (by index) whose ends qualify claims
    them, Equation 1 (two isolated defects) before Equations 2/3 (a defect
    and a boundary vertex, no other tight edge to a defect or to a vertex
    with another tight edge)."""
    graph = dual.graph
    residue = [max([0] + [residual for _node, residual, _touch in cover]) for cover in _reference_covers(dual)]
    tight = [residue[edge.u] + residue[edge.v] >= edge.weight * dual.scale for edge in graph.edges]
    count = [0] * graph.num_vertices
    for edge in graph.edges:
        if tight[edge.index]:
            count[edge.u] += 1
            count[edge.v] += 1
    prematches = {}
    for edge in graph.edges:
        u, v = edge.u, edge.v
        if not tight[edge.index] or u in prematches or v in prematches:
            continue
        if dual._prematch_eligible(u) and dual._prematch_eligible(v) and count[u] == count[v] == 1:
            prematches[u] = prematches[v] = (u, v, edge.index, False)
            continue
        for defect, boundary in ((u, v), (v, u)):
            if not dual.is_boundary_node(boundary) or not dual._prematch_eligible(defect):
                continue
            if all(
                index == edge.index
                or not tight[index]
                or dual.is_boundary_node(near)
                or not (dual.is_defect[near] or count[near] > 1)
                for index, near in graph.adjacency[defect]
            ):
                prematches[defect] = (defect, boundary, edge.index, True)
                break
    return prematches


def _check_every_obstacle(monkeypatch, name, graph, syndromes):
    """Decode ``syndromes`` with ``name`` and check each ``find_obstacle``
    call against the loop reference; return one record per call.

    A call charges ``cover_cells_updated`` when it is the first after a
    change (``_charge_due``); the host may still reuse the defect-node cells
    (``_covers`` kept) or the pre-matches (not marked dirty) to answer it.
    The accelerator's pre-matches, however kept, must equal a scan from
    scratch.
    """
    from repro.api import get_decoder

    engine_find_obstacle = DualGraphState.find_obstacle
    records = []

    def checked_find_obstacle(dual):
        rebuild = dual._charge_due
        rows_kept = dual._covers is not None
        prematches_kept = not getattr(dual, "_prematches_dirty", True)
        before = dict(dual.counters)
        expected, scanned, cells = _reference_obstacle(dual, dual._effective_directions())
        if getattr(dual, "enable_prematching", False):
            kept = {
                key: (p.defect, p.peer, p.edge, p.peer_is_boundary)
                for key, p in dual._prematches.items()
            }
            assert kept == _reference_prematches(dual)
        obstacle = engine_find_obstacle(dual)
        assert obstacle == expected
        assert dual.counters["edges_scanned"] - before.get("edges_scanned", 0) == scanned
        grown = dual.counters["cover_cells_updated"] - before.get("cover_cells_updated", 0)
        assert grown == (cells if rebuild else 0)
        records.append((obstacle, rebuild, rows_kept, prematches_kept))
        return obstacle

    monkeypatch.setattr(DualGraphState, "find_obstacle", checked_find_obstacle)
    decoder = get_decoder(name, graph)
    for syndrome in syndromes:
        if syndrome.defects:
            decoder.decode_detailed(syndrome)
    return records


_D3_RATES = {"circuit_level": 0.03, "code_capacity": 0.08, "erasure": 0.03}


@pytest.mark.parametrize(
    "family, name, distance, rate, seed",
    [
        pytest.param(family, name, 3, _D3_RATES.get(family, 0.05), 5, id=f"{family}-{name}")
        for family in ("circuit_level", "code_capacity", "erasure", "phenomenological")
        for name in ("micro-blossom", "micro-blossom-batch", "parity-blossom")
    ]
    # At d=5 Covers grow across several vertices and a query walks only
    # part of the graph (stream mode is checked at d=5 below).
    + [
        pytest.param("circuit_level", name, 5, 0.005, 42, id=f"circuit_level-{name}-d5")
        for name in ("micro-blossom-batch", "parity-blossom")
    ],
)
def test_every_obstacle_matches_the_loop_reference(monkeypatch, family, name, distance, rate, seed):
    """Each answer and counter increment of ``find_obstacle`` equals what the
    per-pair loop definitions give, on every call of real decodes."""
    from repro.graphs import SyndromeSampler, noise_model_by_name, surface_code_decoding_graph

    graph = surface_code_decoding_graph(distance, noise_model_by_name(family, rate))
    syndromes = SyndromeSampler(graph, seed=seed).sample_batch(60)
    checked = [record[0] for record in _check_every_obstacle(monkeypatch, name, graph, syndromes)]
    assert any(isinstance(obstacle, Conflict) for obstacle in checked)
    assert any(isinstance(obstacle, GrowLength) for obstacle in checked)


def test_stream_queries_on_kept_covers_match_the_loop_reference(monkeypatch):
    """Stream rounds answered from kept Covers are checked too: the answer,
    ``edges_scanned`` and the full rebuild's ``cover_cells_updated`` of every
    query whose defect-node cells survived a load that brought no new
    defect (an empty round), and every query answered on the cells of the
    previous one (after a direction change only)."""
    from repro.graphs import (
        Syndrome,
        SyndromeSampler,
        circuit_level_noise,
        surface_code_decoding_graph,
    )

    graph = surface_code_decoding_graph(5, circuit_level_noise(0.005))
    syndromes = SyndromeSampler(graph, seed=42).sample_batch(240)
    # Defect 18 (round 1) ends matched to a boundary vertex of round 2; the
    # empty round 2 makes that vertex real, so node 18 grows again and the
    # charged query on the kept cells answers a Conflict with node 1.  Such
    # a query comes about once per 1,000 sampled shots.
    syndromes.append(Syndrome(defects=(1, 2, 18)))
    records = _check_every_obstacle(monkeypatch, "micro-blossom", graph, syndromes)
    kept = [record for record in records if record[1] and record[2]]
    # Idle rounds: the charged query after an empty round, on kept cells and
    # kept pre-matches, answers Finished.
    assert any(isinstance(obstacle, Finished) and prematches for obstacle, *_, prematches in kept)
    assert any(isinstance(record[0], GrowLength) for record in kept)
    assert any(isinstance(record[0], Conflict) for record in kept)
    reused = [record[0] for record in records if not record[1] and record[2]]
    assert any(isinstance(obstacle, Conflict) for obstacle in reused)


def test_distance_searches_reach_only_as_far_as_the_covers():
    """Distances are searched only as far as a Cover reaches (paper §4).

    A fresh engine starts no search; a decode, its matching weight and its
    correction search only from the shot's defects.  Over 1,000 d=9
    circuit-level p=0.001 shots each search settles 4.2 of V=378 vertices
    on average (full rows would settle all 378), and no search ever holds
    more than one entry per vertex."""
    from repro.core import MicroBlossomAccelerator, MicroBlossomDecoder
    from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph

    graph = surface_code_decoding_graph(9, circuit_level_noise(0.001))
    MicroBlossomAccelerator(graph)
    decoder = MicroBlossomDecoder(graph)
    assert graph._searches == {}
    for syndrome in SyndromeSampler(graph, seed=3).sample_batch(1000):
        known = set(graph._searches)
        decoder.decode_detailed(syndrome).correction_edges(graph)
        assert set(graph._searches) - known <= set(syndrome.defects)
    searches = list(graph._searches.values())
    vertices = graph.num_vertices
    assert len(searches) > 300
    settled = sum(len(search.order) for search in searches) / len(searches)
    assert settled < vertices / 20, settled
    for search in searches:
        assert max(len(search.distances), len(search._heap)) <= vertices
