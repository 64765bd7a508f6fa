"""Tests of round-wise fusion (stream decoding, paper §6)."""

from __future__ import annotations

import pytest

from repro.core import MicroBlossomDecoder, PrimalModule
from repro.core.accelerator import MicroBlossomAccelerator
from repro.graphs import (
    Syndrome,
    SyndromeSampler,
    circuit_level_noise,
    phenomenological_noise,
    surface_code_decoding_graph,
)
from repro.matching import ReferenceDecoder


class TestRoundWiseFusion:
    @pytest.mark.parametrize("rounds", [2, 4, 6])
    def test_stream_is_exact_for_any_number_of_rounds(self, rounds):
        graph = surface_code_decoding_graph(
            5, circuit_level_noise(0.02), rounds=rounds
        )
        reference = ReferenceDecoder(graph)
        stream = MicroBlossomDecoder(graph, stream=True)
        sampler = SyndromeSampler(graph, seed=rounds)
        checked = 0
        for _ in range(12):
            syndrome = sampler.sample()
            if not syndrome.defects:
                continue
            checked += 1
            assert stream.decode(syndrome).weight == reference.decode(syndrome).weight
        assert checked > 0

    def test_fusion_breaks_temporary_boundary_matches(self):
        """A defect matched to a not-yet-loaded round must be re-examined when
        that round arrives (paper §6.2: break matchings with the fusion
        boundary)."""
        from repro.graphs import NoiseModel

        # Measurement errors are more likely than data errors, so temporal
        # edges are cheaper than boundary edges and the first-round defect
        # matches the fusion boundary (the not-yet-loaded round above it).
        noise = NoiseModel(
            "phenomenological", spatial=0.01, temporal=0.08, diagonal=0.0, boundary=0.01
        )
        graph = surface_code_decoding_graph(3, noise)
        accelerator = MicroBlossomAccelerator(graph, enable_prematching=False)
        primal = PrimalModule(graph, accelerator)
        # Choose two defects in different layers that are vertically adjacent,
        # so the earlier one first matches the fusion boundary and must later
        # be fused with the defect from the next round.
        temporal_edge = next(e for e in graph.edges if e.kind == "temporal")
        lower = temporal_edge.u
        upper = temporal_edge.v
        if graph.vertices[lower].layer > graph.vertices[upper].layer:
            lower, upper = upper, lower
        defects = [lower, upper]
        for layer in range(graph.num_layers):
            layer_vertices = set(graph.vertices_in_layer(layer))
            accelerator.load(
                [d for d in defects if d in layer_vertices], layers={layer}
            )
            primal.break_boundary_matches(
                {v for v in layer_vertices if not graph.is_virtual(v)}
            )
            primal.run()
        result = primal.collect_matching()
        result.validate_perfect(defects)
        assert primal.counters["fusion_breaks"] >= 1

    def test_stream_post_final_work_smaller_than_total(self):
        graph = surface_code_decoding_graph(5, circuit_level_noise(0.02))
        decoder = MicroBlossomDecoder(graph, stream=True)
        sampler = SyndromeSampler(graph, seed=9)
        observed = False
        for _ in range(25):
            syndrome = sampler.sample()
            early_layers_defects = [
                d
                for d in syndrome.defects
                if graph.vertices[d].layer < graph.num_layers - 1
            ]
            if len(early_layers_defects) < 2:
                continue
            outcome = decoder.decode_detailed(syndrome)
            total = outcome.counters["instr_find_obstacle"]
            after_final = outcome.post_final_round_counters.get(
                "instr_find_obstacle", 0
            )
            if after_final < total:
                observed = True
                break
        assert observed, "stream decoding never moved work ahead of the final round"

    def test_loading_same_layer_twice_is_idempotent(self):
        graph = surface_code_decoding_graph(3, phenomenological_noise(0.02))
        accelerator = MicroBlossomAccelerator(graph)
        defect = next(
            v
            for v in graph.vertices_in_layer(0)
            if not graph.is_virtual(v)
        )
        accelerator.load([defect], layers={0})
        accelerator.load([], layers={0})
        assert accelerator.is_defect[defect]

    def test_stream_equals_batch_on_multi_round_syndromes(self):
        graph = surface_code_decoding_graph(3, phenomenological_noise(0.05))
        sampler = SyndromeSampler(graph, seed=21)
        batch = MicroBlossomDecoder(graph, stream=False)
        stream = MicroBlossomDecoder(graph, stream=True)
        multi_round_checked = 0
        for _ in range(40):
            syndrome = sampler.sample()
            layers = {graph.vertices[d].layer for d in syndrome.defects}
            if len(layers) < 2:
                continue
            multi_round_checked += 1
            assert stream.decode(syndrome).weight == batch.decode(syndrome).weight
        assert multi_round_checked > 0


def test_idle_round_rebuilds_neither_covers_nor_prematches(monkeypatch):
    """An empty round after the first defect that frees nothing is answered
    on the kept Covers and pre-matches: one ``find obstacle``, answered
    Finished, no ``_build_covers`` and no ``_compute_prematches`` call, yet
    ``cover_cells_updated`` is still charged."""
    graph = surface_code_decoding_graph(5, circuit_level_noise(0.005))
    calls = []
    for name in ("_build_covers", "_compute_prematches"):
        original = getattr(MicroBlossomAccelerator, name)

        def counted(self, _original=original, _name=name):
            calls.append(_name)
            return _original(self)

        monkeypatch.setattr(MicroBlossomAccelerator, name, counted)
    decoder = MicroBlossomDecoder(graph, stream=True)
    idle = 0
    for syndrome in SyndromeSampler(graph, seed=7).sample_batch(200):
        if not syndrome.defects:
            continue
        decoder.begin()
        loaded_any = False
        for round_defects in syndrome.defects_by_layer(graph):
            calls.clear()
            delta = decoder.push_round(round_defects)
            if loaded_any and not round_defects and delta["instr_find_obstacle"] == 1:
                if not delta.get("fusion_breaks"):
                    idle += 1
                    assert calls == []
                    assert delta["cover_cells_updated"] > 0
            loaded_any = loaded_any or bool(round_defects)
        decoder.finalize()
    assert idle > 20


#: d=9, p=0.001 circuit-level shots on which stream mode with pre-matching
#: went wrong while the accelerator pre-matched nodes the CPU had set back to
#: GROW: ``(defects, reference weight, former stream-mode failure)``.
_STREAM_PREMATCH_FAULTS = [
    ((77, 80, 119, 314, 361), 80, "weight 106"),
    ((84, 88, 126, 202, 207, 337), 104, "weight 130"),
    ((210, 214, 252), 52, "weight 78"),
    ((1, 4, 17, 18, 48), 80, "DualPhaseError"),
    ((168, 171, 218, 232, 237), 80, "DualPhaseError"),
]

#: d=9, p=0.005 circuit-level shots on which batch mode went wrong the same
#: way: ``(defects, reference weight, former batch-mode weight)``.
_BATCH_PREMATCH_FAULTS = [
    ((0, 65, 66, 67, 109, 211, 214, 259, 276, 301, 303, 323, 372), 224, 244),
    (
        (106, 107, 156, 157, 168, 173, 174, 175, 177, 182, 189, 241, 242, 245, 246, 248,
         260, 278, 283, 288, 308),
        320,
        344,
    ),
]


@pytest.fixture(scope="module")
def surface_d9_circuit():
    return surface_code_decoding_graph(9, circuit_level_noise(0.001))


class TestPrematchEligibility:
    """A node the CPU has sent a direction to is never pre-matched again.

    The primal module sets a node back to GROW when it becomes a "+" node
    again (``_attach`` on the mate, ``break_boundary_matches`` on a freed
    node).  Pre-matching such a node stalls it in the accelerator while the
    primal module still grows its ``y``, so the matching came out too heavy,
    or the primal module raised on an unmatched node.
    """

    @pytest.mark.parametrize("stream, prematching", [(False, True), (True, False)])
    @pytest.mark.parametrize("defects, weight, _failure", _STREAM_PREMATCH_FAULTS)
    def test_decodes_at_reference_weight(
        self, surface_d9_circuit, defects, weight, _failure, stream, prematching
    ):
        decoder = MicroBlossomDecoder(
            surface_d9_circuit, stream=stream, enable_prematching=prematching
        )
        assert ReferenceDecoder(surface_d9_circuit).decode(Syndrome(defects)).weight == weight
        assert decoder.decode(Syndrome(defects)).weight == weight

    @pytest.mark.parametrize("defects, weight, _failure", _STREAM_PREMATCH_FAULTS)
    def test_stream_with_prematching(self, surface_d9_circuit, defects, weight, _failure):
        decoder = MicroBlossomDecoder(surface_d9_circuit, stream=True)
        assert decoder.decode(Syndrome(defects)).weight == weight

    @pytest.mark.parametrize("defects, weight, _former", _BATCH_PREMATCH_FAULTS)
    def test_batch_with_prematching(self, defects, weight, _former):
        graph = surface_code_decoding_graph(9, circuit_level_noise(0.005))
        assert ReferenceDecoder(graph).decode(Syndrome(defects)).weight == weight
        assert MicroBlossomDecoder(graph).decode(Syndrome(defects)).weight == weight
