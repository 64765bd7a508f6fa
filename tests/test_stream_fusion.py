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


#: d=9, p=0.001 circuit-level shots on which stream mode with pre-matching
#: goes wrong: ``(defects, reference weight, stream-mode failure)``.
_STREAM_PREMATCH_FAULTS = [
    ((77, 80, 119, 314, 361), 80, "weight 106"),
    ((84, 88, 126, 202, 207, 337), 104, "weight 130"),
    ((210, 214, 252), 52, "weight 78"),
    ((1, 4, 17, 18, 48), 80, "DualPhaseError"),
    ((168, 171, 218, 232, 237), 80, "DualPhaseError"),
]


@pytest.fixture(scope="module")
def surface_d9_circuit():
    return surface_code_decoding_graph(9, circuit_level_noise(0.001))


class TestKnownStreamPrematchFault:
    """Pre-matching under round-wise fusion is wrong on these shots.

    Batch mode and stream mode without pre-matching decode them at the
    reference weight, so the fault lies in pre-matching across rounds.
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

    @pytest.mark.xfail(
        strict=True,
        reason="stream-mode pre-matching under round-wise fusion returns a "
        "too-heavy matching or raises DualPhaseError on these shots",
    )
    @pytest.mark.parametrize("defects, weight, _failure", _STREAM_PREMATCH_FAULTS)
    def test_stream_with_prematching(self, surface_d9_circuit, defects, weight, _failure):
        decoder = MicroBlossomDecoder(surface_d9_circuit, stream=True)
        assert decoder.decode(Syndrome(defects)).weight == weight
