"""Shared machinery of the conformance suite.

Heralded erasures reweight the decoding graph per shot (erased edges decode
at weight zero), so every weight comparison in the suite goes through
:func:`erased_variant` — the same ``DecodingGraph.with_erasures`` variant the
erasure-aware registry wrapper decodes on.  For erasure-free shots the
variant *is* the base graph, so the helpers collapse to the original
single-graph harness.
"""

from __future__ import annotations

from repro.graphs import (
    DecodingGraph,
    Syndrome,
    circuit_level_noise,
    code_capacity_noise,
    correlated_burst_noise,
    erasure_noise,
    phenomenological_noise,
    surface_code_decoding_graph,
    time_varying_noise,
)
from repro.core.interface import HOLD
from repro.matching import ReferenceDecoder

#: Decoders guaranteed to realise the exact minimum-weight perfect matching.
_EXACT_BASE = {"micro-blossom", "micro-blossom-batch", "parity-blossom", "reference"}
#: ``lut+X`` replays outcomes produced by ``X`` itself, so it inherits (and
#: must preserve) the exactness of whatever it wraps.
EXACT_DECODERS = _EXACT_BASE | {f"lut+{name}" for name in _EXACT_BASE}

#: Every backend the LUT pre-decoder can wrap (the non-lut registry names).
LUT_BASES = (
    "micro-blossom",
    "micro-blossom-batch",
    "parity-blossom",
    "reference",
    "union-find",
)

#: Graph builder per noise family — all six families the sampler supports.
NOISE_FAMILIES = {
    "code_capacity": lambda: surface_code_decoding_graph(5, code_capacity_noise(0.06)),
    "phenomenological": lambda: surface_code_decoding_graph(
        3, phenomenological_noise(0.04)
    ),
    "circuit_level": lambda: surface_code_decoding_graph(3, circuit_level_noise(0.03)),
    "correlated_burst": lambda: surface_code_decoding_graph(
        3, correlated_burst_noise(0.02)
    ),
    "erasure": lambda: surface_code_decoding_graph(3, erasure_noise(0.012)),
    "time_varying": lambda: surface_code_decoding_graph(3, time_varying_noise(0.02)),
}

SHOTS_PER_FAMILY = 25


def erased_variant(graph: DecodingGraph, syndrome: Syndrome) -> DecodingGraph:
    """The graph the shot decodes on: erased edges at weight zero."""
    if not syndrome.erasures:
        return graph
    return graph.with_erasures(syndrome.erasures)


def reference_optima(graph: DecodingGraph, syndromes) -> list[int]:
    """Reference MWPM optimum per shot, on each shot's erased variant."""
    references: dict[tuple[int, ...], ReferenceDecoder] = {}
    optima = []
    for syndrome in syndromes:
        reference = references.get(syndrome.erasures)
        if reference is None:
            reference = ReferenceDecoder(erased_variant(graph, syndrome))
            references[syndrome.erasures] = reference
        optima.append(reference.decode(Syndrome(defects=syndrome.defects)).weight)
    return optima


def stream_decode(session, graph, syndrome):
    """Push a syndrome round by round and return (outcome, push counters).

    Heralded erasures are announced at ``begin`` — they arrive with the
    leakage/loss flags before any defect round, which is the wire contract
    the service streaming path follows too.
    """
    session.begin(graph, rounds_hint=graph.num_layers, erasures=syndrome.erasures)
    pushes = [
        session.push_round(round_defects)
        for round_defects in syndrome.defects_by_layer(graph)
    ]
    return session.finalize(), pushes


def primal_dual_drift(primal) -> list[str]:
    """Where the primal module and its dual engine disagree, if anywhere.

    Every outer node the primal module tracks must move in the dual phase
    the way the primal module believes it does: its effective dual direction
    (pre-matched nodes hold) equals its primal direction, and a singleton's
    dual variable ``y`` equals its defect's cover radius.  A node the
    accelerator pre-matches behind the primal module's back breaks both.
    """
    dual = primal.dual
    directions = dual._effective_directions()
    drift = []
    for node in primal.outer_nodes():
        effective = directions.get(node.node_id, HOLD)
        if effective != node.direction:
            drift.append(
                f"node {node.node_id}: primal direction {node.direction}, dual {effective}"
            )
        if not node.is_blossom and node.y != dual.radius_of(node.node_id):
            drift.append(
                f"node {node.node_id}: y {node.y}, dual radius {dual.radius_of(node.node_id)}"
            )
    return drift
