"""Exact union-find output, pinned on fixed seeded shots.

Union-find is the paper's main non-MWPM baseline (Figure 11) and the fallback
every ``lut+union-find`` table is built from, so its answers feed accuracy
figures, LUT entries and the latency model (``edges_grown`` and
``growth_rounds`` are priced).  The literals below hash, per shot, the
correction, the counters, ``growth_rounds``, ``merges`` and ``decode()``'s
matching, so a change to how clusters grow or peel cannot move a single
answer unnoticed.
"""

from __future__ import annotations

import pytest

from repro.api.hashing import content_hash
from repro.graphs import (
    SyndromeSampler,
    circuit_level_noise,
    code_capacity_noise,
    erasure_noise,
    surface_code_decoding_graph,
)
from repro.unionfind import UnionFindDecoder

#: case -> (distance, noise model, seed, shots kept, pinned digest).  Shots
#: are the first non-trivial ones the seeded sampler draws; the erasure case
#: keeps only shots carrying erasures (zero-weight edges on the variant).
_CASES = {
    "d5-circuit-p0.001": (5, circuit_level_noise(0.001), 101, 200, "8a3f9bdd8eeb0e6e"),
    "d5-circuit-p0.005": (5, circuit_level_noise(0.005), 102, 200, "3ef7a1e359b77bc0"),
    "d9-circuit-p0.001": (9, circuit_level_noise(0.001), 103, 100, "a2d8847fded15715"),
    "d9-circuit-p0.005": (9, circuit_level_noise(0.005), 104, 60, "5e23c83686b34afd"),
    "d13-circuit-p0.001": (13, circuit_level_noise(0.001), 105, 20, "b179b04d7d8819b1"),
    "d5-erasure-0.01": (5, erasure_noise(0.01), 106, 150, "c26e6672634e8476"),
    "d3-code-capacity-0.1": (3, code_capacity_noise(0.1), 107, 300, "a7e7ea4e605bcee2"),
}


def _shots(graph, seed: int, count: int, *, erased: bool):
    sampler = SyndromeSampler(graph, seed=seed)
    shots = []
    while len(shots) < count:
        for shot in sampler.sample_batch(200):
            if shot.defects and (shot.erasures or not erased):
                shots.append(shot)
    return shots[:count]


def _shot_record(decoder: UnionFindDecoder, shot) -> dict:
    outcome = decoder.decode_detailed(shot)
    return {
        "correction": sorted(outcome.correction),
        "counters": dict(sorted(outcome.counters.items())),
        "defect_count": outcome.defect_count,
        "growth_rounds": outcome.growth_rounds,
        "merges": outcome.merges,
        "matching": decoder.decode(shot).to_dict(),
    }


def _case_digest(case: str) -> str:
    distance, noise, seed, count, _ = _CASES[case]
    graph = surface_code_decoding_graph(distance, noise)
    erased = case.startswith("d5-erasure")
    decoders: dict[tuple[int, ...], UnionFindDecoder] = {}
    records = []
    for shot in _shots(graph, seed, count, erased=erased):
        decoder = decoders.get(shot.erasures)
        if decoder is None:
            variant = graph.with_erasures(shot.erasures) if shot.erasures else graph
            decoder = decoders[shot.erasures] = UnionFindDecoder(variant)
        records.append(_shot_record(decoder, shot))
    return content_hash(records)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_union_find_output_is_pinned(case):
    assert _case_digest(case) == _CASES[case][-1], case
