"""Batch conformance: every backend × every noise family.

Checks the structural contract every decoder must satisfy on every shot:

* the correction annihilates every defect (no residual syndrome);
* the defect pairing is a *perfect* matching (each defect matched exactly
  once);
* the matching weight realised on the shot's (erased-variant) decoding graph
  never beats the reference MWPM optimum — and equals it for the exact
  decoders;
* ``decode`` returns exactly the matching one ``decode_detailed`` implies
  (what the lookup table stores from its single decode per candidate);
* ``lut+X`` is bit-identical to ``X``, hit or miss, and bypasses the table
  on erasure-carrying shots.
"""

from __future__ import annotations

import pytest

from repro.api import available_decoders, get_decoder
from repro.graphs import (
    NOISE_FAMILY_NAMES,
    Syndrome,
    SyndromeSampler,
    circuit_level_noise,
    residual_defects,
    surface_code_decoding_graph,
)
from repro.graphs.syndrome import matching_from_correction, matching_weight

from .harness import EXACT_DECODERS, LUT_BASES, NOISE_FAMILIES, erased_variant


def test_registry_has_all_backends():
    assert EXACT_DECODERS | {"union-find", "lut+union-find"} <= set(available_decoders())
    assert {f"lut+{name}" for name in LUT_BASES} <= set(available_decoders())


def test_harness_covers_every_noise_family():
    """The differential grid spans exactly the sampler's noise families."""
    assert tuple(sorted(NOISE_FAMILIES)) == tuple(sorted(NOISE_FAMILY_NAMES))


@pytest.mark.parametrize("name", sorted(available_decoders()))
def test_decoder_conformance(conformance_case, name):
    family, graph, syndromes, optima = conformance_case
    decoder = get_decoder(name, graph)
    for syndrome, optimum in zip(syndromes, optima):
        label = (
            f"{name} on {family} defects={syndrome.defects} "
            f"erasures={syndrome.erasures}"
        )

        # 1. the correction must annihilate the syndrome on every shot
        correction = decoder.decode_to_correction(syndrome)
        assert residual_defects(graph, syndrome, correction) == (), label

        # 2. the defect pairing must be a perfect matching on every shot
        result = decoder.decode(syndrome)
        result.validate_perfect(syndrome.defects)

        # 3. realised matching weight — on the shot's erased variant, where
        #    heralded edges cost nothing — never beats the reference optimum
        realised = matching_weight(erased_variant(graph, syndrome), result)
        assert realised >= optimum, label
        if name in EXACT_DECODERS:
            assert result.weight == optimum, label
            assert realised == optimum, label


@pytest.mark.parametrize("name", sorted(available_decoders()))
def test_decode_detailed_correction_matches_decode(conformance_case, name):
    """The protocol surfaces agree: outcome corrections annihilate defects."""
    family, graph, syndromes, _ = conformance_case
    decoder = get_decoder(name, graph)
    for syndrome in syndromes[:8]:
        outcome = decoder.decode_detailed(syndrome)
        correction = outcome.correction_edges(graph)
        assert residual_defects(graph, syndrome, correction) == (), (
            f"{name} on {family}"
        )
        assert outcome.defect_count == syndrome.defect_count


@pytest.mark.parametrize("name", sorted(available_decoders()))
def test_decode_is_the_matching_of_one_decode_detailed(conformance_case, name):
    """``decode`` returns exactly the matching one ``decode_detailed`` implies.

    That is the outcome's own matching, or — for correction-only backends —
    the pairing ``matching_from_correction`` derives from its correction.
    The lookup table relies on it: it decodes each candidate once and stores
    both answers from that single outcome.  Erased shots are skipped; the
    table never stores them.
    """
    family, graph, syndromes, _ = conformance_case
    decoder = get_decoder(name, graph)
    erasure_free = [syndrome for syndrome in syndromes if not syndrome.erasures]
    assert erasure_free, family
    for syndrome in erasure_free:
        outcome = decoder.decode_detailed(syndrome)
        derived = outcome.result
        if derived is None:
            derived = matching_from_correction(graph, syndrome.defects, outcome.correction)
        assert decoder.decode(syndrome).to_dict() == derived.to_dict(), (
            f"{name} on {family} defects={syndrome.defects}"
        )


@pytest.mark.parametrize("base", LUT_BASES)
def test_lut_is_bit_identical_to_fallback(conformance_case, base):
    """``lut+X`` returns exactly what ``X`` would, hit or miss, on every shot.

    The LUT acceptance contract: the table replays outcomes the fallback
    itself produced at build time, and misses fall through unchanged — so the
    correction edge set, matching weight and logical-flip verdict must be
    identical shot for shot across every noise family.  Erasure-carrying
    shots are misses by construction (the table stores base-graph answers),
    so under the erasure family the table only ever serves erasure-free
    shots.
    """
    family, graph, syndromes, _ = conformance_case
    fallback = get_decoder(base, graph)
    lut = get_decoder(f"lut+{base}", graph)
    for syndrome in syndromes:
        label = f"lut+{base} on {family} defects={syndrome.defects}"
        expected = fallback.decode_detailed(syndrome)
        got = lut.decode_detailed(syndrome)
        assert got.correction_edges(graph) == expected.correction_edges(graph), label
        assert got.weight == expected.weight, label
        assert got.is_exact == expected.is_exact, label
        expected_flip = graph.crosses_observable(expected.correction_edges(graph))
        assert graph.crosses_observable(got.correction_edges(graph)) == expected_flip, label
        assert lut.decode(syndrome).weight == fallback.decode(syndrome).weight, label
    erased_shots = sum(1 for s in syndromes if s.erasures)
    if erased_shots:
        # decode_detailed + decode both ran: two table bypasses per shot
        assert lut.stats()["misses"] >= 2 * erased_shots, family
    if any(not s.erasures for s in syndromes):
        assert lut.stats()["hits"] > 0, f"lut+{base} on {family}: table never hit"

    # zero-defect: the dedicated fast path must serve the empty syndrome
    empty = Syndrome(defects=())
    assert lut.decode_detailed(empty).correction_edges(graph) == set()
    assert lut.decode(empty).weight == 0
    assert lut.stats()["zero_defect_hits"] > 0


def test_lut_counts_erased_shots_as_misses():
    """An erasure-carrying syndrome never hits the table, even when its
    defect set has a resident entry — the erased variant decodes differently."""
    graph = NOISE_FAMILIES["erasure"]()
    lut = get_decoder("lut+union-find", graph)
    erased = next(
        s
        for s in SyndromeSampler(graph, seed=20260730).sample_batch(80)
        if s.erasures and s.defects
    )
    bare = Syndrome(defects=erased.defects)
    lut.decode_detailed(bare)  # may hit or miss; warms any table entry
    before = lut.stats()["misses"]
    outcome = lut.decode_detailed(erased)
    assert lut.stats()["misses"] == before + 1
    assert outcome.counters["lut_miss"] == 1


def test_micro_blossom_batch_is_exact_at_benchmark_distance():
    """The array dual engine at the repo benchmark's size: d=9 circuit-level
    noise at p=0.001, 200 non-trivial shots, every one at the reference
    optimum with a correction that annihilates its defects."""
    graph = surface_code_decoding_graph(9, circuit_level_noise(0.001))
    shots = [s for s in SyndromeSampler(graph, seed=20261017).sample_batch(400) if s.defects]
    shots = shots[:200]
    assert len(shots) == 200
    decoder = get_decoder("micro-blossom-batch", graph)
    reference = get_decoder("reference", graph)
    for syndrome in shots:
        result = decoder.decode(syndrome)
        result.validate_perfect(syndrome.defects)
        assert result.weight == reference.decode(syndrome).weight, syndrome.defects
        correction = decoder.decode_to_correction(syndrome)
        assert residual_defects(graph, syndrome, correction) == (), syndrome.defects
