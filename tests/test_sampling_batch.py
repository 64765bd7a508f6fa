"""Property tests: vectorized ``sample_batch`` is bit-identical to ``sample``.

``SyndromeSampler.sample`` and ``sample_batch`` read whole shots through one
draw and differ only in how defects follow from the flipped edges: ``sample``
takes their parity edge by edge (the pure-Python reference), ``sample_batch``
through the incidence matrix.  The equality of the two is checked
property-style over a grid of graphs covering every noise family and
measurement-round count, and the draw itself is pinned per family by a
content hash of its shots.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api.hashing import content_hash
from repro.graphs import (
    SyndromeSampler,
    circuit_level_noise,
    code_capacity_noise,
    correlated_burst_noise,
    erasure_noise,
    phenomenological_noise,
    repetition_code_decoding_graph,
    surface_code_decoding_graph,
    time_varying_noise,
)

GRAPHS = {
    "code_capacity_d3": lambda: surface_code_decoding_graph(
        3, code_capacity_noise(0.08)
    ),
    "code_capacity_d5": lambda: surface_code_decoding_graph(
        5, code_capacity_noise(0.03)
    ),
    "phenomenological_d3_r2": lambda: surface_code_decoding_graph(
        3, phenomenological_noise(0.04), rounds=2
    ),
    "phenomenological_d3_r5": lambda: surface_code_decoding_graph(
        3, phenomenological_noise(0.02), rounds=5
    ),
    "circuit_level_d3": lambda: surface_code_decoding_graph(
        3, circuit_level_noise(0.02)
    ),
    "circuit_level_d5_r3": lambda: surface_code_decoding_graph(
        5, circuit_level_noise(0.005), rounds=3
    ),
    "repetition_d5_pheno": lambda: repetition_code_decoding_graph(
        5, phenomenological_noise(0.05)
    ),
    "correlated_burst_d3": lambda: surface_code_decoding_graph(
        3, correlated_burst_noise(0.02)
    ),
    "correlated_burst_d3_r5": lambda: surface_code_decoding_graph(
        3, correlated_burst_noise(0.01, burst_multiplier=6.0), rounds=5
    ),
    "erasure_d3": lambda: surface_code_decoding_graph(3, erasure_noise(0.02)),
    "erasure_d5_r2": lambda: surface_code_decoding_graph(
        5, erasure_noise(0.01, erasure=0.05), rounds=2
    ),
    "time_varying_d3": lambda: surface_code_decoding_graph(
        3, time_varying_noise(0.02)
    ),
    # burst chain + heralded erasures at once: the full dynamic word layout
    "burst_erasure_d3": lambda: surface_code_decoding_graph(
        3, dataclasses.replace(correlated_burst_noise(0.01), erasure=0.03)
    ),
}


#: ``content_hash`` of the wire forms of 64 shots at seed 7, per family: the
#: cross-machine contract of the sampled word stream itself (the equality
#: tests below only tie the two entry points to each other).
_STREAM_PINS = {
    "burst_erasure_d3": "d51b52606e7b2a49",
    "circuit_level_d3": "297ab7ee4d6620ae",
    "circuit_level_d5_r3": "4e3ad2b9de873b63",
    "code_capacity_d3": "a0d7a80349ec6bd7",
    "code_capacity_d5": "75524bae3c4e1e64",
    "correlated_burst_d3": "8e666a3ea11d1b22",
    "correlated_burst_d3_r5": "7363f646120ead54",
    "erasure_d3": "598023fadc2205da",
    "erasure_d5_r2": "783d203afaa5696f",
    "phenomenological_d3_r2": "b43dc777c616be2d",
    "phenomenological_d3_r5": "c068771b6ac091f7",
    "repetition_d5_pheno": "054f441f8bff8b8e",
    "time_varying_d3": "e1177c6a060d7edc",
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_sampled_stream_is_pinned(graph_name):
    graph = GRAPHS[graph_name]()
    batch = SyndromeSampler(graph, seed=7).sample_batch(64)
    assert content_hash([s.to_dict() for s in batch]) == _STREAM_PINS[graph_name]
    scalar = SyndromeSampler(graph, seed=7)
    shots = [scalar.sample() for _ in range(64)]
    assert content_hash([s.to_dict() for s in shots]) == _STREAM_PINS[graph_name]


def _assert_same_shots(first, second):
    assert [s.defects for s in first] == [s.defects for s in second]
    assert [s.error_edges for s in first] == [s.error_edges for s in second]
    assert [s.logical_flip for s in first] == [s.logical_flip for s in second]
    assert [s.erasures for s in first] == [s.erasures for s in second]


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("count", [1, 2, 17])
@pytest.mark.parametrize("seed", [0, 1234])
def test_batch_equals_sequential(graph_name, count, seed):
    graph = GRAPHS[graph_name]()
    scalar_sampler = SyndromeSampler(graph, seed=seed)
    sequential = [scalar_sampler.sample() for _ in range(count)]
    # a fresh sampler with the same seed must reproduce the identical stream
    batch = SyndromeSampler(graph, seed=seed).sample_batch(count)
    _assert_same_shots(sequential, batch)
    assert sequential == batch  # full dataclass equality, field by field


@pytest.mark.parametrize(
    "graph_name", ["circuit_level_d3", "code_capacity_d5", "erasure_d3", "burst_erasure_d3"]
)
def test_batch_leaves_rng_in_scalar_state(graph_name):
    graph = GRAPHS[graph_name]()
    scalar = SyndromeSampler(graph, seed=7)
    batch = SyndromeSampler(graph, seed=7)
    for _ in range(9):
        scalar.sample()
    batch.sample_batch(9)
    # the streams stay aligned: mixing scalar and batch draws is allowed
    assert scalar.sample() == batch.sample()
    _assert_same_shots(
        [scalar.sample() for _ in range(4)], batch.sample_batch(4)
    )


@pytest.mark.parametrize("graph_name", ["circuit_level_d3", "burst_erasure_d3"])
def test_batch_is_chunked_transparently(graph_name, monkeypatch):
    graph = GRAPHS[graph_name]()
    monkeypatch.setattr(SyndromeSampler, "_CHUNK_WORDS", 64)
    chunked_sampler = SyndromeSampler(graph, seed=3)
    assert 64 // chunked_sampler._shot_words < 25  # really multiple chunks
    chunked = chunked_sampler.sample_batch(25)
    monkeypatch.undo()
    _assert_same_shots(SyndromeSampler(graph, seed=3).sample_batch(25), chunked)


def test_empty_batch_consumes_no_randomness():
    graph = GRAPHS["code_capacity_d3"]()
    sampler = SyndromeSampler(graph, seed=5)
    assert sampler.sample_batch(0) == []
    assert sampler.sample() == SyndromeSampler(graph, seed=5).sample()


def test_negative_count_rejected():
    graph = GRAPHS["code_capacity_d3"]()
    with pytest.raises(ValueError):
        SyndromeSampler(graph, seed=0).sample_batch(-1)


def test_seed_sequence_and_generator_seeds():
    graph = GRAPHS["circuit_level_d3"]()
    sequence = np.random.SeedSequence([11, 4])
    first = SyndromeSampler(graph, seed=np.random.SeedSequence([11, 4])).sample_batch(6)
    second = SyndromeSampler(graph, seed=sequence).sample_batch(6)
    assert first == second
    generator = np.random.Generator(np.random.SFC64(np.random.SeedSequence([11, 4])))
    third = SyndromeSampler(graph, seed=generator).sample_batch(6)
    assert first == third


def test_batch_syndromes_behave_like_scalar_ones():
    """Batch-built syndromes are full ``Syndrome`` instances (hash, repr, ...)."""
    graph = GRAPHS["circuit_level_d3"]()
    shot = SyndromeSampler(graph, seed=2).sample_batch(1)[0]
    assert isinstance(shot.defects, tuple)
    assert isinstance(shot.error_edges, tuple)
    assert isinstance(shot.logical_flip, bool)
    assert hash(shot) == hash(SyndromeSampler(graph, seed=2).sample())
    assert "Syndrome" in repr(shot)
    with pytest.raises(AttributeError):  # still frozen
        shot.defects = ()


def test_batch_flip_statistics_match_error_model():
    graph = GRAPHS["code_capacity_d5"]()
    sampler = SyndromeSampler(graph, seed=99)
    shots = sampler.sample_batch(4000)
    mean_flips = sum(len(s.error_edges) for s in shots) / len(shots)
    expected = sum(edge.probability for edge in graph.edges)
    assert mean_flips == pytest.approx(expected, rel=0.1)


def test_static_families_carry_no_erasures():
    shots = SyndromeSampler(GRAPHS["circuit_level_d3"](), seed=4).sample_batch(16)
    assert all(s.erasures == () for s in shots)


def test_erasure_statistics_match_heralding_rate():
    graph = GRAPHS["erasure_d3"]()
    model = graph.noise_model
    shots = SyndromeSampler(graph, seed=13).sample_batch(3000)
    mean_erased = sum(len(s.erasures) for s in shots) / len(shots)
    assert mean_erased == pytest.approx(graph.num_edges * model.erasure, rel=0.1)
    # erased edges flip with probability 1/2: flips should sit well above the
    # i.i.d. expectation of the same base probabilities
    base = sum(edge.probability for edge in graph.edges)
    mean_flips = sum(len(s.error_edges) for s in shots) / len(shots)
    assert mean_flips > base * 1.5


def test_burst_statistics_exceed_quiet_rate():
    """The Markov chain visits its boosted state often enough to show up."""
    graph = GRAPHS["correlated_burst_d3"]()
    quiet = surface_code_decoding_graph(
        3, dataclasses.replace(graph.noise_model, burst_entry=0.0)
    )
    burst_shots = SyndromeSampler(graph, seed=21).sample_batch(3000)
    quiet_shots = SyndromeSampler(quiet, seed=21).sample_batch(3000)
    burst_mean = sum(len(s.error_edges) for s in burst_shots) / len(burst_shots)
    quiet_mean = sum(len(s.error_edges) for s in quiet_shots) / len(quiet_shots)
    assert burst_mean > quiet_mean * 1.2


def test_time_varying_layers_follow_schedule():
    """Per-layer flip rates track the schedule's multipliers statistically."""
    graph = GRAPHS["time_varying_d3"]()
    schedule = graph.noise_model.schedule
    assert len(schedule) >= 2
    shots = SyndromeSampler(graph, seed=31).sample_batch(4000)
    spatial = [e for e in graph.edges if e.kind == "spatial"]
    by_layer = {}
    for edge in spatial:
        layer = max(graph.vertices[edge.u].layer, graph.vertices[edge.v].layer)
        by_layer.setdefault(layer, []).append(edge.index)
    counts = {layer: 0 for layer in by_layer}
    for shot in shots:
        flipped = set(shot.error_edges)
        for layer, indices in by_layer.items():
            counts[layer] += sum(1 for i in indices if i in flipped)
    rates = {
        layer: counts[layer] / (len(shots) * len(by_layer[layer]))
        for layer in by_layer
    }
    for layer, rate in rates.items():
        expected = graph.noise_model.spatial * graph.noise_model.round_multiplier(layer)
        assert rate == pytest.approx(expected, rel=0.2), layer
