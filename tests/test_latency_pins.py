"""Exact values of the timing-model helpers, pinned for every modelled decoder.

``modelled_latency_fn``, ``modelled_trivial_latency_seconds`` and
``stream_latency_fn`` turn decoder work into the modelled seconds behind
Figure 9, Figure 10b and every sweep's latency summary.  The literals below
pin their exact float output (as ``float.hex`` strings, hashed) on fixed
d=3 and d=5 outcomes, batch and stream, so a refactor of how a decoder name
selects its timing model cannot move a single bit unnoticed.  The figure
runners built on those models (``latency_distribution``,
``improvement_breakdown`` and ``amdahl_profile``) are pinned the same way.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api import DecoderSession, available_decoders
from repro.api.hashing import content_hash
from repro.evaluation import (
    DECODERS_WITH_TIMING_MODELS,
    amdahl_profile,
    improvement_breakdown,
    latency_distribution,
    modelled_latency_fn,
    modelled_trivial_latency_seconds,
    stream_latency_fn,
)
from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph
from repro.stream import get_streaming_decoder

_SHOTS = 6

#: (distance, decoder) -> (batch digest, stream digest, trivial seconds hex).
_PINNED = {
    (3, "micro-blossom"): ("60da9ce9fa9b75fb", "e2d5d30e4873c029", "0x1.ad7f29abcaf48p-23"),
    (3, "micro-blossom-batch"): ("63214a566282911c", "4cb92f3892878bd1", "0x1.ad7f29abcaf48p-23"),
    (3, "parity-blossom"): ("968667709adf3864", "0b34c0dd9deecfbf", "0x1.421f5f40d8376p-23"),
    (3, "union-find"): ("a57de1698b92396c", "853d6e39bd3b5d4e", "0x1.a2c2623ab2ae6p-23"),
    (5, "micro-blossom"): ("7910a2b51c885bf8", "636488f7927fc45c", "0x1.ad7f29abcaf48p-23"),
    (5, "micro-blossom-batch"): ("2149ac974cc9e2df", "c34a9c2366b5fac8", "0x1.ad7f29abcaf48p-23"),
    (5, "parity-blossom"): ("8f85493f02931e5c", "483cfc8638673bfd", "0x1.421f5f40d8376p-23"),
    (5, "union-find"): ("20172679cf587e72", "44d4ee0411d77833", "0x1.07111652d2b5cp-22"),
}


@pytest.fixture(scope="module", params=(3, 5))
def fixed_shots(request):
    distance = request.param
    graph = surface_code_decoding_graph(distance, circuit_level_noise(0.01))
    sampler = SyndromeSampler(graph, seed=29)
    shots = [shot for shot in sampler.sample_batch(200) if shot.defects][:_SHOTS]
    assert len(shots) == _SHOTS
    return distance, graph, shots


def _hex_digest(values) -> str:
    return content_hash({"seconds": [float(value).hex() for value in values]})


def _batch_values(name, graph, shots) -> list[float]:
    session = DecoderSession(graph, name)
    latency_of = modelled_latency_fn(name, graph)
    return [latency_of(session.decode_detailed(shot)) for shot in shots]


def _stream_values(name, graph, shots) -> list[float]:
    """Price every pushed round and every final outcome of a streamed shot."""
    session = get_streaming_decoder(name, graph)
    price = stream_latency_fn(name, graph)
    values = [price(Counter())]
    for shot in shots:
        session.begin(graph, rounds_hint=graph.num_layers, erasures=shot.erasures)
        for round_defects in shot.defects_by_layer(graph):
            values.append(price(session.push_round(round_defects)))
        outcome = session.finalize()
        values.append(price(outcome.counters))
    return values


@pytest.mark.parametrize("name", DECODERS_WITH_TIMING_MODELS)
def test_modelled_latency_values_are_pinned(fixed_shots, name):
    distance, graph, shots = fixed_shots
    batch_pin, stream_pin, trivial_pin = _PINNED[(distance, name)]
    assert _hex_digest(_batch_values(name, graph, shots)) == batch_pin
    assert _hex_digest(_stream_values(name, graph, shots)) == stream_pin
    assert modelled_trivial_latency_seconds(name, graph).hex() == trivial_pin


def test_every_timing_model_decoder_is_pinned():
    assert {name for _distance, name in _PINNED} == set(DECODERS_WITH_TIMING_MODELS)
    assert set(DECODERS_WITH_TIMING_MODELS) <= set(available_decoders())


# ---------------------------------------------------------------------------
# figure runners (Figures 2, 9 bottom and 10a) at p=0.01
# ---------------------------------------------------------------------------
def _hex_tree(value):
    """``value`` with every float (dictionary keys too) as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {_hex_tree(key): _hex_tree(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex_tree(item) for item in value]
    return value


@pytest.mark.parametrize(
    "distance, pin", ((3, "8b2c41dfb5bfa496"), (5, "aff0dd507e8b423b"))
)
def test_latency_distribution_is_pinned(distance, pin):
    result = latency_distribution(distance, 0.01, samples=40, seed=2)
    payload = {
        name: {key: result[name][key] for key in ("latencies_us", "cutoffs_us")}
        for name in ("parity-blossom", "micro-blossom")
    }
    assert content_hash(_hex_tree(payload)) == pin


def test_improvement_breakdown_is_pinned():
    rows = improvement_breakdown((3, 5), 0.01, samples=20, seed=3)
    assert content_hash(_hex_tree(rows)) == "902c46faec41e465"


def test_amdahl_profile_is_pinned():
    rows = amdahl_profile((3, 5), 0.01, samples=20, seed=0)
    assert content_hash(_hex_tree(rows)) == "d58c10077b91f6b0"
