"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import copy
import functools
import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MicroBlossomDecoder
from repro.core.instructions import (
    MAX_GROW_LENGTH,
    MAX_NODE_INDEX,
    decode_instruction,
    grow_word,
    load_defects_word,
    set_cover_word,
    set_direction_word,
)
from repro.graphs import (
    NoiseModel,
    Syndrome,
    SyndromeSampler,
    circuit_level_noise,
    code_capacity_noise,
    correlated_burst_noise,
    erasure_noise,
    noise_model_by_name,
    phenomenological_noise,
    quantized_weight,
    residual_defects,
    surface_code_decoding_graph,
    time_varying_noise,
)
from repro.graphs.syndrome import correction_edges
from repro.matching import ReferenceDecoder
from repro.parity import ParityBlossomDecoder

# Shared small graphs (built once; hypothesis reuses them across examples).
_CODE_CAPACITY_GRAPH = surface_code_decoding_graph(5, code_capacity_noise(0.05))
_CIRCUIT_GRAPH = surface_code_decoding_graph(3, circuit_level_noise(0.02))
_REFERENCE_CC = ReferenceDecoder(_CODE_CAPACITY_GRAPH)
_REFERENCE_CIRCUIT = ReferenceDecoder(_CIRCUIT_GRAPH)
_SAMPLER_CC = SyndromeSampler(_CODE_CAPACITY_GRAPH, seed=0)
_SAMPLER_CIRCUIT = SyndromeSampler(_CIRCUIT_GRAPH, seed=0)

_slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------
@given(
    p1=st.floats(min_value=1e-6, max_value=0.49),
    p2=st.floats(min_value=1e-6, max_value=0.49),
    reference=st.floats(min_value=1e-6, max_value=0.49),
)
def test_quantized_weight_monotone_in_probability(p1, p2, reference):
    """Less likely errors never get smaller weights."""
    low, high = sorted((p1, p2))
    assert quantized_weight(low, reference) >= quantized_weight(high, reference)


@given(
    probability=st.floats(min_value=1e-6, max_value=0.49),
    reference=st.floats(min_value=1e-6, max_value=0.49),
    max_weight=st.integers(min_value=1, max_value=100),
)
def test_quantized_weight_in_range(probability, reference, max_weight):
    weight = quantized_weight(probability, reference, max_weight)
    assert 1 <= weight <= max_weight


# ---------------------------------------------------------------------------
# instruction encoding
# ---------------------------------------------------------------------------
@given(length=st.integers(min_value=0, max_value=MAX_GROW_LENGTH))
def test_grow_word_round_trip(length):
    assert decode_instruction(grow_word(length)).length == length


@given(
    node=st.integers(min_value=0, max_value=MAX_NODE_INDEX),
    direction=st.sampled_from([-1, 0, 1]),
)
def test_set_direction_round_trip(node, direction):
    decoded = decode_instruction(set_direction_word(node, direction))
    assert (decoded.node, decoded.direction) == (node, direction)


@given(
    source=st.integers(min_value=0, max_value=MAX_NODE_INDEX),
    target=st.integers(min_value=0, max_value=MAX_NODE_INDEX),
)
def test_set_cover_round_trip(source, target):
    decoded = decode_instruction(set_cover_word(source, target))
    assert (decoded.cover_source, decoded.cover_target) == (source, target)


@given(layer=st.integers(min_value=0, max_value=1000))
def test_load_defects_round_trip(layer):
    assert decode_instruction(load_defects_word(layer)).payload == layer


# ---------------------------------------------------------------------------
# syndromes
# ---------------------------------------------------------------------------
@given(
    error_edges=st.sets(
        st.integers(min_value=0, max_value=_CIRCUIT_GRAPH.num_edges - 1), max_size=8
    )
)
@_slow
def test_syndrome_defect_parity_matches_errors(error_edges):
    """Every defect has an odd number of incident flipped edges."""
    graph = _CIRCUIT_GRAPH
    syndrome = _SAMPLER_CIRCUIT.syndrome_from_errors(error_edges)
    for vertex in range(graph.num_vertices):
        incident_flips = sum(
            1
            for edge_index, _ in graph.neighbors(vertex)
            if edge_index in error_edges
        )
        if graph.is_virtual(vertex):
            continue
        assert (vertex in syndrome.defects) == (incident_flips % 2 == 1)


@given(
    error_edges=st.sets(
        st.integers(min_value=0, max_value=_CODE_CAPACITY_GRAPH.num_edges - 1),
        max_size=6,
    )
)
@_slow
def test_decoders_are_optimal_on_arbitrary_error_sets(error_edges):
    """Micro Blossom and Parity Blossom achieve the reference optimal weight
    on syndromes generated by arbitrary (not just sampled) error patterns."""
    graph = _CODE_CAPACITY_GRAPH
    syndrome = _SAMPLER_CC.syndrome_from_errors(error_edges)
    if not syndrome.defects:
        return
    optimal = _REFERENCE_CC.decode(syndrome).weight
    micro = MicroBlossomDecoder(graph).decode(syndrome)
    parity = ParityBlossomDecoder(graph).decode(syndrome)
    assert micro.weight == optimal
    assert parity.weight == optimal
    micro.validate_perfect(syndrome.defects)


@given(
    error_edges=st.sets(
        st.integers(min_value=0, max_value=_CIRCUIT_GRAPH.num_edges - 1), max_size=6
    )
)
@_slow
def test_correction_always_annihilates_defects(error_edges):
    graph = _CIRCUIT_GRAPH
    syndrome = _SAMPLER_CIRCUIT.syndrome_from_errors(error_edges)
    result = MicroBlossomDecoder(graph, stream=True).decode(syndrome)
    correction = correction_edges(graph, result)
    assert residual_defects(graph, syndrome, correction) == ()


@given(
    defect_seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@_slow
def test_matching_weight_never_below_dual_bound(defect_seed):
    """The matching weight equals the reference optimum (LP strong duality)."""
    graph = _CIRCUIT_GRAPH
    sampler = SyndromeSampler(graph, seed=defect_seed)
    syndrome = sampler.sample()
    if not syndrome.defects:
        return
    optimal = _REFERENCE_CIRCUIT.decode(syndrome).weight
    outcome = MicroBlossomDecoder(graph).decode_detailed(syndrome)
    assert outcome.result.weight == optimal


@given(
    subset_seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=6),
)
@_slow
def test_defect_subsets_decode_exactly(subset_seed, size):
    """Any even- or odd-sized defect subset decodes to the optimal weight
    (odd subsets are possible because of the boundary)."""
    import random

    graph = _CODE_CAPACITY_GRAPH
    rng = random.Random(subset_seed)
    real_vertices = [
        v for v in range(graph.num_vertices) if not graph.is_virtual(v)
    ]
    defects = tuple(sorted(rng.sample(real_vertices, min(size, len(real_vertices)))))
    syndrome = Syndrome(defects=defects)
    optimal = _REFERENCE_CC.decode(syndrome).weight
    assert MicroBlossomDecoder(graph).decode(syndrome).weight == optimal


# ---------------------------------------------------------------------------
# noise families
# ---------------------------------------------------------------------------
_noise_models = st.one_of(
    st.builds(code_capacity_noise, st.floats(min_value=1e-4, max_value=0.1)),
    st.builds(phenomenological_noise, st.floats(min_value=1e-4, max_value=0.1)),
    st.builds(circuit_level_noise, st.floats(min_value=1e-4, max_value=0.1)),
    st.builds(
        correlated_burst_noise,
        st.floats(min_value=1e-4, max_value=0.05),
        burst_multiplier=st.floats(min_value=1.0, max_value=8.0),
        burst_entry=st.floats(min_value=0.001, max_value=0.5),
        burst_exit=st.floats(min_value=0.05, max_value=1.0),
    ),
    st.builds(
        erasure_noise,
        st.floats(min_value=1e-4, max_value=0.1),
        erasure=st.floats(min_value=1e-4, max_value=0.3),
    ),
    st.builds(
        time_varying_noise,
        st.floats(min_value=1e-4, max_value=0.05),
        schedule=st.lists(
            st.floats(min_value=0.1, max_value=3.0), min_size=1, max_size=5
        ).map(tuple),
    ),
)


@given(model=_noise_models)
@_slow
def test_noise_model_round_trips_through_wire_form(model):
    """``to_dict``/``from_dict`` are exact inverses for every family, and the
    content hash survives the round trip (the session-key contract)."""
    clone = NoiseModel.from_dict(model.to_dict())
    assert clone == model
    assert clone.model_hash() == model.model_hash()
    # static families never serialize the dynamic fields
    if model.name in ("code_capacity", "phenomenological", "circuit_level"):
        assert set(model.to_dict()) == {
            "name", "spatial", "temporal", "diagonal", "boundary"
        }


@given(
    family=st.sampled_from(
        ["phenomenological", "correlated_burst", "erasure", "time_varying"]
    ),
    p=st.floats(min_value=0.005, max_value=0.04),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=1, max_value=6),
)
@_slow
def test_batch_equals_scalar_for_every_family(family, p, seed, count):
    """The bit-identity contract holds for arbitrary (family, p, seed)."""
    graph = surface_code_decoding_graph(3, noise_model_by_name(family, p))
    scalar = SyndromeSampler(graph, seed=seed)
    sequential = [scalar.sample() for _ in range(count)]
    batch = SyndromeSampler(graph, seed=seed).sample_batch(count)
    assert sequential == batch


@given(
    model=_noise_models,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@_slow
def test_erasures_are_sorted_heralds_of_real_edges(model, seed):
    """Erasure flags are sorted, deduplicated, in-range edge indices; families
    without heralding never emit any."""
    graph = surface_code_decoding_graph(3, model)
    shot = SyndromeSampler(graph, seed=seed).sample()
    assert list(shot.erasures) == sorted(set(shot.erasures))
    assert all(0 <= e < graph.num_edges for e in shot.erasures)
    if model.erasure == 0.0:
        assert shot.erasures == ()


@given(
    distance=st.sampled_from([3, 5]),
    noise=st.sampled_from(
        ["circuit_level", "correlated_burst", "erasure", "time_varying"]
    ),
    p=st.floats(min_value=1e-4, max_value=0.04),
    requests=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@_slow
def test_trace_spec_round_trips_for_every_noise_family(
    distance, noise, p, requests, seed
):
    """Trace specs with new-family scenarios survive their wire form, and the
    workload hash is invariant under the round trip."""
    from repro.service.trace import Scenario, TraceSpec

    spec = TraceSpec(
        "prop",
        (Scenario(distance=distance, noise=noise, physical_error_rate=p),),
        requests=requests,
        seed=seed,
    )
    clone = TraceSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.trace_hash() == spec.trace_hash()


# ---------------------------------------------------------------------------
# wire forms (repro.api.wireform)
# ---------------------------------------------------------------------------
def _wire_classes() -> dict:
    """Every wire-form class, with a strategy for its instances."""
    from collections import Counter

    from repro.api import (
        DecodeOutcome,
        DecoderConfig,
        LUTConfig,
        MicroBlossomConfig,
        ParityBlossomConfig,
        ReferenceConfig,
        UnionFindConfig,
    )
    from repro.evaluation.service_load import SaturationPoint
    from repro.graphs import NOISE_FAMILY_NAMES, MatchingResult
    from repro.service import (
        CodeSpec,
        DecodeRequest,
        DecodeResponse,
        FaultPlan,
        ServiceConfig,
        SessionKey,
    )
    from repro.service.cache import SessionCacheStats
    from repro.service.trace import Scenario, TraceSpec
    from repro.sweeps import SweepPoint, SweepSpec
    from repro.sweeps.store import LatencySummary, LUTStats

    count = st.integers(min_value=0, max_value=2**40)
    index = st.integers(min_value=0, max_value=2**32 - 1)
    indices = st.lists(index, max_size=6).map(tuple)
    seconds = st.floats(min_value=0.0, max_value=1e3)
    rate = st.floats(min_value=1e-4, max_value=0.1)
    name = st.text(min_size=1, max_size=6)
    noise = st.sampled_from(NOISE_FAMILY_NAMES)
    decoder = st.sampled_from(["micro-blossom", "union-find", "reference", "lut+union-find"])
    micro = st.builds(MicroBlossomConfig, st.booleans(), st.booleans(), st.integers(1, 8))
    configs = st.one_of(
        micro,
        st.builds(ParityBlossomConfig, st.integers(1, 8)),
        st.just(UnionFindConfig()),
        st.just(ReferenceConfig()),
        st.builds(LUTConfig, st.integers(0, 3), st.integers(0, 3), count, st.none() | micro),
    )
    matchings = st.builds(
        MatchingResult,
        st.lists(st.tuples(index, st.integers(-1, 2**32 - 1)), max_size=4),
        st.dictionaries(index, index, max_size=3),
        count,
    )
    outcomes = st.builds(
        DecodeOutcome,
        st.none() | matchings,
        st.none() | st.sets(index, max_size=6),
        count,
        st.dictionaries(name, count, max_size=4).map(Counter),
        count,
    )
    syndromes = st.builds(Syndrome, indices, indices, st.none() | st.booleans(), indices)
    codes = st.builds(
        CodeSpec, st.sampled_from([3, 5, 7]), noise, rate, st.none() | st.integers(1, 9)
    )
    keys = st.builds(SessionKey, codes, decoder)
    requests = st.builds(DecodeRequest, keys, syndromes, st.integers(-(2**63), 2**63 - 1))
    plans = st.builds(
        FaultPlan,
        name,
        count,
        st.integers(0, 4),
        seconds,
        st.floats(0.0, 1.0),
        st.integers(1, 4),
        st.floats(0.0, 1.0),
    )
    scenarios = st.builds(
        Scenario, st.sampled_from([3, 5]), noise, rate, decoder, st.floats(0.1, 9.0)
    )
    return {
        Syndrome: syndromes,
        MatchingResult: matchings,
        NoiseModel: _noise_models,
        DecoderConfig: configs,
        DecodeOutcome: outcomes,
        CodeSpec: codes,
        SessionKey: keys,
        DecodeRequest: requests,
        DecodeResponse: st.builds(
            DecodeResponse,
            requests,
            st.sampled_from(["ok", "shed", "error"]),
            st.none() | outcomes,
            seconds,
            seconds,
            count,
            st.booleans(),
            st.none() | st.text(max_size=8),
        ),
        Scenario: scenarios,
        TraceSpec: st.builds(
            TraceSpec,
            name,
            st.lists(scenarios, min_size=1, max_size=3).map(tuple),
            st.integers(1, 64),
            count,
            st.sampled_from(["open", "closed"]),
            st.none() | st.floats(1.0, 1e4),
            st.integers(1, 8),
            burst_size=st.none() | st.integers(1, 8),
        ),
        ServiceConfig: st.builds(
            ServiceConfig,
            st.integers(1, 64),
            seconds,
            st.integers(1, 4096),
            st.integers(1, 8),
            outcome_cache_bytes=st.none() | count,
            fault_plan=st.none() | plans,
        ),
        FaultPlan: plans,
        SweepPoint: st.builds(
            SweepPoint,
            st.sampled_from([3, 5]),
            noise,
            rate,
            decoder,
            st.integers(1, 10**6),
            count,
            st.integers(1, 512),
            st.none() | st.floats(1e-4, 0.1),
            st.booleans(),
            st.booleans(),
        ),
        SweepSpec: st.builds(
            SweepSpec,
            name,
            st.lists(st.sampled_from([3, 5, 7]), min_size=1, max_size=3).map(tuple),
            st.lists(rate, min_size=1, max_size=3).map(tuple),
            st.lists(decoder, min_size=1, max_size=2).map(tuple),
            st.integers(1, 10**6),
            streaming=st.sampled_from([(False,), (True,), (False, True)]),
        ),
        LatencySummary: st.builds(
            LatencySummary, count, seconds, seconds, seconds, seconds, seconds
        ),
        LUTStats: st.builds(LUTStats, count, count, count),
        SessionCacheStats: st.builds(SessionCacheStats, count, count, count),
        SaturationPoint: st.builds(
            SaturationPoint, count, count, count, seconds, seconds, seconds, seconds, name
        ),
    }


_WIRE_CLASSES = _wire_classes()


def _scalar_leaves(wire, path=()):
    """Paths of every scalar value inside a wire form (dict values and list
    items; object keys are not values)."""
    if isinstance(wire, dict):
        items = wire.items()
    elif isinstance(wire, list):
        items = enumerate(wire)
    else:
        return [path] if wire is not None else []
    return [leaf for key, value in items for leaf in _scalar_leaves(value, (*path, key))]


def _lossy_values(value) -> list:
    """Values that a field of ``value``'s type must refuse, not coerce."""
    if isinstance(value, bool):
        return [int(value), "no", 1.0]
    if isinstance(value, int):
        return [value + 0.5, float(value), True, str(value)]
    if isinstance(value, float):
        return [str(value), False]
    return [0, 1.5, True]


@pytest.mark.parametrize("cls", list(_WIRE_CLASSES), ids=lambda cls: cls.__name__)
@given(data=st.data())
@_slow
def test_wire_form_round_trips_and_refuses_lossy_values(cls, data):
    """``from_dict(to_dict(x)) == x`` for every wire-form class, and a value
    of another type anywhere in the wire form is refused, never coerced."""
    value = data.draw(_WIRE_CLASSES[cls])
    wire = value.to_dict()
    assert cls.from_dict(wire) == value
    assert cls.from_dict(copy.deepcopy(wire)).to_dict() == wire
    leaves = _scalar_leaves(wire)
    if not leaves:
        return
    *parents, last = data.draw(st.sampled_from(leaves))
    lossy = copy.deepcopy(wire)
    target = functools.reduce(operator.getitem, parents, lossy)
    target[last] = data.draw(st.sampled_from(_lossy_values(target[last])))
    with pytest.raises((TypeError, ValueError)):
        cls.from_dict(lossy)


@pytest.mark.parametrize(
    "cls_name, wire",
    [
        ("ServiceConfig", {"workers": 2.5}),
        ("ServiceConfig", {"max_batch_size": True}),
        ("FaultPlan", {"seed": 1.9}),
        ("FaultPlan", {"poison_rate": "0.5"}),
        ("SweepSpec", {"name": "s", "distances": [5.7], "physical_error_rates": [0.01],
                       "decoders": ["union-find"], "shots": 10}),
        ("SweepSpec", {"name": "s", "distances": [5], "physical_error_rates": [0.01],
                       "decoders": ["union-find"], "shots": "10"}),
        ("TraceSpec", {"name": "t", "scenarios": [{"distance": 3}], "requests": 2.9}),
        ("Syndrome", {"defects": [1.7, "4"]}),
        ("Syndrome", {"defects": [1, 4], "logical_flip": "no"}),
    ],
)
def test_lossy_values_once_coerced_are_refused(cls_name, wire):
    cls = {cls.__name__: cls for cls in _WIRE_CLASSES}[cls_name]
    with pytest.raises((TypeError, ValueError)):
        cls.from_dict(wire)


def test_sweep_spec_file_form_keeps_accepting_a_bare_streaming_bool():
    from repro.sweeps import SweepSpec

    wire = {"name": "s", "distances": [3], "physical_error_rates": [0.01],
            "decoders": ["union-find"], "shots": 10, "streaming": True}
    assert SweepSpec.from_dict(wire).streaming == (True,)


@pytest.mark.parametrize(
    "cls_name, wire, error",
    [
        ("MatchingResult", {"pairs": [[1, 2, 3]]}, ValueError),
        ("MatchingResult", {"boundary_vertices": {"01": 2}}, TypeError),
        ("MatchingResult", {"boundary_vertices": {"1": 2.5}}, TypeError),
        ("DecodeOutcome", {"counters": {1: 2}}, TypeError),
        ("DecodeOutcome", {"counters": {"grow": 2.0}}, TypeError),
        ("DecodeOutcome", {"counters": [["grow", 2]]}, TypeError),
        ("DecodeOutcome", {"correction": "12"}, TypeError),
        ("DecodeOutcome", {"result": [[1, 2]]}, TypeError),
        ("DecodeOutcome", [], TypeError),
    ],
)
def test_malformed_wire_shapes_are_refused(cls_name, wire, error):
    """Containers of the wrong shape are refused like lossy scalars."""
    cls = {cls.__name__: cls for cls in _WIRE_CLASSES}[cls_name]
    with pytest.raises(error):
        cls.from_dict(wire)
