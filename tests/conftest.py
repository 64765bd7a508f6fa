"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.evaluation import DEFAULT_LOAD_CONFIG, ServiceLoadEngine
from repro.graphs import (
    GraphBuilder,
    SyndromeSampler,
    circuit_level_noise,
    code_capacity_noise,
    phenomenological_noise,
    repetition_code_decoding_graph,
    surface_code_decoding_graph,
)
from repro.service import (
    HOSTILE_FAMILIES,
    HOSTILE_SMOKE_PLAN,
    Scenario,
    TraceSpec,
    cache_comparison_entry,
    hostile_mix_entry,
    saturation_entry,
    service_bench_document,
    wire_entry,
)


@pytest.fixture(scope="session")
def surface_d3_circuit():
    """Distance-3 rotated surface code under circuit-level noise."""
    return surface_code_decoding_graph(3, circuit_level_noise(0.01))


@pytest.fixture(scope="session")
def surface_d5_circuit():
    """Distance-5 rotated surface code under circuit-level noise."""
    return surface_code_decoding_graph(5, circuit_level_noise(0.005))


@pytest.fixture(scope="session")
def surface_d5_code_capacity():
    """Distance-5 rotated surface code under code-capacity noise (2D graph)."""
    return surface_code_decoding_graph(5, code_capacity_noise(0.05))


@pytest.fixture(scope="session")
def repetition_d5_phenomenological():
    """Distance-5 repetition code under phenomenological noise."""
    return repetition_code_decoding_graph(5, phenomenological_noise(0.02))


@pytest.fixture()
def sampler_d3(surface_d3_circuit):
    return SyndromeSampler(surface_d3_circuit, seed=1234)


@pytest.fixture()
def path_graph_builder():
    """A tiny hand-built path graph: virtual - a - b - c - virtual.

    Useful for unit tests of the dual phase where every weight and distance
    must be known exactly.  All edges use probability 0.1 against a reference
    of 0.1, so every quantised weight is the maximum (14) and the internal
    doubled weight is 28.
    """

    def build(weights=None):
        builder = GraphBuilder()
        left = builder.add_vertex(0, 0, -1, is_virtual=True)
        a = builder.add_vertex(0, 0, 0)
        b = builder.add_vertex(0, 0, 1)
        c = builder.add_vertex(0, 0, 2)
        right = builder.add_vertex(0, 0, 3, is_virtual=True)
        builder.add_edge(left, a, 0.1, 0.1, observable=True, kind="boundary")
        builder.add_edge(a, b, 0.1, 0.1, kind="spatial")
        builder.add_edge(b, c, 0.1, 0.1, kind="spatial")
        builder.add_edge(c, right, 0.1, 0.1, kind="boundary")
        return builder.build()

    return build


@pytest.fixture(scope="session")
def filled_service_document():
    """A ``BENCH_service.json`` document with every nullable block filled.

    ``saturation`` comes from a real two-rung ladder; ``scaling`` and
    ``wire`` are literal blocks shaped like ``scaling_bench`` /
    ``wire_comparison`` output, which need a network server.  Tests must
    copy it before mutating it.
    """
    spec = TraceSpec(
        "bench",
        (Scenario(3, physical_error_rate=0.02, decoder="union-find"),),
        requests=16,
        seed=4,
    )
    config = DEFAULT_LOAD_CONFIG.replace(workers=2)
    result = ServiceLoadEngine(spec, config=config).run(verify_identity=True)
    off = ServiceLoadEngine(spec, config=config, repeats=2).run()
    on = ServiceLoadEngine(
        spec, config=config.replace(outcome_cache_bytes=1 << 20), repeats=2
    ).run()
    saturation = ServiceLoadEngine(spec, config=config).saturate(client_ladder=(1, 2))
    digest = result.healthy_digest
    scaling = {
        "cpu_count": 2,
        "process_counts": [1, 2],
        "series": [
            {
                "processes": processes,
                "completed": result.completed,
                "throughput_rps": 900.0 * processes,
                "latency_p99_us": 400.0,
                "healthy_digest": digest,
                "efficiency": 1.0,
            }
            for processes in (1, 2)
        ],
        "digest_match": True,
    }
    stats = {
        "codec": 2,
        "frames_sent": 3,
        "bytes_sent": 900,
        "frames_received": 16,
        "bytes_received": 1200,
        "batch_histogram": {"8": 2},
    }
    comparison = {
        "processes": 1,
        "requests": result.requests,
        "v2": {**stats, "throughput_rps": 1800.0, "healthy_digest": digest},
        "v1": {**stats, "codec": 1, "throughput_rps": 900.0, "healthy_digest": digest},
        "speedup": 2.0,
        "digest_match": True,
    }
    return service_bench_document(
        spec,
        on,
        commit="abc",
        timestamp="t",
        cache_comparison=cache_comparison_entry(off, on),
        fault_plan=HOSTILE_SMOKE_PLAN,
        hostile_mix=[hostile_mix_entry(HOSTILE_FAMILIES[0], spec, HOSTILE_SMOKE_PLAN, result)],
        saturation=saturation_entry(saturation, scaling),
        wire=wire_entry(stats, comparison),
    )

