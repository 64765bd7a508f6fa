"""Tests of the LUT pre-decode subsystem (`repro.lut`).

Covers the layers the subsystem spans:

* :func:`repro.lut.pack_defects` and the clone helpers (mutation safety of
  stored templates);
* :class:`repro.lut.LookupTable` — zero-defect fast path, deterministic
  budget truncation, candidate enumeration;
* :class:`repro.lut.LUTDecoder` — hit/miss accounting, registry integration
  (``lut+<fallback>`` family, capabilities, pickling through the
  process-pool engine);
* :class:`repro.lut.OutcomeCache` — LRU eviction under a byte budget,
  clone-on-get/put, thread-safe counters;
* the service mount — cache-hit short-circuit in ``DecodeService.submit``,
  ``ServiceLoadEngine`` pass replay, ``BENCH_service.json`` v2 fields;
* the sweep surface — :class:`repro.sweeps.LUTStats`, per-point ``lut``
  blocks in ``BENCH_sweep.json`` v3, and store byte-stability (points
  without LUT stats serialize exactly as before the subsystem existed).
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro.api import LUTConfig, available_decoders, decoder_spec, get_decoder
from repro.api.outcome import DecodeOutcome
from repro.evaluation import (
    DECODERS_WITH_TIMING_MODELS,
    DEFAULT_LOAD_CONFIG,
    MonteCarloEngine,
    ServiceLoadEngine,
)
from repro.graphs import (
    Syndrome,
    SyndromeSampler,
    code_capacity_noise,
    surface_code_decoding_graph,
)
from repro.lut import (
    ENTRY_OVERHEAD_BYTES,
    LookupTable,
    LUTDecoder,
    OutcomeCache,
    clone_matching,
    clone_outcome,
    outcome_cache_key,
    outcome_cost_bytes,
    pack_defects,
)
from repro.service import (
    CodeSpec,
    DecodeRequest,
    DecodeService,
    Scenario,
    ServiceBenchSchemaError,
    ServiceConfig,
    SessionKey,
    TraceSpec,
    cache_comparison_entry,
    service_bench_document,
    validate_service_bench,
)
from repro.sweeps import (
    BenchSchemaError,
    LUTStats,
    PointResult,
    ResultStore,
    SweepSpec,
    bench_document,
    run_sweep,
    validate_bench,
    validate_spec_axes,
)

D3_GRAPH = surface_code_decoding_graph(3, code_capacity_noise(0.05))
LUT_BASES = ("micro-blossom", "micro-blossom-batch", "parity-blossom", "reference", "union-find")


def _sample_syndromes(graph, count, seed=11):
    sampler = SyndromeSampler(graph, seed=seed)
    return sampler.sample_batch(count)


# ---------------------------------------------------------------------------
# packing and clones
# ---------------------------------------------------------------------------
def test_pack_defects_is_order_independent():
    assert pack_defects(()) == 0
    assert pack_defects((2, 5)) == pack_defects((5, 2)) == (1 << 2) | (1 << 5)


def test_clone_outcome_is_independent_of_the_original():
    decoder = get_decoder("union-find", D3_GRAPH)
    syndrome = next(s for s in _sample_syndromes(D3_GRAPH, 40) if s.defects)
    detailed = decoder.decode_detailed(syndrome)
    outcome = DecodeOutcome(
        result=decoder.decode(syndrome),
        correction=set(detailed.correction),
        defect_count=detailed.defect_count,
        counters=Counter(detailed.counters),
    )
    cloned = clone_outcome(outcome)
    assert cloned is not outcome
    assert cloned.correction == outcome.correction
    assert cloned.result.weight == outcome.result.weight
    cloned.correction.add(999_999)
    cloned.counters["mutated"] += 1
    cloned.result.pairs.append((0, 0))
    assert 999_999 not in outcome.correction
    assert "mutated" not in outcome.counters
    assert (0, 0) not in outcome.result.pairs


def test_clone_matching_is_independent_of_the_original():
    decoder = get_decoder("union-find", D3_GRAPH)
    syndrome = next(s for s in _sample_syndromes(D3_GRAPH, 40) if s.defects)
    result = decoder.decode(syndrome)
    cloned = clone_matching(result)
    cloned.pairs.append((7, 7))
    cloned.boundary_vertices[123] = 456
    assert (7, 7) not in result.pairs
    assert 123 not in result.boundary_vertices


# ---------------------------------------------------------------------------
# LookupTable
# ---------------------------------------------------------------------------
def test_table_precomputes_zero_single_and_paired_defects():
    table = LookupTable(D3_GRAPH, get_decoder("union-find", D3_GRAPH))
    real = [v for v in range(D3_GRAPH.num_vertices) if not D3_GRAPH.is_virtual(v)]
    assert table.lookup(()) is not None
    for v in real:
        assert table.lookup((v,)) is not None, v
    assert table.entries > 1 + len(real)  # at least some radius-2 pairs
    assert not table.truncated
    assert table.bytes_resident <= table.memory_budget_bytes
    assert table.candidates == table.entries


def test_table_lookup_rejects_oversized_defect_sets():
    table = LookupTable(D3_GRAPH, get_decoder("union-find", D3_GRAPH), max_defects=1)
    real = [v for v in range(D3_GRAPH.num_vertices) if not D3_GRAPH.is_virtual(v)]
    assert table.lookup((real[0], real[1])) is None
    assert table.lookup((real[0],)) is not None


def test_table_truncates_deterministically_at_the_budget():
    fallback = get_decoder("union-find", D3_GRAPH)
    tiny_a = LookupTable(D3_GRAPH, fallback, memory_budget_bytes=2_000)
    tiny_b = LookupTable(D3_GRAPH, fallback, memory_budget_bytes=2_000)
    full = LookupTable(D3_GRAPH, fallback)
    assert tiny_a.truncated and not full.truncated
    assert tiny_a.entries < full.entries
    # the zero-defect fast path survives any budget
    assert tiny_a.lookup(()) is not None
    # identical budgets keep the identical deterministic prefix
    assert tiny_a.entries == tiny_b.entries
    assert tiny_a.bytes_resident == tiny_b.bytes_resident
    assert set(tiny_a.stats()) == {
        "entries",
        "bytes_resident",
        "memory_budget_bytes",
        "truncated",
        "candidates",
    }


def test_table_rejects_invalid_parameters():
    fallback = get_decoder("union-find", D3_GRAPH)
    with pytest.raises(ValueError):
        LookupTable(D3_GRAPH, fallback, max_defects=-1)
    with pytest.raises(ValueError):
        LookupTable(D3_GRAPH, fallback, cluster_radius=0)
    with pytest.raises(ValueError):
        LookupTable(D3_GRAPH, fallback, memory_budget_bytes=0)


# ---------------------------------------------------------------------------
# LUTDecoder + registry
# ---------------------------------------------------------------------------
def test_registry_exposes_the_lut_family():
    names = available_decoders()
    for base in LUT_BASES:
        assert f"lut+{base}" in names, base
    spec = decoder_spec("lut+union-find")
    assert spec.capabilities.lut_predecode
    assert "lut+union-find" not in DECODERS_WITH_TIMING_MODELS  # no modelled latency
    assert spec.config_cls is LUTConfig
    base_caps = decoder_spec("micro-blossom").capabilities
    lut_caps = decoder_spec("lut+micro-blossom").capabilities
    assert lut_caps.native_streaming == base_caps.native_streaming
    assert lut_caps.exact == base_caps.exact


def test_lut_factories_survive_pickling():
    # MonteCarloEngine ships spec.factory to process-pool workers.
    for base in LUT_BASES:
        spec = decoder_spec(f"lut+{base}")
        assert pickle.loads(pickle.dumps(spec.factory)) is not None


def test_lut_config_drives_the_table():
    config = LUTConfig(max_defects=1, memory_budget_bytes=64 << 10)
    decoder = get_decoder("lut+union-find", D3_GRAPH, config)
    assert decoder.table.max_defects == 1
    assert decoder.table.memory_budget_bytes == 64 << 10
    with pytest.raises((TypeError, AttributeError)):  # configs stay frozen
        config.max_defects = 2


def test_lut_decoder_counts_hits_misses_and_resets():
    decoder = LUTDecoder(D3_GRAPH, "union-find", cluster_radius=1)
    real = [v for v in range(D3_GRAPH.num_vertices) if not D3_GRAPH.is_virtual(v)]
    hit = Syndrome(defects=(real[0],))
    outcome = decoder.decode_detailed(hit)
    assert outcome.counters["lut_hit"] == 1
    assert decoder.hits == 1 and decoder.misses == 0

    # a far-apart pair is outside radius 1 ⇒ miss, falls through unchanged
    far = Syndrome(defects=(real[0], real[-1]))
    if decoder.table.lookup(far.defects) is None:
        miss_outcome = decoder.decode_detailed(far)
        assert miss_outcome.counters["lut_miss"] == 1
        assert decoder.misses == 1

    zero = decoder.decode_detailed(Syndrome(defects=()))
    assert zero.counters["lut_zero_defect_hit"] == 1
    assert decoder.zero_defect_hits == 1
    assert 0.0 < decoder.hit_rate <= 1.0
    stats = decoder.stats()
    assert stats["hits"] == decoder.hits
    assert stats["table"]["entries"] == decoder.table.entries

    decoder.reset()
    assert (decoder.hits, decoder.misses, decoder.zero_defect_hits) == (0, 0, 0)
    assert decoder.hit_rate == 0.0


def test_lut_decoder_hits_do_not_share_mutable_state():
    decoder = LUTDecoder(D3_GRAPH, "union-find")
    real = [v for v in range(D3_GRAPH.num_vertices) if not D3_GRAPH.is_virtual(v)]
    syndrome = Syndrome(defects=(real[0],))
    first = decoder.decode_detailed(syndrome)
    first.correction.add(999_999)
    second = decoder.decode_detailed(syndrome)
    assert 999_999 not in second.correction


def test_lut_decoder_rejects_unknown_fallback():
    with pytest.raises(KeyError):
        LUTDecoder(D3_GRAPH, "no-such-decoder")


def test_lut_counters_flow_through_the_engine_across_workers():
    engine = MonteCarloEngine(D3_GRAPH, "lut+union-find", shard_size=32, workers=2)
    result = engine.run(128, seed=5)
    hits = result.counters.get("lut_hit", 0)
    misses = result.counters.get("lut_miss", 0)
    assert hits + misses == result.decoded_shots
    assert hits > 0


# ---------------------------------------------------------------------------
# OutcomeCache
# ---------------------------------------------------------------------------
def _outcome(weight_marker: int) -> DecodeOutcome:
    return DecodeOutcome(
        correction=set(range(weight_marker)),
        defect_count=weight_marker,
        counters=Counter({"marker": weight_marker}),
    )


def test_outcome_cache_round_trips_clones():
    cache = OutcomeCache(max_bytes=1 << 16)
    outcome = _outcome(3)
    cache.put("k", outcome)
    outcome.correction.add(77)  # post-put mutation must not reach the cache
    got = cache.get("k")
    assert got is not outcome
    assert got.correction == {0, 1, 2}
    got.correction.add(88)  # post-get mutation must not reach the cache
    assert cache.get("k").correction == {0, 1, 2}
    assert cache.get("missing") is None
    snap = cache.stats_snapshot()
    assert snap["enabled"] and snap["hits"] == 2 and snap["misses"] == 1
    assert snap["entries"] == len(cache) == 1
    assert snap["bytes_resident"] == cache.bytes_resident > 0


def test_outcome_cache_evicts_lru_under_byte_budget():
    cost = ENTRY_OVERHEAD_BYTES + outcome_cost_bytes(_outcome(0))
    cache = OutcomeCache(max_bytes=3 * cost)
    for key in ("a", "b", "c"):
        cache.put(key, _outcome(0))
    assert cache.get("a") is not None  # refresh: "b" becomes LRU
    cache.put("d", _outcome(0))
    assert cache.get("b") is None  # evicted
    assert cache.get("a") is not None and cache.get("d") is not None
    assert cache.stats.evictions == 1
    assert cache.bytes_resident <= cache.max_bytes


def test_outcome_cache_replaces_stale_entries_and_skips_oversized():
    cache = OutcomeCache(max_bytes=ENTRY_OVERHEAD_BYTES + outcome_cost_bytes(_outcome(1)))
    cache.put("k", _outcome(1))
    before = cache.bytes_resident
    cache.put("k", _outcome(1))  # same key: replace, not double-count
    assert cache.bytes_resident == before and len(cache) == 1
    cache.put("huge", _outcome(500))  # over the whole budget: silently skipped
    assert cache.get("huge") is None
    cache.clear()
    assert len(cache) == 0 and cache.bytes_resident == 0
    assert cache.stats.misses > 0  # stats survive clear()
    with pytest.raises(ValueError):
        OutcomeCache(max_bytes=0)


def test_outcome_cache_key_depends_on_session_and_defects_only():
    key = SessionKey(CodeSpec(distance=3, physical_error_rate=0.02), "union-find")
    a = outcome_cache_key(key.key(), Syndrome(defects=(1, 4)))
    b = outcome_cache_key(key.key(), Syndrome(defects=(1, 4), logical_flip=True))
    c = outcome_cache_key(key.key(), Syndrome(defects=(2,)))
    d = outcome_cache_key("other-session", Syndrome(defects=(1, 4)))
    assert a == b  # ground-truth metadata is invisible to the decoder
    assert a != c and a != d


# ---------------------------------------------------------------------------
# service mount
# ---------------------------------------------------------------------------
def test_service_serves_repeat_syndromes_from_the_outcome_cache():
    key = SessionKey(CodeSpec(distance=3, physical_error_rate=0.02), "union-find")
    graph = surface_code_decoding_graph(3, code_capacity_noise(0.02))
    unique = {s.defects: s for s in _sample_syndromes(graph, 40, seed=3)}
    syndromes = list(unique.values())[:6]
    assert len(syndromes) == 6
    with DecodeService(ServiceConfig(workers=1, outcome_cache_bytes=1 << 20)) as service:
        first = [service.submit(DecodeRequest(key, s)).result() for s in syndromes]
        second = [service.submit(DecodeRequest(key, s)).result() for s in syndromes]
    assert all(r.ok and not r.cached for r in first)
    assert all(r.ok and r.cached for r in second)
    for a, b in zip(first, second):
        assert a.outcome.correction_edges(graph) == b.outcome.correction_edges(graph)
        assert a.outcome.weight == b.outcome.weight
    stats = service.stats_snapshot()
    assert stats["cache_hits"] == len(syndromes)
    assert stats["outcome_cache"]["hits"] == len(syndromes)
    assert stats["outcome_cache"]["enabled"]


def test_service_outcome_cache_is_off_by_default():
    with DecodeService(ServiceConfig(workers=1)) as service:
        snapshot = service.stats_snapshot()
    assert snapshot["outcome_cache"] == {"enabled": False}
    assert snapshot["cache_hits"] == 0


def test_load_engine_repeats_replay_through_one_cache():
    trace = TraceSpec(
        "lut-cache", (Scenario(3, physical_error_rate=0.02),), requests=12, seed=9
    )
    config = DEFAULT_LOAD_CONFIG.replace(workers=1, outcome_cache_bytes=1 << 20)
    engine = ServiceLoadEngine(trace, config=config, repeats=2)
    result = engine.run(verify_identity=True)
    assert result.requests == 24
    assert result.cache_hits == 12  # the whole second pass
    assert result.outcome_cache["hits"] == 12
    assert result.identity_mismatches == 0
    with pytest.raises(ValueError):
        ServiceLoadEngine(trace, repeats=0)


def test_service_bench_document_carries_cache_fields():
    trace = TraceSpec(
        "lut-bench", (Scenario(3, physical_error_rate=0.02),), requests=8, seed=4
    )
    config = DEFAULT_LOAD_CONFIG.replace(workers=1)
    off = ServiceLoadEngine(trace, config=config, repeats=2).run()
    on = ServiceLoadEngine(
        trace, config=config.replace(outcome_cache_bytes=1 << 20), repeats=2
    ).run()
    comparison = cache_comparison_entry(off, on)
    document = service_bench_document(trace, on, cache_comparison=comparison)
    validate_service_bench(document)
    assert document["cache_hits"] == 8
    assert document["outcome_cache"]["enabled"]
    assert document["cache_comparison"]["off"]["cache_hits"] == 0
    assert document["cache_comparison"]["on"]["cache_hits"] == 8
    assert document["cache_comparison"]["throughput_ratio"] > 0

    # the off side must actually be cache-less — the validator enforces it
    broken = service_bench_document(
        trace, on, cache_comparison=cache_comparison_entry(on, on)
    )
    with pytest.raises(ServiceBenchSchemaError, match="cache_hits"):
        validate_service_bench(broken)


# ---------------------------------------------------------------------------
# sweep surface
# ---------------------------------------------------------------------------
def test_lut_stats_round_trip_and_hit_rate():
    stats = LUTStats(hits=6, misses=2, zero_defect_hits=8)
    assert stats.hit_rate == pytest.approx(14 / 16)
    assert LUTStats.from_dict(stats.to_dict()) == stats
    assert LUTStats(0, 0, 0).hit_rate == 0.0


def test_point_results_without_lut_serialize_as_before():
    spec = SweepSpec("stable", (3,), (0.02,), ("union-find",), shots=16, seed=1)
    run = run_sweep(spec)
    payload = run.results[0].result_dict()
    # byte-stability: the key set predates the LUT subsystem exactly
    assert set(payload) == {
        "shots",
        "errors",
        "decoded_shots",
        "defects",
        "stopped_early",
        "latency",
    }


def test_sweep_records_and_stores_lut_stats(tmp_path):
    spec = SweepSpec(
        "lut-sweep",
        (3,),
        (0.02,),
        ("union-find", "lut+union-find"),
        shots=64,
        seed=7,
    )
    validate_spec_axes(spec)
    store = ResultStore(tmp_path / "store.jsonl")
    run = run_sweep(spec, store)
    by_decoder = {r.point.decoder: r for r in run.results}
    base, lut = by_decoder["union-find"], by_decoder["lut+union-find"]
    assert base.lut is None
    assert lut.lut is not None
    assert lut.lut.hits + lut.lut.misses == lut.decoded_shots
    assert lut.lut.zero_defect_hits == lut.shots - lut.decoded_shots
    assert 0.0 < lut.lut.hit_rate <= 1.0

    # round-trip through the JSON-lines store preserves the stats
    reloaded = ResultStore(tmp_path / "store.jsonl")
    cached = reloaded.get(run.spec_hash, lut.point)
    assert cached.lut == lut.lut
    assert reloaded.fingerprint() == store.fingerprint()

    document = bench_document(run, commit="test", timestamp="t")
    validate_bench(document)
    entries = {p["decoder"]: p for p in document["points"]}
    assert entries["union-find"]["lut"] is None
    block = entries["lut+union-find"]["lut"]
    assert block["hits"] == lut.lut.hits
    assert block["hit_rate"] == pytest.approx(lut.lut.hit_rate)
    assert block["speedup_vs_fallback"] is not None and block["speedup_vs_fallback"] > 0


def test_bench_validator_rejects_lut_schema_violations():
    spec = SweepSpec("v", (3,), (0.02,), ("lut+union-find",), shots=16, seed=2)
    run = run_sweep(spec)
    document = bench_document(run, commit="test", timestamp="t")
    validate_bench(document)

    broken = {**document, "points": [dict(document["points"][0], lut=None)]}
    with pytest.raises(BenchSchemaError, match="must carry a lut block"):
        validate_bench(broken)

    bad_block = dict(document["points"][0]["lut"], hit_rate=1.5)
    broken = {**document, "points": [dict(document["points"][0], lut=bad_block)]}
    with pytest.raises(BenchSchemaError, match="hit_rate"):
        validate_bench(broken)

    misplaced = dict(document["points"][0], decoder="union-find")
    broken = {**document, "points": [misplaced]}
    with pytest.raises(BenchSchemaError, match="non-lut decoder"):
        validate_bench(broken)


def test_lut_sweeps_without_timing_models_are_rejected_for_latency():
    spec = SweepSpec(
        "lat", (3,), (0.02,), ("lut+union-find",), shots=16, collect_latency=True
    )
    with pytest.raises(ValueError, match="timing model"):
        validate_spec_axes(spec)
