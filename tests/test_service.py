"""Tests of the decode-service subsystem (`repro.service`).

Covers the layers the service spans:

* session keys and the shared config/content hashing
  (:mod:`repro.api.hashing`);
* the pure :class:`repro.service.MicroBatcher` (size flush, deadline
  flush, drain — all with a fake clock, no sleeps);
* the LRU :class:`repro.service.SessionCache` (reuse, eviction, counters);
* :class:`repro.service.DecodeService` end to end — bit-identity of served
  outcomes against direct decodes, deadline-driven flushes, backpressure and
  load-shed at a full admission queue, coalesced groups (``decode_group``),
  stream multiplexing;
* :class:`repro.evaluation.ServiceLoadEngine` — open/closed-loop replay,
  worker-count independence of the outcome digest, and the schema-validated
  ``BENCH_service.json`` document.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
from collections import Counter

import pytest

from repro.api import (
    MicroBlossomConfig,
    content_hash,
    get_decoder,
    stable_seed,
)
from repro.api.bench_schema import failed_gates
from repro.evaluation import DEFAULT_LOAD_CONFIG, ServiceLoadEngine
from repro.graphs import Syndrome, SyndromeSampler
from repro.lut import outcome_cache_key
from repro.service import (
    SERVICE_BENCH_GATES,
    SMOKE_TRACE,
    STATUS_ERROR,
    STATUS_SHED,
    WIRE_SPEEDUP_FLOOR,
    CodeSpec,
    DecodeRequest,
    DecodeService,
    MicroBatcher,
    Scenario,
    ServiceBenchSchemaError,
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadedError,
    SessionCache,
    SessionKey,
    TraceSpec,
    generate_trace,
    make_trace,
    service_bench_document,
    validate_service_bench,
    write_service_bench,
)
from repro.stream import get_streaming_decoder
from repro.sweeps import SweepSpec

D3_CODE = CodeSpec(distance=3, physical_error_rate=0.02)
D3_KEY = SessionKey(D3_CODE, "micro-blossom")
UF_KEY = SessionKey(D3_CODE, "union-find")


def sample_syndromes(code: CodeSpec, count: int, seed: int = 7):
    graph = code.build_graph()
    return graph, SyndromeSampler(graph, seed=seed).sample_batch(count)


# ---------------------------------------------------------------------------
# hashing / session keys
# ---------------------------------------------------------------------------
class TestHashing:
    def test_content_hash_canonical(self):
        assert content_hash({"a": 1, "b": (2, 3)}) == content_hash({"b": [2, 3], "a": 1})
        assert content_hash({"a": 1}) != content_hash({"a": 2})

    def test_stable_seed_matches_sweep_derivation(self):
        from repro.sweeps.spec import derive_point_seed

        assert derive_point_seed(42, "k") == stable_seed(42, "k")

    def test_spec_hash_built_on_shared_primitive(self):
        """The refactored spec hash must keep its pre-refactor value shape."""
        spec = SweepSpec("s", (3,), (0.01,), ("union-find",), shots=8)
        assert len(spec.spec_hash()) == 16
        int(spec.spec_hash(), 16)  # hex

    def test_config_hash_distinguishes_class_and_fields(self):
        base = MicroBlossomConfig()
        assert base.config_hash() == MicroBlossomConfig().config_hash()
        assert base.config_hash() != MicroBlossomConfig(scale=4).config_hash()
        assert (
            UF_KEY.config.config_hash() != D3_KEY.config.config_hash()
        ), "different config classes must hash differently"

    def test_session_key_normalises_default_config(self):
        explicit = SessionKey(D3_CODE, "micro-blossom", MicroBlossomConfig())
        assert explicit == D3_KEY
        assert explicit.key() == D3_KEY.key()
        assert "config=" in explicit.key()

    def test_memoised_session_key_is_invisible(self):
        """The key string is computed once per instance, yet every key,
        cache key, equality, hash and pickle matches a recomputation
        (golden values from before the memo)."""
        golden = (
            "d=5/noise=circuit_level/p=0.001/rounds=default"
            "/decoder=micro-blossom/config=1f6d334ecac76ef1"
        )
        fresh = SessionKey(CodeSpec(5, "circuit_level", 0.001), "micro-blossom")
        fresh_pickle = pickle.dumps(fresh)
        used = SessionKey(CodeSpec(5, "circuit_level", 0.001), "micro-blossom")
        assert used.key() == used.key() == golden
        for twin in (
            fresh,
            used,
            SessionKey.from_dict(used.to_dict()),
            dataclasses.replace(used),
            pickle.loads(pickle.dumps(used)),
            copy.deepcopy(used),
        ):
            assert twin == used and hash(twin) == hash(used)
            assert twin.to_dict() == fresh.to_dict()
            assert twin.key() == golden
        assert pickle.dumps(used) == fresh_pickle
        assert outcome_cache_key(used.key(), Syndrome(defects=(3, 17))) == "2e9c2a2e62448dba"
        erased = Syndrome(defects=(3, 17), erasures=(5,))
        assert outcome_cache_key(used.key(), erased) == "f196322b3207225d"
        # a replaced field gets its own key, not the memo of its source
        other = dataclasses.replace(used, code=CodeSpec(3, "circuit_level", 0.001))
        assert other.key().startswith("d=3/")

    def test_session_key_string_is_lazy_and_computed_once(self, monkeypatch):
        from repro.api.config import DecoderConfig

        calls = {"count": 0}
        original = DecoderConfig.config_hash

        def counting(self):
            calls["count"] += 1
            return original(self)

        monkeypatch.setattr(DecoderConfig, "config_hash", counting)
        key = SessionKey.from_dict(D3_KEY.to_dict())
        assert calls["count"] == 0
        key.key()
        key.key()
        assert calls["count"] == 1

    def test_session_key_rejects_wrong_config_class(self):
        with pytest.raises(TypeError):
            SessionKey(D3_CODE, "union-find", MicroBlossomConfig())

    def test_code_spec_validation(self):
        with pytest.raises(ValueError):
            CodeSpec(distance=4)
        with pytest.raises(ValueError):
            CodeSpec(distance=3, physical_error_rate=0.0)
        with pytest.raises(ValueError):
            CodeSpec(distance=3, rounds=0)


# ---------------------------------------------------------------------------
# micro-batcher (pure, fake clock)
# ---------------------------------------------------------------------------
class TestMicroBatcher:
    def test_size_flush(self):
        batcher = MicroBatcher(max_batch_size=3, max_wait_seconds=1.0)
        assert batcher.add("k", 1, now=0.0) is None
        assert batcher.add("k", 2, now=0.1) is None
        batch = batcher.add("k", 3, now=0.2)
        assert batch is not None and batch.items == [1, 2, 3]
        assert batcher.pending_requests == 0

    def test_deadline_set_by_first_request_never_extended(self):
        batcher = MicroBatcher(max_batch_size=100, max_wait_seconds=0.5)
        batcher.add("k", 1, now=10.0)
        batcher.add("k", 2, now=10.4)
        assert batcher.next_deadline() == pytest.approx(10.5)
        assert batcher.due(now=10.49) == []
        [batch] = batcher.due(now=10.5)
        assert batch.items == [1, 2]
        assert batcher.next_deadline() is None

    def test_keys_batch_independently(self):
        batcher = MicroBatcher(max_batch_size=2, max_wait_seconds=1.0)
        assert batcher.add("a", 1, now=0.0) is None
        assert batcher.add("b", 2, now=0.0) is None
        assert batcher.pending_batches == 2
        full = batcher.add("a", 3, now=0.1)
        assert full.key == "a" and full.items == [1, 3]
        assert batcher.pending_batches == 1

    def test_due_returns_in_deadline_order(self):
        batcher = MicroBatcher(max_batch_size=10, max_wait_seconds=0.2)
        batcher.add("late", 1, now=1.0)
        batcher.add("early", 2, now=0.5)
        flushed = batcher.due(now=5.0)
        assert [batch.key for batch in flushed] == ["early", "late"]

    def test_drain_empties_everything(self):
        batcher = MicroBatcher(max_batch_size=10, max_wait_seconds=5.0)
        batcher.add("a", 1, now=0.0)
        batcher.add("b", 2, now=0.0)
        assert sorted(b.key for b in batcher.drain()) == ["a", "b"]
        assert batcher.drain() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait_seconds=-1.0)


# ---------------------------------------------------------------------------
# session cache
# ---------------------------------------------------------------------------
class TestSessionCache:
    def test_reuse_counts_hits_and_misses(self):
        cache = SessionCache(max_sessions=4)
        first = cache.acquire(UF_KEY)
        second = cache.acquire(UF_KEY)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert len(cache) == 1

    def test_lru_eviction_order_and_counter(self):
        built: list[str] = []

        def factory(key):
            built.append(key.decoder)
            from repro.service.cache import build_session

            return build_session(key)

        cache = SessionCache(max_sessions=2, session_factory=factory)
        key_ref = SessionKey(D3_CODE, "reference")
        cache.acquire(D3_KEY)
        cache.acquire(UF_KEY)
        cache.acquire(D3_KEY)  # refresh: UF is now least-recently-used
        cache.acquire(key_ref)  # evicts UF
        assert cache.stats.evictions == 1
        assert UF_KEY not in cache and D3_KEY in cache and key_ref in cache
        cache.acquire(UF_KEY)  # rebuild after eviction
        assert built.count("union-find") == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionCache(max_sessions=0)


# ---------------------------------------------------------------------------
# the service end to end
# ---------------------------------------------------------------------------
class TestDecodeService:
    def test_outcomes_bit_identical_to_direct_decode(self):
        graph, syndromes = sample_syndromes(D3_CODE, 24)
        requests = [
            DecodeRequest(D3_KEY if i % 2 else UF_KEY, syndrome, request_id=i)
            for i, syndrome in enumerate(syndromes)
        ]
        config = ServiceConfig(workers=3, max_batch_size=5, max_wait_seconds=0.001)
        with DecodeService(config) as svc:
            responses = svc.decode_many(requests)
        direct = {
            "micro-blossom": get_decoder("micro-blossom", graph),
            "union-find": get_decoder("union-find", graph),
        }
        for request, response in zip(requests, responses):
            assert response.ok and response.request.request_id == request.request_id
            expected = direct[request.session.decoder].decode_detailed(request.syndrome)
            assert response.outcome.correction_edges(graph) == expected.correction_edges(graph)
            assert response.outcome.weight == expected.weight
            assert response.outcome.counters == expected.counters
            assert response.batch_size >= 1
            assert response.latency_seconds >= response.queue_delay_seconds >= 0.0

    def test_deadline_flush_serves_partial_batches(self):
        """3 requests with a size bound of 64 can only complete via deadline."""
        _, syndromes = sample_syndromes(D3_CODE, 3)
        config = ServiceConfig(workers=1, max_batch_size=64, max_wait_seconds=0.005)
        with DecodeService(config) as service:
            responses = service.decode_many(
                [DecodeRequest(UF_KEY, s) for s in syndromes], timeout=30
            )
        assert [r.batch_size for r in responses] == [3, 3, 3]
        assert service.stats.batches == 1
        assert service.stats.batch_sizes == Counter({3: 1})

    def test_size_flush_caps_batches(self):
        _, syndromes = sample_syndromes(D3_CODE, 8)
        config = ServiceConfig(workers=2, max_batch_size=2, max_wait_seconds=5.0)
        with DecodeService(config) as service:
            responses = service.decode_many(
                [DecodeRequest(UF_KEY, s) for s in syndromes], timeout=30
            )
        # A 5 s deadline can never fire in this test; only size flushes can.
        assert all(r.batch_size == 2 for r in responses)
        assert service.stats.batches == 4

    def test_shed_policy_answers_immediately_when_full(self):
        _, syndromes = sample_syndromes(D3_CODE, 3)
        service = DecodeService(ServiceConfig(workers=1, queue_capacity=2, overload_policy="shed"))
        futures = [service.submit(DecodeRequest(UF_KEY, s)) for s in syndromes]
        # Not started: the first two fill the queue, the third is shed now.
        shed = futures[2].result(timeout=1)
        assert shed.status == STATUS_SHED and not shed.ok and shed.outcome is None
        assert service.stats.shed == 1
        service.start()
        assert futures[0].result(timeout=30).ok
        assert futures[1].result(timeout=30).ok
        service.close()

    def test_block_policy_raises_on_timeout(self):
        _, syndromes = sample_syndromes(D3_CODE, 3)
        service = DecodeService(ServiceConfig(workers=1, queue_capacity=2, overload_policy="block"))
        service.submit(DecodeRequest(UF_KEY, syndromes[0]))
        service.submit(DecodeRequest(UF_KEY, syndromes[1]))
        with pytest.raises(ServiceOverloadedError):
            service.submit(DecodeRequest(UF_KEY, syndromes[2]), timeout=0.01)
        service.start()
        service.close()

    def test_submit_after_close_raises(self):
        _, syndromes = sample_syndromes(D3_CODE, 1)
        service = DecodeService(ServiceConfig(workers=1))
        service.start()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(DecodeRequest(UF_KEY, syndromes[0]))

    def test_close_without_start_fails_queued_futures(self):
        _, syndromes = sample_syndromes(D3_CODE, 1)
        service = DecodeService(ServiceConfig(workers=1))
        future = service.submit(DecodeRequest(UF_KEY, syndromes[0]))
        service.close()
        with pytest.raises(ServiceClosedError):
            future.result(timeout=1)

    def test_close_drains_admitted_work(self):
        _, syndromes = sample_syndromes(D3_CODE, 6)
        service = DecodeService(ServiceConfig(workers=2, max_batch_size=3, max_wait_seconds=10.0))
        service.start()
        futures = [service.submit(DecodeRequest(UF_KEY, s)) for s in syndromes]
        service.close()  # deadline far away: close must flush the pending batch
        assert all(f.result(timeout=1).ok for f in futures)

    def test_sessions_reused_across_batches(self):
        _, syndromes = sample_syndromes(D3_CODE, 9)
        config = ServiceConfig(workers=1, max_batch_size=3, max_wait_seconds=0.001)
        with DecodeService(config) as service:
            service.decode_many([DecodeRequest(UF_KEY, s) for s in syndromes])
        stats = service.sessions.stats
        assert stats.misses == 1
        assert stats.hits >= 2  # batches 2 and 3 reuse the cached session

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DecodeService(ServiceConfig(workers=0))
        with pytest.raises(ValueError):
            DecodeService(ServiceConfig(queue_capacity=0))
        with pytest.raises(ValueError):
            DecodeService(ServiceConfig(overload_policy="drop"))

    def test_decode_is_submit_plus_wait(self):
        graph, syndromes = sample_syndromes(D3_CODE, 1)
        with DecodeService(ServiceConfig(workers=1, max_wait_seconds=0.001)) as service:
            response = service.decode(DecodeRequest(UF_KEY, syndromes[0]), timeout=30)
        expected = get_decoder("union-find", graph).decode_detailed(syndromes[0])
        assert response.outcome.correction_edges(graph) == expected.correction_edges(
            graph
        )

    def test_lifecycle_is_idempotent(self):
        service = DecodeService(ServiceConfig(workers=1))
        assert not service.started and not service.closed
        service.start()
        service.start()  # no-op
        assert service.started
        service.close()
        service.close()  # no-op
        assert service.closed
        with pytest.raises(ServiceClosedError):
            service.start()

    def test_failing_session_build_fails_the_batch_as_error_responses(self):
        """A session build that keeps crashing resolves the whole batch with
        STATUS_ERROR responses — never future exceptions, never a hang."""

        def broken_factory(key):
            raise RuntimeError("no session for you")

        _, syndromes = sample_syndromes(D3_CODE, 2)
        with DecodeService(
            ServiceConfig(workers=1, max_wait_seconds=0.001), session_factory=broken_factory
        ) as service:
            futures = [service.submit(DecodeRequest(UF_KEY, s)) for s in syndromes]
            for future in futures:
                response = future.result(timeout=30)
                assert response.status == STATUS_ERROR
                assert not response.ok
                assert "no session for you" in response.error
        assert service.stats.errors == 2
        assert service.stats.completed == 0
        assert service.stats.submitted == 2

    def test_session_build_retry_recovers_and_counts(self):
        """A build that crashes once succeeds within the retry budget; the
        requests decode normally and the retry is counted."""
        from repro.service.cache import build_session

        attempts = {"n": 0}

        def flaky_factory(key):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("transient build crash")
            return build_session(key)

        _, syndromes = sample_syndromes(D3_CODE, 3)
        with DecodeService(
            ServiceConfig(workers=1, max_wait_seconds=0.001, session_build_retries=2),
            session_factory=flaky_factory,
        ) as service:
            responses = service.decode_many([DecodeRequest(UF_KEY, s) for s in syndromes])
        assert all(r.ok for r in responses)
        assert service.stats.retries == 1
        assert service.stats.errors == 0

    def test_stats_snapshot_shape(self):
        _, syndromes = sample_syndromes(D3_CODE, 4)
        with DecodeService(ServiceConfig(workers=2, max_wait_seconds=0.001)) as service:
            service.decode_many([DecodeRequest(UF_KEY, s) for s in syndromes])
        snapshot = service.stats_snapshot()
        assert snapshot["submitted"] == snapshot["completed"] == 4
        assert snapshot["shed"] == 0
        assert snapshot["errors"] == 0 and snapshot["retries"] == 0
        assert sum(size * count for size, count in snapshot["batch_sizes"].items()) == 4
        assert snapshot["sessions"]["misses"] == 1
        assert snapshot["sessions"]["live"] == 1
        assert snapshot["faults"] is None

    def test_session_stats_read_through_locked_snapshot(self):
        """Regression: DecodeService.stats_snapshot must read session counters
        via SessionCache.stats_snapshot() (one locked read), not attribute by
        attribute — a torn read could see hits+misses out of step."""
        cache = SessionCache(max_sessions=2)
        cache.acquire(UF_KEY)
        cache.acquire(UF_KEY)
        snapshot = cache.stats_snapshot()
        assert snapshot == {"hits": 1, "misses": 1, "evictions": 0, "live": 1}
        # mutating the snapshot must not touch the cache's own counters
        snapshot["hits"] = 99
        assert cache.stats.hits == 1

    def test_shed_requests_count_as_submitted(self):
        """Regression: a shed request is still offered load — `submitted`
        must include it or `submitted == completed + shed + errors` breaks."""
        service = DecodeService(ServiceConfig(workers=1, queue_capacity=1, overload_policy="shed"))
        _, syndromes = sample_syndromes(D3_CODE, 3)
        # White-box: no dispatcher running, so the full-queue condition is
        # deterministic — the first request is admitted, the rest shed.
        futures = [service.submit(DecodeRequest(UF_KEY, s)) for s in syndromes]
        assert not futures[0].done()
        assert [f.result(timeout=1).status for f in futures[1:]] == [STATUS_SHED] * 2
        assert service.stats.submitted == 3
        assert service.stats.shed == 2
        service.close()  # never started: fails the one admitted future

    def test_cache_hit_records_zero_queue_delay_sample(self):
        """Regression: outcome-cache hits complete without queueing but must
        still contribute a 0.0 queue-delay sample so histogram counts stay in
        lock-step with `completed`."""
        _, syndromes = sample_syndromes(D3_CODE, 2)
        request = DecodeRequest(UF_KEY, syndromes[0])
        with DecodeService(
            ServiceConfig(workers=1, max_wait_seconds=0.001, outcome_cache_bytes=1 << 20)
        ) as service:
            service.decode(request)
            cached = service.decode(request)
        assert cached.cached
        assert service.stats.cache_hits == 1
        assert service.stats.queue_delay.count == service.stats.completed == 2
        assert service.stats.latency.count == 2

    @pytest.mark.parametrize("policy", ["block", "shed"])
    @pytest.mark.parametrize("cache_bytes", [None, 1 << 20])
    def test_drained_stats_invariant(self, policy, cache_bytes):
        """After close(): submitted == completed + shed + errors, and
        batched + cache_hits == completed + errors, under both overload
        policies, with and without the outcome cache."""
        _, syndromes = sample_syndromes(D3_CODE, 6)
        requests = [DecodeRequest(UF_KEY, s) for s in syndromes]
        requests.append(DecodeRequest(UF_KEY, syndromes[0]))  # repeat: cacheable
        config = ServiceConfig(
            workers=2,
            max_wait_seconds=0.0005,
            queue_capacity=4,
            overload_policy=policy,
            outcome_cache_bytes=cache_bytes,
        )
        with DecodeService(config) as service:
            responses = [f.result(timeout=30) for f in map(service.submit, requests)]
        stats = service.stats
        assert stats.submitted == len(requests)
        assert stats.submitted == stats.completed + stats.shed + stats.errors
        batched = sum(size * count for size, count in stats.batch_sizes.items())
        assert batched + stats.cache_hits == stats.completed + stats.errors
        assert stats.completed == sum(1 for r in responses if r.ok)


# ---------------------------------------------------------------------------
# streams through the service scheduler
# ---------------------------------------------------------------------------
# A deadline that cannot fire inside a test: a group never waits for it.
GROUP_CONFIG = ServiceConfig(workers=2, max_wait_seconds=30.0, max_batch_size=64)


class TestDecodeGroup:
    def test_single_session_group_is_one_batch(self):
        _, syndromes = sample_syndromes(D3_CODE, 3)
        with DecodeService(GROUP_CONFIG) as service:
            responses = service.decode_group([DecodeRequest(UF_KEY, s) for s in syndromes])
        assert [r.batch_size for r in responses] == [3, 3, 3]
        assert service.stats.batch_sizes == Counter({3: 1})

    def test_two_session_group_makes_two_batches(self):
        graph, syndromes = sample_syndromes(D3_CODE, 5)
        requests = [
            DecodeRequest(UF_KEY if i % 2 else D3_KEY, syndrome, request_id=i)
            for i, syndrome in enumerate(syndromes)
        ]
        with DecodeService(GROUP_CONFIG) as service:
            responses = service.decode_group(requests)
        assert service.stats.batch_sizes == Counter({3: 1, 2: 1})
        assert [r.batch_size for r in responses] == [3, 2, 3, 2, 3]
        direct = {
            "micro-blossom": get_decoder("micro-blossom", graph),
            "union-find": get_decoder("union-find", graph),
        }
        for request, response in zip(requests, responses):
            assert response.request is request
            expected = direct[request.session.decoder].decode_detailed(request.syndrome)
            assert response.outcome.weight == expected.weight
            assert response.outcome.counters == expected.counters

    def test_size_bound_cuts_a_session_into_batches(self):
        _, syndromes = sample_syndromes(D3_CODE, 20)
        with DecodeService(GROUP_CONFIG.replace(max_batch_size=8)) as service:
            responses = service.decode_group([DecodeRequest(UF_KEY, s) for s in syndromes])
        assert [r.batch_size for r in responses] == [8] * 16 + [4] * 4
        assert all(r.ok for r in responses)
        stats = service.stats
        assert stats.batch_sizes == Counter({8: 2, 4: 1}) and stats.batches == 3
        assert stats.submitted == stats.completed + stats.shed + stats.errors == 20
        # A batch waits behind the group's earlier batches, never the reverse.
        delays = [r.queue_delay_seconds for r in responses]
        assert delays[0] <= delays[8] <= delays[16]

    def test_cache_hit_member_skips_the_batch(self):
        _, syndromes = sample_syndromes(D3_CODE, 3)
        config = GROUP_CONFIG.replace(outcome_cache_bytes=1 << 20)
        with DecodeService(config) as service:
            [warm] = service.decode_group([DecodeRequest(UF_KEY, syndromes[0])])
            assert warm.batch_size == 1
            responses = service.decode_group(
                [DecodeRequest(UF_KEY, s) for s in (syndromes[1], syndromes[2], syndromes[0])]
            )
        assert [r.cached for r in responses] == [False, False, True]
        assert [r.batch_size for r in responses[:2]] == [2, 2]
        assert responses[2].outcome.correction == warm.outcome.correction
        stats = service.stats
        assert stats.cache_hits == 1
        assert stats.batch_sizes == Counter({1: 1, 2: 1})
        assert stats.submitted == stats.completed == 4

    def test_concurrent_groups_all_complete(self):
        """Groups decoded from more threads than cores, with fast thread
        switching, all complete and the ledger balances."""
        import sys
        import threading

        _, syndromes = sample_syndromes(D3_CODE, 6)
        requests = [DecodeRequest(UF_KEY if i % 3 else D3_KEY, s) for i, s in enumerate(syndromes)]
        responses: list = []

        def decoder(service):
            for _ in range(10):
                responses.extend(service.decode_group(requests))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DecodeService(GROUP_CONFIG) as service:
                threads = [threading.Thread(target=decoder, args=(service,)) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(responses) == 8 * 10 * len(requests)
        assert all(response.ok for response in responses)
        stats = service.stats
        assert stats.submitted == stats.completed == len(responses)
        assert sum(size * count for size, count in stats.batch_sizes.items()) == len(responses)

    def test_decode_group_after_close_raises(self):
        _, syndromes = sample_syndromes(D3_CODE, 1)
        service = DecodeService(ServiceConfig(workers=1))
        service.start()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.decode_group([DecodeRequest(UF_KEY, syndromes[0])])


class TestServiceStream:
    @pytest.mark.parametrize("decoder", ["micro-blossom", "union-find"])
    def test_stream_outcome_identical_to_direct_streaming(self, decoder):
        key = SessionKey(D3_CODE, decoder)
        graph = key.code.build_graph()
        sampler = SyndromeSampler(graph, seed=13)
        shots = [sampler.sample_rounds() for _ in range(5)]
        with DecodeService(ServiceConfig(workers=2)) as service:
            stream = service.open_stream(key)
            served = [stream.decode_rounds(rounds) for _, rounds in shots]
        direct = get_streaming_decoder(decoder, graph)
        for (_, rounds), outcome in zip(shots, served):
            direct.begin(graph)
            for round_defects in rounds:
                direct.push_round(round_defects)
            expected = direct.finalize()
            assert outcome.correction_edges(graph) == expected.correction_edges(graph)
            assert outcome.weight == expected.weight

    def test_push_futures_resolve_to_round_costs(self):
        key = SessionKey(D3_CODE, "union-find")
        graph = key.code.build_graph()
        _, rounds = SyndromeSampler(graph, seed=3).sample_rounds()
        with DecodeService(ServiceConfig(workers=2)) as service:
            stream = service.open_stream(key)
            assert stream.begin().result(timeout=30) is None
            costs = [stream.push_round(r).result(timeout=30) for r in rounds]
            outcome = stream.finalize().result(timeout=30)
        assert all(isinstance(cost, Counter) for cost in costs)
        assert outcome.defect_count == sum(len(r) for r in rounds)
        assert service.stats.stream_ops == len(rounds) + 2

    def test_decode_rounds_surfaces_push_errors(self):
        """A failed push must raise, never yield a silently partial outcome."""
        key = SessionKey(D3_CODE, "union-find")
        graph = key.code.build_graph()
        # A real (non-virtual) vertex from round 1, pushed as round 0.
        wrong_layer = next(
            v.index for v in graph.vertices if not v.is_virtual and v.layer == 1
        )
        with DecodeService(ServiceConfig(workers=2)) as service:
            stream = service.open_stream(key)
            with pytest.raises(ValueError, match="belongs to round"):
                stream.decode_rounds([[wrong_layer], []], timeout=30)

    def test_open_stream_requires_started_service(self):
        service = DecodeService(ServiceConfig(workers=1))
        with pytest.raises(ServiceClosedError):
            service.open_stream(D3_KEY)

    def test_stream_ops_are_never_shed(self):
        """Dropping a round would corrupt the stream: overload must raise.

        White-box: the queue is filled directly (no dispatcher running) so
        the full-queue condition is deterministic.
        """
        from repro.service.service import ServiceStream

        service = DecodeService(ServiceConfig(workers=1, queue_capacity=1, overload_policy="shed"))
        stream = ServiceStream(service, UF_KEY)
        service._queue.put_nowait(object())  # fill the bounded queue
        with pytest.raises(ServiceOverloadedError):
            stream.begin()
        service._queue.get_nowait()  # remove the filler before close()
        service.close()


# ---------------------------------------------------------------------------
# traces and the load engine
# ---------------------------------------------------------------------------
class TestTraces:
    def test_generation_is_deterministic(self):
        spec = make_trace("t", [3], [0.02], ["union-find"], requests=10, seed=5)
        first = generate_trace(spec)
        second = generate_trace(spec)
        for a, b in zip(first.requests, second.requests):
            assert a.request.syndrome == b.request.syndrome
            assert a.scenario_index == b.scenario_index
            assert a.arrival_offset_seconds == b.arrival_offset_seconds

    def test_open_loop_rate_draws_increasing_offsets(self):
        spec = TraceSpec(
            "t",
            (Scenario(3, physical_error_rate=0.02),),
            requests=16,
            rate_rps=10_000.0,
        )
        offsets = [t.arrival_offset_seconds for t in generate_trace(spec).requests]
        assert offsets == sorted(offsets) and offsets[0] > 0.0

    def test_trace_hash_ignores_name_but_not_parameters(self):
        base = make_trace("a", [3], [0.02], ["union-find"], requests=8, seed=1)
        renamed = make_trace("b", [3], [0.02], ["union-find"], requests=8, seed=1)
        reseeded = make_trace("a", [3], [0.02], ["union-find"], requests=8, seed=2)
        assert base.trace_hash() == renamed.trace_hash()
        assert base.trace_hash() != reseeded.trace_hash()

    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(SMOKE_TRACE.to_dict()))
        assert TraceSpec.from_file(path) == SMOKE_TRACE

    def test_validation(self):
        scenario = Scenario(3, physical_error_rate=0.02)
        with pytest.raises(ValueError):
            TraceSpec("", (scenario,), requests=1)
        with pytest.raises(ValueError):
            TraceSpec("t", (), requests=1)
        with pytest.raises(ValueError):
            TraceSpec("t", (scenario,), requests=0)
        with pytest.raises(ValueError):
            TraceSpec("t", (scenario,), requests=1, arrival="batch")
        with pytest.raises(ValueError):
            TraceSpec("t", (scenario,), requests=1, rate_rps=0.0)
        with pytest.raises(ValueError):
            Scenario(3, weight=0.0)


class TestServiceLoadEngine:
    TRACE = TraceSpec(
        "load",
        (
            Scenario(distance=3, physical_error_rate=0.02, decoder="micro-blossom"),
            Scenario(distance=3, physical_error_rate=0.03, decoder="union-find"),
        ),
        requests=32,
        seed=9,
    )

    def test_outcome_digest_independent_of_workers(self):
        digests = set()
        for workers in (1, 3):
            config = DEFAULT_LOAD_CONFIG.replace(workers=workers, max_wait_seconds=0.0005)
            result = ServiceLoadEngine(self.TRACE, config=config).run()
            assert result.completed == 32 and result.shed == 0
            digests.add((result.outcome_digest, result.errors))
        assert len(digests) == 1, "worker count changed service outcomes"

    def test_verify_identity_passes(self):
        config = DEFAULT_LOAD_CONFIG.replace(workers=2)
        result = ServiceLoadEngine(self.TRACE, config=config).run(verify_identity=True)
        assert result.identity_checked == 32
        assert result.identity_mismatches == 0

    def test_closed_loop_completes_every_request(self):
        spec = TraceSpec(
            "closed",
            (Scenario(3, physical_error_rate=0.02, decoder="union-find"),),
            requests=12,
            seed=2,
            arrival="closed",
            clients=3,
        )
        result = ServiceLoadEngine(spec, config=DEFAULT_LOAD_CONFIG.replace(workers=2)).run()
        assert result.completed == 12
        assert result.latency.count == 12
        assert result.throughput_rps > 0

    def test_rejects_non_trace_input(self):
        with pytest.raises(TypeError):
            ServiceLoadEngine({"requests": 4})

    def test_sizing_travels_only_as_a_config(self):
        with pytest.raises(TypeError):
            ServiceLoadEngine(self.TRACE, workers=2)
        with pytest.raises(TypeError, match="ServiceConfig"):
            ServiceLoadEngine(self.TRACE, config={"workers": 2})


# ---------------------------------------------------------------------------
# BENCH_service.json
# ---------------------------------------------------------------------------
class TestServiceBench:
    @pytest.fixture(scope="class")
    def run(self):
        spec = TraceSpec(
            "bench",
            (Scenario(3, physical_error_rate=0.02, decoder="union-find"),),
            requests=16,
            seed=4,
        )
        config = DEFAULT_LOAD_CONFIG.replace(workers=2)
        result = ServiceLoadEngine(spec, config=config).run(verify_identity=True)
        return spec, result

    def test_document_validates_and_writes(self, run, tmp_path):
        spec, result = run
        document = service_bench_document(spec, result, commit="abc", timestamp="t")
        validate_service_bench(document)
        path = write_service_bench(document, tmp_path / "BENCH_service.json")
        assert validate_service_bench(json.loads(path.read_text())) is None

    def test_batch_histogram_accounts_for_every_completed_request(self, run):
        spec, result = run
        document = service_bench_document(spec, result, commit="abc", timestamp="t")
        assert (
            sum(int(k) * v for k, v in document["batch_size_histogram"].items())
            == document["completed"]
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("throughput_rps"),
            lambda d: d.__setitem__("schema_version", 99),
            lambda d: d.__setitem__("completed", d["requests"] + 1),
            lambda d: d["batch_size_histogram"].__setitem__("0", 1),
            lambda d: d["identity"].__setitem__("mismatches", 10**6),
            lambda d: d.__setitem__("outcome_digest", ""),
            lambda d: d.pop("fairness"),
            lambda d: d.__setitem__("error_responses", 1),
            lambda d: d["fairness"].__setitem__("min_completion_ratio", 2.0),
            lambda d: d.__setitem__("healthy_digest", ""),
            lambda d: d.__setitem__("hostile_mix", []),
            lambda d: d.__setitem__("shed_rate", -0.1),
        ],
    )
    def test_schema_violations_raise(self, run, mutate):
        spec, result = run
        document = service_bench_document(spec, result, commit="abc", timestamp="t")
        mutate(document)
        with pytest.raises(ServiceBenchSchemaError):
            validate_service_bench(document)

    def test_filled_document_validates_and_writes(self, filled_service_document, tmp_path):
        filled = filled_service_document
        assert filled["outcome_cache"]["enabled"]
        blocks = ("cache_comparison", "fault_plan", "hostile_mix", "saturation", "wire")
        assert all(filled[block] is not None for block in blocks)
        assert filled["saturation"]["scaling"] is not None
        assert validate_service_bench(filled) is None
        path = write_service_bench(filled, tmp_path / "BENCH_service.json")
        assert validate_service_bench(json.loads(path.read_text())) is None

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (
                lambda d: [d["saturation"][key].reverse() for key in ("client_ladder", "points")],
                "increasing",
            ),
            (lambda d: d["saturation"]["knee"].update(clients=3), "ladder rung"),
            (lambda d: d["saturation"]["points"].reverse(), "clients"),
            (lambda d: d["saturation"]["scaling"]["series"].reverse(), "processes"),
            (lambda d: d["saturation"]["scaling"]["series"].pop(), "process_counts"),
            (lambda d: d["wire"]["stats"].update(codec=3), "codec"),
            (lambda d: d["wire"]["comparison"]["v1"].update(codec=2), r"v1.*codec"),
            (lambda d: d["wire"]["stats"]["batch_histogram"].update({"0": 1}), "batch_histogram"),
            (lambda d: d["saturation"].update(digest_match=1), "digest_match"),
            (lambda d: d["wire"]["comparison"].update(digest_match=None), "digest_match"),
            (lambda d: d["cache_comparison"]["off"].update(cache_hits=1), "cache_hits"),
        ],
    )
    def test_filled_block_violations_raise(self, filled_service_document, mutate, match):
        document = copy.deepcopy(filled_service_document)
        mutate(document)
        with pytest.raises(ServiceBenchSchemaError, match=match):
            validate_service_bench(document)

    def test_smoke_trace_is_pinned(self):
        """CI's serve-bench --smoke workload must not drift silently."""
        assert SMOKE_TRACE.requests == 96
        assert SMOKE_TRACE.seed == 2026
        assert len(SMOKE_TRACE.scenarios) == 4
        assert SMOKE_TRACE.trace_hash() == "dc69d9b30cc305ea"


def _series(document, index):
    return document["saturation"]["scaling"]["series"][index]


# Each case breaks exactly one gate row of a passing, schema-valid document;
# the second item is a fragment of that row's message.
GATE_CASES = {
    "identity": (
        lambda d: d["identity"].update(checked=d["completed"], mismatches=1),
        "identity.mismatches",
    ),
    "poisoned": (lambda d: d.update(poisoned=3, poisoned_errored=2), "fault isolation"),
    "hostile": (lambda d: d["hostile_mix"][0].update(isolated=False), "hostile_mix"),
    "saturation": (lambda d: d["saturation"].update(digest_match=False), "saturation rungs"),
    "series-digest": (
        lambda d: _series(d, 1).update(healthy_digest="0" * 16),
        "differs from in-process",
    ),
    "series-identity": (
        lambda d: _series(d, 0).update(identity_mismatches=1),
        "scaling identity_mismatches",
    ),
    "series-stream": (
        lambda d: _series(d, 1).update(stream_mismatches=1),
        "scaling stream_mismatches",
    ),
    "series-errors": (
        lambda d: _series(d, 1).update(error_responses=1),
        "scaling error_responses",
    ),
    "codec": (lambda d: d["wire"]["stats"].update(codec=1), "wire.stats.codec"),
    "wire-digest": (
        lambda d: d["wire"]["comparison"].update(digest_match=False),
        "v2 and v1 wire replays",
    ),
    "speedup": (lambda d: d["wire"]["comparison"].update(speedup=1.49), "speedup below"),
}


class TestServiceBenchGates:
    def test_filled_document_passes_every_gate(self, filled_service_document):
        assert failed_gates(filled_service_document, SERVICE_BENCH_GATES) == []

    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_each_broken_row_fails_alone(self, filled_service_document, case):
        mutate, fragment = GATE_CASES[case]
        document = copy.deepcopy(filled_service_document)
        mutate(document)
        validate_service_bench(document)  # the gate fails, not the schema
        failures = failed_gates(document, SERVICE_BENCH_GATES)
        assert len(failures) == 1 and fragment in failures[0], failures

    def test_every_row_has_a_tripping_case(self, filled_service_document):
        tripped = set()
        for mutate, _ in GATE_CASES.values():
            document = copy.deepcopy(filled_service_document)
            mutate(document)
            tripped.update(failed_gates(document, SERVICE_BENCH_GATES))
        assert tripped == {message for message, _ in SERVICE_BENCH_GATES}

    def test_all_failing_rows_are_reported(self, filled_service_document):
        document = copy.deepcopy(filled_service_document)
        for mutate, _ in GATE_CASES.values():
            mutate(document)
        assert len(failed_gates(document, SERVICE_BENCH_GATES)) == len(SERVICE_BENCH_GATES)

    def test_speedup_at_the_floor_passes(self, filled_service_document):
        document = copy.deepcopy(filled_service_document)
        document["wire"]["comparison"]["speedup"] = WIRE_SPEEDUP_FLOOR
        assert failed_gates(document, SERVICE_BENCH_GATES) == []

    def test_null_blocks_pass(self, filled_service_document):
        document = copy.deepcopy(filled_service_document)
        document.update(fault_plan=None, hostile_mix=None, saturation=None, wire=None, poisoned=1)
        assert failed_gates(document, SERVICE_BENCH_GATES) == []
        document = copy.deepcopy(filled_service_document)
        document["saturation"]["scaling"] = None
        document["wire"].update(stats=None, comparison=None)
        assert failed_gates(document, SERVICE_BENCH_GATES) == []
