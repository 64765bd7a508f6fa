"""Tests of deterministic fault injection and hostile traffic families.

Covers `repro.service.faults` and the hostile half of `repro.service.trace`:

* :class:`FaultPlan` — validation, seed-stable selection predicates,
  dict/file round-trips, plan hashing;
* hostile trace expansion — flash-crowd bursts, Pareto inter-arrivals,
  Zipf session skew, slow-consumer streams, and the invariant that a fault
  plan poisons syndromes *without* perturbing the healthy ones;
* end-to-end isolation through :class:`repro.service.DecodeService` and
  :class:`repro.evaluation.ServiceLoadEngine` — poisoned requests resolve as
  STATUS_ERROR while the rest of their batch completes bit-identically, the
  healthy-outcome digest is independent of worker count and of the plan, and
  ``close()`` drains under active faults;
* the schema-v4 ``hostile_mix`` series of ``BENCH_service.json``.
"""

from __future__ import annotations

import pytest

from repro.evaluation import DEFAULT_LOAD_CONFIG, ServiceLoadEngine
from repro.service import (
    HOSTILE_FAMILIES,
    HOSTILE_SMOKE_PLAN,
    HOSTILE_SMOKE_TRACES,
    STATUS_ERROR,
    CodeSpec,
    DecodeRequest,
    DecodeService,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    Scenario,
    ServiceConfig,
    SessionKey,
    TraceSpec,
    generate_trace,
    hostile_mix_entry,
    hostile_trace,
    poisoned_syndrome,
    validate_service_bench,
    zipf_scenarios,
)
from repro.service.cache import build_session

D3_CODE = CodeSpec(distance=3, physical_error_rate=0.02)
UF_KEY = SessionKey(D3_CODE, "union-find")

#: A plan that poisons aggressively — small traces reliably realise faults.
HOT_PLAN = FaultPlan(name="hot", seed=11, poison_rate=0.3)


# ---------------------------------------------------------------------------
# FaultPlan semantics
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_default_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.is_active()
        assert not plan.poisons(0)
        assert not plan.crashes_build("abc", 0)
        assert not plan.straggles(0)

    def test_selections_are_seed_stable(self):
        plan = FaultPlan(seed=5, poison_rate=0.5, session_crash_rate=0.5)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert [plan.poisons(i) for i in range(64)] == [clone.poisons(i) for i in range(64)]
        assert plan.crashes_build("deadbeef", 0) == clone.crashes_build("deadbeef", 0)
        # a different seed picks different victims
        other = FaultPlan(seed=6, poison_rate=0.5)
        assert [plan.poisons(i) for i in range(64)] != [other.poisons(i) for i in range(64)]

    def test_poison_rate_selects_roughly_that_fraction(self):
        plan = FaultPlan(seed=1, poison_rate=0.25)
        hits = sum(plan.poisons(i) for i in range(2000))
        assert 0.2 < hits / 2000 < 0.3

    def test_crash_attempts_bound_consecutive_crashes(self):
        plan = FaultPlan(seed=1, session_crash_rate=1.0, session_crash_attempts=2)
        assert plan.crashes_build("k", 0) and plan.crashes_build("k", 1)
        assert not plan.crashes_build("k", 2)

    def test_plan_hash_ignores_name_only(self):
        base = FaultPlan(name="a", seed=3, poison_rate=0.1)
        assert base.plan_hash() == FaultPlan(name="b", seed=3, poison_rate=0.1).plan_hash()
        assert base.plan_hash() != FaultPlan(name="a", seed=4, poison_rate=0.1).plan_hash()

    def test_file_round_trip(self, tmp_path):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(HOSTILE_SMOKE_PLAN.to_dict()))
        assert FaultPlan.from_file(path) == HOSTILE_SMOKE_PLAN

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"straggler_workers": -1},
            {"straggler_delay_seconds": -0.1},
            {"session_crash_rate": 1.5},
            {"session_crash_attempts": 0},
            {"poison_rate": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_injector_wraps_factory_with_attempt_counting(self):
        plan = FaultPlan(seed=1, session_crash_rate=1.0, session_crash_attempts=1)
        injector = FaultInjector(plan)
        factory = injector.wrap_factory(build_session)
        with pytest.raises(InjectedFault):
            factory(UF_KEY)
        assert factory(UF_KEY).name == "union-find"  # attempt 1 succeeds
        assert injector.injected_crashes == 1
        assert injector.stats_snapshot()["plan_hash"] == plan.plan_hash()


# ---------------------------------------------------------------------------
# hostile trace families
# ---------------------------------------------------------------------------
class TestHostileTraces:
    def test_flash_crowd_arrivals_come_in_bursts(self):
        spec = hostile_trace("flash-crowd", requests=24, seed=1)
        trace = generate_trace(spec)
        offsets = [r.arrival_offset_seconds for r in trace.requests]
        assert len(set(offsets)) == len(offsets) // spec.burst_size
        assert offsets == sorted(offsets)

    def test_pareto_interarrivals_are_heavier_tailed_than_exponential(self):
        spec = hostile_trace("pareto", requests=512, seed=1)
        exp = TraceSpec.from_dict({**spec.to_dict(), "interarrival": "exponential"})
        gaps = []
        for s in (spec, exp):
            offsets = [r.arrival_offset_seconds for r in generate_trace(s).requests]
            diffs = [b - a for a, b in zip(offsets, offsets[1:])]
            gaps.append(max(diffs) / (sum(diffs) / len(diffs)))
        assert gaps[0] > gaps[1]  # pareto max/mean ratio dominates

    def test_zipf_scenarios_defeat_the_session_lru(self):
        scenarios = zipf_scenarios(Scenario(3, physical_error_rate=0.02), 12)
        assert len({s.session_key() for s in scenarios}) == 12
        weights = [s.weight for s in scenarios]
        assert weights == sorted(weights, reverse=True)
        with pytest.raises(ValueError):
            zipf_scenarios(Scenario(3, physical_error_rate=0.9), 12, rate_step=0.05)

    def test_slow_consumer_traces_carry_streams(self):
        spec = hostile_trace("slow-consumer", requests=8, seed=1)
        trace = generate_trace(spec)
        assert len(trace.streams) == spec.slow_streams > 0
        assert all(stream.rounds for stream in trace.streams)
        # stream expansion is deterministic
        again = generate_trace(spec)
        assert [s.rounds for s in again.streams] == [s.rounds for s in trace.streams]

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            hostile_trace("friendly")

    def test_hostile_hashes_are_pinned(self):
        """The CI hostile-mix workload must not drift silently."""
        assert tuple(family for family, _ in HOSTILE_SMOKE_TRACES) == HOSTILE_FAMILIES
        assert [spec.trace_hash() for _, spec in HOSTILE_SMOKE_TRACES] == [
            "c99428318a911e20",
            "7d9f5a93fa56ac0c",
            "822a659e73629a50",
            "2d0f190fbe33f14d",
        ]
        assert HOSTILE_SMOKE_PLAN.plan_hash() == FaultPlan.from_dict(
            HOSTILE_SMOKE_PLAN.to_dict()
        ).plan_hash()

    def test_poisoning_never_perturbs_healthy_syndromes(self):
        """The fault plan replaces syndromes of its victims only — every other
        request must be byte-identical to the fault-free expansion."""
        spec = hostile_trace("pareto", requests=48, seed=2027)
        clean = generate_trace(spec)
        faulted = generate_trace(spec, fault_plan=HOT_PLAN)
        poisoned = 0
        for a, b in zip(clean.requests, faulted.requests):
            if b.poisoned:
                poisoned += 1
                assert b.request.syndrome != a.request.syndrome
                graph = faulted.graphs[b.scenario_index]
                assert max(b.request.syndrome.defects) >= len(graph.vertices)
            else:
                assert b.request.syndrome == a.request.syndrome
        assert poisoned > 0
        assert sum(HOT_PLAN.poisons(i) for i in range(spec.requests)) == poisoned


# ---------------------------------------------------------------------------
# end-to-end isolation through the service
# ---------------------------------------------------------------------------
class TestFaultIsolation:
    def test_poisoned_request_is_isolated_within_its_batch(self):
        """One malformed syndrome in a coalesced batch: that future gets
        STATUS_ERROR, its batchmates decode bit-identically to direct."""
        graph = D3_CODE.build_graph()
        from repro.graphs import SyndromeSampler

        syndromes = SyndromeSampler(graph, seed=3).sample_batch(4)
        bad = poisoned_syndrome(len(graph.vertices), 0)
        config = ServiceConfig(workers=1, max_batch_size=8, max_wait_seconds=0.05)
        with DecodeService(config) as service:
            futures = [service.submit(DecodeRequest(UF_KEY, s)) for s in syndromes]
            futures.insert(2, service.submit(DecodeRequest(UF_KEY, bad)))
            responses = [f.result(timeout=30) for f in futures]
        poisoned_response = responses.pop(2)
        assert poisoned_response.status == STATUS_ERROR
        assert poisoned_response.error
        direct = build_session(UF_KEY)
        for syndrome, response in zip(syndromes, responses):
            assert response.ok
            expected = direct.decode_detailed(syndrome)
            assert response.outcome.correction_edges(graph) == expected.correction_edges(graph)
            assert response.outcome.weight == expected.weight
        assert service.stats.errors == 1

    def test_straggler_delays_timing_but_not_outcomes(self):
        plan = FaultPlan(seed=1, straggler_workers=1, straggler_delay_seconds=0.005)
        spec = TraceSpec(
            "s", (Scenario(3, physical_error_rate=0.02, decoder="union-find"),), requests=8
        )
        config = DEFAULT_LOAD_CONFIG.replace(workers=2)
        baseline = ServiceLoadEngine(spec, config=config).run()
        delayed = ServiceLoadEngine(spec, config=config.replace(fault_plan=plan)).run()
        assert delayed.outcome_digest == baseline.outcome_digest
        assert delayed.error_responses == 0

    @pytest.mark.parametrize("family", HOSTILE_FAMILIES)
    def test_hostile_families_replay_with_full_isolation(self, family):
        """The acceptance gate, per family: healthy requests bit-identical and
        worker-count independent, poisoned requests STATUS_ERROR, clean drain."""
        spec = dict(HOSTILE_SMOKE_TRACES)[family]
        digests = set()
        for workers in (1, 3):
            config = DEFAULT_LOAD_CONFIG.replace(
                workers=workers,
                overload_policy="block",
                fault_plan=HOSTILE_SMOKE_PLAN,
                session_build_retries=2,
            )
            result = ServiceLoadEngine(
                spec, config=config, drain_timeout_seconds=60.0
            ).run(verify_identity=True)
            assert result.poisoned > 0
            assert result.poisoned_errored == result.poisoned
            assert result.error_responses == result.poisoned
            assert result.completed + result.shed + result.error_responses == result.requests
            assert result.identity_mismatches == 0
            assert result.stream_mismatches == 0
            assert result.min_completion_ratio == 1.0  # block policy: no loss
            digests.add(result.healthy_digest)
        assert len(digests) == 1, "worker count changed healthy outcomes"

    def test_healthy_digest_matches_fault_free_replay(self):
        """Injecting faults must not change any healthy outcome: the digest
        over non-poisoned requests equals the fault-free outcome digest
        restricted to the same set — here the poison-free pareto family."""
        spec = dict(HOSTILE_SMOKE_TRACES)["zipf"]
        config = DEFAULT_LOAD_CONFIG.replace(workers=2)
        faulty = config.replace(fault_plan=HOSTILE_SMOKE_PLAN, session_build_retries=2)
        clean = ServiceLoadEngine(spec, config=config).run()
        faulted = ServiceLoadEngine(spec, config=faulty).run()
        assert faulted.retries > 0  # the plan's crashes actually fired
        # every record present in both digests' inputs is identical, so if no
        # request were poisoned the digests would agree; with poisoning the
        # healthy digest is the invariant to compare across plans
        again = ServiceLoadEngine(spec, config=faulty.replace(workers=1)).run()
        assert faulted.healthy_digest == again.healthy_digest
        assert clean.outcome_digest != faulted.outcome_digest

    def test_exhausted_retry_budget_fails_only_affected_key(self):
        plan = FaultPlan(seed=1, session_crash_rate=1.0, session_crash_attempts=3)
        spec = TraceSpec(
            "crash",
            (Scenario(3, physical_error_rate=0.02, decoder="union-find"),),
            requests=6,
            seed=9,
        )
        config = DEFAULT_LOAD_CONFIG.replace(workers=1, fault_plan=plan, session_build_retries=1)
        result = ServiceLoadEngine(spec, config=config).run()
        # crash_attempts(3) > retries(1): the first batch fails, later batches
        # succeed once the attempt counter passes the crash window
        assert result.error_responses > 0
        assert result.retries > 0
        assert result.completed + result.error_responses == result.requests

    def test_close_timeout_raises_drain_error(self):
        """A drain that cannot finish inside close(timeout=...) must raise
        ServiceDrainError instead of hanging the caller (the CI hung-close
        gate). White-box: swap in a dispatcher thread that refuses to exit."""
        import threading
        import time

        from repro.service import ServiceDrainError

        service = DecodeService(ServiceConfig(workers=1))
        service.start()
        stuck = threading.Thread(target=time.sleep, args=(5,), daemon=True)
        stuck.start()
        real_dispatcher = service._dispatcher
        service._dispatcher = stuck
        with pytest.raises(ServiceDrainError, match="failed to drain"):
            service.close(timeout=0.05)
        service._dispatcher = real_dispatcher
        real_dispatcher.join(timeout=10)  # the real one drains on _STOP
        assert not real_dispatcher.is_alive()

    def test_hostile_mix_entry_validates_inside_a_service_document(self):
        from repro.service import service_bench_document

        family, spec = HOSTILE_SMOKE_TRACES[0]
        config = DEFAULT_LOAD_CONFIG.replace(
            workers=2, fault_plan=HOSTILE_SMOKE_PLAN, session_build_retries=2
        )
        result = ServiceLoadEngine(spec, config=config).run(verify_identity=True)
        entry = hostile_mix_entry(family, spec, HOSTILE_SMOKE_PLAN, result)
        assert entry["isolated"]
        document = service_bench_document(
            spec,
            result,
            commit="abc",
            timestamp="t",
            fault_plan=HOSTILE_SMOKE_PLAN,
            hostile_mix=[entry],
        )
        assert validate_service_bench(document) is None
        assert document["schema_version"] == 7
        assert document["fault_plan"]["name"] == "hostile-smoke"
