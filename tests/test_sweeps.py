"""Tests of the resumable sweep subsystem (`repro.sweeps`).

The headline contracts pinned here:

* an interrupted sweep, resumed, produces a ResultStore **bit-identical** to
  an uninterrupted run (same seed, any worker count);
* the store round-trips every `SweepPoint`/`PointResult` field exactly
  (hypothesis property test);
* zero-failure points surface rule-of-three upper bounds and never enter
  scaling fits;
* `BENCH_sweep.json` documents validate, and schema violations are caught.
"""

from __future__ import annotations

import json

import pytest

from repro.evaluation import (
    LatencyHistogram,
    MonteCarloEngine,
    estimate_logical_error_rate,
    modelled_trivial_latency_seconds,
    rule_of_three_upper_bound,
)
from repro.evaluation.experiments import build_graph, latency_sweep
from repro.sweeps import (
    SMOKE_SPEC,
    BenchSchemaError,
    LatencySummary,
    PointResult,
    ResultStore,
    StoreError,
    SweepPoint,
    SweepSpec,
    bench_document,
    derive_point_seed,
    fit_sweep_scaling,
    make_spec,
    report_rows,
    run_sweep,
    scaling_points,
    validate_bench,
    write_bench,
)


def small_spec(**overrides) -> SweepSpec:
    """A sweep small enough for unit tests but wide enough to be interesting."""
    params = dict(
        name="test-sweep",
        distances=(3,),
        physical_error_rates=(0.04, 0.05),
        decoders=("reference", "union-find"),
        shots=48,
        seed=11,
        shard_size=16,
    )
    params.update(overrides)
    return make_spec(
        params.pop("name"),
        params.pop("distances"),
        params.pop("physical_error_rates"),
        params.pop("decoders"),
        params.pop("shots"),
        **params,
    )


def fake_clock():
    """Deterministic clock so store files become byte-identical across runs."""
    state = {"now": 0.0}

    def tick() -> float:
        state["now"] += 1.0
        return state["now"]

    return tick


class TestSweepSpec:
    @pytest.mark.parametrize(
        "axes",
        [
            {"distances": (5.7,)},
            {"distances": (True,)},
            {"physical_error_rates": (True,)},
            {"physical_error_rates": ("0.01",)},
            {"decoders": (7,)},
            {"streaming": (0,)},
        ],
        ids=["float-distance", "bool-distance", "bool-rate", "str-rate", "int-decoder", "int-mode"],
    )
    def test_constructor_refuses_what_the_wire_form_refuses(self, axes):
        with pytest.raises(TypeError):
            small_spec(**axes)

    def test_constructor_keeps_exact_axes(self):
        import numpy as np

        spec = small_spec(distances=(np.int64(5),), physical_error_rates=(1 / 64,))
        assert spec.distances == (5,) and type(spec.distances[0]) is int
        assert small_spec(streaming=True).streaming == (True,)
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_expansion_order_and_size(self):
        spec = small_spec(distances=(3, 5), physical_error_rates=(0.01, 0.02))
        points = spec.expand()
        assert len(points) == 2 * 2 * 2
        assert points == spec.expand()
        # distance is the outermost axis, decoder the innermost
        assert [p.distance for p in points[:4]] == [3, 3, 3, 3]
        assert [p.decoder for p in points[:2]] == ["reference", "union-find"]

    def test_point_seeds_are_distinct_and_parameter_keyed(self):
        spec = small_spec(distances=(3, 5))
        seeds = {p.key: p.seed for p in spec.expand()}
        assert len(set(seeds.values())) == len(seeds)
        # extending an axis must not reseed existing points
        wider = small_spec(distances=(3, 5, 7))
        wider_seeds = {p.key: p.seed for p in wider.expand()}
        for key, seed in seeds.items():
            assert wider_seeds[key] == seed

    def test_seed_derivation_is_stable(self):
        assert derive_point_seed(0, "a") == derive_point_seed(0, "a")
        assert derive_point_seed(0, "a") != derive_point_seed(1, "a")
        assert derive_point_seed(0, "a") != derive_point_seed(0, "b")

    def test_spec_hash_ignores_name_but_not_parameters(self):
        base = small_spec()
        renamed = small_spec(name="other-name")
        assert base.spec_hash() == renamed.spec_hash()
        assert base.spec_hash() != small_spec(shots=49).spec_hash()
        assert base.spec_hash() != small_spec(seed=12).spec_hash()

    def test_dict_round_trip(self):
        spec = small_spec(target_standard_error=0.01, collect_latency=True)
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_from_file(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert SweepSpec.from_file(path) == spec

    @pytest.mark.parametrize(
        "overrides",
        [
            {"name": ""},
            {"distances": ()},
            {"distances": (4,)},
            {"distances": (1,)},
            {"physical_error_rates": (0.0,)},
            {"physical_error_rates": (1.5,)},
            {"decoders": ()},
            {"shots": 0},
            {"shard_size": 0},
            {"target_standard_error": 0.0},
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_spec(**overrides)

    def test_unknown_decoder_rejected_before_running(self, tmp_path):
        spec = small_spec(decoders=("no-such-decoder",))
        with pytest.raises(KeyError):
            run_sweep(spec, ResultStore(tmp_path / "s.jsonl"))
        assert not (tmp_path / "s.jsonl").exists()

    def test_latency_requires_a_timing_model(self):
        spec = small_spec(decoders=("reference",), collect_latency=True)
        with pytest.raises(ValueError, match="timing model"):
            run_sweep(spec)


class TestResultStore:
    def test_file_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "store.jsonl"
        run = run_sweep(spec, ResultStore(path), clock=fake_clock())
        reloaded = ResultStore(path)
        assert reloaded.specs[run.spec_hash] == spec
        for result in run.results:
            stored = reloaded.get(run.spec_hash, result.point)
            assert stored is not None
            assert stored.cached
            assert stored.point == result.point
            assert (stored.shots, stored.errors) == (result.shots, result.errors)
            assert stored.decoded_shots == result.decoded_shots
            assert stored.defects == result.defects
            assert stored.elapsed_seconds == result.elapsed_seconds

    def test_put_is_idempotent(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        spec = small_spec()
        run = run_sweep(spec, store)
        before = path.read_bytes()
        for result in run.results:
            store.put(run.spec_hash, result)
        assert path.read_bytes() == before

    def test_malformed_terminated_line_rejected(self, tmp_path):
        # a newline-terminated malformed record is genuine corruption
        path = tmp_path / "store.jsonl"
        path.write_text("not json\n")
        with pytest.raises(StoreError, match="malformed"):
            ResultStore(path)

    def test_torn_trailing_write_is_repaired(self, tmp_path):
        """A write cut short by SIGKILL/power loss must not brick the store:
        the partial record is truncated away and the sweep resumes."""
        spec = small_spec()
        path = tmp_path / "store.jsonl"
        run_sweep(spec, ResultStore(path), clock=fake_clock())
        intact = path.read_bytes()

        path.write_bytes(intact + b'{"type":"point","format":1,"key":"d=')
        recovered = ResultStore(path)
        assert len(recovered) == len(spec.expand())
        assert path.read_bytes() == intact  # partial record truncated away
        # and the store is still appendable / resumable
        rerun = run_sweep(spec, recovered, clock=fake_clock())
        assert rerun.cached == len(spec.expand())

    def test_torn_newline_keeps_complete_final_record(self, tmp_path):
        """Only the terminator was lost: the record is kept, and the next
        append restores the newline instead of corrupting the file."""
        spec = small_spec()
        path = tmp_path / "store.jsonl"
        run_sweep(spec, ResultStore(path), clock=fake_clock())
        intact = path.read_bytes()

        path.write_bytes(intact[:-1])  # strip the final newline only
        recovered = ResultStore(path)
        assert len(recovered) == len(spec.expand())
        rerun = run_sweep(
            small_spec(seed=99), recovered, clock=fake_clock()
        )  # appends new points
        assert rerun.completed == len(spec.expand())
        reloaded = ResultStore(path)  # every record still parses
        assert len(reloaded) == 2 * len(spec.expand())

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps({"type": "spec", "format": 99}) + "\n")
        with pytest.raises(StoreError, match="format"):
            ResultStore(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps({"type": "mystery", "format": 1}) + "\n")
        with pytest.raises(StoreError, match="type"):
            ResultStore(path)

    @pytest.mark.parametrize(
        "field, value",
        [("shots", 64.9), ("errors", "3"), ("defects", True), ("stopped_early", "no")],
    )
    def test_lossy_result_field_is_refused_not_truncated(self, tmp_path, field, value):
        """A stored result is read by the wireform rules of its fields: a
        value that would change on the way in is a ``StoreError``."""
        spec = small_spec()
        path = tmp_path / "store.jsonl"
        run = run_sweep(spec, ResultStore(path), clock=fake_clock())
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1])
        record["result"][field] = value
        path.write_text("\n".join([*lines[:-1], json.dumps(record)]) + "\n")
        store = ResultStore(path)
        point = next(r.point for r in run.results if r.point.key == record["key"])
        with pytest.raises(StoreError, match=field):
            store.get(run.spec_hash, point)
        with pytest.raises(StoreError, match=field):
            store.results()


class TestStoreRoundTripProperty:
    def test_store_round_trip_preserves_every_field(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        points = st.builds(
            SweepPoint,
            distance=st.sampled_from([3, 5, 7, 9, 11]),
            noise=st.sampled_from(
                [
                    "circuit_level",
                    "phenomenological",
                    "code_capacity",
                    "correlated_burst",
                    "erasure",
                    "time_varying",
                ]
            ),
            physical_error_rate=st.floats(
                min_value=1e-9, max_value=0.5, allow_nan=False
            ),
            decoder=st.sampled_from(
                ["reference", "union-find", "micro-blossom", "parity-blossom"]
            ),
            shots=st.integers(min_value=1, max_value=10**7),
            seed=st.integers(min_value=0, max_value=2**63 - 1),
            shard_size=st.integers(min_value=1, max_value=4096),
            target_standard_error=st.one_of(
                st.none(), st.floats(min_value=1e-9, max_value=1.0, allow_nan=False)
            ),
            collect_latency=st.booleans(),
        )
        summaries = st.one_of(
            st.none(),
            st.builds(
                LatencySummary,
                count=st.integers(min_value=0, max_value=10**7),
                mean_seconds=st.floats(min_value=0, max_value=1, allow_nan=False),
                p50_seconds=st.floats(min_value=0, max_value=1, allow_nan=False),
                p99_seconds=st.floats(min_value=0, max_value=1, allow_nan=False),
                min_seconds=st.floats(min_value=0, max_value=1, allow_nan=False),
                max_seconds=st.floats(min_value=0, max_value=1, allow_nan=False),
            ),
        )

        @hypothesis.given(
            point=points,
            summary=summaries,
            errors=st.integers(min_value=0, max_value=10**7),
            decoded=st.integers(min_value=0, max_value=10**7),
            defects=st.integers(min_value=0, max_value=10**9),
            erased=st.integers(min_value=0, max_value=10**9),
            stopped=st.booleans(),
            elapsed=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        )
        @hypothesis.settings(max_examples=60, deadline=None)
        def round_trip(point, summary, errors, decoded, defects, erased, stopped, elapsed):
            result = PointResult(
                point=point,
                shots=point.shots,
                errors=min(errors, point.shots),
                decoded_shots=min(decoded, point.shots),
                defects=defects,
                stopped_early=stopped,
                latency=summary,
                erased=erased,
                elapsed_seconds=elapsed,
            )
            store = ResultStore(None)  # in-memory, still JSON round-trips
            store.put("abc123", result)
            loaded = store.get("abc123", point)
            assert loaded is not None
            assert loaded.point == point  # every SweepPoint field, exactly
            assert loaded.shots == result.shots
            assert loaded.errors == result.errors
            assert loaded.decoded_shots == result.decoded_shots
            assert loaded.defects == result.defects
            assert loaded.stopped_early == result.stopped_early
            assert loaded.latency == result.latency
            assert loaded.erased == result.erased
            assert loaded.elapsed_seconds == result.elapsed_seconds
            assert loaded.cached

        round_trip()


class TestResumeSemantics:
    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        """Kill a sweep mid-run (snapshot via an aborting progress callback),
        resume, and compare the store byte-for-byte with an uninterrupted run."""
        spec = small_spec()
        uninterrupted = tmp_path / "uninterrupted.jsonl"
        run_sweep(spec, ResultStore(uninterrupted), clock=fake_clock())

        interrupted = tmp_path / "interrupted.jsonl"
        seen: list = []

        def abort_after_two(point, result) -> None:
            seen.append(point)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                spec,
                ResultStore(interrupted),
                clock=fake_clock(),
                progress=abort_after_two,
            )
        # the snapshot holds the spec plus exactly the completed points
        snapshot = ResultStore(interrupted)
        assert len(snapshot) == 2 < len(spec.expand())

        resumed = run_sweep(spec, snapshot, clock=fake_clock())
        assert resumed.cached == 2
        assert resumed.completed == len(spec.expand()) - 2
        assert interrupted.read_bytes() == uninterrupted.read_bytes()

    def test_resume_matches_any_worker_count(self, tmp_path):
        """Uninterrupted with workers=2 vs interrupted+resumed with workers=1
        must agree on the determinism fingerprint."""
        spec = small_spec(shots=64, shard_size=16)
        parallel_store = ResultStore(tmp_path / "parallel.jsonl")
        run_sweep(spec, parallel_store, workers=2)

        resumed_store = ResultStore(tmp_path / "resumed.jsonl")

        def abort_immediately(point, result) -> None:
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, resumed_store, progress=abort_immediately)
        run_sweep(spec, resumed_store, workers=1)
        assert resumed_store.fingerprint() == parallel_store.fingerprint()

    def test_cache_hits_do_not_rerun(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "store.jsonl")
        first = run_sweep(spec, store)
        assert (first.completed, first.cached) == (len(spec.expand()), 0)
        again = run_sweep(spec, store)
        assert (again.completed, again.cached) == (0, len(spec.expand()))
        # cached results carry the deterministic payload of the original run
        for a, b in zip(first.results, again.results):
            assert (a.shots, a.errors, a.defects) == (b.shots, b.errors, b.defects)

    def test_changed_spec_misses_the_cache(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        run_sweep(small_spec(), store)
        rerun = run_sweep(small_spec(shots=49), store)
        assert rerun.cached == 0

    def test_in_memory_sweep_without_store(self):
        run = run_sweep(small_spec(shots=16))
        assert run.completed == len(run.results)


class TestZeroFailureHandling:
    def test_rule_of_three_bound(self):
        assert rule_of_three_upper_bound(0, 1000) == pytest.approx(0.003)
        assert rule_of_three_upper_bound(0, 2) == 1.0
        assert rule_of_three_upper_bound(0, 0) == 1.0
        with_errors = rule_of_three_upper_bound(5, 100)
        assert 0.05 < with_errors < 0.1

    def test_estimate_logical_error_rate_surfaces_upper_bound(self):
        graph = build_graph(3, 0.0001)
        estimate = estimate_logical_error_rate(graph, "reference", 50, seed=3)
        assert estimate.errors == 0
        assert estimate.zero_failures
        assert estimate.rate == 0.0
        assert estimate.upper_bound == pytest.approx(3.0 / 50)

    def test_zero_failure_points_never_enter_fits(self):
        zero = PointResult(
            point=SweepPoint(3, "circuit_level", 0.001, "reference", 100, 1, 16),
            shots=100,
            errors=0,
            decoded_shots=10,
            defects=12,
            stopped_early=False,
        )
        nonzero = PointResult(
            point=SweepPoint(3, "circuit_level", 0.02, "reference", 100, 2, 16),
            shots=100,
            errors=4,
            decoded_shots=90,
            defects=150,
            stopped_early=False,
        )
        assert scaling_points([zero, nonzero]) == [(3, 0.02, 0.04)]
        with pytest.raises(ValueError):
            fit_sweep_scaling([zero])  # only degenerate points -> no fit

    def test_report_rows_show_one_sided_bound(self):
        zero = PointResult(
            point=SweepPoint(3, "circuit_level", 0.001, "reference", 100, 1, 16),
            shots=100,
            errors=0,
            decoded_shots=10,
            defects=12,
            stopped_early=False,
        )
        (row,) = report_rows([zero])
        assert row["logical_error_rate"].startswith("<=")
        assert row["upper_bound"] == pytest.approx(0.03)


class TestBenchDocument:
    @pytest.fixture(scope="class")
    def sweep_run(self, tmp_path_factory):
        spec = small_spec(
            distances=(3, 5),
            decoders=("union-find",),
            shots=64,
            shard_size=32,
            collect_latency=True,
        )
        store = ResultStore(tmp_path_factory.mktemp("bench") / "store.jsonl")
        return run_sweep(spec, store)

    def test_document_is_schema_valid(self, sweep_run):
        document = bench_document(sweep_run, commit="abc", timestamp="t")
        validate_bench(document)
        assert document["commit"] == "abc"
        assert len(document["points"]) == len(sweep_run.results)
        assert all(p["latency"] is not None for p in document["points"])

    def test_write_bench_round_trips(self, sweep_run, tmp_path):
        document = bench_document(sweep_run, commit="abc", timestamp="t")
        path = write_bench(document, tmp_path / "BENCH_sweep.json")
        validate_bench(json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.pop("points"), "missing top-level"),
            (lambda d: d.update(schema_version=99), "schema_version"),
            (lambda d: d.update(commit=""), "commit"),
            (lambda d: d["points"].clear(), "non-empty"),
            (lambda d: d["points"][0].pop("errors"), "missing key"),
            (lambda d: d["points"][0].update(logical_error_rate=1.5), "> 1"),
            (lambda d: d["points"][0].update(shots_per_second=-1), "< 0"),
            (lambda d: d["points"][0].update(zero_failures=True), "inconsistent"),
            (lambda d: d["spec"].pop("hash"), "spec: missing"),
        ],
    )
    def test_schema_violations_are_caught(self, sweep_run, mutate, match):
        document = bench_document(sweep_run, commit="abc", timestamp="t")
        mutate(document)
        with pytest.raises(BenchSchemaError, match=match):
            validate_bench(document)

    def test_smoke_spec_is_fit_capable(self):
        """The pinned CI spec covers two distances per decoder so the
        BENCH document can carry threshold fits."""
        assert len(SMOKE_SPEC.distances) >= 2
        assert SMOKE_SPEC.collect_latency
        assert all(p >= 0.02 for p in SMOKE_SPEC.physical_error_rates)


class TestTrivialLatency:
    def test_trivial_shots_enter_histogram_when_floor_is_set(self):
        graph = build_graph(3, 0.001)  # mostly trivial shots at this rate
        floor = modelled_trivial_latency_seconds("union-find", graph)
        assert floor > 0.0
        from repro.evaluation import modelled_latency_fn

        engine = MonteCarloEngine(
            graph,
            "union-find",
            latency_fn=modelled_latency_fn("union-find", graph),
            trivial_latency_seconds=floor,
        )
        result = engine.run(40, seed=1)
        assert result.histogram.count == result.shots
        assert result.histogram.min_seconds == pytest.approx(floor)

    def test_trivial_latency_models_exist_for_all_modelled_decoders(self):
        graph = build_graph(3, 0.01)
        for name in ("micro-blossom", "micro-blossom-batch", "parity-blossom", "union-find"):
            assert modelled_trivial_latency_seconds(name, graph) > 0.0
        with pytest.raises(ValueError):
            modelled_trivial_latency_seconds("reference", graph)

    def test_engine_rejects_negative_floor(self):
        graph = build_graph(3, 0.01)
        with pytest.raises(ValueError):
            MonteCarloEngine(graph, "reference", trivial_latency_seconds=-1.0)

    def test_engine_tracks_defect_totals(self):
        graph = build_graph(3, 0.03)
        result = MonteCarloEngine(graph, "reference").run(64, seed=5)
        assert result.defects == sum(shard.defects for shard in result.shards)
        assert result.defects > 0


class TestMigratedLatencySweep:
    def test_latency_sweep_resumes_through_a_store(self, tmp_path):
        store = ResultStore(tmp_path / "figure9.jsonl")
        kwargs = dict(distances=(3,), error_rates=(0.002,), samples=8, seed=1)
        first = latency_sweep(store=store, **kwargs)
        fingerprint = store.fingerprint()
        second = latency_sweep(store=store, **kwargs)
        assert second == first
        assert store.fingerprint() == fingerprint

    def test_latency_sweep_covers_every_shot(self):
        # trivial shots carry the model's floor latency, so the mean is
        # positive even at error rates where most syndromes are empty
        rows = latency_sweep(distances=(3,), error_rates=(0.0005,), samples=6, seed=2)
        assert all(row["mean_latency_us"] > 0 for row in rows)


def test_latency_summary_of_empty_histogram():
    summary = LatencySummary.from_histogram(LatencyHistogram())
    assert summary.count == 0
    assert summary.mean_seconds == 0.0


class TestNoiseFamilyAxis:
    """Sweeps over the richer noise families: resume stability, erased
    bookkeeping, and ``lut+`` twin points under burst noise."""

    @staticmethod
    def _family_spec(**overrides) -> SweepSpec:
        params = dict(
            name="noise-families",
            distances=(3,),
            physical_error_rates=(0.01,),
            decoders=("union-find",),
            shots=48,
            seed=11,
            shard_size=16,
            noise_models=("correlated_burst", "erasure", "time_varying"),
        )
        params.update(overrides)
        return small_spec(**params)

    def test_interrupted_resume_is_bit_identical(self, tmp_path):
        spec = self._family_spec()
        uninterrupted = tmp_path / "uninterrupted.jsonl"
        run_sweep(spec, ResultStore(uninterrupted), clock=fake_clock())

        interrupted = tmp_path / "interrupted.jsonl"
        seen: list = []

        def abort_after_one(point, result) -> None:
            seen.append(point)
            if len(seen) == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                spec,
                ResultStore(interrupted),
                clock=fake_clock(),
                progress=abort_after_one,
            )
        run_sweep(spec, ResultStore(interrupted), clock=fake_clock())
        assert interrupted.read_bytes() == uninterrupted.read_bytes()

    def test_point_keys_carry_the_family(self):
        spec = self._family_spec()
        families = {point.noise for point in spec.expand()}
        assert families == {"correlated_burst", "erasure", "time_varying"}
        for point in spec.expand():
            assert f"/noise={point.noise}/" in point.key

    def test_erased_column_round_trips_only_for_erasure_points(self, tmp_path):
        spec = self._family_spec(shots=64)
        store = ResultStore(tmp_path / "store.jsonl")
        run = run_sweep(spec, store)
        by_family = {result.point.noise: result for result in run.results}
        assert by_family["erasure"].erased > 0
        assert by_family["correlated_burst"].erased == 0
        assert by_family["time_varying"].erased == 0
        # the store's JSON lines only mention "erased" on the erasure point,
        # so pre-existing stores (and their fingerprints) stay byte-stable
        lines = (tmp_path / "store.jsonl").read_text().splitlines()
        for line in lines:
            record = json.loads(line)
            if record.get("type") != "point":
                continue
            expects_erased = "/noise=erasure/" in record["key"]
            assert ("erased" in record["result"]) == expects_erased
        # and cached reads restore the tally exactly
        rerun = run_sweep(spec, store)
        assert rerun.cached == len(spec.expand())
        recached = {r.point.noise: r for r in rerun.results}
        assert recached["erasure"].erased == by_family["erasure"].erased

    def test_lut_twin_points_match_under_burst_noise(self):
        """``lut+union-find`` and ``union-find`` on the *same* shot stream
        (identical explicit seeds) must produce identical statistics under
        correlated bursts — the LUT layer is invisible to the sweep numbers."""
        from repro.sweeps.runner import run_point

        def twin(decoder: str) -> SweepPoint:
            return SweepPoint(
                distance=3,
                noise="correlated_burst",
                physical_error_rate=0.01,
                decoder=decoder,
                shots=64,
                seed=77,
                shard_size=16,
            )

        base = run_point(twin("union-find"))
        lut = run_point(twin("lut+union-find"))
        assert lut.errors == base.errors
        assert lut.defects == base.defects
        assert lut.shots == base.shots
        assert lut.lut is not None and base.lut is None
        assert lut.lut.hits + lut.lut.misses + lut.lut.zero_defect_hits == lut.shots
