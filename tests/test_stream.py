"""Tests of the streaming decode subsystem.

Covers the four layers the subsystem spans:

* the :class:`repro.api.StreamingDecoder` protocol surface (native Micro
  Blossom and the :class:`repro.stream.SlidingWindowAdapter`);
* per-round syndrome emission (``SyndromeSampler.sample_rounds``), pinned
  bit-identical to batch sampling;
* the continuous-stream :class:`repro.evaluation.StreamEngine` (seed/shard
  stability, worker independence, reaction latency and backlog accounting);
* the ``streaming`` sweep axis, including the back-compatibility contract
  that batch-only specs keep their pre-axis hashes and point keys.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api import (
    DecoderCapabilities,
    StreamingDecoder,
    decoder_capabilities,
    get_decoder,
)
from repro.evaluation import (
    DECODERS_WITH_TIMING_MODELS,
    MonteCarloEngine,
    StreamEngine,
    stream_latency_fn,
)
from repro.evaluation.experiments import build_graph, stream_vs_batch
from repro.graphs import (
    Syndrome,
    SyndromeSampler,
    erasure_noise,
    phenomenological_noise,
    residual_defects,
    surface_code_decoding_graph,
)
from repro.stream import (
    DEFECTS_DECODED,
    SlidingWindowAdapter,
    StreamOutcome,
    get_streaming_decoder,
)
from repro.sweeps import ResultStore, bench_document, make_spec, run_sweep, validate_bench


@pytest.fixture(scope="module")
def graph():
    return build_graph(3, 0.02)


@pytest.fixture(scope="module")
def busy_graph():
    """High error rate, many rounds: windows fill and commits trigger."""
    return surface_code_decoding_graph(3, phenomenological_noise(0.08), rounds=6)


def stream_once(session, graph, syndrome):
    session.begin(graph, rounds_hint=graph.num_layers)
    pushes = [session.push_round(r) for r in syndrome.defects_by_layer(graph)]
    return session.finalize(), pushes


# ---------------------------------------------------------------------------
# registry capabilities
# ---------------------------------------------------------------------------
class TestCapabilities:
    def test_native_streaming_flags(self):
        assert decoder_capabilities("micro-blossom").native_streaming
        for name in ("micro-blossom-batch", "parity-blossom", "union-find", "reference"):
            assert not decoder_capabilities(name).native_streaming

    def test_exact_flags(self):
        assert decoder_capabilities("reference").exact
        assert not decoder_capabilities("union-find").exact

    def test_default_capabilities_for_user_registrations(self):
        caps = DecoderCapabilities()
        assert not caps.native_streaming

    def test_factory_follows_the_flags(self, graph):
        native = get_streaming_decoder("micro-blossom", graph)
        assert not isinstance(native, SlidingWindowAdapter)
        assert isinstance(native, StreamingDecoder)
        wrapped = get_streaming_decoder("union-find", graph)
        assert isinstance(wrapped, SlidingWindowAdapter)
        assert isinstance(wrapped, StreamingDecoder)
        # a finite window forces the adapter even for native backends
        windowed = get_streaming_decoder("micro-blossom", graph, window=2)
        assert isinstance(windowed, SlidingWindowAdapter)


# ---------------------------------------------------------------------------
# protocol surface: ordering and validation errors
# ---------------------------------------------------------------------------
class TestProtocolErrors:
    @pytest.mark.parametrize("name", ["micro-blossom", "union-find"])
    def test_push_before_begin(self, graph, name):
        session = get_streaming_decoder(name, graph)
        with pytest.raises(RuntimeError, match="begin"):
            session.push_round(())

    @pytest.mark.parametrize("name", ["micro-blossom", "union-find"])
    def test_finalize_before_begin(self, graph, name):
        session = get_streaming_decoder(name, graph)
        with pytest.raises(RuntimeError, match="begin"):
            session.finalize()

    @pytest.mark.parametrize("name", ["micro-blossom", "union-find"])
    def test_too_many_rounds_rejected(self, graph, name):
        session = get_streaming_decoder(name, graph)
        session.begin(graph)
        for _ in range(graph.num_layers):
            session.push_round(())
        with pytest.raises(ValueError, match="all"):
            session.push_round(())

    @pytest.mark.parametrize("name", ["micro-blossom", "union-find"])
    def test_wrong_layer_defect_rejected(self, graph, name):
        last_layer_defect = next(
            v
            for v in graph.vertices_in_layer(graph.num_layers - 1)
            if not graph.is_virtual(v)
        )
        session = get_streaming_decoder(name, graph)
        session.begin(graph)
        with pytest.raises(ValueError, match="round"):
            session.push_round((last_layer_defect,))

    @pytest.mark.parametrize("name", ["micro-blossom", "union-find"])
    def test_foreign_graph_rejected(self, graph, name):
        other = build_graph(3, 0.03)
        session = get_streaming_decoder(name, graph)
        with pytest.raises(ValueError, match="graph"):
            session.begin(other)

    @pytest.mark.parametrize("name", ["micro-blossom", "union-find"])
    def test_oversized_rounds_hint_rejected(self, graph, name):
        session = get_streaming_decoder(name, graph)
        with pytest.raises(ValueError, match="rounds_hint"):
            session.begin(graph, rounds_hint=graph.num_layers + 1)

    @pytest.mark.parametrize(
        "name, erasures",
        [("union-find", ()), ("micro-blossom", ()), ("micro-blossom", (0,))],
        ids=["adapter", "native", "erasure-buffered"],
    )
    def test_virtual_vertex_defect_rejected_before_the_round_is_kept(self, graph, name, erasures):
        if erasures:
            graph = surface_code_decoding_graph(3, erasure_noise(0.02))
        syndrome = next(
            s for s in SyndromeSampler(graph, seed=6).sample_batch(64) if s.defect_count >= 2
        )
        syndrome = Syndrome(defects=syndrome.defects, erasures=erasures)
        virtual = next(v for v in graph.vertices_in_layer(0) if graph.is_virtual(v))
        session = get_streaming_decoder(name, graph)
        session.begin(graph, erasures=erasures)
        with pytest.raises(ValueError, match="virtual"):
            session.push_round((virtual,))
        for round_defects in syndrome.defects_by_layer(graph):
            session.push_round(round_defects)
        outcome = session.finalize()
        batch = get_decoder(name, graph).decode_detailed(syndrome)
        assert outcome.correction_edges(graph) == batch.correction_edges(graph)
        assert outcome.weight == batch.weight

    def test_begin_discards_in_flight_stream(self, graph):
        sampler = SyndromeSampler(graph, seed=3)
        syndrome = next(s for s in sampler.sample_batch(64) if s.defect_count >= 2)
        session = get_streaming_decoder("micro-blossom", graph)
        session.begin(graph)
        session.push_round(syndrome.defects_by_layer(graph)[0])
        # restarting mid-stream must leave no residue in the next outcome
        outcome, _ = stream_once(session, graph, syndrome)
        batch = get_decoder("micro-blossom", graph).decode_detailed(syndrome)
        assert outcome.correction_edges(graph) == batch.correction_edges(graph)


# ---------------------------------------------------------------------------
# native micro-blossom streaming
# ---------------------------------------------------------------------------
class TestNativeStreaming:
    def test_explicit_pushes_match_stream_decode_detailed(self, graph):
        """decode_detailed(stream=True) is literally the push protocol."""
        decoder = get_decoder("micro-blossom", graph)
        session = get_streaming_decoder("micro-blossom", graph)
        sampler = SyndromeSampler(graph, seed=11)
        for syndrome in sampler.sample_batch(12):
            outcome, _ = stream_once(session, graph, syndrome)
            batch = decoder.decode_detailed(syndrome)
            assert outcome.result.weight == batch.result.weight
            assert sorted(outcome.result.pairs) == sorted(batch.result.pairs)
            assert outcome.counters == batch.counters
            assert (
                outcome.post_final_round_counters == batch.post_final_round_counters
            )

    def test_push_counters_partition_total_work(self):
        """begin's reset plus every push's delta is the outcome's total work,
        exactly, on every non-trivial shot (``prematched_defects`` is a
        high-water mark, not a sum)."""
        graph = build_graph(5, 0.005)
        session = get_streaming_decoder("micro-blossom", graph)
        shots = [s for s in SyndromeSampler(graph, seed=42).sample_batch(600) if s.defects]
        assert len(shots) == 354
        for syndrome in shots:
            outcome, pushes = stream_once(session, graph, syndrome)
            summed = Counter({"instr_reset": 1, "bus_words": 1})
            for push in pushes:
                summed.update(push)
            summed.pop("prematched_defects", None)
            total = Counter(outcome.counters)
            total.pop("prematched_defects", None)
            assert summed == total, syndrome.defects

    def test_zero_defect_stream_builds_covers_in_finalize(self):
        """The one exception to the partition: with no defect ever loaded,
        finalize's pre-match scan builds the Covers outside every push."""
        graph = build_graph(5, 0.005)
        session = get_streaming_decoder("micro-blossom", graph)
        outcome, pushes = stream_once(session, graph, Syndrome(defects=()))
        summed = Counter({"instr_reset": 1, "bus_words": 1})
        for push in pushes:
            summed.update(push)
        assert outcome.counters - summed == Counter(cover_cells_updated=10)
        assert summed - outcome.counters == Counter()

    def test_post_final_counters_cover_last_push(self, graph):
        session = get_streaming_decoder("micro-blossom", graph)
        sampler = SyndromeSampler(graph, seed=4)
        syndrome = next(s for s in sampler.sample_batch(64) if s.defect_count >= 2)
        outcome, pushes = stream_once(session, graph, syndrome)
        last = pushes[-1]
        for key, value in last.items():
            assert outcome.post_final_round_counters.get(key, 0) >= value

    def test_scale_retry_replay_charges_the_triggering_push(self, graph, monkeypatch):
        """A mid-stream IntegralityError replays every round at a doubled
        scale; the push that triggered it must report the whole replay (the
        earlier pushes' deltas belong to the abandoned engine)."""
        from repro.core.interface import IntegralityError

        session = get_streaming_decoder("micro-blossom", graph)
        batch = get_decoder("micro-blossom", graph)
        sampler = SyndromeSampler(graph, seed=4)
        syndrome = next(s for s in sampler.sample_batch(64) if s.defect_count >= 2)
        rounds = syndrome.defects_by_layer(graph)

        original = type(session)._stream_step
        calls = {"count": 0}

        def flaky(self, state, layer, defects):
            calls["count"] += 1
            if calls["count"] == len(rounds):  # first attempt at the last round
                raise IntegralityError("forced retry")
            return original(self, state, layer, defects)

        monkeypatch.setattr(type(session), "_stream_step", flaky)
        session.begin(graph)
        pushes = [session.push_round(r) for r in rounds]
        outcome = session.finalize()
        assert outcome.scale_retries == 1
        # the retry push re-ran every round on the fresh engine: it carries
        # all the layer loads, and covers the outcome's total work (minus
        # the engine reset, which belongs to begin(), and the collect-time
        # prematch scan)
        assert pushes[-1]["instr_load"] == graph.num_layers
        reset_cost = Counter({"instr_reset": 1, "bus_words": 1})
        for key, value in outcome.counters.items():
            if key != "prematched_defects":
                assert pushes[-1][key] >= value - reset_cost[key], key
        # and the streamed result still matches the batch decode
        batch_outcome = batch.decode_detailed(syndrome)
        assert outcome.correction_edges(graph) == batch_outcome.correction_edges(graph)
        assert outcome.result.weight == batch_outcome.result.weight

    def test_early_finalize_treats_missing_rounds_as_boundary(self, graph):
        """A stream closed before all rounds arrive still decodes validly."""
        sampler = SyndromeSampler(graph, seed=8)
        syndrome = next(
            s
            for s in sampler.sample_batch(128)
            if s.defects and s.defects_by_layer(graph)[0]
        )
        first_round = syndrome.defects_by_layer(graph)[0]
        session = get_streaming_decoder("micro-blossom", graph)
        session.begin(graph)
        session.push_round(first_round)
        outcome = session.finalize()
        outcome.result.validate_perfect(first_round)


# ---------------------------------------------------------------------------
# sliding-window adapter
# ---------------------------------------------------------------------------
class TestSlidingWindowAdapter:
    def test_window_validation(self, graph):
        decoder = get_decoder("union-find", graph)
        with pytest.raises(ValueError, match="window"):
            SlidingWindowAdapter(decoder, window=0)
        with pytest.raises(ValueError, match="commit_depth"):
            SlidingWindowAdapter(decoder, window=2, commit_depth=3)
        with pytest.raises(ValueError, match="commit_depth"):
            SlidingWindowAdapter(decoder, commit_depth=1)
        assert SlidingWindowAdapter(decoder, window=4).commit_depth == 2

    def test_growing_window_defers_all_work_to_finalize(self, graph):
        session = get_streaming_decoder("parity-blossom", graph)
        sampler = SyndromeSampler(graph, seed=13)
        syndrome = next(s for s in sampler.sample_batch(64) if s.defect_count >= 2)
        outcome, pushes = stream_once(session, graph, syndrome)
        assert all(not push for push in pushes)
        assert isinstance(outcome, StreamOutcome)
        assert outcome.counters[DEFECTS_DECODED] == syndrome.defect_count
        assert outcome.committed_pairs == 0

    def test_finite_window_commits_and_stays_valid(self, busy_graph):
        graph = busy_graph
        session = get_streaming_decoder("union-find", graph, window=2, commit_depth=1)
        sampler = SyndromeSampler(graph, seed=2)
        committed_somewhere = False
        decoded_mid_stream = False
        for syndrome in sampler.sample_batch(25):
            outcome, pushes = stream_once(session, graph, syndrome)
            if outcome.result is not None:
                outcome.result.validate_perfect(syndrome.defects)
            correction = outcome.correction_edges(graph)
            assert residual_defects(graph, syndrome, correction) == ()
            committed_somewhere |= outcome.committed_pairs > 0
            decoded_mid_stream |= any(
                push.get(DEFECTS_DECODED, 0) > 0 for push in pushes
            )
        assert committed_somewhere, "no window decode ever froze a pair"
        assert decoded_mid_stream, "finite window never decoded before finalize"

    def test_finite_window_weight_never_beats_batch_optimum(self, busy_graph):
        graph = busy_graph
        session = get_streaming_decoder(
            "parity-blossom", graph, window=2, commit_depth=1
        )
        exact = get_decoder("reference", graph)
        sampler = SyndromeSampler(graph, seed=6)
        for syndrome in sampler.sample_batch(15):
            if not syndrome.defects:
                continue
            outcome, _ = stream_once(session, graph, syndrome)
            from repro.graphs.syndrome import matching_weight

            assert matching_weight(graph, outcome.result) >= exact.decode(
                syndrome
            ).weight

    def test_uncommitted_finite_window_is_still_batch_identical(self, graph):
        """A finite window that never freezes a pair must keep the backend's
        exact batch outcome — including its peeled correction — even when the
        window slid over empty or late-arriving rounds."""
        batch = get_decoder("union-find", graph)
        session = get_streaming_decoder("union-find", graph, window=1)
        last_layer = graph.num_layers - 1
        defect = next(
            v for v in graph.vertices_in_layer(last_layer) if not graph.is_virtual(v)
        )
        syndrome = Syndrome(defects=(defect,))
        outcome, _ = stream_once(session, graph, syndrome)
        assert outcome.committed_pairs == 0
        assert outcome.correction_edges(graph) == batch.decode_to_correction(syndrome)

    def test_factory_rejects_commit_depth_without_window(self, graph):
        with pytest.raises(ValueError, match="finite window"):
            get_streaming_decoder("micro-blossom", graph, commit_depth=2)
        with pytest.raises(ValueError, match="finite window"):
            get_streaming_decoder("union-find", graph, commit_depth=2)

    def test_adapter_reports_window_configuration(self, graph):
        session = get_streaming_decoder("union-find", graph, window=3)
        syndrome = Syndrome(defects=())
        outcome, _ = stream_once(session, graph, syndrome)
        assert (outcome.window, outcome.commit_depth) == (3, 1)
        assert outcome.rounds == graph.num_layers
        assert session.name == "union-find+window"


# ---------------------------------------------------------------------------
# per-round syndrome emission
# ---------------------------------------------------------------------------
class TestSampleRounds:
    def test_bit_identical_to_batch_sampling(self, graph):
        streamed = SyndromeSampler(graph, seed=42)
        batched = SyndromeSampler(graph, seed=42)
        expected = batched.sample_batch(20)
        for reference in expected:
            syndrome, rounds = streamed.sample_rounds()
            assert syndrome.defects == reference.defects
            assert syndrome.error_edges == reference.error_edges
            assert syndrome.logical_flip == reference.logical_flip
            assert len(rounds) == graph.num_layers
            assert tuple(d for r in rounds for d in r) == reference.defects

    def test_rounds_respect_layer_membership(self, graph):
        sampler = SyndromeSampler(graph, seed=1)
        _, rounds = sampler.sample_rounds()
        for layer, round_defects in enumerate(rounds):
            for defect in round_defects:
                assert graph.vertices[defect].layer == layer

    def test_interleaving_keeps_the_stream_aligned(self, graph):
        mixed = SyndromeSampler(graph, seed=7)
        pure = SyndromeSampler(graph, seed=7)
        mixed.sample_rounds()
        mixed.sample()
        syndrome, _ = mixed.sample_rounds()
        expected = pure.sample_batch(3)[2]
        assert syndrome.defects == expected.defects


# ---------------------------------------------------------------------------
# continuous-stream engine
# ---------------------------------------------------------------------------
class TestStreamEngine:
    def test_reaction_histogram_covers_every_shot(self, graph):
        result = StreamEngine(graph, "micro-blossom", shard_size=16).run(40, seed=5)
        assert result.shots == 40
        assert result.reaction.count == 40
        assert result.streams == 3  # ceil(40 / 16) shards = streams
        assert result.max_backlog_seconds >= 0.0
        assert result.rounds == 40 * graph.num_layers

    @pytest.mark.parametrize("workers", (2, 3, 4))
    def test_results_independent_of_workers(self, graph, workers):
        sequential = StreamEngine(graph, "micro-blossom", shard_size=16).run(48, seed=9)
        parallel = StreamEngine(
            graph, "micro-blossom", shard_size=16, workers=workers
        ).run(48, seed=9)
        assert (sequential.shots, sequential.errors) == (
            parallel.shots,
            parallel.errors,
        )
        assert sequential.reaction.counts == parallel.reaction.counts
        assert sequential.reaction.sum_seconds == parallel.reaction.sum_seconds
        assert sequential.max_backlog_seconds == parallel.max_backlog_seconds
        assert sequential.counters == parallel.counters

    def test_error_counts_match_batch_monte_carlo(self, graph):
        """Streamed decoding is exactness-preserving, so the stream engine
        sees exactly the logical errors the batch engine sees on the same
        shard seeds."""
        stream = StreamEngine(graph, "micro-blossom", shard_size=16).run(64, seed=3)
        batch = MonteCarloEngine(graph, "micro-blossom", shard_size=16).run(64, seed=3)
        assert (stream.shots, stream.errors) == (batch.shots, batch.errors)
        assert stream.defects == batch.defects

    def test_adapter_backends_run_too(self, graph):
        result = StreamEngine(graph, "union-find", shard_size=32).run(32, seed=2)
        assert result.shots == 32
        assert result.reaction.count == 32

    def test_reaction_counters_never_go_negative(self):
        """The shard loop's residue, ``outcome.counters - earlier``, after a
        mid-stream retry made the earlier pushes exceed the total."""
        total = Counter({"instr_grow": 5, "instr_load": 2})
        earlier = Counter({"instr_grow": 9, "instr_find_obstacle": 3})
        residue = total - earlier
        assert residue == Counter({"instr_load": 2})
        assert all(value > 0 for value in residue.values())

    def test_stream_latency_fn_prices_all_modelled_decoders(self, graph):
        for name in DECODERS_WITH_TIMING_MODELS:
            price = stream_latency_fn(name, graph)
            empty = price(Counter())
            assert empty > 0.0
            loaded = price(Counter({DEFECTS_DECODED: 4, "instr_find_obstacle": 4}))
            assert loaded >= empty

    def test_parity_blossom_streams_through_the_engine(self, graph):
        result = StreamEngine(graph, "parity-blossom", shard_size=16).run(16, seed=1)
        assert result.reaction.count == 16
        assert result.reaction.mean > 0.0

    def test_decoder_without_timing_model_rejected(self, graph):
        with pytest.raises(ValueError, match="latency model"):
            StreamEngine(graph, "reference")
        with pytest.raises(ValueError, match="latency model"):
            stream_latency_fn("reference", graph)

    def test_invalid_parameters_rejected(self, graph):
        with pytest.raises(ValueError):
            StreamEngine(graph, "micro-blossom", shard_size=0)
        with pytest.raises(ValueError):
            StreamEngine(graph, "micro-blossom", workers=0)
        with pytest.raises(ValueError):
            StreamEngine(graph, "micro-blossom", round_interval_seconds=0.0)
        with pytest.raises(KeyError):
            StreamEngine(graph, "no-such-decoder")
        with pytest.raises(ValueError):
            StreamEngine(graph, "micro-blossom").run(0)

    def test_stream_vs_batch_reproduces_figure10b_shape(self):
        rows = stream_vs_batch(
            distance=3,
            physical_error_rate=0.004,
            rounds_list=(2, 6),
            samples=10,
            seed=4,
        )
        first, last = rows
        batch_growth = last["batch_latency_us"] / first["batch_latency_us"]
        stream_growth = last["stream_latency_us"] / first["stream_latency_us"]
        assert batch_growth > stream_growth


# ---------------------------------------------------------------------------
# the streaming sweep axis
# ---------------------------------------------------------------------------
class TestStreamingSweepAxis:
    def test_batch_only_specs_keep_their_pre_axis_hash_and_keys(self):
        """Back-compat contract: stores written before the streaming axis
        existed must keep serving cache hits, so the default spec hash and
        point key are pinned to their pre-axis byte strings."""
        spec = make_spec(
            "hash-pin", (3,), (0.02,), ("reference",), 32, seed=7, shard_size=16
        )
        assert spec.spec_hash() == "c8e4c4b22c224f94"
        point = spec.expand()[0]
        assert point.key == (
            "d=3/noise=circuit_level/p=0.02/decoder=reference/shots=32"
            "/seed=467667194124669053/shard=16/target_se=none/latency=0"
        )
        assert point.seed == 467667194124669053

    def test_streaming_axis_expands_per_cell(self):
        spec = make_spec(
            "s", (3,), (0.03,), ("union-find", "micro-blossom"), 16,
            streaming=(False, True),
        )
        points = spec.expand()
        assert len(points) == 4
        assert [p.streaming for p in points] == [False, True, False, True]
        # both modes of one cell share the seed (comparable error counts) but
        # not the cache key
        assert points[0].seed == points[1].seed
        assert points[0].key != points[1].key
        assert points[1].key.endswith("/stream=1")

    def test_streaming_spec_hash_differs_from_batch_only(self):
        batch_only = make_spec("s", (3,), (0.03,), ("union-find",), 16)
        streamed = make_spec(
            "s", (3,), (0.03,), ("union-find",), 16, streaming=(False, True)
        )
        assert batch_only.spec_hash() != streamed.spec_hash()

    def test_bool_streaming_coerces_to_axis(self):
        spec = make_spec("s", (3,), (0.03,), ("union-find",), 16, streaming=True)
        assert spec.streaming == (True,)
        assert all(p.streaming for p in spec.expand())

    def test_streaming_requires_timing_models(self):
        spec = make_spec(
            "s", (3,), (0.03,), ("reference",), 16, streaming=(True,)
        )
        with pytest.raises(ValueError, match="timing model"):
            run_sweep(spec)

    def test_streaming_rejects_early_stopping(self):
        spec = make_spec(
            "s", (3,), (0.03,), ("union-find",), 16,
            streaming=(True,), target_standard_error=0.1,
        )
        with pytest.raises(ValueError, match="early stopping"):
            run_sweep(spec)

    def test_streaming_sweep_runs_resumes_and_exports(self, tmp_path):
        spec = make_spec(
            "stream-sweep", (3,), (0.03,), ("union-find", "micro-blossom"), 32,
            seed=5, shard_size=16, streaming=(False, True),
        )
        store = ResultStore(tmp_path / "store.jsonl")
        run = run_sweep(spec, store)
        assert run.completed == 4
        # streamed and batch points of a cell agree on errors (same seeds,
        # exactness-preserving decoding)
        by_mode = {}
        for result in run.results:
            by_mode.setdefault(result.point.decoder, {})[
                result.point.streaming
            ] = result
        for decoder, modes in by_mode.items():
            assert modes[True].errors == modes[False].errors, decoder
            assert modes[True].latency is not None
            assert modes[True].latency.count == modes[True].shots
        # resume serves every point from the cache
        again = run_sweep(spec, ResultStore(tmp_path / "store.jsonl"))
        assert (again.completed, again.cached) == (0, 4)
        # BENCH document carries the streaming flag and validates
        document = bench_document(run, commit="abc", timestamp="t")
        validate_bench(document)
        flags = [p["streaming"] for p in document["points"]]
        assert flags.count(True) == 2 and flags.count(False) == 2

    def test_streaming_points_stay_out_of_scaling_fits(self):
        from repro.sweeps import scaling_points
        from repro.sweeps.spec import SweepPoint
        from repro.sweeps.store import PointResult

        batch = PointResult(
            point=SweepPoint(3, "circuit_level", 0.02, "reference", 100, 1, 16),
            shots=100, errors=4, decoded_shots=90, defects=150, stopped_early=False,
        )
        streamed = PointResult(
            point=SweepPoint(
                3, "circuit_level", 0.02, "reference", 100, 1, 16, streaming=True
            ),
            shots=100, errors=4, decoded_shots=100, defects=150, stopped_early=False,
        )
        assert scaling_points([batch, streamed]) == [(3, 0.02, 0.04)]
