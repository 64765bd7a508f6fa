"""Tests of the unified decoder API: registry, sessions and batch decoding."""

from __future__ import annotations

from functools import partial

import pytest

from repro.api import (
    BatchOutcome,
    DecodeOutcome,
    Decoder,
    DecoderConfig,
    DecoderSession,
    LUTConfig,
    MicroBlossomConfig,
    ParityBlossomConfig,
    ReferenceConfig,
    UnionFindConfig,
    UnknownDecoderError,
    available_decoders,
    decode_batch,
    decoder_spec,
    get_decoder,
    register_decoder,
    unregister_decoder,
)
from repro.core import MicroBlossomDecoder
from repro.core.dual import DEFAULT_DUAL_SCALE
from repro.core.interface import IntegralityError
from repro.evaluation import estimate_logical_error_rate
from repro.graphs import SyndromeSampler
from repro.matching import ReferenceDecoder
from repro.parity import ParityBlossomDecoder
from repro.unionfind import UnionFindDecoder

ALL_NAMES = (
    "micro-blossom",
    "micro-blossom-batch",
    "parity-blossom",
    "reference",
    "union-find",
)


def _sample_syndromes(graph, count, seed=11):
    sampler = SyndromeSampler(graph, seed=seed)
    return [sampler.sample() for _ in range(count)]


def _assert_same_outcome(graph, first, second):
    """Two outcomes describe the same decode (matching and correction)."""
    if first.result is None:
        assert second.result is None
    else:
        assert sorted(first.result.pairs) == sorted(second.result.pairs)
        assert first.result.weight == second.result.weight
    assert first.correction_edges(graph) == second.correction_edges(graph)
    assert first.defect_count == second.defect_count
    assert first.counters == second.counters


class TestRegistry:
    def test_available_decoders(self):
        names = available_decoders()
        for name in ALL_NAMES:
            assert name in names

    def test_unknown_name_raises_with_choices(self, surface_d3_circuit):
        with pytest.raises(UnknownDecoderError) as excinfo:
            get_decoder("no-such-decoder", surface_d3_circuit)
        message = str(excinfo.value)
        assert "no-such-decoder" in message
        assert "micro-blossom" in message
        assert isinstance(excinfo.value, KeyError)

    def test_get_decoder_returns_expected_classes(self, surface_d3_circuit):
        graph = surface_d3_circuit
        assert isinstance(get_decoder("micro-blossom", graph), MicroBlossomDecoder)
        assert isinstance(get_decoder("parity-blossom", graph), ParityBlossomDecoder)
        assert isinstance(get_decoder("union-find", graph), UnionFindDecoder)
        assert isinstance(get_decoder("reference", graph), ReferenceDecoder)

    def test_micro_blossom_batch_defaults_to_batch_mode(self, surface_d3_circuit):
        stream = get_decoder("micro-blossom", surface_d3_circuit)
        batch = get_decoder("micro-blossom-batch", surface_d3_circuit)
        assert stream.stream is True
        assert batch.stream is False

    def test_config_round_trip(self, surface_d3_circuit):
        config = MicroBlossomConfig(enable_prematching=False, stream=False, scale=4)
        decoder = get_decoder("micro-blossom", surface_d3_circuit, config)
        assert decoder.enable_prematching is False
        assert decoder.stream is False
        assert decoder.scale == 4
        assert config.to_kwargs() == {
            "enable_prematching": False,
            "stream": False,
            "scale": 4,
        }
        assert config.replace(stream=True).stream is True

    def test_config_default_scale_matches_core(self):
        assert MicroBlossomConfig().scale == DEFAULT_DUAL_SCALE
        assert ParityBlossomConfig().scale == DEFAULT_DUAL_SCALE

    def test_wrong_config_type_rejected(self, surface_d3_circuit):
        with pytest.raises(TypeError):
            get_decoder("micro-blossom", surface_d3_circuit, UnionFindConfig())

    def test_register_and_unregister_custom_decoder(self, surface_d3_circuit):
        def build(graph, config):
            return ReferenceDecoder(graph)

        try:
            register_decoder("custom-reference", build, ReferenceConfig)
            assert "custom-reference" in available_decoders()
            decoder = get_decoder("custom-reference", surface_d3_circuit)
            assert isinstance(decoder, ReferenceDecoder)
            with pytest.raises(ValueError):
                register_decoder("custom-reference", build, ReferenceConfig)
            register_decoder(
                "custom-reference", build, ReferenceConfig, overwrite=True
            )
        finally:
            unregister_decoder("custom-reference")
        assert "custom-reference" not in available_decoders()

    def test_spec_descriptions(self):
        for name in ALL_NAMES:
            assert decoder_spec(name).description


class TestConfigWireForm:
    """``DecoderConfig.from_dict`` takes each field only in its annotated
    type: a lossy value would name another configuration (another config
    hash, another session) or fail only later, at session build."""

    @pytest.mark.parametrize(
        "config",
        [
            MicroBlossomConfig(enable_prematching=False, stream=False, scale=4),
            ParityBlossomConfig(scale=8),
            UnionFindConfig(),
            ReferenceConfig(),
            LUTConfig(max_defects=1, fallback_config=MicroBlossomConfig(scale=4)),
        ],
    )
    def test_valid_wire_forms_round_trip(self, config):
        rebuilt = DecoderConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.config_hash() == config.config_hash()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"max_defects": 1.5}, "LUTConfig.max_defects must be an integer, got float"),
            ({"memory_budget_bytes": "9"}, "memory_budget_bytes must be an integer, got str"),
            ({"max_defects": True}, "LUTConfig.max_defects must be an integer, got bool"),
            ({"fallback_config": {"scale": 4}}, "DecoderConfig object holds exactly a type and"),
            ({"fallback_config": 3}, "LUTConfig.fallback_config must be a DecoderConfig object"),
        ],
    )
    def test_mistyped_lut_fields_are_refused(self, fields, message):
        with pytest.raises(TypeError, match=message):
            DecoderConfig.from_dict({"type": "LUTConfig", "fields": fields})

    @pytest.mark.parametrize("value", [1, 0, "true", None])
    def test_bool_fields_take_only_bools(self, value):
        with pytest.raises(TypeError, match="stream must be a bool"):
            DecoderConfig.from_dict({"type": "MicroBlossomConfig", "fields": {"stream": value}})

    def test_nested_config_is_checked_too(self):
        wire = LUTConfig(fallback_config=MicroBlossomConfig()).to_dict()
        wire["fields"]["fallback_config"]["fields"]["scale"] = 2.0
        with pytest.raises(TypeError, match="MicroBlossomConfig.scale must be an integer"):
            DecoderConfig.from_dict(wire)


class TestProtocol:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_backends_satisfy_protocol(self, name, surface_d3_circuit):
        decoder = get_decoder(name, surface_d3_circuit)
        assert isinstance(decoder, Decoder)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_uniform_surface(self, name, surface_d3_circuit):
        graph = surface_d3_circuit
        decoder = get_decoder(name, graph)
        for syndrome in _sample_syndromes(graph, 4, seed=3):
            result = decoder.decode(syndrome)
            result.validate_perfect(syndrome.defects)
            correction = decoder.decode_to_correction(syndrome)
            assert isinstance(correction, set)
            outcome = decoder.decode_detailed(syndrome)
            assert isinstance(outcome, DecodeOutcome)
            assert outcome.defect_count == syndrome.defect_count
            assert outcome.correction_edges(graph) == correction


class TestDecoderSession:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_session_matches_fresh_decoders(self, name, surface_d3_circuit):
        graph = surface_d3_circuit
        syndromes = _sample_syndromes(graph, 6)
        session = DecoderSession(graph, name)
        for syndrome in syndromes:
            from_session = session.decode_detailed(syndrome)
            from_fresh = get_decoder(name, graph).decode_detailed(syndrome)
            _assert_same_outcome(graph, from_session, from_fresh)
        assert session.shots == len(syndromes)

    def test_session_reset_restores_fresh_state(self, surface_d3_circuit):
        graph = surface_d3_circuit
        syndromes = _sample_syndromes(graph, 5, seed=21)
        session = DecoderSession(graph, "micro-blossom")
        first_pass = [session.decode_detailed(s) for s in syndromes]
        session.reset()
        assert session.shots == 0
        assert not session.total_counters
        second_pass = [session.decode_detailed(s) for s in syndromes]
        for first, second in zip(first_pass, second_pass):
            _assert_same_outcome(graph, first, second)

    def test_session_aggregates_counters(self, surface_d3_circuit):
        graph = surface_d3_circuit
        syndromes = _sample_syndromes(graph, 4, seed=8)
        session = DecoderSession(graph, "parity-blossom")
        outcomes = [session.decode_detailed(s) for s in syndromes]
        for key in ("instr_reset", "obstacle_queries"):
            assert session.total_counters[key] == sum(
                outcome.counters[key] for outcome in outcomes
            )

    def test_session_rejects_unknown_name(self, surface_d3_circuit):
        with pytest.raises(UnknownDecoderError):
            DecoderSession(surface_d3_circuit, "nope")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_session_decode_returns_matching(self, name, surface_d3_circuit):
        """Regression: correction-only backends must still yield a matching."""
        graph = surface_d3_circuit
        syndrome = next(
            s for s in _sample_syndromes(graph, 30, seed=14) if s.defects
        )
        session = DecoderSession(graph, name)
        result = session.decode(syndrome)
        assert result is not None
        result.validate_perfect(syndrome.defects)


class TestScaleRetries:
    @pytest.mark.parametrize("decoder_cls", [MicroBlossomDecoder, ParityBlossomDecoder])
    def test_retry_scale_does_not_leak_into_next_decode(
        self, surface_d3_circuit, monkeypatch, decoder_cls
    ):
        graph = surface_d3_circuit
        syndrome = next(
            s for s in _sample_syndromes(graph, 20, seed=4) if s.defects
        )
        decoder = decoder_cls(graph)
        base_scale = decoder.scale
        original = decoder_cls._decode_once
        seen_scales = []
        state = {"fail_next": True}

        def wrapped(self, syn, scale):
            seen_scales.append(scale)
            if state["fail_next"]:
                state["fail_next"] = False
                raise IntegralityError("forced for the test")
            return original(self, syn, scale)

        monkeypatch.setattr(decoder_cls, "_decode_once", wrapped)
        outcome = decoder.decode_detailed(syndrome)
        assert outcome.scale_retries == 1
        assert seen_scales == [base_scale, base_scale * 2]
        again = decoder.decode_detailed(syndrome)
        assert again.scale_retries == 0
        assert seen_scales[-1] == base_scale
        assert decoder.scale == base_scale

    @pytest.mark.parametrize(
        "make, seam, scale_of",
        [
            (MicroBlossomDecoder, "_decode_once", lambda syndrome, scale: scale),
            (ParityBlossomDecoder, "_decode_once", lambda syndrome, scale: scale),
            (
                partial(MicroBlossomDecoder, stream=True),
                "_stream_step",
                lambda state, layer, defects: state.scale,
            ),
        ],
        ids=["micro-blossom", "parity-blossom", "micro-blossom-stream"],
    )
    def test_exhausted_retries_name_the_last_scale_tried(
        self, surface_d3_circuit, monkeypatch, make, seam, scale_of
    ):
        graph = surface_d3_circuit
        syndrome = next(s for s in _sample_syndromes(graph, 20, seed=4) if s.defects)
        decoder = make(graph, scale=2)
        tried = []

        def failing(self, *args):
            tried.append(scale_of(*args))
            raise IntegralityError("forced for the test")

        monkeypatch.setattr(type(decoder), seam, failing)
        with pytest.raises(IntegralityError, match="even at dual scale 32: forced"):
            decoder.decode_detailed(syndrome)
        assert tried == [2, 4, 8, 16, 32]


class TestBatchDecoding:
    @pytest.mark.parametrize("name", ("micro-blossom", "union-find"))
    def test_batch_equals_sequential(self, name, surface_d3_circuit):
        graph = surface_d3_circuit
        syndromes = _sample_syndromes(graph, 6, seed=13)
        decoder = get_decoder(name, graph)
        sequential = [decoder.decode_detailed(s) for s in syndromes]
        batch = decode_batch(graph, name, syndromes)
        assert batch.num_shots == len(syndromes)
        for expected, actual in zip(sequential, batch.outcomes):
            _assert_same_outcome(graph, expected, actual)

    def test_batch_with_workers_equals_sequential(self, surface_d3_circuit):
        graph = surface_d3_circuit
        syndromes = _sample_syndromes(graph, 8, seed=17)
        single = decode_batch(graph, "micro-blossom", syndromes, workers=1)
        parallel = decode_batch(graph, "micro-blossom", syndromes, workers=2)
        assert parallel.num_shots == single.num_shots
        for expected, actual in zip(single.outcomes, parallel.outcomes):
            _assert_same_outcome(graph, expected, actual)
        assert parallel.counters == single.counters

    def test_batch_outcome_aggregates(self, surface_d3_circuit):
        graph = surface_d3_circuit
        syndromes = _sample_syndromes(graph, 5, seed=19)
        batch = decode_batch(graph, "micro-blossom", syndromes)
        assert batch.total_defects == sum(s.defect_count for s in syndromes)
        assert batch.weights == [o.weight for o in batch.outcomes]
        for key, value in batch.counters.items():
            assert value == sum(o.counters[key] for o in batch.outcomes)
        # Stream-mode outcomes feed their post-final-round counters to the
        # latency model.
        per_shot = batch.latency_counters()
        assert per_shot == [o.post_final_round_counters for o in batch.outcomes]

    def test_session_decode_batch(self, surface_d3_circuit):
        graph = surface_d3_circuit
        syndromes = _sample_syndromes(graph, 4, seed=23)
        session = DecoderSession(graph, "parity-blossom")
        batch = session.decode_batch(syndromes)
        assert isinstance(batch, BatchOutcome)
        assert session.shots == len(syndromes)
        fresh = [get_decoder("parity-blossom", graph).decode_detailed(s) for s in syndromes]
        for expected, actual in zip(fresh, batch.outcomes):
            _assert_same_outcome(graph, expected, actual)

    def test_empty_batch(self, surface_d3_circuit):
        batch = decode_batch(surface_d3_circuit, "micro-blossom", [])
        assert batch.num_shots == 0
        assert not batch.counters

    def test_invalid_workers_rejected(self, surface_d3_circuit):
        with pytest.raises(ValueError):
            decode_batch(surface_d3_circuit, "micro-blossom", [], workers=0)


class TestMonteCarloIntegration:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_estimate_accepts_registry_names(self, name, surface_d3_circuit):
        estimate = estimate_logical_error_rate(surface_d3_circuit, name, 30, seed=2)
        assert estimate.samples == 30
        assert 0 <= estimate.errors <= 30

    def test_parallel_estimate_matches_sequential(self, surface_d3_circuit):
        graph = surface_d3_circuit
        sequential = estimate_logical_error_rate(graph, "union-find", 40, seed=5)
        parallel = estimate_logical_error_rate(
            graph, "union-find", 40, seed=5, workers=2
        )
        assert sequential.errors == parallel.errors

    def test_parallel_estimate_requires_name(self, surface_d3_circuit):
        decoder = get_decoder("union-find", surface_d3_circuit)
        with pytest.raises(ValueError):
            estimate_logical_error_rate(
                surface_d3_circuit, decoder, 10, seed=5, workers=2
            )


class TestOutcomeConvergence:
    def test_outcomes_share_base_class(self, surface_d3_circuit):
        graph = surface_d3_circuit
        syndrome = next(
            s for s in _sample_syndromes(graph, 20, seed=6) if s.defects
        )
        for name in ALL_NAMES:
            outcome = get_decoder(name, graph).decode_detailed(syndrome)
            assert isinstance(outcome, DecodeOutcome)

    def test_union_find_outcome_has_no_matching(self, surface_d3_circuit):
        graph = surface_d3_circuit
        syndrome = next(
            s for s in _sample_syndromes(graph, 20, seed=6) if s.defects
        )
        outcome = get_decoder("union-find", graph).decode_detailed(syndrome)
        assert outcome.result is None
        assert not outcome.is_exact
        assert outcome.correction_edges(graph) == outcome.correction

    def test_union_find_decode_pairs_all_defects(self, surface_d3_circuit):
        graph = surface_d3_circuit
        decoder = get_decoder("union-find", graph)
        for syndrome in _sample_syndromes(graph, 10, seed=9):
            result = decoder.decode(syndrome)
            result.validate_perfect(syndrome.defects)

    def test_outcome_without_payload_rejects_correction(self):
        with pytest.raises(ValueError):
            DecodeOutcome().correction_edges(None)


def test_configs_are_frozen():
    config = MicroBlossomConfig()
    with pytest.raises(Exception):
        config.stream = False
    assert isinstance(config, DecoderConfig)
