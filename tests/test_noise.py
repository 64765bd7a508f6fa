"""Unit tests for the noise models."""

from __future__ import annotations

import pytest

from repro.graphs import (
    NOISE_FAMILY_NAMES,
    NoiseModel,
    NoiseModelError,
    circuit_level_noise,
    code_capacity_noise,
    correlated_burst_noise,
    erasure_noise,
    noise_model_by_name,
    phenomenological_noise,
    time_varying_noise,
)


class TestFactories:
    def test_code_capacity_has_no_temporal_errors(self):
        model = code_capacity_noise(0.01)
        assert model.temporal == 0.0
        assert model.diagonal == 0.0
        assert not model.is_three_dimensional

    def test_phenomenological_has_temporal_errors(self):
        model = phenomenological_noise(0.01)
        assert model.temporal == 0.01
        assert model.diagonal == 0.0
        assert model.is_three_dimensional

    def test_circuit_level_has_diagonal_errors(self):
        model = circuit_level_noise(0.01)
        assert model.diagonal > 0.0
        assert model.is_three_dimensional

    def test_circuit_level_hook_fraction_scales_diagonal(self):
        full = circuit_level_noise(0.01, hook_fraction=1.0)
        half = circuit_level_noise(0.01, hook_fraction=0.5)
        assert half.diagonal == pytest.approx(full.diagonal / 2)

    def test_invalid_hook_fraction_rejected(self):
        with pytest.raises(NoiseModelError):
            circuit_level_noise(0.01, hook_fraction=0.0)
        with pytest.raises(NoiseModelError):
            circuit_level_noise(0.01, hook_fraction=1.5)


class TestRicherFamilies:
    def test_correlated_burst_defaults(self):
        model = correlated_burst_noise(0.01)
        assert model.name == "correlated_burst"
        assert model.burst_multiplier == 4.0
        assert 0.0 < model.burst_entry < 1.0
        assert 0.0 < model.burst_exit <= 1.0
        assert model.is_dynamic
        assert model.is_three_dimensional

    def test_erasure_default_rate_tracks_p(self):
        assert erasure_noise(0.01).erasure == pytest.approx(0.02)
        assert erasure_noise(0.2).erasure == pytest.approx(0.25)  # clamped
        assert erasure_noise(0.01, erasure=0.1).erasure == 0.1
        assert erasure_noise(0.01).is_dynamic

    def test_time_varying_schedule_cycles(self):
        model = time_varying_noise(0.01, schedule=(1.0, 2.0, 0.5))
        assert model.round_multiplier(0) == 1.0
        assert model.round_multiplier(1) == 2.0
        assert model.round_multiplier(4) == 2.0  # cycles mod len(schedule)
        assert not model.is_dynamic  # static reweighting, not per-shot state
        assert model.minimum_probability == pytest.approx(0.005)

    def test_time_varying_rejects_empty_schedule(self):
        with pytest.raises(NoiseModelError):
            time_varying_noise(0.01, schedule=())

    def test_burst_peak_probability_capped(self):
        # boosted peak 0.2 * 4 = 0.8 >= 0.5 must be refused up front
        with pytest.raises(NoiseModelError):
            correlated_burst_noise(0.2)

    def test_schedule_peak_probability_capped(self):
        with pytest.raises(NoiseModelError):
            time_varying_noise(0.3, schedule=(1.0, 2.0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("burst_multiplier", 0.5),
            ("burst_entry", 1.0),
            ("burst_exit", 0.0),
            ("erasure", 0.5),
            ("schedule", (0.0,)),
        ],
    )
    def test_invalid_dynamic_fields_rejected(self, field, value):
        with pytest.raises(NoiseModelError):
            NoiseModel(
                "custom",
                spatial=0.01,
                temporal=0.01,
                diagonal=0.0,
                boundary=0.01,
                **{field: value},
            )

    def test_serialization_omits_defaults(self):
        """Static families keep their historical wire form byte for byte."""
        data = phenomenological_noise(0.01).to_dict()
        assert set(data) == {"name", "spatial", "temporal", "diagonal", "boundary"}
        rich = correlated_burst_noise(0.01).to_dict()
        assert {"burst_multiplier", "burst_entry", "burst_exit"} <= set(rich)
        assert "erasure" not in rich and "schedule" not in rich

    @pytest.mark.parametrize(
        "model",
        [
            correlated_burst_noise(0.01),
            erasure_noise(0.01),
            time_varying_noise(0.01, schedule=(1.0, 1.5, 0.5)),
        ],
        ids=lambda m: m.name,
    )
    def test_round_trip(self, model):
        assert NoiseModel.from_dict(model.to_dict()) == model
        assert NoiseModel.from_dict(model.to_dict()).model_hash() == model.model_hash()


class TestValidation:
    @pytest.mark.parametrize("bad", [True, "2"], ids=["bool", "string"])
    def test_schedule_refuses_what_the_wire_form_refuses(self, bad):
        with pytest.raises(TypeError):
            NoiseModel("custom", 0.01, 0.0, 0.0, 0.01, schedule=(bad,))

    def test_schedule_keeps_reals_as_floats(self):
        model = NoiseModel("custom", 0.01, 0.0, 0.0, 0.01, schedule=(1, 2))
        assert model.schedule == (1.0, 2.0)
        assert NoiseModel.from_dict(model.to_dict()) == model

    def test_zero_spatial_probability_rejected(self):
        with pytest.raises(NoiseModelError):
            NoiseModel("custom", spatial=0.0, temporal=0.0, diagonal=0.0, boundary=0.0)

    @pytest.mark.parametrize("bad", [-0.01, 0.5, 0.9])
    def test_out_of_range_probability_rejected(self, bad):
        with pytest.raises(NoiseModelError):
            NoiseModel("custom", spatial=bad, temporal=0.0, diagonal=0.0, boundary=0.01)

    def test_minimum_probability_ignores_zero_entries(self):
        model = NoiseModel(
            "custom", spatial=0.01, temporal=0.0, diagonal=0.0, boundary=0.002
        )
        assert model.minimum_probability == 0.002

    def test_probability_for_kind(self):
        model = circuit_level_noise(0.01)
        assert model.probability_for_kind("spatial") == 0.01
        assert model.probability_for_kind("temporal") == 0.01
        assert model.probability_for_kind("diagonal") == pytest.approx(0.005)
        assert model.probability_for_kind("boundary") == 0.01


class TestByName:
    def test_family_name_list_is_pinned(self):
        """The public family list is part of the wire/CLI contract."""
        assert NOISE_FAMILY_NAMES == (
            "circuit_level",
            "code_capacity",
            "correlated_burst",
            "erasure",
            "phenomenological",
            "time_varying",
        )

    @pytest.mark.parametrize("name", NOISE_FAMILY_NAMES)
    def test_known_names(self, name):
        model = noise_model_by_name(name, 0.01)
        assert model.name == name
        assert model.spatial == 0.01

    def test_unknown_name_rejected_with_family_list(self):
        with pytest.raises(NoiseModelError) as excinfo:
            noise_model_by_name("depolarizing", 0.01)
        message = str(excinfo.value)
        for name in NOISE_FAMILY_NAMES:
            assert name in message
