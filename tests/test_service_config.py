"""ServiceConfig: validation, codecs, hashing, and the legacy-kwargs shim."""

import json

import pytest

from repro.service import DecodeService, ServiceConfig
from repro.service.faults import FaultPlan


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.workers == 2
        assert config.overload_policy == "block"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"workers": 0}, "workers must be >= 1"),
            ({"queue_capacity": 0}, "queue_capacity must be >= 1"),
            ({"max_batch_size": 0}, "max_batch_size must be >= 1"),
            ({"max_sessions": 0}, "max_sessions must be >= 1"),
            ({"overload_policy": "panic"}, "overload_policy"),
            ({"session_build_retries": -1}, "session_build_retries"),
            ({"session_build_backoff_seconds": -0.1}, "session_build_backoff_seconds"),
            ({"max_wait_seconds": -1.0}, "max_wait_seconds"),
            ({"coalesce_max_bytes": 0}, "coalesce_max_bytes must be >= 1"),
            ({"coalesce_max_delay_seconds": -1.0}, "coalesce_max_delay_seconds"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ServiceConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServiceConfig().workers = 5

    def test_replace(self):
        config = ServiceConfig().replace(workers=7)
        assert config.workers == 7
        assert config.max_batch_size == ServiceConfig().max_batch_size


class TestCodec:
    def test_roundtrip(self):
        config = ServiceConfig(
            workers=3,
            max_batch_size=8,
            max_wait_seconds=0.005,
            queue_capacity=64,
            max_sessions=4,
            overload_policy="shed",
            outcome_cache_bytes=1 << 20,
            session_build_retries=2,
            session_build_backoff_seconds=0.001,
            coalesce_max_bytes=4096,
            coalesce_max_delay_seconds=0.001,
        )
        assert ServiceConfig.from_dict(config.to_dict()) == config

    def test_roundtrip_with_fault_plan(self):
        config = ServiceConfig(fault_plan=FaultPlan(name="t", poison_rate=0.25))
        rebuilt = ServiceConfig.from_dict(config.to_dict())
        assert rebuilt.fault_plan.poison_rate == 0.25
        assert rebuilt == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ServiceConfig.from_dict({"workerz": 3})

    def test_removed_wire_codec_field_is_rejected(self):
        """``wire_codec`` was dropped: a config file still naming it fails
        loudly rather than being silently ignored."""
        with pytest.raises(ValueError, match=r"unknown ServiceConfig fields: \['wire_codec'\]"):
            ServiceConfig.from_dict({**ServiceConfig().to_dict(), "wire_codec": 2})

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workers": 5, "overload_policy": "shed"}))
        config = ServiceConfig.from_file(path)
        assert config.workers == 5
        assert config.overload_policy == "shed"

    def test_config_hash_is_stable_and_content_addressed(self):
        a = ServiceConfig(workers=3)
        b = ServiceConfig(workers=3)
        c = ServiceConfig(workers=4)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 16


class TestLegacyShim:
    """Sizing travels only as a ServiceConfig; the keyword shim is gone."""

    def test_sizing_keyword_is_an_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            DecodeService(workers=3, max_batch_size=4)

    def test_config_plus_sizing_keyword_is_an_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            DecodeService(ServiceConfig(), workers=3)

    def test_unknown_kwarg_is_an_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            DecodeService(wrokers=3)

    def test_non_config_positional_is_an_error(self):
        with pytest.raises(TypeError, match="ServiceConfig"):
            DecodeService({"workers": 3})
