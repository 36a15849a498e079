"""Unit tests for producer/broker configuration and the hardware profile."""

import pytest

from repro.kafka import (
    BrokerConfig,
    DEFAULT_PRODUCER_CONFIG,
    DeliverySemantics,
    HardwareProfile,
    ProducerConfig,
)


class TestProducerConfig:
    def test_defaults_are_valid(self):
        config = ProducerConfig()
        assert config.semantics is DeliverySemantics.AT_LEAST_ONCE
        assert config.batch_size == 1

    def test_with_replaces_fields(self):
        config = ProducerConfig().with_(batch_size=4, message_timeout_s=2.0)
        assert config.batch_size == 4
        assert config.message_timeout_s == 2.0
        assert ProducerConfig().batch_size == 1  # original untouched

    def test_with_parses_semantics_strings(self):
        config = ProducerConfig().with_(semantics="at_most_once")
        assert config.semantics is DeliverySemantics.AT_MOST_ONCE

    def test_effective_retries_zero_for_at_most_once(self):
        config = ProducerConfig(semantics=DeliverySemantics.AT_MOST_ONCE, max_retries=7)
        assert config.effective_retries == 0

    def test_effective_retries_for_at_least_once(self):
        config = ProducerConfig(max_retries=7)
        assert config.effective_retries == 7

    @pytest.mark.parametrize(
        "field,value",
        [
            ("batch_size", 0),
            ("polling_interval_s", -0.1),
            ("message_timeout_s", 0.0),
            ("request_timeout_s", 0.0),
            ("retry_backoff_s", -1.0),
            ("max_retries", -1),
            ("max_in_flight", 0),
            ("linger_s", -0.1),
            ("queue_capacity", 0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ProducerConfig(**{field: value})

    def test_default_preset_is_streaming_mode(self):
        assert DEFAULT_PRODUCER_CONFIG.batch_size == 1
        assert DEFAULT_PRODUCER_CONFIG.polling_interval_s == 0.0
        assert DEFAULT_PRODUCER_CONFIG.request_timeout_s < DEFAULT_PRODUCER_CONFIG.message_timeout_s


class TestDeliverySemantics:
    def test_parse_accepts_enum_and_string(self):
        assert DeliverySemantics.parse("at_least_once") is DeliverySemantics.AT_LEAST_ONCE
        assert (
            DeliverySemantics.parse(DeliverySemantics.EXACTLY_ONCE)
            is DeliverySemantics.EXACTLY_ONCE
        )

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            DeliverySemantics.parse("at_best_effort")

    def test_flags(self):
        assert not DeliverySemantics.AT_MOST_ONCE.waits_for_ack
        assert DeliverySemantics.AT_LEAST_ONCE.waits_for_ack
        assert not DeliverySemantics.AT_LEAST_ONCE.idempotent
        assert DeliverySemantics.EXACTLY_ONCE.idempotent
        assert not DeliverySemantics.AT_MOST_ONCE.retries_allowed


class TestHardwareProfile:
    def test_serialization_time_scales_with_bytes(self):
        hardware = HardwareProfile()
        small = hardware.serialization_time_s(100, 1)
        large = hardware.serialization_time_s(10000, 1)
        assert large > small

    def test_batch_overhead_amortised(self):
        hardware = HardwareProfile()
        per_message_single = hardware.serialization_time_s(200, 1)
        per_message_batched = hardware.serialization_time_s(2000, 10) / 10
        assert per_message_batched < per_message_single

    def test_full_load_rate_inverse_in_size(self):
        hardware = HardwareProfile()
        assert hardware.full_load_rate(100, False) > hardware.full_load_rate(400, False)

    def test_ack_overhead_slows_full_load(self):
        hardware = HardwareProfile()
        assert hardware.full_load_rate(200, True) < hardware.full_load_rate(200, False)

    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareProfile(io_bytes_per_s=0)
        with pytest.raises(ValueError):
            HardwareProfile(ack_overhead_factor=0.0)
        with pytest.raises(ValueError):
            HardwareProfile(source_burst_off_s=-1.0)

    def test_socket_window_must_be_positive(self):
        # The at-most-once producer's send window: zero slots would park
        # every record in the accumulator until it expired.
        with pytest.raises(ValueError, match="socket_window_requests"):
            HardwareProfile(socket_window_requests=0)


class TestBrokerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BrokerConfig(processing_time_s=-1)
        with pytest.raises(ValueError):
            BrokerConfig(append_bytes_per_s=0)
        with pytest.raises(ValueError):
            BrokerConfig(replication_factor=0)
