"""Unit tests for the wire message/trace/meter layer."""

import pytest

from repro.core.exceptions import InvalidPaymentError
from repro.net.transport import (
    HTTP_FRAMING_BYTES,
    Message,
    Trace,
    TraceEntry,
    TrafficMeter,
    error_size_bytes,
)


class TestMessage:
    def test_encoding_includes_method(self):
        message = Message(method="pay", payload={"k": 1})
        assert "_method=pay" in message.encoded()

    def test_size_includes_framing(self):
        message = Message(method="pay", payload={})
        assert message.size_bytes == message.body_bytes + HTTP_FRAMING_BYTES

    def test_size_grows_with_payload(self):
        small = Message(method="m", payload={"a": 1})
        large = Message(method="m", payload={"a": 1, "blob": "x" * 500})
        assert large.size_bytes > small.size_bytes + 400

    def test_deterministic_encoding(self):
        first = Message(method="m", payload={"q": 2, "a": 1})
        second = Message(method="m", payload={"a": 1, "q": 2})
        assert first.encoded() == second.encoded()

    def test_reserved_method_key_rejected(self):
        with pytest.raises(ValueError, match="_method"):
            Message(method="pay", payload={"_method": "withdraw/begin"})

    def test_reserved_error_key_rejected(self):
        with pytest.raises(ValueError, match="_error"):
            Message(method="pay", payload={"_error": "InvalidPaymentError"})


class TestErrorSize:
    def test_error_size_positive_and_framed(self):
        size = error_size_bytes(InvalidPaymentError("nonce mismatch"))
        assert size > HTTP_FRAMING_BYTES
        # Longer messages cost more bytes.
        assert error_size_bytes(InvalidPaymentError("x" * 200)) > size


class TestTrafficMeter:
    def test_accounting(self):
        meter = TrafficMeter()
        meter.record_sent(100)
        meter.record_sent(50)
        meter.record_received(70)
        assert meter.snapshot() == (150, 70)
        assert meter.messages_sent == 2
        assert meter.messages_received == 1


class TestTrace:
    def entry(self, src, dst, method, kind="request"):
        return TraceEntry(
            time=0.0, source=src, destination=dst, method=method, size_bytes=1, kind=kind
        )

    def test_methods_filters_requests(self):
        trace = Trace()
        trace.record(self.entry("a", "b", "pay"))
        trace.record(self.entry("b", "a", "pay", kind="response"))
        trace.record(self.entry("a", "c", "deposit"))
        assert trace.methods() == ["pay", "deposit"]

    def test_between(self):
        trace = Trace()
        trace.record(self.entry("a", "b", "pay"))
        trace.record(self.entry("b", "a", "pay", kind="response"))
        assert len(trace.between("a", "b")) == 1
        assert len(trace.between("b", "a")) == 1
        assert trace.between("a", "c") == []
