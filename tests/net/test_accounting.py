"""Tests for MessageStats accounting (bulk charging only)."""

from __future__ import annotations

import dataclasses

from repro.net.accounting import MessageStats
from repro.net.message import Message, MessageKind
from repro.net.payload import SizedValue


class TestMessageStats:
    def test_send_vs_deliver_separated(self):
        s = MessageStats()
        s.bulk_data(1, 8)
        assert (s.data_sent, s.data_delivered) == (1, 0)
        s.bulk_data(1, 8, delivered=True)
        assert (s.data_sent, s.data_delivered) == (1, 1)

    def test_bits_accumulate(self):
        s = MessageStats()
        s.bulk_data(1, 10)
        s.bulk_control(sent=1, delivered=0)
        assert s.bits_sent == 11
        assert s.bits_delivered == 0

    def test_kind_routing(self):
        s = MessageStats()
        s.bulk_async(1, 48)
        s.bulk_control(sent=1, delivered=0)
        s.bulk_data(1, 8)
        assert s.async_sent == 1
        assert s.control_sent == 1
        assert s.data_sent == 1
        assert s.marker_sent == 0
        assert s.messages_sent == 3

    def test_str_smoke(self):
        s = MessageStats()
        s.bulk_data(1, 8)
        assert "data 1/0" in str(s)


class TestBulkInterface:
    """Bulk charges must total what the messages themselves weigh."""

    def test_bulk_data_matches_message_bits(self):
        payloads = [SizedValue(0, 8), SizedValue(1, 8), SizedValue(2, 24)]
        bits = sum(
            Message(MessageKind.DATA, 1, 2 + i, 1, payload=p).bits()
            for i, p in enumerate(payloads)
        )
        s = MessageStats()
        s.bulk_data(3, bits)
        s.bulk_data(3, bits, delivered=True)
        assert (s.data_sent, s.data_delivered) == (3, 3)
        assert (s.bits_sent, s.bits_delivered) == (40, 40)

    def test_bulk_data_sent_only(self):
        s = MessageStats()
        s.bulk_data(5, 40)
        assert (s.data_sent, s.data_delivered) == (5, 0)
        assert (s.bits_sent, s.bits_delivered) == (40, 0)

    def test_bulk_control_is_one_bit_each(self):
        s = MessageStats()
        s.bulk_control(sent=3, delivered=2)  # one control message dropped
        assert (s.control_sent, s.control_delivered) == (3, 2)
        assert (s.bits_sent, s.bits_delivered) == (
            3 * Message(MessageKind.CONTROL, 1, 2, 1).bits(),
            2,
        )

    def test_per_message_interface_is_gone(self):
        fields = {f.name for f in dataclasses.fields(MessageStats)}
        assert {"marker_sent", "marker_delivered"} <= fields
        for name in ("on_send", "on_deliver", "_bump"):
            assert not hasattr(MessageStats, name)
