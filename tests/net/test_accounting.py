"""Tests for MessageStats accounting."""

from __future__ import annotations

from repro.net.accounting import MessageStats
from repro.net.message import Message, MessageKind
from repro.net.payload import SizedValue


def _data(bits=8):
    return Message(MessageKind.DATA, 1, 2, 1, payload=SizedValue(0, bits))


def _control():
    return Message(MessageKind.CONTROL, 1, 2, 1)


class TestMessageStats:
    def test_send_vs_deliver_separated(self):
        s = MessageStats()
        s.on_send(_data())
        assert (s.data_sent, s.data_delivered) == (1, 0)
        s.on_deliver(_data())
        assert (s.data_sent, s.data_delivered) == (1, 1)

    def test_bits_accumulate(self):
        s = MessageStats()
        s.on_send(_data(10))
        s.on_send(_control())
        assert s.bits_sent == 11
        assert s.bits_delivered == 0

    def test_kind_routing(self):
        s = MessageStats()
        s.on_send(Message(MessageKind.ASYNC, 1, 2, 1, payload=SizedValue(0, 8), tag="x"))
        s.on_send(Message(MessageKind.MARKER, 1, 2))
        s.on_send(_control())
        s.on_send(_data())
        assert s.async_sent == 1
        assert s.marker_sent == 1
        assert s.control_sent == 1
        assert s.data_sent == 1
        assert s.messages_sent == 4

    def test_str_smoke(self):
        s = MessageStats()
        s.on_send(_data())
        assert "data 1/0" in str(s)


class TestBulkInterface:
    """The batch counters must be totals-equivalent to the per-message API."""

    def test_bulk_data_matches_per_message(self):
        per_msg, bulk = MessageStats(), MessageStats()
        payloads = [SizedValue(0, 8), SizedValue(1, 8), SizedValue(2, 24)]
        for i, payload in enumerate(payloads):
            msg = Message(MessageKind.DATA, 1, 2 + i, 1, payload=payload)
            per_msg.on_send(msg)
            per_msg.on_deliver(msg)
        bulk.bulk_data(3, 8 + 8 + 24)
        bulk.bulk_data(3, 8 + 8 + 24, delivered=True)
        assert bulk == per_msg

    def test_bulk_data_sent_only(self):
        s = MessageStats()
        s.bulk_data(5, 40)
        assert (s.data_sent, s.data_delivered) == (5, 0)
        assert (s.bits_sent, s.bits_delivered) == (40, 0)

    def test_bulk_control_matches_per_message(self):
        per_msg, bulk = MessageStats(), MessageStats()
        for dest in (2, 3, 4):
            msg = Message(MessageKind.CONTROL, 1, dest, 1)
            per_msg.on_send(msg)
            if dest != 4:  # one control message dropped
                per_msg.on_deliver(msg)
        bulk.bulk_control(sent=3, delivered=2)
        assert bulk == per_msg
