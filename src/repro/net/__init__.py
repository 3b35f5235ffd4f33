"""Message substrate: payloads, messages, accounting."""

from repro.net.accounting import MessageStats
from repro.net.message import Message, MessageKind
from repro.net.payload import SizedValue, bit_size

__all__ = [
    "MessageStats",
    "Message",
    "MessageKind",
    "SizedValue",
    "bit_size",
]
