"""Message objects exchanged by simulated processes.

Two wire-level kinds exist in the paper's extended model:

* :attr:`MessageKind.DATA` — an application message sent in the *data step*;
  its content may depend on everything received in **previous** rounds.
* :attr:`MessageKind.CONTROL` — the 1-bit synchronization message sent in
  the *control step* along an ordered destination sequence.

The asynchronous simulator reuses the same class with ``MessageKind.ASYNC``
plus a protocol-level ``tag`` (e.g. ``"EST"``, ``"AUX"``, ``"DECIDE"``),
because asynchronous messages must carry their round number explicitly
(Section 4 of the paper points this out as a cost of asynchrony).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.net.payload import bit_size

__all__ = ["MessageKind", "Message", "ASYNC_HEADER_BITS", "async_bits"]

#: Wire overhead of one asynchronous message: a 32-bit round header plus
#: 8 bits of tag framing.  Asynchronous messages must carry their round
#: number explicitly — Section 4 of the paper counts this as an intrinsic
#: cost of asynchrony — so the header is charged on every ASYNC send.
ASYNC_HEADER_BITS = 32 + 8


def async_bits(payload: Any) -> int:
    """Wire cost of one ASYNC message carrying ``payload``.

    The single sizing authority for the asynchronous network: it sends
    plain tuples and never materializes a :class:`Message` (see
    :mod:`repro.asyncsim.network`), so it charges accounting through this
    helper instead of :meth:`Message.bits`; the two are definitionally
    identical.
    """
    return bit_size(payload) + ASYNC_HEADER_BITS


class MessageKind(enum.Enum):
    """Wire-level category of a message."""

    DATA = "data"
    CONTROL = "control"
    ASYNC = "async"
    MARKER = "marker"  # Chandy-Lamport snapshot marker (also a pure signal)


@dataclass(slots=True, unsafe_hash=True)
class Message:
    """An immutable message.

    Treat instances as immutable — one object may be shared between the
    network, the trace, and a receiver.  Not ``frozen``: the asynchronous
    simulator builds one per message on its hot path and a frozen
    dataclass pays ``object.__setattr__`` per field on every construction
    (``unsafe_hash`` keeps the by-value hashing frozen used to provide).

    Attributes
    ----------
    kind:
        Wire-level category.
    sender / dest:
        1-based process ids.
    round_no:
        Sending round (synchronous models) or protocol round carried in the
        message (asynchronous model); 0 when not meaningful.
    payload:
        Application content. ``None`` for CONTROL/MARKER signals.
    tag:
        Protocol-level discriminator for ASYNC messages (empty otherwise).
    """

    kind: MessageKind
    sender: int
    dest: int
    round_no: int = 0
    payload: Any = None
    tag: str = ""

    def bits(self) -> int:
        """Bits charged on the wire for this message.

        CONTROL and MARKER messages cost exactly 1 bit (the paper's
        accounting: a pure signal).  DATA costs the payload width.  ASYNC
        costs payload width plus a 32-bit round header plus 8 bits of tag
        framing, reflecting that asynchronous messages must carry their
        round number (Section 4).
        """
        if self.kind in (MessageKind.CONTROL, MessageKind.MARKER):
            return 1
        if self.kind is MessageKind.DATA:
            return bit_size(self.payload)
        return async_bits(self.payload)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        core = f"{self.kind.value}[r{self.round_no}] {self.sender}->{self.dest}"
        if self.tag:
            core += f" {self.tag}"
        if self.payload is not None:
            core += f" {self.payload}"
        return core
