"""Per-run message and bit accounting.

Theorem 2 (bit complexity) is reproduced by instrumenting every engine with
a :class:`MessageStats` sink.  Sends and deliveries are counted separately:
a message *sent* by a process that crashed mid-step may never be
*delivered*, and the paper's worst-case bound counts transmitted messages.

Two interfaces feed the counters:

* :meth:`MessageStats.on_send` / :meth:`MessageStats.on_deliver` take a
  materialized :class:`~repro.net.message.Message`.  Only the traced
  synchronous delivery uses them: it builds every message anyway, to
  record it;
* the bulk methods charge without any message objects.
  :meth:`MessageStats.bulk_data` / :meth:`MessageStats.bulk_control`
  count an untraced synchronous round's traffic the way the paper's
  analysis does, in aggregate; :meth:`MessageStats.bulk_async` charges
  the continuous-time simulators (the asynchronous network and the
  fast-failure-detector environment) per send or broadcast fan-out.

The traced and untraced synchronous paths produce identical totals
(pinned by ``tests/net/test_accounting.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.message import Message, MessageKind

__all__ = ["MessageStats"]


@dataclass(slots=True)
class MessageStats:
    """Mutable counters for one simulated run."""

    data_sent: int = 0
    data_delivered: int = 0
    control_sent: int = 0
    control_delivered: int = 0
    async_sent: int = 0
    async_delivered: int = 0
    marker_sent: int = 0
    marker_delivered: int = 0
    bits_sent: int = 0
    bits_delivered: int = 0

    def on_send(self, msg: Message) -> None:
        """Record a transmission attempt that reached the wire."""
        self._bump(msg, sent=True)

    def on_deliver(self, msg: Message) -> None:
        """Record a successful delivery."""
        self._bump(msg, sent=False)

    def _bump(self, msg: Message, sent: bool) -> None:
        bits = msg.bits()
        if sent:
            self.bits_sent += bits
        else:
            self.bits_delivered += bits
        if msg.kind is MessageKind.DATA:
            if sent:
                self.data_sent += 1
            else:
                self.data_delivered += 1
        elif msg.kind is MessageKind.CONTROL:
            if sent:
                self.control_sent += 1
            else:
                self.control_delivered += 1
        elif msg.kind is MessageKind.MARKER:
            if sent:
                self.marker_sent += 1
            else:
                self.marker_delivered += 1
        else:
            if sent:
                self.async_sent += 1
            else:
                self.async_delivered += 1

    # -- batch interface (allocation-free fast path) -----------------------

    def bulk_data(self, count: int, bits: int, *, delivered: bool = False) -> None:
        """Charge ``count`` DATA messages totalling ``bits`` in one call.

        Charges the sent counters by default; pass ``delivered=True`` for
        the delivered side (a delivered batch must also have been charged
        as sent, exactly like the per-message interface).
        """
        if delivered:
            self.data_delivered += count
            self.bits_delivered += bits
        else:
            self.data_sent += count
            self.bits_sent += bits

    def bulk_control(self, sent: int, delivered: int) -> None:
        """Charge a batch of CONTROL messages (exactly 1 bit each)."""
        self.control_sent += sent
        self.control_delivered += delivered
        self.bits_sent += sent
        self.bits_delivered += delivered

    def bulk_async(self, count: int, bits: int, *, delivered: bool = False) -> None:
        """Charge ``count`` ASYNC messages totalling ``bits`` in one call.

        Mirrors :meth:`bulk_data`: the asynchronous network sizes a
        payload once per send (or once per broadcast fan-out) and charges
        here instead of routing every message through :meth:`on_send` /
        :meth:`on_deliver`'s kind dispatch.
        """
        if delivered:
            self.async_delivered += count
            self.bits_delivered += bits
        else:
            self.async_sent += count
            self.bits_sent += bits

    # -- derived ----------------------------------------------------------

    @property
    def messages_sent(self) -> int:
        """Total messages that reached the wire, any kind."""
        return self.data_sent + self.control_sent + self.async_sent + self.marker_sent

    @property
    def messages_delivered(self) -> int:
        """Total messages delivered, any kind."""
        return (
            self.data_delivered
            + self.control_delivered
            + self.async_delivered
            + self.marker_delivered
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"data {self.data_sent}/{self.data_delivered} "
            f"ctrl {self.control_sent}/{self.control_delivered} "
            f"async {self.async_sent}/{self.async_delivered} "
            f"bits {self.bits_sent}/{self.bits_delivered} (sent/delivered)"
        )
