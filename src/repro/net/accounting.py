"""Per-run message and bit accounting.

Theorem 2 (bit complexity) is reproduced by instrumenting every engine with
a :class:`MessageStats` sink.  Sends and deliveries are counted separately:
a message *sent* by a process that crashed mid-step may never be
*delivered*, and the paper's worst-case bound counts transmitted messages.

Every counter is charged in bulk, the way the paper's analysis counts:
:meth:`MessageStats.bulk_data` / :meth:`MessageStats.bulk_control` take a
synchronous round's data and COMMIT traffic in aggregate (traced or
not), and :meth:`MessageStats.bulk_async` charges the continuous-time
simulators (the asynchronous network and the fast-failure-detector
environment) per send or broadcast fan-out.  No message object is
needed to charge anything.  No engine charges the ``marker_*``
counters (the snapshot module keeps no stats); they stay so that
``asdict(stats)`` keeps its shape.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    # -- bulk charging ------------------------------------------------------

    def bulk_data(self, count: int, bits: int, *, delivered: bool = False) -> None:
        """Charge ``count`` DATA messages totalling ``bits`` in one call.

        Charges the sent counters by default; pass ``delivered=True`` for
        the delivered side (a delivered batch must also have been charged
        as sent).
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
        it here.
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
