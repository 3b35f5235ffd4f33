"""Chandy–Lamport distributed snapshots — the fault-free ancestor of the
paper's synchronization messages.

The related-work section singles out the Chandy–Lamport marker as "maybe
the most known example" of a synchronization message: a content-free
message whose *position in the channel* carries the information, cleanly
separating the messages sent before it from those sent after.  The paper's
COMMIT plays the same structural role inside one round (everything before
it — the data step — is known complete).  This module implements the
original algorithm so the analogy is executable.

The substrate is a FIFO, reliable, failure-free message-passing system
(the algorithm's own model): an event-driven simulation whose per-channel
delivery order matches send order (delays are drawn per message but
monotonized per channel).  The demo application is the classic money
transfer system, whose conserved total makes snapshot consistency
checkable: **recorded balances + recorded in-transit money = total**.

Algorithm, per process:

* *initiate / first marker on channel c*: record local state, mark ``c``'s
  in-transit set empty, send a marker on every outgoing channel, start
  recording every other incoming channel;
* *subsequent messages on a recording channel*: add to that channel's
  in-transit record;
* *marker on channel c while already recording*: stop recording ``c``;
  its record is final.

The snapshot is complete when every process has received a marker on every
incoming channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.asyncsim.events import EventQueue
from repro.errors import ConfigurationError, SimulationError
from repro.net.message import Message, MessageKind
from repro.util.rng import RandomSource

__all__ = ["TransferSystem", "SnapshotRecord"]


@dataclass(slots=True)
class SnapshotRecord:
    """One process's recorded slice of the global snapshot."""

    pid: int
    state: Any = None
    recorded: bool = False
    channel_messages: dict[int, list[Any]] = field(default_factory=dict)
    recording: set[int] = field(default_factory=set)
    markers_seen: set[int] = field(default_factory=set)

    @property
    def complete(self) -> bool:
        """Has this process closed every incoming channel?"""
        return self.recorded and not self.recording


class TransferSystem:
    """Money-transfer application over FIFO channels + the snapshot layer."""

    def __init__(
        self,
        n: int,
        initial_balance: int = 100,
        *,
        rng: RandomSource | None = None,
        mean_delay: float = 1.0,
    ) -> None:
        if n < 2:
            raise ConfigurationError("need n >= 2")
        if initial_balance < 0:
            raise ConfigurationError("balances start non-negative")
        self.n = n
        self.queue = EventQueue()
        self.rng = rng or RandomSource(0)
        self.mean_delay = mean_delay
        self.balance: dict[int, int] = {pid: initial_balance for pid in range(1, n + 1)}
        self.total = n * initial_balance
        self.records: dict[int, SnapshotRecord] = {
            pid: SnapshotRecord(pid=pid) for pid in range(1, n + 1)
        }
        # Per-channel watermark guaranteeing FIFO delivery order.
        self._last_delivery: dict[tuple[int, int], float] = {}
        self.transfers_sent = 0
        self.markers_sent = 0

    # -- transport (FIFO) --------------------------------------------------------

    def _send(self, msg: Message) -> None:
        key = (msg.sender, msg.dest)
        raw = self.queue.now + self.rng.exponential(self.mean_delay)
        at = max(raw, self._last_delivery.get(key, 0.0) + 1e-9)
        self._last_delivery[key] = at
        self.queue.schedule_at(at, self._on_message, msg)

    def transfer(self, src: int, dest: int, amount: int) -> None:
        """Move money (debited now, credited on delivery — the in-transit
        window the snapshot must capture)."""
        if src == dest:
            raise ConfigurationError("no self transfers")
        if amount <= 0 or self.balance[src] < amount:
            return  # insufficient funds: drop the request (application policy)
        self.balance[src] -= amount
        self.transfers_sent += 1
        self._send(
            Message(MessageKind.ASYNC, src, dest, 0, payload=amount, tag="XFER")
        )

    def random_traffic(self, transfers: int, horizon: float) -> None:
        """Schedule ``transfers`` random transfer attempts before ``horizon``."""
        for _ in range(transfers):
            at = self.rng.uniform(0.0, horizon)
            src = self.rng.randint(1, self.n)
            dest = src
            while dest == src:
                dest = self.rng.randint(1, self.n)
            amount = self.rng.randint(1, 30)
            self.queue.schedule_at(
                at, lambda s=src, d=dest, a=amount: self.transfer(s, d, a)
            )

    # -- snapshot protocol -----------------------------------------------------------

    def initiate_snapshot(self, initiator: int, at: float) -> None:
        """Schedule snapshot initiation at time ``at``."""
        self.queue.schedule_at(at, lambda: self._record_and_flood(initiator, None))

    def _record_and_flood(self, pid: int, via_channel: int | None) -> None:
        rec = self.records[pid]
        if rec.recorded:
            return
        rec.recorded = True
        rec.state = self.balance[pid]
        rec.recording = {j for j in range(1, self.n + 1) if j != pid}
        if via_channel is not None:
            # The channel the first marker arrived on records as empty.
            rec.recording.discard(via_channel)
            rec.channel_messages[via_channel] = []
        for j in sorted(rec.recording):
            rec.channel_messages[j] = []
        for dest in range(1, self.n + 1):
            if dest != pid:
                self.markers_sent += 1
                self._send(Message(MessageKind.MARKER, pid, dest, 0))

    def _on_message(self, msg: Message) -> None:
        if msg.kind is MessageKind.MARKER:
            rec = self.records[msg.dest]
            if msg.sender in rec.markers_seen:
                raise SimulationError("duplicate marker on a channel")
            rec.markers_seen.add(msg.sender)
            if not rec.recorded:
                self._record_and_flood(msg.dest, msg.sender)
            else:
                rec.recording.discard(msg.sender)
            return
        # Application transfer.
        self.balance[msg.dest] += msg.payload
        rec = self.records[msg.dest]
        if rec.recorded and msg.sender in rec.recording:
            rec.channel_messages[msg.sender].append(msg.payload)

    # -- running + verification ---------------------------------------------------------

    def run(self, until: float = 1_000.0) -> None:
        """Drain the event queue."""
        self.queue.run(until=until)

    @property
    def snapshot_complete(self) -> bool:
        return all(rec.complete for rec in self.records.values())

    def snapshot_total(self) -> int:
        """Recorded balances + recorded in-transit money."""
        if not self.snapshot_complete:
            raise SimulationError("snapshot not complete yet")
        state_money = sum(rec.state for rec in self.records.values())
        transit_money = sum(
            sum(msgs)
            for rec in self.records.values()
            for msgs in rec.channel_messages.values()
        )
        return state_money + transit_money

    def check_consistency(self) -> list[str]:
        """Snapshot invariants (empty = consistent cut)."""
        problems = []
        if not self.snapshot_complete:
            problems.append("snapshot incomplete")
            return problems
        snap = self.snapshot_total()
        if snap != self.total:
            problems.append(
                f"conservation violated: snapshot money {snap} != total {self.total}"
            )
        live = sum(self.balance.values())
        # After quiescence all transfers delivered: live money == total too.
        if not self.queue.__len__() and live != self.total:
            problems.append(f"live money {live} != total {self.total}")
        return problems
