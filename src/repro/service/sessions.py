"""Client sessions: timeouts, exponential-backoff retries, idempotent dedup.

Exactly-once semantics over an at-least-once transport, the classic way:

* every request carries a ``(session_id, request_id)`` identity that
  rides inside the committed :class:`~repro.rsm.machine.Command`;
* the server keeps a **commit ledger** keyed by that identity — a
  retried request whose original attempt already committed is answered
  from the ledger instead of being proposed again, so no command is ever
  applied twice;
* acks are stamped with the ring epoch they were issued under, and
  :meth:`SessionTable.accept_ack` rejects any ack whose epoch is no
  longer current — the fencing that stops a deposed leader's late
  decision from reaching a client.

Clients drive retries with a deadline per attempt and exponential
backoff between attempts (capped), giving bounded, deterministic retry
schedules in virtual time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.service.ring import LeaderRing

__all__ = ["RetryPolicy", "Request", "Ack", "CommitRecord", "SessionTable"]


@dataclass(slots=True, frozen=True)
class RetryPolicy:
    """Client-side timeout/retry knobs (virtual-time units)."""

    timeout: float = 12.0  # per-attempt ack deadline
    backoff_base: float = 1.0  # wait before retry k: base * 2**(k-1) ...
    backoff_cap: float = 8.0  # ... capped here
    max_attempts: int = 8  # total attempts before failing honestly

    def __post_init__(self) -> None:
        if not 0 < self.timeout < math.inf:
            raise ConfigurationError(
                f"timeout must be finite and > 0, got {self.timeout}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def backoff(self, attempt: int) -> float:
        """Wait before retry attempt ``attempt`` (2 = first retry)."""
        if attempt < 2:
            return 0.0
        return min(self.backoff_base * 2.0 ** (attempt - 2), self.backoff_cap)


@dataclass(slots=True)
class Request:
    """One client request's lifecycle, tracked by the service loop."""

    session: int
    request_id: int
    op: str
    submitted_at: float  # first submission (latency baseline)
    deadline: float  # current attempt's ack deadline
    eligible_at: float = 0.0  # earliest propose time (backoff gate)
    attempts: int = 1
    acked_at: float | None = None
    failed: bool = False
    refused: bool = False

    @property
    def key(self) -> tuple[int, int]:
        return (self.session, self.request_id)

    @property
    def settled(self) -> bool:
        """Terminal: acked, failed, or refused."""
        return self.acked_at is not None or self.failed or self.refused


@dataclass(slots=True, frozen=True)
class Ack:
    """A commit acknowledgement, stamped with its issuing epoch/leader."""

    session: int
    request_id: int
    slot: int
    epoch: int
    leader: int
    at: float


@dataclass(slots=True, frozen=True)
class CommitRecord:
    """Ledger entry: where (and under which epoch) a request committed."""

    slot: int
    epoch: int
    leader: int


class SessionTable:
    """Server-side dedup ledger + fencing gate."""

    __slots__ = ("_commits", "rejected_stale")

    def __init__(self) -> None:
        self._commits: dict[tuple[int, int], CommitRecord] = {}
        self.rejected_stale = 0

    def __len__(self) -> int:
        return len(self._commits)

    def committed(self, key: tuple[int, int]) -> CommitRecord | None:
        """The commit record for ``key``, or None if never committed."""
        return self._commits.get(key)

    def record_commit(self, key: tuple[int, int], record: CommitRecord) -> bool:
        """Record a commit; False when ``key`` already committed (a dedup
        violation upstream — the caller surfaces it, nothing is
        overwritten)."""
        if key in self._commits:
            return False
        self._commits[key] = record
        return True

    def accept_ack(self, ack: Ack, ring: LeaderRing) -> bool:
        """Fencing gate: only current-epoch acks reach clients.

        An ack stamped with a deposed leader's epoch is dropped (and
        counted) — the client will time out and retry, landing on the
        commit ledger under the new leader.
        """
        if not ring.fences(ack.epoch):
            self.rejected_stale += 1
            return False
        return True
