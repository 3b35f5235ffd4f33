"""Traffic generators: open- and closed-loop client workloads.

The two canonical load shapes for serving benchmarks:

* **closed loop** — each client keeps exactly one request outstanding
  and issues the next one when the previous settles (ack, failure, or
  refusal), optionally after a think time.  Offered load adapts to
  service latency; this is the steady-state replication shape.
* **open loop** — arrivals come from a seeded Poisson process at a fixed
  rate, regardless of outstanding requests.  Offered load does *not*
  adapt, so leader crashes back commands up in the pending queue and the
  latency tail (p99) shows it — the honest way to measure chaos cost.

Workloads emit ``(session, op)`` pairs; the service assigns per-session
request ids.  Op streams are deterministic functions of
``(machine, session, sequence)`` so every run is replayable.
"""

from __future__ import annotations

import abc
import math

from repro.errors import ConfigurationError
from repro.util.rng import RandomSource

__all__ = ["command_stream", "Workload", "ClosedLoopWorkload", "OpenLoopWorkload"]


def command_stream(machine: str, session: int, seq: int) -> str:
    """The ``seq``-th op of ``session``'s command stream for ``machine``.

    Deterministic and machine-valid: kv sessions write a small rotating
    key set (with periodic deletes), counter sessions mix increments and
    decrements.
    """
    if machine == "kv":
        key = f"s{session}.k{seq % 8}"
        if seq % 7 == 6:
            return f"del {key}"
        return f"set {key} v{seq}"
    if machine == "counter":
        if seq % 5 == 4:
            return f"sub {1 + seq % 3}"
        return f"add {1 + seq % 3}"
    raise ConfigurationError(
        f"no command stream for machine {machine!r}; available: kv, counter"
    )


class Workload(abc.ABC):
    """What the service loop needs from a traffic source."""

    #: Total requests this workload will ever offer.
    total_requests: int

    @abc.abstractmethod
    def due(self, now: float) -> list[tuple[int, str]]:
        """Arrivals with time <= ``now``: ``(session, op)`` pairs, in order."""

    @abc.abstractmethod
    def next_arrival(self) -> float | None:
        """Time of the next known future arrival (None when unknown/none).

        Closed-loop clients waiting on an outstanding request have no
        known arrival time — their next request is unlocked by
        :meth:`on_settle`, so they do not appear here.
        """

    @abc.abstractmethod
    def on_settle(self, session: int, now: float) -> None:
        """A request of ``session`` settled (acked or failed)."""

    def on_refuse(self, session: int) -> None:
        """An arrival of ``session`` was refused (service draining)."""

    @abc.abstractmethod
    def exhausted(self) -> bool:
        """True when no future arrival will ever come."""


class ClosedLoopWorkload(Workload):
    """``clients`` sessions, one outstanding request each."""

    def __init__(
        self,
        clients: int,
        requests_per_client: int,
        *,
        machine: str = "kv",
        think_time: float = 0.0,
    ) -> None:
        if clients < 1:
            raise ConfigurationError(f"need >= 1 client, got {clients}")
        if requests_per_client < 1:
            raise ConfigurationError(
                f"need >= 1 request per client, got {requests_per_client}"
            )
        if not 0 <= think_time < math.inf:
            raise ConfigurationError(
                f"think_time must be finite and >= 0, got {think_time}"
            )
        self.clients = clients
        self.quota = requests_per_client
        self.machine = machine
        self.think_time = think_time
        self.total_requests = clients * requests_per_client
        self._issued = {s: 0 for s in range(1, clients + 1)}
        self._waiting = {s: False for s in range(1, clients + 1)}
        self._ready_at = {s: 0.0 for s in range(1, clients + 1)}
        self._halted = {s: False for s in range(1, clients + 1)}

    def due(self, now: float) -> list[tuple[int, str]]:
        out: list[tuple[int, str]] = []
        for s in range(1, self.clients + 1):
            if (
                not self._halted[s]
                and not self._waiting[s]
                and self._issued[s] < self.quota
                and self._ready_at[s] <= now
            ):
                op = command_stream(self.machine, s, self._issued[s])
                self._issued[s] += 1
                self._waiting[s] = True
                out.append((s, op))
        return out

    def next_arrival(self) -> float | None:
        times = [
            self._ready_at[s]
            for s in range(1, self.clients + 1)
            if not self._halted[s]
            and not self._waiting[s]
            and self._issued[s] < self.quota
        ]
        return min(times) if times else None

    def on_settle(self, session: int, now: float) -> None:
        self._waiting[session] = False
        self._ready_at[session] = now + self.think_time

    def on_refuse(self, session: int) -> None:
        # A refused client stops offering load: the drain is terminal.
        self._halted[session] = True
        self._waiting[session] = False

    def exhausted(self) -> bool:
        return all(
            self._halted[s] or (self._issued[s] >= self.quota and not self._waiting[s])
            or (self._issued[s] >= self.quota)
            for s in range(1, self.clients + 1)
        )


class OpenLoopWorkload(Workload):
    """Poisson arrivals at ``rate`` per virtual-time unit, round-robin sessions."""

    def __init__(
        self,
        clients: int,
        requests: int,
        *,
        rate: float = 1.0,
        machine: str = "kv",
        rng: RandomSource | None = None,
    ) -> None:
        if clients < 1:
            raise ConfigurationError(f"need >= 1 client, got {clients}")
        if requests < 1:
            raise ConfigurationError(f"need >= 1 request, got {requests}")
        if not 0 < rate < math.inf:
            raise ConfigurationError(f"rate must be finite and > 0, got {rate}")
        self.clients = clients
        self.machine = machine
        self.total_requests = requests
        rng = rng or RandomSource(0)
        arrivals = []
        t = 0.0
        seqs = {s: 0 for s in range(1, clients + 1)}
        for i in range(requests):
            t += rng.exponential(1.0 / rate)
            session = i % clients + 1
            arrivals.append((t, session, command_stream(machine, session, seqs[session])))
            seqs[session] += 1
        self._arrivals = arrivals
        self._next = 0

    def due(self, now: float) -> list[tuple[int, str]]:
        out: list[tuple[int, str]] = []
        while self._next < len(self._arrivals) and self._arrivals[self._next][0] <= now:
            _, session, op = self._arrivals[self._next]
            out.append((session, op))
            self._next += 1
        return out

    def next_arrival(self) -> float | None:
        if self._next < len(self._arrivals):
            return self._arrivals[self._next][0]
        return None

    def on_settle(self, session: int, now: float) -> None:
        pass  # open loop: arrivals do not depend on completions

    def exhausted(self) -> bool:
        return self._next >= len(self._arrivals)
