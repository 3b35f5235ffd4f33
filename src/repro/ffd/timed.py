"""Timed synchronous model with a *fast failure detector* (ALT02).

The paper's related-work section contrasts its extended model with the
fast-failure-detector model of Aguilera, Le Lann and Toueg (DISC'02): a
synchronous system where message delay (plus processing) is bounded by
``D`` while a hardware-assisted detector reports any crash within
``d ≪ D``.  Their consensus algorithm decides in time ``D + f·d``; our E6
experiment compares that curve against the extended model's
``(f+1)(D+d)``.

This module provides the substrate: a continuous-time simulation with

* per-message delays drawn in ``[delta_min·D, D]`` (reliable channels);
* crash injection at absolute times, or *during* a process's takeover
  broadcast with an explicit delivered subset (the interesting adversary);
* a fast detector that reports a crash to every observer within ``d``,
  **timestamped** with the true crash time.  (Timestamping is a mild,
  documented strengthening over ALT02 that lets every observer reconstruct
  the same takeover history; it is implementable by the same synchronized
  hardware that makes the detector fast.)

Model requirement checked at construction: ``n·d < D`` — the takeover grid
(one slot every ``d``) must complete before the earliest possible decision
at time ``D``.  This matches the regime the DISC'02 paper targets
(``d`` orders of magnitude below ``D``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.asyncsim.events import EventQueue
from repro.asyncsim.network import _require_finite
from repro.errors import ConfigurationError
from repro.net.accounting import MessageStats
from repro.net.message import Message, MessageKind
from repro.util.rng import RandomSource

__all__ = ["TimedSpec", "TimedCrash", "FastDetectorView", "TimedEnvironment"]


@dataclass(frozen=True)
class TimedSpec:
    """Timing parameters of the fast-FD model."""

    n: int
    D: float = 100.0  # round-trip-ish bound: message delay + processing
    d: float = 1.0  # crash-detection latency bound (d << D)
    delta_min: float = 0.3  # messages take at least delta_min * D

    def __post_init__(self) -> None:
        _require_finite(self)  # NaN and D=inf pass every check below
        if self.n < 2:
            raise ConfigurationError("need n >= 2")
        if self.D <= 0 or self.d <= 0:
            raise ConfigurationError("D and d must be > 0")
        if not 0 <= self.delta_min <= 1:
            raise ConfigurationError("delta_min must be in [0, 1]")
        if self.n * self.d >= self.D:
            raise ConfigurationError(
                f"fast-FD model needs n*d < D (takeover grid inside one message "
                f"delay); got n={self.n}, d={self.d}, D={self.D}"
            )


@dataclass(frozen=True)
class TimedCrash:
    """Crash ``pid`` at ``time``; if ``takeover_subset`` is not None and the
    crash instant coincides with the process's takeover broadcast, only that
    subset of destinations receives the broadcast (ordered-subset adversary
    of the takeover step)."""

    pid: int
    time: float
    takeover_subset: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ConfigurationError(
                f"crash time must be finite and >= 0, got {self.time!r}"
            )


class FastDetectorView:
    """One observer's view of the fast detector: crash reports with true
    crash timestamps, visible ``<= d`` after the crash.

    ``version`` increments on every new report, so derived read-only
    views (the consensus layer's fired-slot reconstruction) can be cached
    and invalidated without re-scanning the report map.
    """

    __slots__ = ("observer", "_env", "reports", "version")

    def __init__(self, observer: int, env: "TimedEnvironment") -> None:
        self.observer = observer
        self._env = env
        self.reports: dict[int, float] = {}  # pid -> true crash time
        self.version = 0

    def crashed_by(self, pid: int, time: float) -> bool:
        """Did ``pid`` crash at or before ``time`` (per current reports)?"""
        t = self.reports.get(pid)
        return t is not None and t <= time


class TimedEnvironment:
    """Event queue + network + fast detector + crash injection."""

    def __init__(
        self,
        spec: TimedSpec,
        crashes: list[TimedCrash],
        rng: RandomSource,
    ) -> None:
        self.spec = spec
        self.queue = EventQueue()
        self.rng = rng
        self.stats = MessageStats()
        self.crashed: dict[int, float] = {}
        #: Pids neither decided nor crashed: crashes discard here, the
        #: consensus layer discards on decide, and the run stops once it
        #: is empty (one truthiness test per event).
        self.unsettled: set[int] = set(range(1, spec.n + 1))
        self._crash_plan: dict[int, TimedCrash] = {}
        for c in crashes:
            if c.pid in self._crash_plan:
                raise ConfigurationError(f"p{c.pid} crashes twice")
            if not 1 <= c.pid <= spec.n:
                raise ConfigurationError(f"crash pid {c.pid} out of range")
            self._crash_plan[c.pid] = c
        self.detectors = {
            pid: FastDetectorView(pid, self) for pid in range(1, spec.n + 1)
        }
        self._on_deliver: Callable[[Message], None] | None = None
        self._on_fd: Callable[[int], None] | None = None
        # Preresolved timing bounds and frozen pid tables: the per-message
        # and per-crash paths below draw on these instead of rebuilding
        # ranges and recomputing products per step.
        self._delay_lo = spec.delta_min * spec.D
        self._delay_hi = spec.D
        self._fd_latency_lo = 0.1 * spec.d
        self._fd_latency_hi = spec.d
        self._all_pids: tuple[int, ...] = tuple(range(1, spec.n + 1))
        self._others: dict[int, tuple[int, ...]] = {
            pid: tuple(j for j in self._all_pids if j != pid)
            for pid in self._all_pids
        }

    # -- wiring ---------------------------------------------------------------

    def wire(
        self,
        on_deliver: Callable[[Message], None],
        on_fd: Callable[[int], None],
    ) -> None:
        """Install protocol callbacks, then schedule the planned crashes."""
        self._on_deliver = on_deliver
        self._on_fd = on_fd
        for crash in self._crash_plan.values():
            if crash.takeover_subset is None:
                self.queue.schedule_at(crash.time, self._crash_now, crash.pid)
            # takeover-subset crashes fire inside broadcast_takeover()

    # -- crash machinery --------------------------------------------------------

    def _crash_now(self, pid: int) -> None:
        if pid in self.crashed:
            return
        now = self.queue.now
        self.crashed[pid] = now
        self.unsettled.discard(pid)
        schedule = self.queue.schedule
        uniform = self.rng.uniform
        lo, hi = self._fd_latency_lo, self._fd_latency_hi
        for observer in self._others[pid]:
            schedule(uniform(lo, hi), self._report, (observer, pid, now))

    def _report(self, entry: tuple[int, int, float]) -> None:
        observer, pid, crash_time = entry
        if observer in self.crashed:
            return
        view = self.detectors[observer]
        if pid not in view.reports:
            view.reports[pid] = crash_time
            view.version += 1
            assert self._on_fd is not None
            self._on_fd(observer)

    def takeover_crash_plan(self, pid: int) -> frozenset[int] | None:
        """The during-takeover delivered subset for ``pid``, if scheduled."""
        crash = self._crash_plan.get(pid)
        if crash is not None and crash.takeover_subset is not None:
            return crash.takeover_subset
        return None

    def is_crashed(self, pid: int) -> bool:
        """Ground truth used by the runner (never by protocol logic)."""
        return pid in self.crashed

    # -- message transport ---------------------------------------------------------

    def _delay(self) -> float:
        return self.rng.uniform(self._delay_lo, self._delay_hi)

    def _deliver_msg(self, entry: tuple[Message, int]) -> None:
        """Shared delivery action (crash check precedes the delivery charge)."""
        msg, bits = entry
        if msg.dest in self.crashed:
            return
        self.stats.bulk_async(1, bits, delivered=True)
        assert self._on_deliver is not None
        self._on_deliver(msg)

    def unicast(self, sender: int, dest: int, tag: str, payload: Any) -> None:
        """Send one message with a model-drawn delay."""
        msg = Message(MessageKind.ASYNC, sender, dest, 0, payload=payload, tag=tag)
        bits = msg.bits()
        self.stats.bulk_async(1, bits)
        self.queue.schedule(self._delay(), self._deliver_msg, (msg, bits))

    def broadcast_takeover(self, pid: int, tag: str, payload: Any) -> bool:
        """Takeover broadcast with message-granular crash semantics.

        Returns True if the broadcast completed (no during-takeover crash).
        On a during-takeover crash, delivers to the scheduled subset only
        and crashes the sender at the current instant.
        """
        subset = self.takeover_crash_plan(pid)
        dests = self._others[pid]
        if subset is None:
            for dest in dests:
                self.unicast(pid, dest, tag, payload)
            return True
        for dest in dests:
            if dest in subset:
                self.unicast(pid, dest, tag, payload)
        self._crash_now(pid)
        return False
