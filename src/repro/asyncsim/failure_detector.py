"""Simulated failure detectors of the Chandra–Toueg hierarchy.

MR99 (the algorithm the paper's Section 4 bridges to) is designed for ◇S:

* **strong completeness** — every crashed process is eventually suspected
  by every correct process, and
* **eventual weak accuracy** — eventually some correct process is never
  suspected.

A simulation owns the ground truth (who crashed when), so the detector is
modelled behaviourally: before a per-observer *stabilization time* it may
erroneously suspect arbitrary live processes (rng-driven churn); after it,
its output is exactly the crashed set with a detection latency — which
satisfies ◇P and therefore ◇S.  The churn phase is what exercises MR99's
indulgence (coordinator wrongly suspected ⇒ round wasted, never safety
lost).

Suspicion changes are *pushed*: the detector invokes a callback so the
event-driven protocol can re-evaluate its waits without polling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.asyncsim.events import EventQueue
from repro.asyncsim.network import _require_finite
from repro.errors import ConfigurationError
from repro.util.rng import RandomSource

__all__ = ["DetectorSpec", "SimulatedDiamondS"]


@dataclass(frozen=True)
class DetectorSpec:
    """Behavioural parameters of the simulated detector.

    Attributes
    ----------
    stabilization_time:
        Before this simulated time the detector may make mistakes;
        after it, output is ground truth with ``detection_latency`` lag.
    detection_latency:
        How long after a crash the (stabilized) detector reports it.
    churn_rate:
        Expected number of false-suspicion events per observer per time
        unit before stabilization (0 = a perfect detector from the start).
    false_suspicion_duration:
        How long an erroneous suspicion lasts before being retracted.
    """

    stabilization_time: float = 0.0
    detection_latency: float = 1.0
    churn_rate: float = 0.0
    false_suspicion_duration: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.stabilization_time < 0 or self.detection_latency < 0:
            raise ConfigurationError("times must be >= 0")
        if self.churn_rate < 0 or self.false_suspicion_duration <= 0:
            raise ConfigurationError("churn_rate >= 0, duration > 0 required")


class SimulatedDiamondS:
    """One ◇S module per observer process, sharing ground truth.

    ``on_change(observer)`` is called whenever ``suspected(observer)``
    may have changed, letting protocols re-check their wait conditions.
    """

    def __init__(
        self,
        n: int,
        queue: EventQueue,
        spec: DetectorSpec,
        rng: RandomSource,
        on_change: Callable[[int], None] | None = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError("need at least one process")
        self.n = n
        self.queue = queue
        self.spec = spec
        self.on_change = on_change or (lambda observer: None)
        self.reset(rng)

    def reset(self, rng: RandomSource) -> None:
        """Return to the freshly constructed state for a new run.

        Re-derives the ``"fd"`` child stream from ``rng`` exactly as
        construction does, clears ground truth and every observer's
        suspicions, and reschedules the pre-stabilization churn — the
        queue must already be rewound.  Reused by leased runners; a reset
        detector is indistinguishable from a new one.
        """
        n = self.n
        self.rng = rng.spawn("fd")
        self._crashed: set[int] = set()  # ground truth
        self._reported: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
        self._false: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
        if self.spec.churn_rate > 0 and self.spec.stabilization_time > 0:
            for observer in range(1, n + 1):
                self._schedule_churn(observer)

    # -- ground-truth hooks (called by the runner) --------------------------

    def notify_crash(self, pid: int) -> None:
        """Record a real crash; schedule its detection at every observer."""
        self._crashed.add(pid)
        schedule = self.queue.schedule
        latency_bound = self.spec.detection_latency
        uniform = self.rng.uniform
        for observer in range(1, self.n + 1):
            if observer == pid:
                continue
            # Detection latency is per (observer, crashed) pair.  One
            # shared bound method carries (observer, pid) as the event
            # argument — no closure per observer.
            schedule(latency_bound * uniform(0.5, 1.0), self._report, (observer, pid))

    def _report(self, entry: tuple[int, int]) -> None:
        observer, pid = entry
        if pid not in self._reported[observer]:
            self._reported[observer].add(pid)
            self.on_change(observer)

    # -- pre-stabilization churn --------------------------------------------

    def _schedule_churn(self, observer: int) -> None:
        gap = self.rng.exponential(1.0 / self.spec.churn_rate)
        when = self.queue.now + gap
        if when >= self.spec.stabilization_time:
            return  # churn ends at stabilization

        def misfire() -> None:
            victim = self.rng.randint(1, self.n)
            if victim != observer and victim not in self._reported[observer]:
                self._false[observer].add(victim)
                self.on_change(observer)
                self.queue.schedule(
                    self.spec.false_suspicion_duration,
                    lambda: self._retract(observer, victim),
                )
            self._schedule_churn(observer)

        self.queue.schedule(gap, misfire)

    def _retract(self, observer: int, victim: int) -> None:
        if victim in self._false[observer]:
            self._false[observer].discard(victim)
            self.on_change(observer)

    # -- queries -------------------------------------------------------------

    def suspected(self, observer: int) -> frozenset[int]:
        """Current suspect list of ``observer`` (the paper's read-only var)."""
        return frozenset(self._reported[observer] | self._false[observer])

    def suspects(self, observer: int, pid: int) -> bool:
        """Does ``observer`` currently suspect ``pid``?"""
        return pid in self._reported[observer] or pid in self._false[observer]

    @property
    def ground_truth_crashed(self) -> frozenset[int]:
        """Processes that actually crashed (for assertions in tests)."""
        return frozenset(self._crashed)
