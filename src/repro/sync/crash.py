"""Crash events, delivery policies, and crash schedules.

The paper's failure model is crash-stop, with round-granular adversary
power over *what escapes* a crashing process:

* crash **before the send phase** — nothing of round ``r`` is sent;
* crash **during the data step** — an *arbitrary subset* of the planned
  data messages is delivered (adversary's choice); **no** control message
  is sent (the control step strictly follows the data step);
* crash **during the control step** — *all* data messages were sent, and
  the control message reaches an *ordered prefix* of the planned
  destination sequence (adversary picks the prefix length);
* crash **after the send phase** — everything was sent, but the process
  performs no receive/compute in its crash round (so a coordinator that
  crashes "just after line 5" never executes the paper's line-6 decide).

A crashed process neither receives nor computes in its crash round and is
silent forever after.  :class:`CrashEvent` describes one crash; subset and
prefix choices may be given explicitly (lower-bound explorer, worst-case
certificates) or left to a policy the engine resolves at runtime against
the actual :class:`~repro.sync.api.SendPlan` (random adversaries).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import ConfigurationError
from repro.util.rng import RandomSource

__all__ = ["CrashPoint", "Subset", "Prefix", "CrashEvent", "ResolvedCrash", "CrashSchedule"]


class CrashPoint(enum.Enum):
    """Where within its crash round a process stops."""

    BEFORE_SEND = "before_send"
    DURING_DATA = "during_data"
    DURING_CONTROL = "during_control"
    AFTER_SEND = "after_send"


class Subset(enum.Enum):
    """Data-step delivery policy when the explicit subset is not given."""

    NONE = "none"  # nobody receives
    ALL = "all"  # everybody planned receives (crash hits at the very end)
    RANDOM = "random"  # uniform independent inclusion


class Prefix(enum.Enum):
    """Control-step delivery policy when the explicit prefix is not given."""

    NONE = "none"
    ALL = "all"
    RANDOM = "random"


@dataclass(slots=True, unsafe_hash=True)
class CrashEvent:
    """One scheduled crash.

    ``data_subset`` (ids) and ``control_prefix`` (count) take precedence over
    the corresponding policies when not ``None``.  An explicit subset is
    intersected with the actually-planned destinations; an explicit prefix
    is clamped to the planned sequence length.

    Treat instances as immutable (adversaries build one per crash per
    run; not ``frozen`` because a frozen dataclass pays an
    ``object.__setattr__`` per field on every construction).
    """

    pid: int
    round_no: int
    point: CrashPoint
    data_subset: frozenset[int] | None = None
    data_policy: Subset = Subset.RANDOM
    control_prefix: int | None = None
    control_policy: Prefix = Prefix.RANDOM

    def __post_init__(self) -> None:
        if self.round_no < 1:
            raise ConfigurationError(f"crash round must be >= 1, got {self.round_no}")
        if self.pid < 1:
            raise ConfigurationError(f"pid must be >= 1, got {self.pid}")
        if self.control_prefix is not None and self.control_prefix < 0:
            raise ConfigurationError("control_prefix must be >= 0")

    # -- resolution against an actual plan ---------------------------------

    def resolve(
        self,
        planned_data: Iterable[int],
        planned_control: tuple[int, ...],
        rng: RandomSource | None,
    ) -> "ResolvedCrash":
        """Fix subset/prefix choices for this round's actual plan.

        Only the RANDOM subset policy observes the *order* of
        ``planned_data`` (its rng draws are made against the sorted ids,
        keeping resolution independent of plan-dict ordering); every other
        branch builds order-insensitive frozensets, so the sort is paid
        only where a draw depends on it.
        """
        if self.point is CrashPoint.BEFORE_SEND:
            subset: frozenset[int] = frozenset()
            prefix = 0
        elif self.point is CrashPoint.DURING_DATA:
            subset = self._resolve_subset(planned_data, rng)
            prefix = 0
        elif self.point is CrashPoint.DURING_CONTROL:
            subset = frozenset(planned_data)
            prefix = self._resolve_prefix(len(planned_control), rng)
        else:  # AFTER_SEND
            subset = frozenset(planned_data)
            prefix = len(planned_control)
        return ResolvedCrash(pid=self.pid, point=self.point, data_subset=subset, control_prefix=prefix)

    def _resolve_subset(
        self, planned: Iterable[int], rng: RandomSource | None
    ) -> frozenset[int]:
        if self.data_subset is not None:
            return frozenset(self.data_subset) & frozenset(planned)
        if self.data_policy is Subset.NONE:
            return frozenset()
        if self.data_policy is Subset.ALL:
            return frozenset(planned)
        if rng is None:
            raise ConfigurationError(
                "random data-subset policy needs an engine RandomSource"
            )
        return frozenset(rng.subset(sorted(planned), 0.5))

    def _resolve_prefix(self, planned_len: int, rng: RandomSource | None) -> int:
        if self.control_prefix is not None:
            return min(self.control_prefix, planned_len)
        if self.control_policy is Prefix.NONE:
            return 0
        if self.control_policy is Prefix.ALL:
            return planned_len
        if rng is None:
            raise ConfigurationError(
                "random control-prefix policy needs an engine RandomSource"
            )
        return rng.randint(0, planned_len)


@dataclass(slots=True, unsafe_hash=True)
class ResolvedCrash:
    """A crash with its delivery choices pinned for the current round.

    Treat instances as immutable (engines build one per crash per round).
    """

    pid: int
    point: CrashPoint
    data_subset: frozenset[int]
    control_prefix: int


class CrashSchedule:
    """At most one :class:`CrashEvent` per process for a whole run."""

    def __init__(self, events: Iterable[CrashEvent] = ()) -> None:
        self._by_pid: dict[int, CrashEvent] = {}
        for ev in events:
            if ev.pid in self._by_pid:
                raise ConfigurationError(f"process p{ev.pid} scheduled to crash twice")
            self._by_pid[ev.pid] = ev

    @classmethod
    def none(cls) -> "CrashSchedule":
        """The failure-free schedule."""
        return cls(())

    @property
    def events(self) -> Mapping[int, CrashEvent]:
        """pid → crash event."""
        return dict(self._by_pid)

    @property
    def crash_count(self) -> int:
        """``f``: the number of processes that crash in this schedule."""
        return len(self._by_pid)

    def crashes_in_round(self, round_no: int) -> list[CrashEvent]:
        """Events scheduled for ``round_no`` (ordered by pid)."""
        return sorted(
            (ev for ev in self._by_pid.values() if ev.round_no == round_no),
            key=lambda ev: ev.pid,
        )

    def event_for(self, pid: int) -> CrashEvent | None:
        """The crash event of ``pid``, if any."""
        return self._by_pid.get(pid)

    def validate(self, n: int, t: int) -> None:
        """Check the schedule fits an ``(n, t)`` system."""
        if len(self._by_pid) > t:
            raise ConfigurationError(
                f"schedule crashes {len(self._by_pid)} processes but t={t}"
            )
        for ev in self._by_pid.values():
            if ev.pid > n:
                raise ConfigurationError(f"crash event for p{ev.pid} but n={n}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"p{ev.pid}@r{ev.round_no}:{ev.point.value}"
            for ev in sorted(self._by_pid.values(), key=lambda e: (e.round_no, e.pid))
        )
        return f"CrashSchedule({parts or 'failure-free'})"
