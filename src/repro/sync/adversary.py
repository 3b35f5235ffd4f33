"""Adversary strategies — generators of crash schedules.

An :class:`Adversary` turns ``(n, t, rng)`` into a
:class:`~repro.sync.crash.CrashSchedule`.  Strategies range from benign
(no crashes, random crashes) to the structured worst cases used by the
round-complexity and lower-bound experiments:

* :class:`CoordinatorKiller` — crashes the round-``r`` coordinator ``p_r``
  during its data step for ``r = 1..f``, the schedule that forces the
  paper's algorithm to its full ``f + 1`` rounds (proof of Lemma 3 /
  the Theorem 2 worst case).
* :class:`CommitSplitter` — the coordinator finishes its data step and
  crashes mid-control-step with a chosen prefix, producing runs where only
  a top segment of ids decides early; this is the scenario uniform
  agreement has to survive and the one the E4 experiment uses to break
  too-fast algorithm variants.
* :class:`StaggeredKiller` — crashes spread over arbitrary rounds,
  exercising runs where ``f`` processes die but not as coordinators.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule, Prefix, Subset
from repro.util.rng import RandomSource

__all__ = [
    "Adversary",
    "NoCrash",
    "RandomCrashes",
    "CoordinatorKiller",
    "CommitSplitter",
    "StaggeredKiller",
]


class Adversary(abc.ABC):
    """A crash-schedule generator."""

    @abc.abstractmethod
    def schedule(self, n: int, t: int, rng: RandomSource) -> CrashSchedule:
        """Produce a schedule valid for an ``(n, t)`` system."""

    @staticmethod
    def _check_f(f: int, n: int, t: int) -> None:
        if f < 0 or f > t:
            raise ConfigurationError(f"f={f} outside 0..t={t}")
        if f >= n:
            raise ConfigurationError(f"f={f} must be < n={n}")


class NoCrash(Adversary):
    """The failure-free adversary (best case of Theorems 1 and 2)."""

    def schedule(self, n: int, t: int, rng: RandomSource) -> CrashSchedule:
        return CrashSchedule.none()


@dataclass(frozen=True)
class RandomCrashes(Adversary):
    """``f`` uniformly chosen victims, rounds in ``1..max_round``, random
    crash points and random delivery subsets/prefixes.

    Set ``classic=True`` to restrict crash points to the classic model
    (no DURING_CONTROL — the control step does not exist there).
    """

    f: int
    max_round: int | None = None  # default: f + 1 (the interesting window)
    classic: bool = False

    def schedule(self, n: int, t: int, rng: RandomSource) -> CrashSchedule:
        self._check_f(self.f, n, t)
        horizon = self.max_round if self.max_round is not None else self.f + 1
        victims = rng.sample(range(1, n + 1), self.f)
        points = [
            CrashPoint.BEFORE_SEND,
            CrashPoint.DURING_DATA,
            CrashPoint.AFTER_SEND,
        ]
        if not self.classic:
            points.append(CrashPoint.DURING_CONTROL)
        events = [
            CrashEvent(
                pid=pid,
                round_no=rng.randint(1, max(1, horizon)),
                point=rng.choice(points),
                data_policy=Subset.RANDOM,
                control_policy=Prefix.RANDOM,
            )
            for pid in victims
        ]
        return CrashSchedule(events)


@dataclass(frozen=True)
class CoordinatorKiller(Adversary):
    """Crash coordinator ``p_r`` in round ``r`` during its data step,
    for ``r = 1..f``.

    ``deliver_to_none=True`` (default) drops every data message of the dying
    coordinator, which keeps all estimates untouched and is the canonical
    run forcing ``f + 1`` rounds on the paper's algorithm.  With ``False``
    the adversary instead delivers to a random subset, which still forces
    ``f + 1`` rounds (no commit is ever sent) but perturbs estimates.
    """

    f: int
    deliver_to_none: bool = True

    def schedule(self, n: int, t: int, rng: RandomSource) -> CrashSchedule:
        self._check_f(self.f, n, t)
        policy = Subset.NONE if self.deliver_to_none else Subset.RANDOM
        events = [
            CrashEvent(
                pid=r,
                round_no=r,
                point=CrashPoint.DURING_DATA,
                data_policy=policy,
            )
            for r in range(1, self.f + 1)
        ]
        return CrashSchedule(events)


@dataclass(frozen=True)
class CommitSplitter(Adversary):
    """First ``f - 1`` coordinators die in their data step; coordinator
    ``p_f`` completes its data step and crashes after delivering exactly
    ``prefix_len`` control messages (decreasing-id order ⇒ the top
    ``prefix_len`` ids decide early, everyone else needs another round).

    ``prefix_len=None`` lets the engine pick a random prefix.
    """

    f: int
    prefix_len: int | None = 1

    def schedule(self, n: int, t: int, rng: RandomSource) -> CrashSchedule:
        self._check_f(self.f, n, t)
        if self.f == 0:
            return CrashSchedule.none()
        events = [
            CrashEvent(pid=r, round_no=r, point=CrashPoint.DURING_DATA, data_policy=Subset.NONE)
            for r in range(1, self.f)
        ]
        events.append(
            CrashEvent(
                pid=self.f,
                round_no=self.f,
                point=CrashPoint.DURING_CONTROL,
                control_prefix=self.prefix_len,
                control_policy=Prefix.RANDOM,
            )
        )
        return CrashSchedule(events)


@dataclass(frozen=True)
class MaxTrafficCascade(Adversary):
    """Coordinator ``p_r`` completes its data step and crashes after
    sending commits to everybody *except* the next coordinator (prefix
    ``n - r - 1`` of the decreasing sequence), for ``r = 1..f``.

    This is not Theorem 2's worst case.  ``p_1``'s commits reach every
    process above ``p_2``, which decide in round 1 and never coordinate,
    so at most two rounds carry traffic.  For ``f >= 2`` the last decision
    round is 1, and the run sends one COMMIT fewer than at ``f = 1``: at
    ``|v| = 8``, 115 bits at n=8, f=7 against 116 at f=1.  ROADMAP item 10
    describes the exact worst case."""

    f: int

    def schedule(self, n: int, t: int, rng: RandomSource) -> CrashSchedule:
        self._check_f(self.f, n, t)
        events = []
        for r in range(1, self.f + 1):
            prefix = max(0, n - r - 1)  # all commits but the one to p_{r+1}
            events.append(
                CrashEvent(
                    pid=r,
                    round_no=r,
                    point=CrashPoint.DURING_CONTROL,
                    control_prefix=prefix,
                )
            )
        return CrashSchedule(events)


@dataclass(frozen=True)
class StaggeredKiller(Adversary):
    """``f`` crashes at explicitly staggered (pid, round) positions:
    victim ids are the *last* ``f`` processes (never the early
    coordinators), one crash per round starting at ``first_round``.

    Against the paper's algorithm this is a *benign* failure pattern: the
    first coordinator survives, so everyone decides in round 1 regardless
    of ``f`` — the experiment uses it to show the algorithm's early
    stopping is about *which* processes crash, not how many.
    """

    f: int
    first_round: int = 1

    def schedule(self, n: int, t: int, rng: RandomSource) -> CrashSchedule:
        self._check_f(self.f, n, t)
        if self.first_round < 1:
            raise ConfigurationError("first_round must be >= 1")
        events = [
            CrashEvent(
                pid=n - k,
                round_no=self.first_round + k,
                point=CrashPoint.AFTER_SEND,
            )
            for k in range(self.f)
        ]
        return CrashSchedule(events)
