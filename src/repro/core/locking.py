"""Value-locking analysis (the paper's Lemma 2 made executable).

Lemma 2's engine is *claim C1*: there is a first round ``r0 <= t+1`` whose
coordinator executes its entire data step (line 4); from the end of ``r0``
every estimate in the system equals the coordinator's value — the value is
**locked** — and only that value can ever be decided.

:func:`analyze_locking` recomputes ``r0`` and the locked value from a run's
trace and checks every decision against it.  Tests run it over adversarial
schedules to certify the locking invariant, and the E4 experiment uses it
to explain *where* broken variants go wrong (they decide before any value
is locked).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.sync.crash import CrashPoint
from repro.sync.result import RunResult

__all__ = ["LockReport", "analyze_locking"]

#: Crash points that still complete the whole data step (line 4).
_DATA_COMPLETE_POINTS = frozenset(
    {CrashPoint.DURING_CONTROL.value, CrashPoint.AFTER_SEND.value}
)


@dataclass(frozen=True, slots=True)
class LockReport:
    """Outcome of the locking analysis for one run."""

    locking_round: int | None  # r0, or None if no coordinator ever completed line 4
    locked_value: Any  # the locked estimate (None when locking_round is None)
    decisions_consistent: bool  # every decision equals the locked value
    conflicting: tuple[int, ...]  # pids whose decision differs from the lock


def _coordinator_active_at(result: RunResult, pid: int, round_no: int) -> bool:
    """Was ``pid`` still running (not crashed, not decided) entering ``round_no``?"""
    crashed = result.crashed.get(pid)
    if crashed is not None and crashed < round_no:
        return False
    decided = result.decision_rounds.get(pid)
    if decided is not None and decided < round_no:
        return False
    return True


def analyze_locking(result: RunResult) -> LockReport:
    """Recompute the locking round ``r0`` and audit decisions against it.

    Requires the run to have been executed with tracing enabled (the
    default); raises :class:`~repro.errors.ConfigurationError` otherwise,
    because without a trace the data-step completion of a crashing
    coordinator cannot be reconstructed.
    """
    if not result.trace.enabled:
        raise ConfigurationError("locking analysis needs a run with tracing enabled")

    locking_round: int | None = None
    locked_value: Any = None

    for r in range(1, result.rounds_executed + 1):
        coord = r
        if coord > result.n:
            break
        if not _coordinator_active_at(result, coord, r):
            continue
        crash_events = result.trace.events(kind="crash", pid=coord, round_no=r)
        if crash_events:
            point = crash_events[0].get("point")
            if point not in _DATA_COMPLETE_POINTS:
                continue  # died inside (or before) the data step: line 4 incomplete
        # Coordinator completed line 4 in round r.
        locking_round = r
        # Recover the locked value: any DATA it delivered this round, or —
        # when it addressed nobody (coord == n) or every receiver was gone —
        # its own decision (a coordinator deciding at line 6 decides est).
        delivered = result.trace.events(kind="deliver.data", pid=coord, round_no=r)
        if delivered:
            locked_value = delivered[0].get("payload")
        elif coord in result.decisions:
            locked_value = result.decisions[coord]
        else:
            # Completed data step with no surviving witnesses and no own
            # decision (AFTER_SEND crash with nobody to talk to): the locked
            # value is the coordinator's estimate, which equals what it
            # attempted to send; recover it from drop events.
            drops = result.trace.events(kind="drop.data", pid=coord, round_no=r)
            locked_value = drops[0].get("payload") if drops else None
        break

    if locking_round is None:
        return LockReport(None, None, True, ())

    conflicting = tuple(
        pid
        for pid, value in sorted(result.decisions.items())
        if value != locked_value
    )
    return LockReport(
        locking_round=locking_round,
        locked_value=locked_value,
        decisions_consistent=not conflicting,
        conflicting=conflicting,
    )
