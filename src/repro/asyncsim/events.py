"""Discrete-event core: simulated clock and event queue.

The asynchronous substrate (Section 4's MR99 bridge) and the timed
fast-failure-detector model (related work [1]) both run on this engine:
a priority heap of ``(time, seq, action, arg)`` tuples executed in
chronological order.  ``seq`` breaks ties deterministically in insertion
order, so runs are exactly reproducible for a given seed.

The entries are plain tuples on purpose: a heap of ordered dataclasses
pays a Python ``__lt__`` call per comparison, which profiling showed as
the single largest line of the MR99 kernel; tuple comparison happens in
C and never reaches the ``action`` element because ``seq`` is unique.
``arg`` carries an optional single argument for ``action`` so hot
callers (the network's delivery path) can schedule one shared bound
method per queue instead of allocating a closure per message.

Events cannot be cancelled: no protocol here revokes a timer (a
handler that no longer applies re-checks its guard and returns), so
every entry that surfaces runs and ``executed`` counts them all.

Same-instant delivery runs are additionally *blocked*:
:meth:`EventQueue.schedule_fanout` folds every maximal run of equal
delays into **one** heap entry carrying the whole argument list (the
entry still owns one ``seq`` per item, so global ordering is untouched).
A constant-delay broadcast of ``n`` messages then costs one heap push
and one pop instead of ``n`` of each, and :meth:`run` drains the block's
items in a single dispatch frame — checking the stop set and the
event budget *between items*, exactly as the unblocked loop would, so
blocked and per-entry executions are observably identical down to the
``executed`` counter.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError, SimulationError

__all__ = ["EventQueue"]

#: Action-slot marker for fanout block entries.  A block's ``arg`` is
#: ``(action, args)``: the shared real action plus the argument list of a
#: same-instant run whose seqs are ``entry_seq .. entry_seq + len(args) - 1``.
_FANOUT_BLOCK = object()


class EventQueue:
    """A deterministic simulated-time event loop."""

    __slots__ = ("_heap", "_seq", "_now", "_blocked_extra", "executed")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], Any]] = []
        self._seq = 0
        self._now = 0.0
        self._blocked_extra = 0  # events beyond the first inside fanout blocks
        self.executed = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def reset(self) -> None:
        """Return the queue to its freshly constructed state.

        Drops every pending entry, rewinds the clock to 0, and restarts
        the ``seq`` counter — a reset queue is indistinguishable from a
        new one (reusable runners lean on this for determinism: event
        sequence numbers of a leased run must match a fresh run's).
        """
        self._heap.clear()
        self._blocked_extra = 0
        self._seq = 0
        self._now = 0.0
        self.executed = 0

    def schedule(
        self, delay: float, action: Callable[..., None], arg: Any = None
    ) -> None:
        """Schedule ``action`` to run ``delay`` time units from now.

        ``arg`` is passed to ``action`` at fire time when not None —
        schedule a shared bound method plus its argument instead of a
        per-event closure on hot paths.
        """
        if delay < 0:
            raise ConfigurationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, action, arg))

    def schedule_fanout(
        self,
        action: Callable[..., None],
        delays: Sequence[float],
        args: Sequence[Any],
        grouped: bool = False,
    ) -> None:
        """Schedule ``action(args[k])`` after ``delays[k]``, for every ``k``.

        Equivalent to calling :meth:`schedule` per pair in order — same
        seq assignment, same heap contents — minus one Python frame per
        event, which is what a broadcast fan-out of ``n`` deliveries
        actually pays for.  The parallel-list shape lets ``zip`` pair the
        two at C speed; the caller guarantees non-negative delays (the
        network's delay models are validated at the draw site).

        With ``grouped=True``, maximal runs of *equal consecutive delays*
        — the whole fan-out, for a constant-delay model — become one
        **block** heap entry holding the run's argument list.  Seq
        assignment is unchanged (the block owns one seq per item), and no
        other entry can carry a seq inside the block's range, so the heap
        pops blocks exactly where the per-entry loop would have popped
        their first item and :meth:`run` drains the items in first-seq
        order: executions are observably identical, at one heap push/pop
        per *run* instead of per event.  Callers pass ``grouped`` from
        knowledge of the delay source (the network forwards its model's
        :attr:`~repro.asyncsim.network.DelayModel.same_instant_fanouts`):
        scanning for runs that random delay draws almost never produce
        would tax the common path for nothing.
        """
        heap = self._heap
        push = heapq.heappush
        now = self._now
        seq = self._seq
        if not grouped:
            for delay, arg in zip(delays, args):
                push(heap, (now + delay, seq, action, arg))
                seq += 1
            self._seq = seq
            return
        i = 0
        total = len(delays)
        while i < total:
            delay = delays[i]
            j = i + 1
            while j < total and delays[j] == delay:
                j += 1
            if j - i == 1:
                push(heap, (now + delay, seq, action, args[i]))
                seq += 1
            else:
                push(heap, (now + delay, seq, _FANOUT_BLOCK, (action, args[i:j])))
                seq += j - i
                self._blocked_extra += j - i - 1
            i = j
        self._seq = seq

    def schedule_at(
        self, time: float, action: Callable[..., None], arg: Any = None
    ) -> None:
        """Schedule ``action`` at absolute simulated time ``time``."""
        if time < self._now:
            raise ConfigurationError(
                f"cannot schedule at {time} < now {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, action, arg))

    def _requeue_block(
        self, when: float, first_seq: int, action: Callable[..., None], items: Sequence[Any]
    ) -> None:
        """Put an interrupted fanout block's unexecuted tail back in the heap.

        The tail keeps its original seq range (``first_seq`` onward), so a
        later :meth:`run` drains it exactly where the per-entry loop would
        have resumed; a single-item tail degenerates to a plain entry.
        """
        if len(items) == 1:
            heapq.heappush(self._heap, (when, first_seq, action, items[0]))
        else:
            heapq.heappush(
                self._heap, (when, first_seq, _FANOUT_BLOCK, (action, items))
            )
            self._blocked_extra += len(items) - 1

    def run(
        self,
        *,
        until: float | None = None,
        max_events: int = 1_000_000,
        stop_set: Any = None,
    ) -> float:
        """Drain the queue; return the final simulated time.

        Stops when the queue empties, simulated time would pass ``until``,
        ``stop_set`` becomes empty (checked between events), or
        ``max_events`` executed *by this call* (then raises — a runaway
        protocol is a bug, not a result).  The budget is per ``run()``
        invocation: earlier calls on the same queue never eat into it.

        ``stop_set`` is the one stop predicate, "some tracked collection
        drained": the caller passes the collection its handlers shrink
        (the async runner's and the fast-FD run's unsettled pids), so the
        check is one C-level truthiness test per event.  A NaN ``until``
        raises: it compares false against every time, so it would
        silently mean "no horizon".

        The clock is monotone: a horizon in the past (``until < now``) is
        clamped to ``now``, so the call executes nothing (no pending event
        can be due — scheduling into the past is rejected) and ``now``
        never moves backwards.
        """
        if max_events < 1:
            raise ConfigurationError(f"max_events must be >= 1, got {max_events}")
        if until is not None and math.isnan(until):
            raise ConfigurationError("until must be a number or None, got nan")
        # Clamp the horizon so the clock is monotone: a past `until`
        # executes nothing (no pending event can be due — scheduling into
        # the past is rejected) and never rewinds `now`.  `inf` folds the
        # "no horizon" case into one float compare per event.
        horizon = float("inf") if until is None else max(until, self._now)
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        if stop_set is None:
            stop_set = (1,)  # never-empty sentinel: one truthiness test per event
        ran = 0
        try:
            while heap:
                if not stop_set:
                    break
                entry = pop(heap)
                when, seq, action, arg = entry
                if when > horizon:
                    # Leave the event unexecuted; the horizon ends the run.
                    push(heap, entry)
                    self._now = horizon
                    break
                if ran >= max_events:
                    push(heap, entry)  # unexecuted: the budget ends the run
                    raise SimulationError(
                        f"event budget exceeded ({max_events}); runaway protocol?"
                    )
                if action is _FANOUT_BLOCK:
                    # Same-instant fanout run: drain the items in one
                    # dispatch frame.  The stop set and the budget are
                    # re-checked between items — an item that settles the
                    # run (or exhausts the budget) leaves the remainder
                    # queued as a smaller block, exactly like unexecuted
                    # per-entry events.
                    real_action, items = arg
                    count = len(items)
                    self._blocked_extra -= count - 1
                    self._now = when
                    idx = 0
                    # The first unconsumed item, maintained so that *any*
                    # exit — stop break, budget raise, or an exception out
                    # of a handler — requeues exactly the tail the
                    # per-entry loop would have left in the heap (a
                    # raising handler consumes its own item there too).
                    resume_from = 0
                    try:
                        while idx < count:
                            resume_from = idx
                            if not stop_set:
                                break
                            if ran >= max_events:
                                raise SimulationError(
                                    f"event budget exceeded ({max_events}); "
                                    f"runaway protocol?"
                                )
                            resume_from = idx + 1
                            real_action(items[idx])
                            idx += 1
                            ran += 1
                    finally:
                        if resume_from < count:
                            self._requeue_block(
                                when, seq + resume_from, real_action,
                                items[resume_from:],
                            )
                    continue
                self._now = when
                if arg is None:
                    action()
                else:
                    action(arg)
                ran += 1
        finally:
            # One read-modify-write per run instead of one per event; the
            # budget above counts the local `ran`, so `executed` is only
            # read between runs and stays exact even on the budget raise.
            self.executed += ran
        return self._now

    def __len__(self) -> int:
        """Pending events, counting every block item."""
        return len(self._heap) + self._blocked_extra
