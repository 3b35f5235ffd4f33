"""Round engines for the classic and extended synchronous models.

The full round pipeline (Section 2.1 of the paper) is implemented once in
:func:`execute_round`, shared by both engine classes and by the
lower-bound explorer (which calls it on deep-copied process states while
enumerating adversary choices):

1. **Plan** — every live, undecided process produces its
   :class:`~repro.sync.api.SendPlan` *before any delivery*, enforcing the
   rule that round-``r`` messages depend only on rounds ``< r``.
2. **Resolve crashes** — the crash events scheduled for this round are
   resolved against the actual plans into concrete delivered
   subsets/prefixes (:class:`~repro.sync.crash.ResolvedCrash`).
3. **Deliver** — data messages first, then control messages in plan order
   (prefix-truncated for crashing senders).  Receivers that crash this
   round, already crashed, or already decided receive nothing.
4. **Compute** — every live, non-crashing, undecided process consumes its
   :class:`~repro.sync.api.RoundInbox`; new decisions are collected.

Message accounting: a message is *sent* if it escaped the crashing process
(i.e. will be delivered to a live receiver or would have been, had the
receiver been up) and *delivered* if a live, undecided, non-crashing
process actually consumed it.  Sends addressed to processes that already
crashed/decided still count as sent — the sender cannot know.

Delivery has one path.  It builds no message objects: payloads are
written straight into the per-receiver inbox dicts, and a round's
traffic is charged through the bulk :class:`MessageStats` methods in
aggregate, exactly like the paper's counting arguments do.  With
``trace.enabled`` an event pass then walks the same plans and resolved
crashes and records every ``deliver.*``/``drop.*`` event; tracing
decides what is recorded, never how the round is delivered.  Traced and
untraced runs therefore produce identical :class:`RoundOutcome` and
:class:`MessageStats` (pinned by ``tests/sync/test_fastpath_parity.py``;
the trace bytes by ``tests/sync/test_trace_digest.py``).

A round is stepped one of two ways:

* **per process** — the reference: ``send_phase``/``compute_phase`` on
  every process every round, through the delivery path above;
* **vector** — when every process is of one type that registered a
  :class:`~repro.sync.api.VectorAlgorithm` table and tracing is off.
  Per-process state lives in columns (int64 arrays — numpy when
  installed, :mod:`array` fallback — or object lists for any other
  value type), the send phase emits a sparse list of
  :data:`~repro.sync.api.VectorSend` shapes instead of per-pid plan
  dicts, and delivery/inboxes are skipped entirely: accounting is
  computed straight off the send shapes and computation runs
  whole-column.  Auto-detected by ``batched=None``, required by
  ``batched=True``.

Decisions are mirrored back onto the process objects, and decisions,
stats, and results are byte-identical between the two
(``tests/sync/test_vector_parity.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Mapping

from repro.errors import ConfigurationError, SimulationError
from repro.net.accounting import MessageStats
from repro.net.payload import bit_size
from repro.sync.api import (
    EMPTY_INBOX,
    NO_SEND,
    RoundInbox,
    SendPlan,
    SyncProcess,
    VectorAlgorithm,
    vector_table_for,
)
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule, ResolvedCrash
from repro.sync.result import RunResult
from repro.util.rng import RandomSource
from repro.util.trace import Trace

#: Shared inbox constant: frozensets are immutable, so every receiver of a
#: control-free round can hold the same object without aliasing risk.
_NO_CONTROL: frozenset[int] = frozenset()

#: Shared inbox for receivers that heard nothing this round (canonically
#: defined in :mod:`repro.sync.api`).  The data view is a read-only mapping
#: proxy, so accidental mutation by an algorithm raises instead of leaking
#: between processes.
_EMPTY_INBOX = EMPTY_INBOX

__all__ = [
    "RoundOutcome",
    "check_batched",
    "execute_round",
    "SynchronousEngine",
    "ClassicSynchronousEngine",
]

#: Shared empty crash map for rounds without scheduled crashes (avoids one
#: dict allocation per step).  Never mutated.
_NO_CRASHES: dict[int, CrashEvent] = {}


def check_batched(batched: Any) -> None:
    """Reject a ``batched`` setting other than ``None``, ``True`` or ``False``."""
    if batched is not None and type(batched) is not bool:
        raise ConfigurationError(
            f"batched must be None (auto), True (require the columnar table) "
            f"or False (per-process stepping), got {batched!r}"
        )


@dataclass(slots=True)
class RoundOutcome:
    """What happened in one executed round."""

    round_no: int
    plans: dict[int, SendPlan]
    resolved_crashes: dict[int, ResolvedCrash]
    inboxes: dict[int, RoundInbox]
    new_decisions: dict[int, Any]


def execute_round(
    procs: Mapping[int, SyncProcess],
    active: set[int],
    round_no: int,
    crash_events: Mapping[int, CrashEvent],
    *,
    allow_control: bool,
    stats: MessageStats,
    trace: Trace,
    rng: RandomSource | None,
    n: int | None = None,
    pids: frozenset[int] | None = None,
    active_order: list[int] | None = None,
    vtable: VectorAlgorithm | None = None,
) -> RoundOutcome:
    """Execute one round over ``active`` processes; mutates process state.

    ``crash_events`` maps pid → the event scheduled for *this* round (only
    pids in ``active`` matter; a process that already crashed or decided
    cannot crash again).  The caller updates the ``active`` set from the
    returned outcome.

    ``n``, ``pids`` (``frozenset(range(1, n + 1))``), and ``active_order``
    (``active`` in ascending pid order) are optional precomputed values:
    engines stepping many rounds pass them so each round neither
    rediscovers the system size, re-materializes the valid destination
    set for plan validation, nor re-sorts the active set.

    ``vtable`` (requires tracing off) switches the *whole round* to
    vector stepping: sparse
    :data:`~repro.sync.api.VectorSend` tuples instead of plans, bulk
    accounting straight off the send shapes instead of delivery, and
    array-columnar computation instead of inboxes.  The returned
    outcome's ``plans``/``inboxes`` are empty in this mode (nothing was
    materialized); decisions, resolved crashes, stats totals, and all
    process-visible state are byte-identical to per-process stepping
    (pinned by ``tests/sync/test_vector_parity.py``).
    """
    if n is None:
        n = next(iter(procs.values())).n if procs else 0
    if vtable is not None:
        return _execute_round_vector(
            procs, active, round_no, crash_events,
            stats=stats, rng=rng, n=n, active_order=active_order, vtable=vtable,
        )
    traced = trace.enabled

    # Phase 1: collect send plans from every active process.  Senders with
    # anything to say are collected separately so delivery skips the
    # (typically many) silent processes entirely.
    if active_order is None:
        active_order = sorted(active)
    senders = []
    plans = {}
    for pid in active_order:
        plan = procs[pid].send_phase(round_no)
        # NO_SEND is the canonical silent plan; the identity test skips
        # the attribute loads for the (typically many) quiet processes.
        if plan is not NO_SEND and (plan.data or plan.control):
            plan.validate(pid, n, allow_control=allow_control, pids=pids)
            senders.append(pid)
        plans[pid] = plan

    # Phase 2: resolve this round's crashes against actual plans.
    resolved: dict[int, ResolvedCrash] = {}
    for pid, event in crash_events.items():
        if pid not in active:
            continue
        plan = plans[pid]
        rc = event.resolve(plan.data.keys(), plan.control, rng)
        resolved[pid] = rc
        if traced:
            trace.record(
                round_no,
                "crash",
                pid,
                point=event.point.value,
                data_subset=tuple(sorted(rc.data_subset)),
                control_prefix=rc.control_prefix,
            )

    # Crashed processes receive nothing this round.
    if resolved:
        crashing = set(resolved)
        if len(crashing) == 1:
            # One crash per round is the cascade shape: one C-level copy
            # and removal instead of an n-wide membership listcomp.
            receiver_order = active_order.copy()
            receiver_order.remove(next(iter(crashing)))
        else:
            receiver_order = [pid for pid in active_order if pid not in crashing]
    else:
        crashing = None
        receiver_order = active_order

    # Phase 3: deliver.  Data step first, then control step (plan order).
    # Inbox containers are allocated lazily — only receivers that actually
    # hear something this round get a dict/set.
    data_in: dict[int, dict[int, Any]] = {}
    control_in: dict[int, set[int]] = {}

    if senders:
        _deliver(
            senders, plans, resolved, active, crashing,
            stats, data_in, control_in,
        )
        if traced:
            _record_delivery(
                senders, plans, resolved,
                active if crashing is None else active - crashing,
                round_no, trace,
            )

    # Phase 4: receive + compute for the survivors.
    inboxes: dict[int, RoundInbox] = {}
    get_data = data_in.get
    get_control = control_in.get
    new_decisions = {}
    for pid in receiver_order:
        data = get_data(pid)
        control = get_control(pid)
        if data is None and control is None:
            inbox = _EMPTY_INBOX
        else:
            inbox = RoundInbox(
                data={} if data is None else data,
                control=_NO_CONTROL if control is None else frozenset(control),
            )
        inboxes[pid] = inbox
        proc = procs[pid]
        proc.compute_phase(round_no, inbox)
        # Reads the SyncProcess decision slots directly: the two property
        # hops per process per round are measurable on n=128 grids.
        if proc._decided:
            new_decisions[pid] = proc._decision
            if traced:
                trace.record(round_no, "decide", pid, value=proc._decision)

    return RoundOutcome(
        round_no=round_no,
        plans=plans,
        resolved_crashes=resolved,
        inboxes=inboxes,
        new_decisions=new_decisions,
    )


def _record_delivery(
    senders: list[int],
    plans: dict[int, SendPlan],
    resolved: dict[int, ResolvedCrash],
    receivers: set[int],
    round_no: int,
    trace: Trace,
) -> None:
    """Record a delivered round's message events; delivers and charges nothing.

    Reads the same plans and resolved crashes :func:`_deliver` consumed:
    senders in order, each sender's escaped data destinations sorted,
    then its escaped control prefix in plan order.
    """
    record = trace.record
    for sender in senders:
        plan = plans[sender]
        data = plan.data
        rc = resolved.get(sender)
        if rc is None:
            data_dests = data.keys()
            control_dests = plan.control
        else:
            data_dests = rc.data_subset
            control_dests = plan.control[: rc.control_prefix]
        for dest in sorted(data_dests):
            kind = "deliver.data" if dest in receivers else "drop.data"
            record(round_no, kind, sender, dest=dest, payload=data[dest])
        for dest in control_dests:
            kind = "deliver.control" if dest in receivers else "drop.control"
            record(round_no, kind, sender, dest=dest)


def _deliver(
    senders: list[int],
    plans: dict[int, SendPlan],
    resolved: dict[int, ResolvedCrash],
    active: set[int],
    crashing: set[int] | None,
    stats: MessageStats,
    data_in: dict[int, dict[int, Any]],
    control_in: dict[int, set[int]],
) -> None:
    """Deliver one round into the inboxes and charge its traffic in bulk.

    Data bits are sized per payload (memoized in
    :mod:`repro.net.payload`) and charged in one batch per (sender, step),
    the way the paper's counting arguments charge a round.

    The receiver set is materialized lazily: a round whose only speaker
    crashed with nothing escaping (the cascade shape) never needs it.
    """
    receivers: set[int] | None = None
    for sender in senders:
        plan = plans[sender]
        rc = resolved.get(sender)
        data = plan.data
        if rc is None:
            control_dests = plan.control
        else:
            control_dests = plan.control[: rc.control_prefix]
            if rc.data_subset:
                # Escaped subset only; preserve per-payload bit sizing.
                data = {dest: data[dest] for dest in rc.data_subset}
            else:
                data = None

        if data or control_dests:
            if receivers is None:
                receivers = active if crashing is None else active - crashing

        if data:
            sent_bits = 0
            delivered = 0
            delivered_bits = 0
            # Broadcast plans map every destination to the *same* payload
            # object; one identity test then replaces the memo lookup.
            prev_payload: Any = _deliver  # impossible payload sentinel
            bits = 0
            get_inbox = data_in.get
            for dest, payload in data.items():
                if payload is not prev_payload:
                    bits = bit_size(payload)
                    prev_payload = payload
                sent_bits += bits
                if dest in receivers:
                    delivered += 1
                    delivered_bits += bits
                    inbox = get_inbox(dest)
                    if inbox is None:
                        data_in[dest] = {sender: payload}
                    else:
                        inbox[sender] = payload
            stats.bulk_data(len(data), sent_bits)
            if delivered:
                stats.bulk_data(delivered, delivered_bits, delivered=True)

        if control_dests:
            delivered = 0
            for dest in control_dests:
                if dest in receivers:
                    delivered += 1
                    heard = control_in.get(dest)
                    if heard is None:
                        heard = control_in[dest] = set()
                    heard.add(sender)
            stats.bulk_control(len(control_dests), delivered)


# ---------------------------------------------------------------------------
# Vectorized round path (no plans, no delivery, no inboxes).
# ---------------------------------------------------------------------------


def _delivered_count(
    sender: int,
    dests: Any,
    receivers: set[int],
    receiver_order: list[int],
    n_minus_1: int,
) -> int:
    """``|dests ∩ receivers|`` without iterating the destinations.

    Exploits the shapes first-party vector tables emit: any collection
    of length ``n - 1`` (destinations are distinct and never the sender,
    so that is the all-others broadcast — one membership test), a
    ``range`` (contiguous coordinator pattern — two bisects over the
    sorted receivers), or — the rare truncated-crash case — an arbitrary
    small collection (generic membership loop).
    """
    if len(dests) == n_minus_1:
        return len(receivers) - (sender in receivers)
    if type(dests) is range:
        if dests.step == 1:
            lo, hi = dests.start, dests.stop
        else:  # step == -1 (the descending COMMIT pattern)
            lo, hi = dests.stop + 1, dests.start + 1
        return bisect_left(receiver_order, hi) - bisect_left(receiver_order, lo)
    return sum(d in receivers for d in dests)


#: Sort key of a :data:`~repro.sync.api.VectorSend`: its sender.
_sender = itemgetter(0)


def _account_vector(
    sends: list,
    receivers: set[int],
    receiver_order: list[int],
    n: int,
    stats: MessageStats,
) -> None:
    """Charge a vector round's traffic in aggregate.

    Totals are identical to routing the same round through
    :func:`_deliver` — per-payload bit widths (each send carries
    the ``bits`` its table sized once), sent counts over the
    post-truncation destinations, delivered counts over the surviving
    receivers — just summed across senders before the (single) bulk
    calls.  Flooding rounds are mostly full broadcasts, whose delivered
    count is inlined.
    """
    data_sent = data_bits = data_del = data_del_bits = 0
    ctrl_sent = ctrl_del = 0
    n_minus_1 = n - 1
    n_receivers = len(receivers)
    for sender, dests, _payload, control, bits in sends:
        if dests:
            count = len(dests)
            data_sent += count
            data_bits += bits * count
            if count == n_minus_1:
                d = n_receivers - (sender in receivers)
            else:
                d = _delivered_count(
                    sender, dests, receivers, receiver_order, n_minus_1
                )
            if d:
                data_del += d
                data_del_bits += bits * d
        if control:
            ctrl_sent += len(control)
            ctrl_del += _delivered_count(
                sender, control, receivers, receiver_order, n_minus_1
            )
    if data_sent:
        stats.bulk_data(data_sent, data_bits)
    if data_del:
        stats.bulk_data(data_del, data_del_bits, delivered=True)
    if ctrl_sent:
        stats.bulk_control(ctrl_sent, ctrl_del)


def _execute_round_vector(
    procs: Mapping[int, SyncProcess],
    active: set[int],
    round_no: int,
    crash_events: Mapping[int, CrashEvent],
    *,
    stats: MessageStats,
    rng: RandomSource | None,
    n: int,
    active_order: list[int] | None,
    vtable: VectorAlgorithm,
) -> RoundOutcome:
    """One round through a :class:`~repro.sync.api.VectorAlgorithm` table.

    Same four phases as :func:`execute_round`, reshaped around the sparse
    send list: crashes resolve against each crashing sender's send tuple
    (same rng draws — resolution only observes the destination *set* and
    the control length), truncation rewrites the affected tuples in
    place of delivery (their ``bits`` carry over: a truncated send still
    carries the same payload), and accounting/computation run off the
    shapes.
    Only ever called with tracing off (engines enforce it).
    """
    if active_order is None:
        active_order = sorted(active)
    sends = vtable.send_phase_vector(round_no, active_order)

    resolved: dict[int, ResolvedCrash] = {}
    cut: dict[int, ResolvedCrash] = {}  # send index -> its sender's crash
    if crash_events:
        for pid, event in crash_events.items():
            if pid not in active:
                continue
            # Sends are in ascending sender order: a bisect finds the
            # crashing sender's tuple without indexing the whole round.
            i = bisect_left(sends, pid, key=_sender)
            if i < len(sends) and sends[i][0] == pid:
                s = sends[i]
                resolved[pid] = cut[i] = event.resolve(s[1], s[3], rng)
            else:
                resolved[pid] = event.resolve((), (), rng)

    if resolved:
        crashing = set(resolved)
        if len(crashing) == 1:
            receiver_order = active_order.copy()
            receiver_order.remove(next(iter(crashing)))
        else:
            receiver_order = [pid for pid in active_order if pid not in crashing]
        receivers = active - crashing
        # Truncate the crashing senders' tuples in place (the round owns
        # the list), highest index first so deletions keep the rest valid.
        for i in sorted(cut, reverse=True):
            s = sends[i]
            rc = cut[i]
            control = s[3][: rc.control_prefix]
            if rc.data_subset or control:
                sends[i] = (s[0], rc.data_subset, s[2], control, s[4])
            else:
                del sends[i]
    else:
        crashing = None
        receiver_order = active_order
        receivers = active

    if sends:
        _account_vector(sends, receivers, receiver_order, n, stats)

    new_decisions = vtable.compute_phase_vector(
        round_no, receivers, receiver_order, sends, crashing is None
    )
    # Mirror decisions onto the process objects so `decided`/`decision`
    # views (user code holding the procs) stay true.  Slots are written
    # directly: `decide()` would re-check the double-decision guard the
    # engine already enforces by dropping deciders from the active set.
    # Tracing is off here by construction, so no decide events to record.
    for pid, value in new_decisions.items():
        proc = procs[pid]
        proc._decided = True
        proc._decision = value

    return RoundOutcome(
        round_no=round_no,
        plans={},
        resolved_crashes=resolved,
        inboxes={},
        new_decisions=new_decisions,
    )


class SynchronousEngine:
    """Extended-model engine: two-step send phase with ordered control step.

    Parameters
    ----------
    processes:
        The ``n`` processes, with pids exactly ``1..n`` (any order).
    schedule:
        Crash schedule for the run (defaults to failure-free).
    t:
        Resilience bound; the schedule must not crash more than ``t``.
    rng:
        Source used to resolve RANDOM subset/prefix policies.
    trace:
        Set ``False`` to disable event recording (large sweeps).
    batched:
        ``None`` (default) steps through the processes' registered
        :class:`~repro.sync.api.VectorAlgorithm` table (columnar state,
        sparse sends, bulk accounting) when tracing is off and the table
        engages, and per process otherwise.  ``True`` requires the
        vector table (and tracing off) and raises when unavailable;
        ``False`` forces per-process stepping (the parity grids compare
        the two).  Any other value raises.  While stepping through the
        table, the table is the authoritative copy of algorithm state —
        decisions are mirrored back to the process objects, other
        per-process attributes are not.
    """

    model_name = "extended"
    allow_control = True

    def __init__(
        self,
        processes: list[SyncProcess],
        schedule: CrashSchedule | None = None,
        *,
        t: int | None = None,
        rng: RandomSource | None = None,
        trace: bool = True,
        batched: bool | None = None,
    ) -> None:
        if not processes:
            raise ConfigurationError("no processes given")
        n = processes[0].n
        self.n = n
        self.t = n - 1 if t is None else t
        if not 0 <= self.t < n:
            raise ConfigurationError(f"t must satisfy 0 <= t < n, got t={self.t}, n={n}")
        self._pids: frozenset[int] = frozenset(range(1, n + 1))
        #: The schedule ``_crashes_by_round`` was last validated and mapped from.
        self._mapped_schedule: CrashSchedule | None = None
        self._install(processes, schedule, rng=rng, trace=trace, batched=batched)

    def _install(
        self,
        processes: list[SyncProcess],
        schedule: CrashSchedule | None,
        *,
        rng: RandomSource | None,
        trace: bool,
        batched: bool | None,
    ) -> None:
        """Per-run wiring shared by construction and :meth:`reset`."""
        n = self.n
        # One pass collects pids, the pid->proc map, and the proposal
        # snapshot; the sorted-pids comparison below then validates shape.
        procs: dict[int, SyncProcess] = {}
        proposals: dict[int, Any] = {}
        common_n = True
        for p in processes:
            procs[p.pid] = p
            proposals[p.pid] = getattr(p, "proposal", None)
            common_n &= p.n == n
        pids = sorted(procs)
        if (
            not common_n
            or len(procs) != len(processes)
            or pids != list(range(1, n + 1))
        ):
            pids = sorted(p.pid for p in processes)
            raise ConfigurationError(
                f"processes must have pids exactly 1..n with a common n; got {pids}"
            )
        check_batched(batched)
        self.procs = procs
        self._proposals = proposals
        self._vtable: VectorAlgorithm | None = None
        if batched is True:
            if trace:
                raise ConfigurationError(
                    "batched=True requires tracing off: the vector path "
                    "materializes no per-message events to record"
                )
            self._vtable = vector_table_for(processes)
            if self._vtable is None:
                raise ConfigurationError(
                    f"batched=True but {type(processes[0]).__name__} has no "
                    f"registered vector table (or its table declined this "
                    f"configuration)"
                )
        elif batched is None and not trace:
            # A declining table (mixed configuration, ambiguous value
            # order) leaves the run on per-process stepping.
            self._vtable = vector_table_for(processes)
        self._begin_run(schedule, rng=rng, trace=trace)

    def _begin_run(
        self,
        schedule: CrashSchedule | None,
        *,
        rng: RandomSource | None,
        trace: bool,
    ) -> None:
        """Arm the per-run state: schedule, stats, trace, ledgers, round 0.

        Shared by construction, :meth:`reset` (fresh process table), and
        :meth:`refill` (retained process table, refilled columns).

        Handed the schedule object it mapped last, the engine keeps that
        validated crash-by-round map: ``n``, ``t`` and the model never
        change for one engine, and schedules are treated as immutable
        (the scenario layer passes one object for every seed of a
        configuration whose schedule draws nothing).
        """
        if schedule is None:
            schedule = CrashSchedule.none()
        self.schedule = schedule
        if schedule is not self._mapped_schedule:
            schedule.validate(self.n, self.t)
            events = schedule.events.values()
            if not self.allow_control:
                for ev in events:
                    if ev.point is CrashPoint.DURING_CONTROL:
                        raise ConfigurationError(
                            f"p{ev.pid}: DURING_CONTROL crash point is not part of "
                            f"the classic model"
                        )
            by_round: dict[int, dict[int, CrashEvent]] = {}
            for ev in sorted(events, key=lambda e: (e.round_no, e.pid)):
                by_round.setdefault(ev.round_no, {})[ev.pid] = ev
            self._crashes_by_round = by_round
            self._mapped_schedule = schedule
        self.rng = rng
        self.stats = MessageStats()
        self.trace = Trace(enabled=trace)
        pids = range(1, self.n + 1)
        self._active: set[int] = set(pids)
        self._active_order: list[int] = list(pids)  # kept sorted across steps
        self._crashed_round: dict[int, int] = {}
        self._decided_round: dict[int, int] = {}
        self._decisions: dict[int, Any] = {}
        self._round = 0

    def reset(
        self,
        processes: list[SyncProcess],
        schedule: CrashSchedule | None = None,
        *,
        rng: RandomSource | None = None,
        trace: bool = False,
        batched: bool | None = None,
    ) -> "SynchronousEngine":
        """Rewire for a fresh run over ``processes``; return ``self``.

        Reuses the engine skeleton — ``n``, ``t``, the model flags, the
        valid-pid frozenset — and reinstalls everything per-run exactly
        as construction would: new process table (same shape, freshly
        constructed state), new schedule (re-validated), fresh stats,
        trace, ledgers, round counter, and vector table.  A reset engine
        produces byte-identical results to a freshly constructed one
        (pinned by ``tests/scenarios/test_engine_reuse.py``); the
        engine-lease path of the scenario layer leans on this to
        amortize engine setup across the cells of a sweep chunk.

        Note the default ``trace=False`` (construction defaults to
        ``True``): reuse exists for sweep-style bulk execution, which
        pins the allocation-free fast path.
        """
        if not processes:
            raise ConfigurationError("no processes given")
        if processes[0].n != self.n:
            raise ConfigurationError(
                f"reset() requires the constructed shape n={self.n}, "
                f"got processes with n={processes[0].n}"
            )
        self._install(processes, schedule, rng=rng, trace=trace, batched=batched)
        return self

    def refill(
        self,
        proposals: list[Any],
        schedule: CrashSchedule | None = None,
        *,
        rng: RandomSource | None = None,
        trace: bool = False,
    ) -> bool:
        """Rearm for a fresh run **without** a new process table.

        The factory-free sibling of :meth:`reset`: when the engine steps
        through a vector table whose
        :meth:`~repro.sync.api.VectorAlgorithm.refill` takes the
        proposals, the table's columns are rewritten in place and the
        per-run state is re-armed — no ``n``-object process construction,
        no table rebuild.  Returns False (taking no action) when the
        engine has no vector table or the table declines the proposals;
        the caller then falls back to the factory + :meth:`reset` path.

        While stepping through the table, the table is the authoritative copy of
        algorithm state, so the retained process objects only serve as
        decision mirrors: their decision slots are re-armed here, their
        algorithm attributes (estimates, value sets) keep the previous
        run's values.  Refilled runs are byte-identical to fresh ones
        (pinned by ``tests/scenarios/test_columnar_parity.py``).
        """
        table = self._vtable
        if table is None:
            return False
        if len(proposals) != self.n:
            raise ConfigurationError(
                f"refill() needs {self.n} proposals, got {len(proposals)}"
            )
        if not table.refill(proposals):
            return False
        proposal_map = self._proposals
        for pid, proc in self.procs.items():
            proc._decided = False
            proc._decision = None
            proposal_map[pid] = proposals[pid - 1]
        self._begin_run(schedule, rng=rng, trace=trace)
        return True

    # -- stepping -----------------------------------------------------------

    @property
    def round_no(self) -> int:
        """Number of rounds executed so far."""
        return self._round

    @property
    def active_pids(self) -> set[int]:
        """Processes still alive and undecided."""
        return set(self._active)

    def step(self) -> RoundOutcome:
        """Execute one round; mutates engine and process state."""
        if not self._active:
            raise SimulationError("step() called with no active processes")
        self._round += 1
        outcome = execute_round(
            self.procs,
            self._active,
            self._round,
            self._crashes_by_round.get(self._round, _NO_CRASHES),
            allow_control=self.allow_control,
            stats=self.stats,
            trace=self.trace,
            rng=self.rng,
            n=self.n,
            pids=self._pids,
            active_order=self._active_order,
            vtable=self._vtable,
        )
        for pid in outcome.resolved_crashes:
            self._crashed_round[pid] = self._round
            self._active.discard(pid)
        new_decisions = outcome.new_decisions
        if new_decisions:
            if len(new_decisions) <= 2:
                for pid, value in new_decisions.items():
                    self._decided_round[pid] = self._round
                    self._decisions[pid] = value
                    self._active.discard(pid)
            else:
                # Mass-decision rounds (the cascade's last round, flooding
                # horizons): three C-level bulk updates instead of 3n
                # Python-loop operations.
                self._decisions.update(new_decisions)
                self._decided_round.update(dict.fromkeys(new_decisions, self._round))
                self._active.difference_update(new_decisions)
        removed = len(outcome.resolved_crashes) + len(outcome.new_decisions)
        if removed:
            if removed <= 2:
                # The common cascade shape: one crash or one decision per
                # round.  list.remove is one C-level scan; rebuilding the
                # whole order would re-touch every surviving pid.
                for pid in outcome.resolved_crashes:
                    self._active_order.remove(pid)
                for pid in outcome.new_decisions:
                    self._active_order.remove(pid)
            else:
                self._active_order = [
                    pid for pid in self._active_order if pid in self._active
                ]
        return outcome

    def run(self, max_rounds: int | None = None) -> RunResult:
        """Run until every process decided or crashed, or ``max_rounds``.

        The default budget ``n + 1`` is safely above the paper's ``t + 1``
        worst case for every algorithm shipped here; exceeding it marks the
        run ``completed=False`` (the spec checker then reports a
        termination violation rather than looping forever).
        """
        budget = (self.n + 1) if max_rounds is None else max_rounds
        if budget < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {budget}")
        table = self._vtable
        while self._active and self._round < budget:
            if table is not None:
                acts = table.quiet_until()
                if acts is not None and acts - 1 > self._round:
                    self._skip_quiet(min(acts - 1, budget))
                    continue
            self.step()
        return self.result()

    def _skip_quiet(self, last: int) -> None:
        """Advance through rounds a quiet vector table leaves silent.

        Stepping such a round sends nothing and decides nothing; all it
        does is resolve the round's scheduled crashes against empty
        sends.  This does exactly that — the same ``resolve`` calls in
        the same order, so the same rng draws — and records the crash
        rounds, through round ``last`` or until no process is active.
        """
        crashes = self._crashes_by_round
        active = self._active
        while active and self._round < last:
            self._round += 1
            events = crashes.get(self._round)
            if not events:
                continue
            for pid, event in events.items():
                if pid in active:
                    event.resolve((), (), self.rng)
                    self._crashed_round[pid] = self._round
                    active.discard(pid)
                    self._active_order.remove(pid)

    def result(self) -> RunResult:
        """Materialize the current :class:`~repro.sync.result.RunResult`.

        The result holds copies of the engine's own ledgers (identical in
        per-process and vector mode): C-level dict copies, no walk over
        the n processes, and no aliasing of state a later refill or step
        rewrites.
        """
        return RunResult(
            n=self.n,
            t=self.t,
            model=self.model_name,
            proposals=dict(self._proposals),
            decisions=dict(self._decisions),
            decision_rounds=dict(self._decided_round),
            crashed=dict(self._crashed_round),
            rounds_executed=self._round,
            completed=not self._active,
            stats=self.stats,
            trace=self.trace,
        )


class ClassicSynchronousEngine(SynchronousEngine):
    """Classic model: identical pipeline, control step forbidden.

    Suppressing the second sending step yields exactly the traditional
    round-based synchronous model (paper, Section 2.2), so the classic
    engine is the extended engine with ``allow_control=False`` — any plan
    carrying control destinations raises
    :class:`~repro.errors.ModelViolationError`.  DURING_CONTROL crash
    points are rejected up front since the step does not exist.
    """

    model_name = "classic"
    allow_control = False
