"""Harness for asynchronous consensus runs (crash injection + spec checks).

The runner drives the protocol in one of two modes:

* **per-object** (``batched=False``): every delivery dispatches through
  the destination's :class:`AsyncProcess` handler — the reference path;
* **batched columnar** (``batched=None`` auto-detects, ``True``
  requires): when every process is of one exact type with a registered
  :class:`~repro.asyncsim.process.AsyncBatchedTable` and the delay model
  rides the pooled tuple path, deliveries go straight to the table as
  raw ``(bits, sender, dest, round_no, payload, tag)`` entries — no
  ``Message`` object is ever built — and the table re-evaluates progress
  only on events that can unblock the destination.  Decisions are
  mirrored back onto the process objects, and runs are byte-identical to
  per-object mode (``tests/asyncsim/test_batched_async_parity.py``).

A runner is **reusable**: :meth:`AsyncRunner.reset` rewires it for a
fresh process list (same ``n``/``t``/delay model/detector spec) while
keeping the event queue, network, detector, and per-pid contexts
allocated — the engine-lease path of the scenario layer leans on this to
amortize setup across sweep cells.  A reset runner is observably
identical to a freshly constructed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Iterable, Sequence

from repro.asyncsim.events import EventQueue
from repro.asyncsim.failure_detector import DetectorSpec, SimulatedDiamondS
from repro.asyncsim.network import AsyncNetwork, DelayModel, UniformDelay
from repro.asyncsim.process import (
    AsyncBatchedTable,
    AsyncProcess,
    ProcessContext,
    async_table_for,
)
from repro.errors import ConfigurationError
from repro.net.accounting import MessageStats
from repro.net.message import Message, MessageKind
from repro.util.rng import RandomSource

__all__ = ["AsyncCrash", "AsyncRunResult", "AsyncRunner"]


@dataclass(frozen=True, slots=True)
class AsyncCrash:
    """Crash ``pid`` at simulated time ``time``."""

    pid: int
    time: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("crash time must be >= 0")


@dataclass(slots=True)
class AsyncRunResult:
    """Observable outcome of one asynchronous run.

    Carries the ledgers :func:`~repro.sync.spec.check_consensus` reads:
    ``proposals``, ``decisions``, ``decision_rounds`` (the protocol round
    each decider decided in) and ``crashed`` (pid → crash time).  The run
    has no round budget — a process still undecided at the time horizon
    shows up as a termination violation — so ``completed`` is always
    True (a class constant).
    """

    n: int
    t: int
    proposals: dict[int, Any]
    decisions: dict[int, Any]
    decision_times: dict[int, float]
    decision_rounds: dict[int, int]
    crashed: dict[int, float]
    sim_time: float
    events_executed: int
    stats: MessageStats
    completed: ClassVar[bool] = True

    @property
    def f(self) -> int:
        return len(self.crashed)


class AsyncRunner:
    """Wires processes, network, detector, and crashes; runs to quiescence."""

    def __init__(
        self,
        processes: Sequence[AsyncProcess],
        *,
        t: int,
        crashes: Iterable[AsyncCrash] = (),
        delay_model: DelayModel | None = None,
        detector_spec: DetectorSpec | None = None,
        rng: RandomSource | None = None,
        batched: bool | None = None,
    ) -> None:
        if not processes:
            raise ConfigurationError("no processes")
        n = processes[0].n
        self.n = n
        self.t = t
        self._batched = batched
        self.rng = rng or RandomSource(0)
        self.queue = EventQueue()
        self.stats = MessageStats()
        self.delay_model = delay_model or UniformDelay()
        self.detector = SimulatedDiamondS(
            n,
            self.queue,
            detector_spec or DetectorSpec(detection_latency=1.0),
            self.rng,
            on_change=self._on_fd_change,
        )
        self.network = AsyncNetwork(
            self.queue,
            self.delay_model,
            self.rng.spawn("net"),
            self._deliver,
            stats=self.stats,
            deliver_entry=self._deliver_entry,
        )
        # Contexts depend only on (pid, n) and the long-lived wiring, so a
        # reused runner hands the same context objects to fresh processes.
        self._contexts = [
            ProcessContext(pid, n, self.queue, self.network, self.detector, self._deliver)
            for pid in range(1, n + 1)
        ]
        self._install(processes, crashes)

    def _checked_crashes(self, crashes: Iterable[AsyncCrash]) -> list[AsyncCrash]:
        """Validate a run's crash list (shared by install and refill)."""
        crash_list = list(crashes)
        if len({c.pid for c in crash_list}) != len(crash_list):
            raise ConfigurationError("a process can crash only once")
        if len(crash_list) > self.t:
            raise ConfigurationError(f"{len(crash_list)} crashes but t={self.t}")
        return crash_list

    def _rearm(self, rng: RandomSource | None) -> None:
        """Reset the long-lived wiring for a fresh run (reset and refill):
        new RNG tree installed exactly as construction would, queue rewound,
        fresh stats ledger handed to detector and network."""
        self.rng = rng or RandomSource(0)
        self.queue.reset()
        self.stats = MessageStats()
        self.detector.reset(self.rng)
        self.network.reset(self.rng.spawn("net"), self.stats)

    def _install(
        self, processes: Sequence[AsyncProcess], crashes: Iterable[AsyncCrash]
    ) -> None:
        """Per-run wiring shared by construction and :meth:`reset`."""
        n = self.n
        if sorted(p.pid for p in processes) != list(range(1, n + 1)) or any(
            p.n != n for p in processes
        ):
            raise ConfigurationError("pids must be exactly 1..n")
        self.procs: dict[int, AsyncProcess] = {p.pid: p for p in processes}
        self.crashes = self._checked_crashes(crashes)
        self._crashed: dict[int, float] = {}
        # Settled = decided or crashed.  Processes report decisions through
        # the settle hook and crashes drain through _crash(), so the run
        # loop's stop predicate is one truthiness test per event instead of
        # an all-processes scan.
        self._unsettled: set[int] = set(self.procs)
        for p in processes:
            p._settle_hook = self._unsettled.discard
            p.attach(self._contexts[p.pid - 1])
        self._table: AsyncBatchedTable | None = None
        if self._batched is None or self._batched:
            self._table = async_table_for(processes, self.network, self.detector)
            if self._batched and self._table is None:
                raise ConfigurationError(
                    f"batched=True but {type(processes[0]).__name__} has no "
                    f"registered async table (or the delay model is per_message)"
                )
        if self._table is not None:
            # One frame per delivery: the table itself is the scheduled
            # action; it owns the delivered-bits charge and the void drop.
            self._table.bind_run(self.stats, self._crashed)
            self.network.set_deliver_entry(self._table.deliver)
        else:
            self.network.set_deliver_entry(self._deliver_entry)

    def reset(
        self,
        processes: Sequence[AsyncProcess],
        *,
        crashes: Iterable[AsyncCrash] = (),
        rng: RandomSource | None = None,
    ) -> "AsyncRunner":
        """Rewire for a fresh run over ``processes``; return ``self``.

        Reuses the event queue (rewound to time 0 with a restarted seq
        counter), network, detector, and per-pid contexts; installs the
        new RNG tree exactly as construction would (detector re-spawns
        ``"fd"``, network gets ``spawn("net")``).  ``n``, ``t``, the
        delay model, the detector spec, and the batched mode are fixed at
        construction — reuse is only safe across runs of one scenario
        configuration, which is what the engine lease keys on.
        """
        self._rearm(rng)
        self._install(processes, crashes)
        return self

    def refill(
        self,
        proposals: Sequence[Any],
        *,
        crashes: Iterable[AsyncCrash] = (),
        rng: RandomSource | None = None,
    ) -> bool:
        """Rearm for a fresh run **without** a new process list.

        The factory-free sibling of :meth:`reset`: when the runner steps
        through a batched table whose
        :meth:`~repro.asyncsim.process.AsyncBatchedTable.refill` takes the
        proposals, the table's columns are rewritten in place, the
        retained process objects are re-armed as decision mirrors
        (decision slots cleared, ``proposal`` updated — their other
        protocol attributes keep the previous run's values; the table is
        authoritative), and queue/network/detector/stats are reset exactly
        as :meth:`reset` would.  Returns False (taking no action) when no
        batched table is installed or the table declines; callers then
        fall back to the factory + :meth:`reset` path.  Refilled runs are
        byte-identical to fresh ones
        (``tests/scenarios/test_columnar_parity.py``).
        """
        table = self._table
        if table is None:
            return False
        if len(proposals) != self.n:
            raise ConfigurationError(
                f"refill() needs {self.n} proposals, got {len(proposals)}"
            )
        crash_list = self._checked_crashes(crashes)
        if not table.refill(proposals):
            return False
        self._rearm(rng)
        self.crashes = crash_list
        self._crashed.clear()
        # The settle hooks bind the *existing* unsettled set's discard, so
        # the set is repopulated in place rather than replaced.
        self._unsettled.clear()
        self._unsettled.update(self.procs)
        for pid, proc in self.procs.items():
            proc._decided = False
            proc._decision = None
            proc._decision_time = 0.0
            proc._decision_round = 0
            proc.proposal = proposals[pid - 1]
        table.bind_run(self.stats, self._crashed)
        return True

    # -- wiring callbacks -----------------------------------------------------

    def _deliver(self, msg: Message) -> None:
        if msg.dest in self._crashed:
            return  # delivered into the void
        self.procs[msg.dest].on_message(msg)

    def _deliver_entry(self, entry: tuple) -> None:
        """Pooled delivery in per-object mode.

        Scheduled directly as the delivery action by the network's pooled
        path (batched runs schedule the table's ``deliver`` instead), so
        the delivered-side accounting lands here — counters bumped in
        place, one attribute write instead of a ``bulk_async`` frame —
        *before* the crash check: a message into the void still counts as
        delivered, exactly like the Message path's ``_deliver_one``.  The
        one ``Message`` the handler expects is materialized after the
        crash check, so messages into the void are never built at all.
        """
        bits = entry[0]
        if bits:
            stats = self.stats
            stats.async_delivered += 1
            stats.bits_delivered += bits
        dest = entry[2]
        if dest in self._crashed:
            return
        self.procs[dest].on_message(
            Message(
                MessageKind.ASYNC, entry[1], dest, entry[3],
                payload=entry[4], tag=entry[5],
            )
        )

    def _on_fd_change(self, observer: int) -> None:
        if observer not in self._crashed:
            if self._table is not None:
                self._table.on_fd_change(observer)
            else:
                self.procs[observer].on_fd_change()

    def _crash(self, pid: int) -> None:
        if pid not in self._crashed:
            self._crashed[pid] = self.queue.now
            self._unsettled.discard(pid)
            self.detector.notify_crash(pid)

    def _start_if_alive(self, pid: int) -> None:
        # A process crashed at time 0 (scheduled before the starts, hence
        # earlier in the queue) must never run its start handler.
        if pid not in self._crashed:
            if self._table is not None:
                self._table.on_start(pid)
            else:
                self.procs[pid].on_start()

    # -- execution --------------------------------------------------------------

    def run(self, *, until: float = 10_000.0, max_events: int = 2_000_000) -> AsyncRunResult:
        """Start every process, inject crashes, drain events, report."""
        for crash in self.crashes:
            self.queue.schedule_at(crash.time, self._crash, crash.pid)
        # Start order is randomised: asynchrony includes start skew.
        for pid in self.rng.shuffle(sorted(self.procs)):
            self.queue.schedule(0.0, self._start_if_alive, pid)

        end = self.queue.run(
            until=until, max_events=max_events, stop_set=self._unsettled
        )

        return AsyncRunResult(
            n=self.n,
            t=self.t,
            proposals={
                pid: getattr(p, "proposal", None) for pid, p in self.procs.items()
            },
            decisions={pid: p.decision for pid, p in self.procs.items() if p.decided},
            decision_times={
                pid: p.decision_time for pid, p in self.procs.items() if p.decided
            },
            decision_rounds={
                pid: p.decision_round for pid, p in self.procs.items() if p.decided
            },
            crashed=dict(self._crashed),
            sim_time=end,
            events_executed=self.queue.executed,
            stats=self.stats,
        )
