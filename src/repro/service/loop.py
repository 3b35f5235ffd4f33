"""The consensus service loop: traffic in, committed log slots out.

:class:`ConsensusService` is the long-lived serving shape on top of
:class:`~repro.rsm.log.ReplicatedLog`: client commands stream through the
current leader into log slots, survive injected crash storms via leader
rotation, and reach clients exactly once through the retry/dedup session
layer.  The loop runs in *virtual time* — one unit per configured
``round_time`` per executed consensus round — so every latency figure and
retry schedule is deterministic, a pure function of
``(seed, workload, chaos plan)``.

One iteration of the loop:

1. **admit** — pull due arrivals from the workload; while draining,
   arrivals are refused (honest load shedding, never a hang);
2. **timeout scan** — requests past their ack deadline either dedup-ack
   from the commit ledger (the original committed but the ack was fenced
   or lost) or re-enter the propose queue with exponential backoff, until
   the client's attempt budget fails them honestly;
3. **propose** — the oldest eligible request rides a tagged
   :class:`~repro.rsm.machine.Command` proposed by the ring leader into
   the next log slot; chaos kills fire *inside* that slot as engine
   crash events, at the leader's own send round;
4. **settle** — a committed tagged command is ledgered and acked under
   the epoch it was proposed in; if the leader died in the slot the ring
   rotates first and the stale-epoch ack is fenced off, leaving the
   retry path to answer from the ledger.

Degradation is a first-class outcome: once crashes exhaust the ``t``
budget the service drains in-flight requests, refuses new ones, and
reports ``state="degraded"`` — partial but honest, never wedged.

One iteration costs O(in-flight requests), never O(history):
:attr:`ConsensusService.requests` keeps every request ever admitted (the
report and the exactly-once check read it), while the timeout scan, the
propose queue and the idle branch's next-event search walk only
:attr:`ConsensusService.inflight` — admitted, not yet acked or failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fabric.faults import RAND, FaultInjected, ServiceFaultPlan
from repro.rsm.log import ReplicatedLog
from repro.rsm.machine import MACHINES, Command
from repro.service.metrics import LatencyRecorder, ServiceCounters
from repro.service.ring import LeaderRing
from repro.service.sessions import (
    Ack,
    CommitRecord,
    Request,
    RetryPolicy,
    SessionTable,
)
from repro.service.traffic import Workload
from repro.sync.crash import CrashEvent, CrashPoint
from repro.util.rng import RandomSource

__all__ = ["ConsensusService", "ServiceReport"]

#: Chaos grammar crash points → engine crash points.
_POINTS = {
    "before": CrashPoint.BEFORE_SEND,
    "data": CrashPoint.DURING_DATA,
    "control": CrashPoint.DURING_CONTROL,
    "after": CrashPoint.AFTER_SEND,
}

_RUNNING = "running"
_DRAINING = "draining"


@dataclass(slots=True)
class ServiceReport:
    """Everything one service run produced, JSON-able."""

    state: str  # "completed" | "degraded"
    machine: str
    n: int
    t: int
    elapsed: float  # virtual time at shutdown
    throughput: float  # acked commands per virtual-time unit
    counters: dict[str, int]
    latency: dict[str, float]
    epoch: int
    rotations: int
    leader: int | None
    crashed: list[int]
    digests: dict[int, str]  # live replica state digests
    budget_exhausted: bool
    problems: list[str]  # safety/liveness violations (empty = OK)

    @property
    def ok(self) -> bool:
        """Clean run: completed, no violations, nothing refused or failed."""
        return (
            self.state == "completed"
            and not self.problems
            and self.counters["failed"] == 0
            and self.counters["refused"] == 0
        )

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "ok": self.ok,
            "machine": self.machine,
            "n": self.n,
            "t": self.t,
            "elapsed": self.elapsed,
            "throughput": self.throughput,
            "counters": dict(self.counters),
            "latency": dict(self.latency),
            "epoch": self.epoch,
            "rotations": self.rotations,
            "leader": self.leader,
            "crashed": list(self.crashed),
            "digests": {str(pid): d for pid, d in self.digests.items()},
            "budget_exhausted": self.budget_exhausted,
            "problems": list(self.problems),
        }


class ConsensusService:
    """A fault-tolerant command-serving loop over the replicated log."""

    def __init__(
        self,
        n: int,
        *,
        machine: str = "kv",
        t: int | None = None,
        seed: int = 0,
        faults: ServiceFaultPlan | None = None,
        policy: RetryPolicy | None = None,
        round_time: float = 1.0,
        max_slots: int | None = None,
        propose_retry_limit: int = 4,
    ) -> None:
        if machine not in MACHINES:
            raise ConfigurationError(
                f"unknown machine {machine!r}; available: "
                f"{', '.join(sorted(MACHINES))}"
            )
        if not 0 < round_time < math.inf:
            raise ConfigurationError(
                f"round_time must be finite and > 0, got {round_time}"
            )
        if propose_retry_limit < 1:
            raise ConfigurationError(
                f"propose_retry_limit must be >= 1, got {propose_retry_limit}"
            )
        self.n = n
        self.machine_name = machine
        rng = RandomSource(seed)
        self.log = ReplicatedLog(n, MACHINES[machine], t=t, rng=rng.spawn("log"))
        self.t = self.log.t
        self.ring = LeaderRing(n)
        self.table = SessionTable()
        self.policy = policy or RetryPolicy()
        self.faults = faults
        self.round_time = round_time
        self.max_slots = max_slots
        self.propose_retry_limit = propose_retry_limit
        self.counters = ServiceCounters()
        self.latencies = LatencyRecorder()
        #: Every request ever admitted (refused ones too), admission order.
        self.requests: dict[tuple[int, int], Request] = {}
        #: Admitted requests not yet acked or failed, admission order.
        self.inflight: dict[tuple[int, int], Request] = {}
        # The propose queue, enqueue order: in-flight requests waiting
        # for a slot (a subset of ``inflight``).
        self._queue: dict[tuple[int, int], Request] = {}
        self.state = _RUNNING
        self.budget_exhausted = False
        self._chaos_rng = rng.spawn("chaos")
        self._problems: list[str] = []
        self._propose_attempts: dict[int, int] = {}
        self._poison_bypassed: set[int] = set()
        self._ran = False

    # -- settle helpers -----------------------------------------------------------

    def _settle(self, req: Request) -> None:
        del self.inflight[req.key]
        self._queue.pop(req.key, None)

    def _ack(self, workload: Workload, req: Request, ack: Ack) -> None:
        req.acked_at = ack.at
        self._settle(req)
        self.latencies.record(ack.at - req.submitted_at)
        self.counters.acked += 1
        workload.on_settle(req.session, ack.at)

    def _fail(self, workload: Workload, req: Request, now: float) -> None:
        req.failed = True
        self._settle(req)
        self.counters.failed += 1
        workload.on_settle(req.session, now)

    # -- the loop -----------------------------------------------------------------

    def run(self, workload: Workload) -> ServiceReport:
        """Serve ``workload`` to completion (or honest degradation)."""
        if self._ran:
            raise ConfigurationError("a ConsensusService instance serves one run")
        self._ran = True

        faults = self.faults
        if faults is not None:
            horizon = max(16, workload.total_requests * 4)
            faults = faults.bind(replicas=self.n, slots=horizon)
        max_slots = self.max_slots
        if max_slots is None:
            max_slots = 64 + workload.total_requests * self.policy.max_attempts * 4

        now = 0.0
        inflight = self.inflight
        queue = self._queue
        next_id: dict[int, int] = {}
        stall = 0

        while True:
            progressed = False

            # 1. admit arrivals (refused while draining — load shedding).
            for session, op in workload.due(now):
                progressed = True
                rid = next_id.get(session, 1)
                next_id[session] = rid + 1
                if self.state != _RUNNING:
                    req = Request(session, rid, op, submitted_at=now, deadline=now)
                    req.refused = True
                    self.requests[req.key] = req
                    self.counters.refused += 1
                    workload.on_refuse(session)
                    continue
                req = Request(
                    session,
                    rid,
                    op,
                    submitted_at=now,
                    deadline=now + self.policy.timeout,
                )
                self.requests[req.key] = req
                inflight[req.key] = req
                self.counters.submitted += 1
                queue[req.key] = req

            # 2. timeout scan: dedup-ack, retry with backoff, or fail.
            # Expired requests are collected first, then handled in
            # admission order: handling one never moves another's deadline.
            expired = [req for req in inflight.values() if now >= req.deadline]
            for req in expired:
                progressed = True
                record = self.table.committed(req.key)
                if record is not None:
                    # The original attempt committed (ack fenced or lost):
                    # the retry is answered from the ledger, no new slot.
                    self.counters.retried += 1
                    self.counters.deduped += 1
                    ack = Ack(
                        req.session,
                        req.request_id,
                        record.slot,
                        self.ring.epoch,
                        self.ring.leader,
                        now,
                    )
                    if self.table.accept_ack(ack, self.ring):
                        self._ack(workload, req, ack)
                    continue
                if req.attempts >= self.policy.max_attempts:
                    self._fail(workload, req, now)
                    continue
                req.attempts += 1
                self.counters.retried += 1
                if req.key in queue:
                    # Still waiting in the propose queue: the retry just
                    # re-arms the client's deadline.
                    req.deadline = now + self.policy.timeout
                else:
                    delay = self.policy.backoff(req.attempts)
                    req.eligible_at = now + delay
                    req.deadline = req.eligible_at + self.policy.timeout
                    queue[req.key] = req

            # 3. pick the oldest eligible queued request.
            req = None
            for candidate in queue.values():
                if candidate.eligible_at <= now:
                    req = candidate
                    break

            if req is None:
                if not inflight and workload.exhausted():
                    break
                events: list[float] = []
                arrival = workload.next_arrival()
                if arrival is not None:
                    events.append(arrival)
                # A queued request waits on its backoff gate, an unqueued
                # one (proposal in flight or fenced) on its ack deadline.
                for r in inflight.values():
                    events.append(r.eligible_at if r.key in queue else r.deadline)
                if not events:
                    self._problems.append(
                        "service wedged: unsettled requests with no future event"
                    )
                    self.state = _DRAINING
                    break
                nxt = min(events)
                if nxt <= now:
                    if progressed:
                        continue
                    stall += 1
                    if stall > 3:
                        self._problems.append("service wedged: virtual time stalled")
                        self.state = _DRAINING
                        break
                    now += self.round_time
                    continue
                stall = 0
                now = nxt
                continue
            stall = 0
            key = req.key
            prospective = len(self.log.slots) + 1

            # Propose-path raise faults: transient ones retry after a
            # pause, poison ones fail the head request honestly after the
            # propose-retry budget (and the slot is then served normally).
            if faults is not None and prospective not in self._poison_bypassed:
                attempt = self._propose_attempts.get(prospective, 0)
                try:
                    faults.check_slot(prospective, attempt)
                except FaultInjected:
                    self._propose_attempts[prospective] = attempt + 1
                    self.counters.propose_retries += 1
                    if attempt + 1 >= self.propose_retry_limit:
                        self._poison_bypassed.add(prospective)
                        self._fail(workload, req, now)
                    else:
                        now += self.round_time
                    continue

            del queue[key]

            # Chaos kills for this slot, resolved against the live ring.
            crash_events: list[CrashEvent] = []
            if faults is not None and self.state == _RUNNING:
                for spec in faults.kills_for(prospective):
                    target = self.ring.leader if spec.leader else spec.pid
                    if target is None or target not in self.ring.alive:
                        continue  # already dead: the kill is a no-op
                    already = self.n - len(self.ring.alive)
                    if self.t - already - len(crash_events) <= 0:
                        # The kill would exceed the crash budget: degrade
                        # instead of wedging (or lying about tolerance).
                        self.budget_exhausted = True
                        self.state = _DRAINING
                        break
                    point = spec.point
                    if point == RAND:
                        point = self._chaos_rng.choice(
                            ("before", "data", "control", "after")
                        )
                    # The leader sends in its own coordinating round; a
                    # non-leader target just dies at the slot's start.
                    round_no = target if target == self.ring.leader else 1
                    crash_events.append(CrashEvent(target, round_no, _POINTS[point]))
                    self.counters.kills += 1

            epoch = self.ring.epoch
            leader = self.ring.leader
            command = Command(origin=leader, op=req.op, tag=key)
            slot = self.log.commit({leader: command}, crash_events)
            self.counters.slots += 1
            now += slot.rounds * self.round_time

            # Rotation happens *before* the ack is offered: an ack stamped
            # with a dead leader's epoch must be fenced, not delivered.
            self.ring.observe_crashes(slot.new_crashes)

            if slot.decided is not None and slot.decided.tag == key:
                record = CommitRecord(slot=slot.slot, epoch=epoch, leader=leader)
                if not self.table.record_commit(key, record):
                    self._problems.append(
                        f"slot {slot.slot}: duplicate commit of {key}"
                    )
                ack = Ack(req.session, req.request_id, slot.slot, epoch, leader, now)
                if self.table.accept_ack(ack, self.ring):
                    self._ack(workload, req, ack)
                # else: fenced — the client times out and dedup-acks later.
            else:
                # The proposal died with the leader; a successor's noop
                # filled the slot.  The client's deadline drives the retry.
                self.counters.noop_slots += 1

            if self.state == _RUNNING and self.n - len(self.ring.alive) >= self.t:
                self.budget_exhausted = True
                self.state = _DRAINING
            if self.counters.slots >= max_slots:
                self._problems.append(
                    f"slot cap {max_slots} hit before traffic drained"
                )
                self.state = _DRAINING
                break

        return self._report(now)

    # -- reporting ----------------------------------------------------------------

    def _report(self, elapsed: float) -> ServiceReport:
        self.counters.rejected_stale = self.table.rejected_stale
        problems = list(self._problems)
        problems.extend(self.log.check_invariants())
        problems.extend(self._history_problems())
        if set(self.log.live_pids) != self.ring.alive:
            problems.append(
                f"ring/log liveness divergence: ring {sorted(self.ring.alive)} "
                f"vs log {self.log.live_pids}"
            )
        live = self.log.live_pids
        digests = {pid: self.log.replicas[pid].machine.digest() for pid in live}
        state = "completed" if self.state == _RUNNING else "degraded"
        throughput = self.counters.acked / elapsed if elapsed > 0 else 0.0
        return ServiceReport(
            state=state,
            machine=self.machine_name,
            n=self.n,
            t=self.t,
            elapsed=elapsed,
            throughput=throughput,
            counters=self.counters.to_dict(),
            latency=self.latencies.summary(),
            epoch=self.ring.epoch,
            rotations=self.ring.rotations,
            leader=self.ring.leader,
            crashed=sorted(set(range(1, self.n + 1)) - self.ring.alive),
            digests=digests,
            budget_exhausted=self.budget_exhausted,
            problems=problems,
        )

    def _history_problems(self) -> list[str]:
        """Linearizability-style exactly-once check over the committed log.

        * no tagged command appears in the log twice (dedup held);
        * every acked request's command is in the log, at the ledgered
          slot (no lost acks);
        * real-time order: a request acked before another was submitted
          committed at an earlier slot.
        """
        problems: list[str] = []
        live = self.log.live_pids
        if not live:
            return ["all replicas crashed: no reference log"]
        reference = self.log.replicas[live[0]].log
        tag_slots: dict[tuple[int, int], list[int]] = {}
        for slot_no, cmd in enumerate(reference, start=1):
            if cmd.tag is not None:
                tag_slots.setdefault(cmd.tag, []).append(slot_no)
        for tag, slots in sorted(tag_slots.items()):
            if len(slots) > 1:
                problems.append(
                    f"command {tag} applied {len(slots)} times (slots {slots})"
                )
        acked = [r for r in self.requests.values() if r.acked_at is not None]
        with_slots = []
        for req in acked:
            record = self.table.committed(req.key)
            if record is None:
                problems.append(f"acked {req.key} has no ledger entry")
                continue
            slots = tag_slots.get(req.key)
            if not slots:
                problems.append(f"acked {req.key} never committed (lost command)")
                continue
            if record.slot not in slots:
                problems.append(
                    f"acked {req.key} ledgered at slot {record.slot} "
                    f"but committed at {slots}"
                )
            with_slots.append((record.slot, req))
        # Real-time order, O(n): scanning by slot descending, a violation
        # is an earlier-slot request submitted at-or-after a later-slot
        # request's ack.
        with_slots.sort(key=lambda pair: pair[0], reverse=True)
        min_ack_later = float("inf")
        for _, req in with_slots:
            if min_ack_later <= req.submitted_at:
                problems.append(
                    f"real-time order violated around {req.key}: a later-slot "
                    f"request was acked before this one was submitted"
                )
            min_ack_later = min(min_ack_later, req.acked_at)
        # Replay: the committed log must reproduce the live state exactly.
        machine = MACHINES[self.machine_name]()
        for cmd in reference:
            machine.apply(cmd)
        replayed = machine.digest()
        for pid in live:
            if self.log.replicas[pid].machine.digest() != replayed:
                problems.append(f"replayed log digest diverges from live p{pid}")
        return problems
