"""A replicated log built from repeated Figure-1 consensus instances.

Each log *slot* is one uniform-consensus instance on the extended
synchronous engine: every live replica proposes its pending command, the
decided command is appended to every replica that decided, and the state
machines apply the log in order.  Crash-stop persistence holds across
slots: a replica that crashed in slot ``k`` enters every later slot
pre-crashed (scheduled to die before sending).

Because each instance is the paper's algorithm, the log inherits its
properties directly:

* **uniform agreement per slot** ⇒ all replicas hold a common log prefix
  and correct replicas end with identical state digests;
* **early stopping** ⇒ slot latency is ``(f_slot + 1)`` extended rounds
  where ``f_slot`` counts only the crashes *during that slot* — the
  failure-free steady state commits every slot in a single round, which is
  the LAN-replication story the paper's cost analysis targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.crw import CRWConsensus
from repro.errors import ConfigurationError
from repro.rsm.machine import Command, StateMachine
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule
from repro.sync.extended import ExtendedSynchronousEngine
from repro.sync.spec import check_consensus
from repro.util.rng import RandomSource

__all__ = ["SlotResult", "ReplicaState", "ReplicatedLog"]


@dataclass(frozen=True, slots=True)
class SlotResult:
    """Outcome of one log slot."""

    slot: int
    decided: Command | None
    rounds: int
    appended_to: tuple[int, ...]
    new_crashes: tuple[int, ...]
    violations: tuple[str, ...]


@dataclass(slots=True)
class ReplicaState:
    """One replica: its log, machine, and liveness."""

    pid: int
    machine: StateMachine
    log: list[Command] = field(default_factory=list)
    alive: bool = True


class ReplicatedLog:
    """Multi-slot replication driver."""

    def __init__(
        self,
        n: int,
        machine_factory,
        *,
        t: int | None = None,
        rng: RandomSource | None = None,
    ) -> None:
        if n < 2:
            raise ConfigurationError("need n >= 2 replicas")
        self.n = n
        self.t = n - 1 if t is None else t
        self.rng = rng or RandomSource(0)
        self.replicas: dict[int, ReplicaState] = {
            pid: ReplicaState(pid=pid, machine=machine_factory()) for pid in range(1, n + 1)
        }
        self.slots: list[SlotResult] = []
        self._crashed_forever: set[int] = set()
        # Commands are immutable values: every slot shares one noop per pid.
        self._noops = [Command(origin=pid, op="noop") for pid in range(1, n + 1)]
        # One leased engine for the whole log: slot k+1 refills slot k's
        # engine (columnar est/decision rewrites, zero process
        # construction) instead of paying the n-object factory plus
        # engine wiring per slot.  reset() is the fallback for the
        # hypothetical non-refillable table.
        self._engine: ExtendedSynchronousEngine | None = None

    # -- public API ---------------------------------------------------------------

    @property
    def live_pids(self) -> list[int]:
        """Replicas that have not crashed in any past slot."""
        return sorted(pid for pid in self.replicas if pid not in self._crashed_forever)

    def commit(
        self,
        commands: Mapping[int, Command],
        crash_events: list[CrashEvent] | None = None,
    ) -> SlotResult:
        """Run one slot: agree on one of ``commands`` and apply it.

        ``commands`` maps proposing pid → command; replicas without a
        pending command propose a ``noop``.  ``crash_events`` inject fresh
        failures into this slot (on top of the persistent ones).
        """
        slot_no = len(self.slots) + 1
        remaining_budget = self.t - len(self._crashed_forever)
        fresh = list(crash_events or [])
        if len(fresh) > remaining_budget:
            raise ConfigurationError(
                f"slot {slot_no}: {len(fresh)} new crashes exceed remaining "
                f"budget {remaining_budget} (t={self.t})"
            )
        proposals = [commands.get(noop.origin, noop) for noop in self._noops]

        events = list(fresh)
        for pid in sorted(self._crashed_forever):
            events.append(CrashEvent(pid, 1, CrashPoint.BEFORE_SEND))
        schedule = CrashSchedule(events)

        slot_rng = self.rng.spawn(f"slot{slot_no}")
        engine = self._engine
        if engine is None:
            procs = [
                CRWConsensus(pid, self.n, proposal=proposals[pid - 1])
                for pid in range(1, self.n + 1)
            ]
            engine = ExtendedSynchronousEngine(
                procs, schedule, t=self.t, rng=slot_rng, trace=False
            )
            self._engine = engine
        elif not engine.refill(proposals, schedule, rng=slot_rng):
            procs = [
                CRWConsensus(pid, self.n, proposal=proposals[pid - 1])
                for pid in range(1, self.n + 1)
            ]
            engine.reset(procs, schedule, rng=slot_rng)
        result = engine.run()
        spec = check_consensus(result, require_early_stopping=True)

        decided_values = set(result.decisions.values())
        decided = next(iter(decided_values)) if len(decided_values) == 1 else None
        appended = []
        for pid, value in sorted(result.decisions.items()):
            replica = self.replicas[pid]
            replica.log.append(value)
            replica.machine.apply(value)
            appended.append(pid)

        new_crashes = tuple(
            pid for pid in result.crashed_pids if pid not in self._crashed_forever
        )
        for pid in new_crashes:
            self._crashed_forever.add(pid)
            self.replicas[pid].alive = False

        slot = SlotResult(
            slot=slot_no,
            decided=decided,
            rounds=result.rounds_executed,
            appended_to=tuple(appended),
            new_crashes=new_crashes,
            violations=spec.violations,
        )
        self.slots.append(slot)
        return slot

    # -- invariants -----------------------------------------------------------------

    def check_invariants(self) -> list[str]:
        """Replication invariants over the whole history (empty = OK)."""
        problems: list[str] = []
        live = [self.replicas[pid] for pid in self.live_pids]
        if live:
            reference = live[0].log
            for replica in live[1:]:
                if replica.log != reference:
                    problems.append(
                        f"log divergence: p{replica.pid} vs p{live[0].pid}"
                    )
            digests = {r.machine.digest() for r in live}
            if len(digests) > 1:
                problems.append(f"state divergence across live replicas: {digests}")
        # Prefix property for crashed replicas: their log is a prefix of the
        # live log (they stopped appending when they died — uniform
        # agreement guarantees what they did append matches).
        if live:
            reference = live[0].log
            for pid in sorted(self._crashed_forever):
                dead_log = self.replicas[pid].log
                if dead_log != reference[: len(dead_log)]:
                    problems.append(f"crashed p{pid} log is not a prefix")
        for slot in self.slots:
            if slot.violations:
                problems.append(f"slot {slot.slot} spec violations: {slot.violations}")
        return problems
