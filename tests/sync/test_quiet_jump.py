"""A quiet vector table lets ``run`` jump to its next active round.

Once FloodSet's table has a round with no speaker it stays silent until
its horizon, so :meth:`SynchronousEngine.run` skips straight there.  The
jump must be indistinguishable from stepping: the skipped rounds'
scheduled crashes resolve with the same ``resolve`` calls in the same
order (hence the same rng draws), crash rounds land the same, the run
ends early when no process is left, and a ``max_rounds`` below the
horizon still binds.
"""

from __future__ import annotations

import pytest

from repro.baselines.floodset import FloodSetConsensus, _FloodSetVectorTable
from repro.sync import api
from repro.sync.api import NO_SEND, SyncProcess, VectorAlgorithm
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule, Prefix, Subset
from repro.sync.engine import SynchronousEngine
from repro.sync.extended import ExtendedSynchronousEngine
from repro.util.rng import RandomSource


def floodset(n: int, t: int) -> list[FloodSetConsensus]:
    return [FloodSetConsensus(pid, n, 10 * pid, t) for pid in range(1, n + 1)]


class _Recorder:
    """Wraps ``CrashEvent.resolve`` and ``step`` to log what a run did."""

    def __init__(self, monkeypatch) -> None:
        self.resolves: list[tuple] = []
        self.steps = 0
        resolve, step = CrashEvent.resolve, SynchronousEngine.step

        def logged_resolve(event, data, control, rng):
            self.resolves.append((event.pid, event.round_no, tuple(data), tuple(control)))
            return resolve(event, data, control, rng)

        def counted_step(engine):
            self.steps += 1
            return step(engine)

        monkeypatch.setattr(CrashEvent, "resolve", logged_resolve)
        monkeypatch.setattr(SynchronousEngine, "step", counted_step)


def run(procs, schedule, t, *, batched=None, max_rounds=None, seed=7):
    rng = RandomSource(seed)
    engine = ExtendedSynchronousEngine(
        procs, schedule, t=t, rng=rng, trace=False, batched=batched
    )
    result = engine.run(max_rounds)
    return {
        "decisions": result.decisions,
        "decision_rounds": result.decision_rounds,
        "crashed_rounds": result.crashed,
        "rounds": result.rounds_executed,
        "completed": result.completed,
        "messages": result.stats.messages_sent,
        "bits": result.stats.bits_sent,
        "next_draw": rng.randint(0, 2**30),
    }


def compare(monkeypatch, make_procs, schedule, t, **kwargs):
    """Run with the jump, with the table stepped, and per process."""
    with monkeypatch.context() as m:
        jumped = _Recorder(m)
        got = run(make_procs(), schedule, t, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(type(_table(make_procs())), "quiet_until", lambda self: None)
        stepped = _Recorder(m)
        want = run(make_procs(), schedule, t, **kwargs)
    per_process = run(make_procs(), schedule, t, batched=False, **kwargs)
    assert got == want == per_process
    assert jumped.resolves == stepped.resolves
    assert jumped.steps < stepped.steps  # the jump really skipped rounds
    return got


def _table(procs):
    return api.vector_table_for(procs)


def test_a_fresh_floodset_table_is_not_quiet():
    table = _table(floodset(6, 5))
    assert isinstance(table, _FloodSetVectorTable)
    assert table.quiet_until() is None


def test_crashes_scheduled_inside_the_skipped_span(monkeypatch):
    # n=6, t=5: the table is quiet after round 3 and decides at round 6.
    schedule = CrashSchedule([
        CrashEvent(2, 4, CrashPoint.DURING_CONTROL, control_policy=Prefix.RANDOM),
        CrashEvent(5, 4, CrashPoint.DURING_DATA, data_policy=Subset.RANDOM),
        CrashEvent(3, 5, CrashPoint.BEFORE_SEND),
        CrashEvent(6, 5, CrashPoint.DURING_CONTROL, control_policy=Prefix.RANDOM),
    ])
    got = compare(monkeypatch, lambda: floodset(6, 5), schedule, 5)
    assert got["crashed_rounds"] == {2: 4, 5: 4, 3: 5, 6: 5}
    assert got["rounds"] == 6 and got["completed"]


def test_budget_below_the_horizon(monkeypatch):
    schedule = CrashSchedule([CrashEvent(4, 5, CrashPoint.BEFORE_SEND)])
    got = compare(monkeypatch, lambda: floodset(8, 7), schedule, 7, max_rounds=5)
    assert got["rounds"] == 5
    assert not got["completed"]
    assert got["crashed_rounds"] == {4: 5}


class _EarlyBird(SyncProcess):
    """p1 decides in round 1; everyone else stays silent until round 10."""

    HORIZON = 10

    def __init__(self, pid: int, n: int) -> None:
        super().__init__(pid, n)
        self.proposal = pid

    def send_phase(self, round_no):
        return NO_SEND

    def compute_phase(self, round_no, inbox):
        if (round_no == 1 and self.pid == 1) or round_no == self.HORIZON:
            self.decide(self.pid)


class _EarlyBirdTable(VectorAlgorithm):
    __slots__ = ("_quiet",)

    def __init__(self) -> None:
        self._quiet = False

    @classmethod
    def from_processes(cls, processes):
        return cls()

    def send_phase_vector(self, round_no, active):
        return []

    def compute_phase_vector(
        self, round_no, receivers, receiver_order, sends, crash_free
    ):
        self._quiet = round_no < _EarlyBird.HORIZON
        if round_no == 1:
            return {1: 1} if 1 in receivers else {}
        if round_no == _EarlyBird.HORIZON:
            return {pid: pid for pid in receiver_order}
        return {}

    def quiet_until(self):
        return _EarlyBird.HORIZON if self._quiet else None


def test_everyone_crashing_during_the_skip_ends_the_run(monkeypatch):
    # p1 decides in round 1; the other three crash in rounds 3..6, all
    # inside the jump, so the run ends at round 6 with nobody active.
    # (Registered for this test only: the registry is global.)
    monkeypatch.setitem(api._VECTOR_TABLES, _EarlyBird, _EarlyBirdTable.from_processes)
    schedule = CrashSchedule([
        CrashEvent(2, 3, CrashPoint.DURING_CONTROL, control_policy=Prefix.RANDOM),
        CrashEvent(3, 6, CrashPoint.BEFORE_SEND),
        CrashEvent(4, 6, CrashPoint.DURING_CONTROL, control_policy=Prefix.RANDOM),
    ])
    got = compare(
        monkeypatch, lambda: [_EarlyBird(pid, 4) for pid in range(1, 5)], schedule, 3,
        max_rounds=_EarlyBird.HORIZON,
    )
    assert got["rounds"] == 6
    assert got["completed"]
    assert got["decisions"] == {1: 1}
    assert got["crashed_rounds"] == {2: 3, 3: 6, 4: 6}


@pytest.mark.parametrize("seed", range(6))
def test_refilled_floodset_runs_match_fresh_stepping(monkeypatch, seed):
    # The lease path refills the table: quiet must reset with it.
    from repro.scenarios import Scenario, execute
    from repro.scenarios.execute import EngineLease

    lease = EngineLease()
    cells = [
        Scenario(algorithm="floodset", n=8, f=3, adversary=adv, seed=seed)
        for adv in ("random", "staggered", "random", "coordinator-killer")
    ]
    jumped = [execute(c, trace=False, lease=lease).normalized() for c in cells]
    monkeypatch.setattr(_FloodSetVectorTable, "quiet_until", lambda self: None)
    stepped = [execute(c, trace=False).normalized() for c in cells]
    assert jumped == stepped
