"""Tests for the round engines using hand-written probe processes."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ModelViolationError, SimulationError
from repro.sync.api import NO_SEND, RoundInbox, SendPlan, SyncProcess
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule, Subset
from repro.sync.engine import ClassicSynchronousEngine
from repro.sync.extended import ExtendedSynchronousEngine
from repro.util.rng import RandomSource


class Broadcaster(SyncProcess):
    """Sends (pid, round) data to everyone each round, records inboxes,
    decides after `rounds` rounds."""

    def __init__(self, pid, n, rounds=2, control=False):
        super().__init__(pid, n)
        self.proposal = pid
        self.rounds = rounds
        self.control = control
        self.inboxes: list[RoundInbox] = []

    def send_phase(self, round_no):
        others = [j for j in range(1, self.n + 1) if j != self.pid]
        return SendPlan(
            data={j: (self.pid, round_no) for j in others},
            control=tuple(others) if self.control else (),
        )

    def compute_phase(self, round_no, inbox):
        self.inboxes.append(inbox)
        if round_no >= self.rounds:
            self.decide(self.pid)


def build(n, **kw):
    return [Broadcaster(pid, n, **kw) for pid in range(1, n + 1)]


class TestEngineValidation:
    def test_needs_processes(self):
        with pytest.raises(ConfigurationError):
            ExtendedSynchronousEngine([])

    def test_pids_must_cover_range(self):
        procs = [Broadcaster(1, 3), Broadcaster(3, 3)]
        with pytest.raises(ConfigurationError):
            ExtendedSynchronousEngine(procs)

    def test_t_bounds(self):
        with pytest.raises(ConfigurationError):
            ExtendedSynchronousEngine(build(3), t=3)
        with pytest.raises(ConfigurationError):
            ExtendedSynchronousEngine(build(3), t=-1)

    def test_schedule_checked_against_t(self):
        sched = CrashSchedule(
            [
                CrashEvent(1, 1, CrashPoint.BEFORE_SEND),
                CrashEvent(2, 1, CrashPoint.BEFORE_SEND),
            ]
        )
        with pytest.raises(ConfigurationError):
            ExtendedSynchronousEngine(build(3), sched, t=1)

    def test_classic_rejects_during_control_point(self):
        sched = CrashSchedule([CrashEvent(1, 1, CrashPoint.DURING_CONTROL)])
        with pytest.raises(ConfigurationError):
            ClassicSynchronousEngine(build(3), sched, t=1)

    def test_classic_rejects_control_sends(self):
        engine = ClassicSynchronousEngine(build(3, control=True), t=1)
        with pytest.raises(ModelViolationError):
            engine.run()

    def test_step_after_completion_rejected(self):
        engine = ExtendedSynchronousEngine(build(2, rounds=1), t=0)
        engine.run()
        with pytest.raises(SimulationError):
            engine.step()

    def test_bad_max_rounds(self):
        with pytest.raises(ConfigurationError):
            ExtendedSynchronousEngine(build(2, rounds=1), t=0).run(max_rounds=0)


class TestFailureFreeRuns:
    def test_everyone_hears_everyone(self):
        engine = ExtendedSynchronousEngine(build(4, rounds=2, control=True), t=0)
        result = engine.run()
        assert result.completed
        assert result.rounds_executed == 2
        for pid in range(1, 5):
            proc = engine.procs[pid]
            for inbox in proc.inboxes:
                assert set(inbox.data) == {j for j in range(1, 5) if j != pid}
                assert inbox.control == frozenset(set(range(1, 5)) - {pid})

    def test_same_round_delivery(self):
        # Message sent at round r arrives at round r: payload carries round.
        engine = ExtendedSynchronousEngine(build(3, rounds=1), t=0)
        engine.run()
        inbox = engine.procs[1].inboxes[0]
        assert all(r == 1 for (_, r) in inbox.data.values())

    def test_decisions_recorded_with_round(self):
        result = ExtendedSynchronousEngine(build(3, rounds=2), t=0).run()
        assert result.decision_rounds == {1: 2, 2: 2, 3: 2}
        assert result.f == 0

    def test_accounting_counts(self):
        # 3 procs * 2 dests * 2 rounds data, same for control.
        result = ExtendedSynchronousEngine(build(3, rounds=2, control=True), t=0).run()
        assert result.stats.data_sent == 12
        assert result.stats.data_delivered == 12
        assert result.stats.control_sent == 12
        assert result.stats.control_delivered == 12


class TestCrashSemantics:
    def test_before_send_silences_process(self):
        sched = CrashSchedule([CrashEvent(1, 1, CrashPoint.BEFORE_SEND)])
        engine = ExtendedSynchronousEngine(build(3, rounds=2), sched, t=1)
        result = engine.run()
        assert result.crashed_pids == [1]
        assert result.crashed == {1: 1}
        # p2 heard only p3 in round 1.
        assert set(engine.procs[2].inboxes[0].data) == {3}

    def test_during_data_subset(self):
        sched = CrashSchedule(
            [
                CrashEvent(
                    1, 1, CrashPoint.DURING_DATA, data_subset=frozenset({2})
                )
            ]
        )
        engine = ExtendedSynchronousEngine(build(3, rounds=2, control=True), sched, t=1)
        engine.run()
        assert 1 in engine.procs[2].inboxes[0].data
        assert 1 not in engine.procs[3].inboxes[0].data
        # No control from a data-step crash.
        assert 1 not in engine.procs[2].inboxes[0].control

    def test_during_control_prefix_order(self):
        # Broadcaster control order is increasing (2, 3): prefix 1 -> only p2.
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_CONTROL, control_prefix=1)]
        )
        engine = ExtendedSynchronousEngine(build(3, rounds=2, control=True), sched, t=1)
        engine.run()
        assert 1 in engine.procs[2].inboxes[0].control
        assert 1 not in engine.procs[3].inboxes[0].control
        # All data still delivered (data step completed).
        assert 1 in engine.procs[3].inboxes[0].data

    def test_after_send_no_compute(self):
        sched = CrashSchedule([CrashEvent(1, 1, CrashPoint.AFTER_SEND)])
        engine = ExtendedSynchronousEngine(build(3, rounds=1, control=True), sched, t=1)
        result = engine.run()
        # p1's messages all arrived...
        assert 1 in engine.procs[2].inboxes[0].data
        assert 1 in engine.procs[2].inboxes[0].control
        # ...but p1 neither computed nor decided.
        assert engine.procs[1].inboxes == []
        assert 1 not in result.decisions

    def test_crashing_receiver_gets_nothing(self):
        sched = CrashSchedule([CrashEvent(2, 1, CrashPoint.BEFORE_SEND)])
        engine = ExtendedSynchronousEngine(build(3, rounds=2), sched, t=1)
        result = engine.run()
        assert engine.procs[2].inboxes == []
        # Sends addressed to the crashed p2 count as sent, not delivered.
        assert result.stats.data_sent > result.stats.data_delivered

    def test_crashed_stays_crashed(self):
        sched = CrashSchedule([CrashEvent(1, 1, CrashPoint.BEFORE_SEND)])
        engine = ExtendedSynchronousEngine(build(4, rounds=3), sched, t=1)
        engine.run()
        for r in range(3):
            assert 1 not in engine.procs[2].inboxes[r].data

    def test_decided_process_stops_participating(self):
        procs = [Broadcaster(1, 3, rounds=1), Broadcaster(2, 3, rounds=3), Broadcaster(3, 3, rounds=3)]
        engine = ExtendedSynchronousEngine(procs, t=0)
        result = engine.run()
        # p1 decided at round 1 and is silent afterwards.
        assert 1 not in engine.procs[2].inboxes[1].data
        assert result.decision_rounds[1] == 1
        # Decided-then-halted is not a crash.
        assert result.f == 0

    def test_crash_event_for_inactive_process_ignored(self):
        # p1 decides at round 1; a crash scheduled for round 2 never fires.
        procs = [Broadcaster(1, 3, rounds=1), Broadcaster(2, 3, rounds=2), Broadcaster(3, 3, rounds=2)]
        sched = CrashSchedule([CrashEvent(1, 2, CrashPoint.BEFORE_SEND)])
        result = ExtendedSynchronousEngine(procs, sched, t=1).run()
        assert result.f == 0
        assert 1 in result.decisions


class TestRunBudget:
    def test_incomplete_run_flagged(self):
        class Forever(Broadcaster):
            def compute_phase(self, round_no, inbox):
                self.inboxes.append(inbox)

        procs = [Forever(pid, 3) for pid in range(1, 4)]
        result = ExtendedSynchronousEngine(procs, t=0).run(max_rounds=5)
        assert not result.completed
        assert result.rounds_executed == 5

    def test_default_budget_is_n_plus_one(self):
        class Forever(Broadcaster):
            def compute_phase(self, round_no, inbox):
                self.inboxes.append(inbox)

        procs = [Forever(pid, 3) for pid in range(1, 4)]
        result = ExtendedSynchronousEngine(procs, t=0).run()
        assert result.rounds_executed == 4


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def one(seed):
            sched = CrashSchedule(
                [CrashEvent(1, 1, CrashPoint.DURING_DATA, data_policy=Subset.RANDOM)]
            )
            engine = ExtendedSynchronousEngine(
                build(5, rounds=2), sched, t=1, rng=RandomSource(seed)
            )
            result = engine.run()
            return [
                (e.round_no, e.kind, e.pid, e.detail) for e in result.trace
            ]

        assert one(42) == one(42)
        # Different seed changes the delivered subset in general.
        assert one(42) != one(43) or True  # only determinism is hard-asserted
