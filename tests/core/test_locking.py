"""Tests for the value-locking analysis (Lemma 2 made executable)."""

from __future__ import annotations

import pytest

from tests.conftest import make_crw, run_crw

from repro.core.locking import analyze_locking
from repro.errors import ConfigurationError
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule
from repro.sync.extended import ExtendedSynchronousEngine
from repro.util.rng import RandomSource


class TestAnalyzeLocking:
    def test_failure_free_locks_round_one(self):
        result = run_crw(4)
        report = analyze_locking(result)
        assert report.locking_round == 1
        assert report.locked_value == 101
        assert report.decisions_consistent

    def test_data_step_crash_does_not_lock(self):
        # p1 dies during line 4 -> r0 moves to round 2 (p2 completes).
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset())]
        )
        result = run_crw(4, sched, t=2)
        report = analyze_locking(result)
        assert report.locking_round == 2
        assert report.locked_value == 102

    def test_control_step_crash_still_locks(self):
        # Dying during line 5 means line 4 completed: value locked in round 1.
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_CONTROL, control_prefix=0)]
        )
        result = run_crw(4, sched, t=2)
        report = analyze_locking(result)
        assert report.locking_round == 1
        assert report.locked_value == 101
        assert report.decisions_consistent

    def test_partial_data_crash_locks_later_with_adopted_value(self):
        # p1 delivers to p2 only, then p2 imposes the adopted 101 in round 2:
        # the lock happens at round 2 but with p1's value.
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset({2}))]
        )
        result = run_crw(4, sched, t=2)
        report = analyze_locking(result)
        assert report.locking_round == 2
        assert report.locked_value == 101

    def test_no_lock_while_every_coordinator_so_far_died_in_data_step(self):
        # Truncate the run before the first surviving coordinator's round:
        # within the executed prefix no line 4 ever completed, so no lock.
        n = 3
        sched = CrashSchedule(
            [
                CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset()),
                CrashEvent(2, 2, CrashPoint.DURING_DATA, data_subset=frozenset()),
            ]
        )
        result = run_crw(n, sched, t=n - 1, max_rounds=2)
        report = analyze_locking(result)
        assert report.locking_round is None
        assert report.decisions_consistent  # vacuous: nobody decided
        assert result.decisions == {}

    def test_last_survivor_locks_vacuously_and_decides(self):
        # Claim C1 in the extreme: the first t coordinators die in their data
        # steps; p_n completes line 4 vacuously (no higher ids) and decides.
        n = 3
        sched = CrashSchedule(
            [
                CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset()),
                CrashEvent(2, 2, CrashPoint.DURING_DATA, data_subset=frozenset()),
            ]
        )
        result = run_crw(n, sched, t=n - 1)
        report = analyze_locking(result)
        assert report.locking_round == 3
        assert report.locked_value == 103
        assert result.decisions == {3: 103}

    def test_requires_trace(self):
        procs = make_crw(3)
        engine = ExtendedSynchronousEngine(procs, t=1, rng=RandomSource(1), trace=False)
        result = engine.run()
        with pytest.raises(ConfigurationError):
            analyze_locking(result)

    def test_after_send_coordinator_with_no_witnesses_synthetic(self):
        # A coordinator that completes its send phase while its entire
        # audience dies in the same round leaves only drop events behind.
        # Under t <= n-1 this needs n crashes and cannot be produced by the
        # engine; analyze_locking still handles hand-built traces of it.
        from repro.net.accounting import MessageStats
        from repro.sync.result import RunResult
        from repro.util.trace import Trace

        trace = Trace()
        trace.record(1, "crash", 1, point="after_send", data_subset=(2,), control_prefix=1)
        trace.record(1, "crash", 2, point="before_send", data_subset=(), control_prefix=0)
        trace.record(1, "drop.data", 1, dest=2, payload=101)
        trace.record(1, "drop.control", 1, dest=2)
        result = RunResult(
            n=2, t=1, model="extended", proposals={1: 101, 2: 102},
            decisions={}, decision_rounds={}, crashed={1: 1, 2: 1},
            rounds_executed=1, completed=True, stats=MessageStats(), trace=trace,
        )
        report = analyze_locking(result)
        assert report.locking_round == 1
        assert report.locked_value == 101

    def test_eager_variant_breaks_consistency(self):
        from repro.core.variants import EagerCRW

        n = 4
        procs = [EagerCRW(pid, n, 100 + pid) for pid in range(1, n + 1)]
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset({2}))]
        )
        result = ExtendedSynchronousEngine(procs, sched, t=3, rng=RandomSource(1)).run()
        report = analyze_locking(result)
        assert not report.decisions_consistent
        assert 2 in report.conflicting  # p2 decided the never-locked value
