"""Tests for trace analytics and the pipelining-invariant audit."""

from __future__ import annotations

import pytest

from tests.conftest import run_crw

from repro.analysis.traces import (
    decision_timeline,
    drop_audit,
    traffic_by_round,
    verify_pipelining_invariant,
)
from repro.errors import ConfigurationError
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule
from repro.sync.extended import ExtendedSynchronousEngine
from repro.util.rng import RandomSource


class TestTrafficByRound:
    def test_failure_free_profile(self):
        result = run_crw(4)
        profile = traffic_by_round(result)
        assert len(profile) == 1
        rt = profile[0]
        assert rt.data_delivered == 3
        assert rt.control_delivered == 3
        assert rt.decisions == 4
        assert rt.crashes == 0

    def test_cascade_profile(self):
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset())]
        )
        result = run_crw(4, sched, t=1)
        profile = traffic_by_round(result)
        assert profile[0].crashes == 1
        assert profile[0].data_delivered == 0
        assert profile[1].decisions == 3

    def test_requires_trace(self):
        from tests.conftest import make_crw

        engine = ExtendedSynchronousEngine(
            make_crw(3), t=1, rng=RandomSource(1), trace=False
        )
        result = engine.run()
        with pytest.raises(ConfigurationError):
            traffic_by_round(result)


class TestDecisionTimeline:
    def test_rows_per_round(self):
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset())]
        )
        result = run_crw(4, sched, t=1)
        table = decision_timeline(result)
        assert len(table) == 2
        ascii_out = table.to_ascii()
        assert "p1" in ascii_out  # the crash shows up


class TestDropAudit:
    def test_sent_equals_delivered_failure_free(self):
        audit = drop_audit(run_crw(5))
        assert audit["sent"] == audit["delivered"]
        assert audit["receiver_gone"] == 0

    def test_drops_counted_when_receivers_die(self):
        # p2 crashes before receiving round 1's traffic addressed to it.
        sched = CrashSchedule([CrashEvent(2, 1, CrashPoint.BEFORE_SEND)])
        audit = drop_audit(run_crw(4, sched, t=1))
        assert audit["receiver_gone"] == 2  # p1's DATA + COMMIT to p2
        assert audit["sent"] == audit["delivered"] + 2


class TestPipeliningInvariant:
    def test_holds_for_crw_everywhere(self):
        for seed in range(10):
            from repro.sync.adversary import RandomCrashes

            rng = RandomSource(seed)
            sched = RandomCrashes(2).schedule(6, 5, rng)
            result = run_crw(6, sched, t=5, rng=rng)
            assert verify_pipelining_invariant(result) == []

    def test_detects_a_violating_trace(self):
        # Hand-build a trace with a COMMIT but no DATA on the channel.
        from repro.net.accounting import MessageStats
        from repro.sync.result import RunResult
        from repro.util.trace import Trace

        trace = Trace()
        trace.record(1, "deliver.control", 1, dest=2)
        result = RunResult(
            n=2,
            t=1,
            model="extended",
            proposals={1: 0, 2: 1},
            decisions={},
            decision_rounds={},
            crashed={},
            rounds_executed=1,
            completed=True,
            stats=MessageStats(),
            trace=trace,
        )
        problems = verify_pipelining_invariant(result)
        assert problems and "without DATA" in problems[0]
