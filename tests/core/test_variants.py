"""Tests for the deliberately broken/reordered variants."""

from __future__ import annotations

import pytest

from repro.core.variants import (
    EagerCRW,
    IncreasingCommitCRW,
    SilentProcess,
    TruncatedCRW,
)
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule
from repro.sync.extended import ExtendedSynchronousEngine
from repro.sync.spec import check_consensus
from repro.util.rng import RandomSource


def run(procs, schedule=None, t=None):
    n = procs[0].n
    engine = ExtendedSynchronousEngine(
        procs, schedule, t=t if t is not None else n - 1, rng=RandomSource(3)
    )
    return engine.run()


class TestEagerCRW:
    def test_agreement_violation_exists(self):
        # p1 crashes mid-data delivering only to p2.  Eager p2 decides p1's
        # value; p2 halts; later coordinator p3 imposes its own value on the
        # rest: split brain.
        n = 4
        procs = [EagerCRW(pid, n, 100 + pid) for pid in range(1, n + 1)]
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset({2}))]
        )
        result = run(procs, sched)
        report = check_consensus(result)
        assert any("agreement" in v for v in report.violations)
        assert result.decisions[2] == 101
        assert result.decisions[3] == 103

    def test_correct_when_failure_free(self):
        # Eagerness is only wrong under partial data delivery.
        n = 4
        procs = [EagerCRW(pid, n, 100 + pid) for pid in range(1, n + 1)]
        result = run(procs)
        assert check_consensus(result).ok


class TestTruncatedCRW:
    def test_deadline_decision_splits_brains(self):
        # Theorem 3's object: an algorithm that always decides by round
        # k = t has an agreement-violating run.
        n, k = 4, 1
        procs = [TruncatedCRW(pid, n, 100 + pid, k=k) for pid in range(1, n + 1)]
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset({2}))]
        )
        result = run(procs, sched, t=1)
        report = check_consensus(result)
        assert any("agreement" in v for v in report.violations)

    def test_always_decides_by_k(self):
        n, k = 5, 2
        procs = [TruncatedCRW(pid, n, 100 + pid, k=k) for pid in range(1, n + 1)]
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset())]
        )
        result = run(procs, sched, t=2)
        assert result.last_decision_round <= k
        assert all(
            pid in result.decisions
            for pid in result.proposals
            if pid not in result.crashed
        )

    def test_correct_when_k_large_enough(self):
        # With k > t the deadline never binds before the real protocol ends.
        n, t = 4, 2
        procs = [TruncatedCRW(pid, n, 100 + pid, k=t + 1) for pid in range(1, n + 1)]
        sched = CrashSchedule(
            [
                CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset()),
                CrashEvent(2, 2, CrashPoint.DURING_DATA, data_subset=frozenset()),
            ]
        )
        result = run(procs, sched, t=t)
        assert check_consensus(result).ok


class TestIncreasingCommitCRW:
    def test_commit_order_ablation_breaks_f_plus_one(self):
        # Same single-crash schedule; the only change is commit order.
        # Decreasing order (paper): everyone decides by round f+1 = 2.
        # Increasing order: the early decider is the *lowest* id (p2), which
        # then never coordinates, and p3..pn wait until round 3.
        n = 5
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_CONTROL, control_prefix=1)]
        )

        from repro.core.crw import CRWConsensus

        good = run([CRWConsensus(p, n, 100 + p) for p in range(1, n + 1)], sched)
        assert check_consensus(good, require_early_stopping=True).ok
        assert good.last_decision_round == 2

        bad = run(
            [IncreasingCommitCRW(p, n, 100 + p) for p in range(1, n + 1)],
            CrashSchedule(
                [CrashEvent(1, 1, CrashPoint.DURING_CONTROL, control_prefix=1)]
            ),
        )
        report = check_consensus(bad, require_early_stopping=True)
        # Safety survives; the early-stopping bound does not.
        assert any("early stopping" in v for v in report.violations)
        assert not any("agreement" in v for v in report.violations)
        assert bad.last_decision_round == 3

    def test_failure_free_equivalent_to_paper_order(self):
        n = 5
        procs = [IncreasingCommitCRW(p, n, 100 + p) for p in range(1, n + 1)]
        result = run(procs)
        assert check_consensus(result).ok
        assert result.last_decision_round == 1


class TestSilentProcess:
    def test_termination_violation_detected(self):
        n = 3
        procs = [SilentProcess(pid, n, pid) for pid in range(1, n + 1)]
        result = run(procs)
        report = check_consensus(result)
        assert any("termination" in v for v in report.violations)
        assert not result.completed
