"""Tests for the consensus spec checker, on every backend's result type.

Each case is a hand-built set of ledgers.  The same ledgers are wrapped
in a synchronous :class:`RunResult`, an :class:`AsyncRunResult` and an
:class:`FFDRunResult`; one checker must give the same violations, in
clause order and pid order, on all three.  Only a synchronous run has a
round budget, so the cases that hit one run on :class:`RunResult` alone.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.asyncsim.runner import AsyncRunResult
from repro.errors import SpecViolationError
from repro.ffd.consensus import FFDRunResult
from repro.net.accounting import MessageStats
from repro.sync.result import RunResult
from repro.sync.spec import assert_consensus, check_consensus
from repro.util.trace import Trace

_UNDECIDED = object()


def proc(pid, proposal, decided=_UNDECIDED, decided_round=0, crashed_round=0):
    """One process's row of the ledgers."""
    return pid, proposal, decided, decided_round, crashed_round


def ledgers(procs):
    """``proposals, decisions, decision_rounds, crashed`` in the given order."""
    proposals, decisions, rounds, crashed = {}, {}, {}, {}
    for pid, proposal, decided, decided_round, crashed_round in procs:
        proposals[pid] = proposal
        if decided is not _UNDECIDED:
            decisions[pid] = decided
            rounds[pid] = decided_round
        if crashed_round:
            crashed[pid] = crashed_round
    return proposals, decisions, rounds, crashed


def sync_result(procs, completed=True):
    proposals, decisions, rounds, crashed = ledgers(procs)
    n = len(proposals)
    return RunResult(
        n=n, t=n - 1, model="extended",
        proposals=proposals, decisions=decisions, decision_rounds=rounds,
        crashed=crashed, rounds_executed=max(rounds.values(), default=0),
        completed=completed, stats=MessageStats(), trace=Trace(enabled=False),
    )


def async_result(procs):
    proposals, decisions, rounds, crashed = ledgers(procs)
    n = len(proposals)
    return AsyncRunResult(
        n=n, t=n - 1,
        proposals=proposals, decisions=decisions,
        decision_times={pid: 10.0 * r for pid, r in rounds.items()},
        decision_rounds=rounds,
        crashed={pid: r - 0.5 for pid, r in crashed.items()},  # crash times
        sim_time=100.0, events_executed=0, stats=MessageStats(),
    )


def ffd_result(procs):
    proposals, decisions, rounds, crashed = ledgers(procs)
    return FFDRunResult(
        n=len(proposals),
        proposals=proposals, decisions=decisions,
        decision_times={pid: 10.0 * r for pid, r in rounds.items()},
        decision_rounds=rounds,
        crashed={pid: r - 0.5 for pid, r in crashed.items()},
        fired_slots=[1], sim_time=100.0, stats=MessageStats(),
    )


BACKENDS = [sync_result, async_result, ffd_result]


def build(backend, procs, completed):
    return backend(procs, completed) if backend is sync_result else backend(procs)


#: (id, processes, completed, check kwargs, expected violations).  The
#: process rows are listed out of pid order on purpose: the violations
#: must come out in pid order anyway.  ``completed=False`` (the round
#: budget ran out) exists only for synchronous runs.
CASES = [
    ("clean", [proc(2, "b", "a", 1), proc(1, "a", "a", 1)], True, {}, ()),
    (
        "termination",
        [proc(3, "c"), proc(1, "a", "a", 1), proc(4, "d", crashed_round=1),
         proc(2, "b")],
        True, {},
        ("termination: correct p2 never decided",
         "termination: correct p3 never decided"),
    ),
    (
        "crashed-need-not-decide",
        [proc(1, "a", "a", 1), proc(2, "b", crashed_round=1)], True, {}, (),
    ),
    (
        "round-budget",
        [proc(1, "a", "a", 1), proc(2, "b")], False, {},
        ("termination: correct p2 never decided",
         "termination: run stopped at round budget with live undecided processes"),
    ),
    (
        "validity",
        [proc(2, "b", "z", 1), proc(1, "a", "z", 1)], True, {},
        ("validity: p1 decided 'z' which nobody proposed",
         "validity: p2 decided 'z' which nobody proposed"),
    ),
    (
        # p1 decides "a" then crashes; p2 and p3 decide "b".  Uniform
        # agreement counts p1; plain agreement ignores it.
        "uniform-counts-faulty-deciders",
        [proc(3, "c", "b", 2), proc(1, "a", "a", 1, crashed_round=2),
         proc(2, "b", "b", 2)],
        True, {"uniform": True},
        ("uniform agreement: conflicting decisions ('a' by [1]; 'b' by [2, 3])",),
    ),
    (
        "plain-ignores-faulty-deciders",
        [proc(3, "c", "b", 2), proc(1, "a", "a", 1, crashed_round=2),
         proc(2, "b", "b", 2)],
        True, {"uniform": False}, (),
    ),
    (
        "plain-agreement-between-correct",
        [proc(3, "c", "c", 1), proc(1, "a", "a", 1), proc(2, "b", "a", 1)],
        True, {"uniform": False},
        ("agreement: conflicting decisions ('a' by [1, 2]; 'c' by [3])",),
    ),
    (
        "round-bound-exceeded",
        [proc(1, "a", "a", 3), proc(2, "b", "a", 3)], True, {"round_bound": 2},
        ("round bound: last decision at round 3 > bound 2",),
    ),
    (
        "round-bound-met",
        [proc(1, "a", "a", 3), proc(2, "b", "a", 3)], True, {"round_bound": 3}, (),
    ),
    (
        # f = 1 crash, decisions at round 3 > f+1 = 2.
        "early-stopping-exceeded",
        [proc(1, "a", crashed_round=1), proc(2, "b", "b", 3), proc(3, "c", "b", 3)],
        True, {"require_early_stopping": True},
        ("early stopping: last decision at round 3 > f+1 = 2",),
    ),
    (
        "early-stopping-met",
        [proc(1, "a", crashed_round=1), proc(2, "b", "b", 2), proc(3, "c", "b", 2)],
        True, {"require_early_stopping": True}, (),
    ),
    (
        "every-clause-at-once",
        [proc(4, "d", "z", 4), proc(1, "a", crashed_round=1), proc(2, "b"),
         proc(3, "c", "c", 4)],
        False, {"round_bound": 3, "require_early_stopping": True},
        ("termination: correct p2 never decided",
         "termination: run stopped at round budget with live undecided processes",
         "validity: p4 decided 'z' which nobody proposed",
         "uniform agreement: conflicting decisions ('c' by [3]; 'z' by [4])",
         "round bound: last decision at round 4 > bound 3",
         "early stopping: last decision at round 4 > f+1 = 2"),
    ),
    (
        "every-clause-within-budget",
        [proc(4, "d", "z", 4), proc(1, "a", crashed_round=1), proc(2, "b"),
         proc(3, "c", "c", 4)],
        True, {"round_bound": 3, "require_early_stopping": True},
        ("termination: correct p2 never decided",
         "validity: p4 decided 'z' which nobody proposed",
         "uniform agreement: conflicting decisions ('c' by [3]; 'z' by [4])",
         "round bound: last decision at round 4 > bound 3",
         "early stopping: last decision at round 4 > f+1 = 2"),
    ),
]


def backends_for(completed):
    return BACKENDS if completed else [sync_result]


@pytest.mark.parametrize(
    "backend, procs, completed, kwargs, expected",
    [
        pytest.param(backend, *case[1:], id=f"{backend.__name__}-{case[0]}")
        for case in CASES
        for backend in backends_for(case[2])
    ],
)
def test_clause(backend, procs, completed, kwargs, expected):
    report = check_consensus(build(backend, procs, completed), **kwargs)
    assert report.violations == expected
    assert report.ok is not expected


@pytest.mark.parametrize(
    "procs, kwargs",
    [case[1:2] + case[3:4] for case in CASES if case[2]],
    ids=[case[0] for case in CASES if case[2]],
)
def test_reports_equal_across_backends(procs, kwargs):
    reports = {check_consensus(b(procs), **kwargs) for b in BACKENDS}
    assert len(reports) == 1


@pytest.mark.parametrize("backend", [async_result, ffd_result])
def test_continuous_time_runs_always_complete(backend):
    result = backend([proc(1, "a"), proc(2, "b")])
    assert result.completed is True
    with pytest.raises(TypeError):
        type(result)(**{**_fields(result), "completed": False})


def _fields(result):
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}


def test_early_stopping_report_fields():
    r = sync_result(
        [proc(1, "a", crashed_round=1), proc(2, "b", "b", 3), proc(3, "c", "b", 3)]
    )
    report = check_consensus(r, require_early_stopping=True)
    assert report.early_stopping_bound == 2
    assert report.last_decision_round == 3


class TestAssertConsensus:
    def test_raises_with_summary(self):
        r = sync_result([proc(1, "a", "a", 1), proc(2, "b", "b", 1)])
        with pytest.raises(SpecViolationError) as exc:
            assert_consensus(r)
        assert "uniform agreement" in str(exc.value)
        assert "extended run" in str(exc.value)

    def test_passes_through_report(self):
        r = sync_result([proc(1, "a", "a", 1), proc(2, "b", "a", 1)])
        report = assert_consensus(r)
        assert report.ok
