"""Differential testing: closed-form oracle vs the round engine.

The oracle (`repro.core.oracle`) and the engine implement Figure 1's
semantics twice, independently.  Agreement across randomized explicit
schedules certifies both.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_crw

from repro.core.oracle import predict
from repro.errors import ConfigurationError
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule
from repro.sync.extended import ExtendedSynchronousEngine

POINTS = [
    CrashPoint.BEFORE_SEND,
    CrashPoint.DURING_DATA,
    CrashPoint.DURING_CONTROL,
    CrashPoint.AFTER_SEND,
]


@st.composite
def explicit_schedules(draw, n: int):
    n_crashes = draw(st.integers(0, n - 1))
    victims = draw(
        st.lists(st.integers(1, n), min_size=n_crashes, max_size=n_crashes, unique=True)
    )
    events = []
    for pid in victims:
        events.append(
            CrashEvent(
                pid=pid,
                round_no=draw(st.integers(1, n)),
                point=draw(st.sampled_from(POINTS)),
                data_subset=frozenset(
                    draw(st.lists(st.integers(1, n), max_size=n, unique=True))
                ),
                control_prefix=draw(st.integers(0, n)),
            )
        )
    return CrashSchedule(events)


class TestOracleValidation:
    def test_proposal_arity(self):
        with pytest.raises(ConfigurationError):
            predict(3, [1, 2], CrashSchedule.none())

    def test_random_policies_rejected(self):
        sched = CrashSchedule([CrashEvent(1, 1, CrashPoint.DURING_DATA)])
        with pytest.raises(ConfigurationError):
            predict(3, [1, 2, 3], sched)
        sched2 = CrashSchedule([CrashEvent(1, 1, CrashPoint.DURING_CONTROL)])
        with pytest.raises(ConfigurationError):
            predict(3, [1, 2, 3], sched2)


class TestKnownRuns:
    def test_failure_free(self):
        pred = predict(4, [101, 102, 103, 104], CrashSchedule.none())
        assert pred.decisions == {1: 101, 2: 101, 3: 101, 4: 101}
        assert pred.rounds_executed == 1
        assert pred.data_sent == 3 and pred.control_sent == 3
        assert pred.completed

    def test_cascade(self):
        sched = CrashSchedule(
            [
                CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset()),
                CrashEvent(2, 2, CrashPoint.DURING_DATA, data_subset=frozenset()),
            ]
        )
        pred = predict(4, [101, 102, 103, 104], sched)
        assert pred.decisions == {3: 103, 4: 103}
        assert pred.rounds_executed == 3
        assert pred.crashed_rounds == {1: 1, 2: 2}

    def test_commit_split(self):
        sched = CrashSchedule(
            [CrashEvent(1, 1, CrashPoint.DURING_CONTROL, control_prefix=1)]
        )
        pred = predict(4, [101, 102, 103, 104], sched)
        assert pred.decision_rounds[4] == 1  # p4 got the first (decreasing) commit
        assert pred.decision_rounds[2] == pred.decision_rounds[3] == 2


class TestDifferential:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_engine_matches_oracle(self, data):
        n = data.draw(st.integers(2, 8), label="n")
        schedule = data.draw(explicit_schedules(n), label="schedule")
        proposals = data.draw(
            st.lists(st.integers(0, 5), min_size=n, max_size=n), label="proposals"
        )

        pred = predict(n, proposals, schedule)
        engine = ExtendedSynchronousEngine(
            make_crw(n, proposals), schedule, t=n - 1
        )
        result = engine.run()

        assert result.decisions == pred.decisions
        assert result.decision_rounds == pred.decision_rounds
        assert result.crashed == pred.crashed_rounds
        assert result.rounds_executed == pred.rounds_executed
        assert result.stats.data_sent == pred.data_sent
        assert result.stats.control_sent == pred.control_sent
        assert result.completed == pred.completed

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_oracle_respects_theorems(self, data):
        """The oracle itself satisfies Theorem 1 (sanity of the recurrence)."""
        n = data.draw(st.integers(2, 10), label="n")
        schedule = data.draw(explicit_schedules(n), label="schedule")
        proposals = list(range(n))
        pred = predict(n, proposals, schedule)
        f = len(pred.crashed_rounds)
        if pred.decisions:
            assert max(pred.decision_rounds.values()) <= f + 1
            assert len(set(pred.decisions.values())) == 1
        assert pred.completed
