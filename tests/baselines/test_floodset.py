"""Tests for the FloodSet t+1-round baseline (classic model)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.floodset import FloodSetConsensus, value_key
from repro.errors import ConfigurationError
from repro.net.payload import SizedValue
from repro.sync.adversary import RandomCrashes
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule, Subset
from repro.sync.engine import ClassicSynchronousEngine
from repro.sync.spec import assert_consensus, check_consensus
from repro.util.rng import RandomSource


def run_floodset(n, t, schedule=None, proposals=None, rng=None):
    proposals = proposals or [100 + pid for pid in range(1, n + 1)]
    procs = [FloodSetConsensus(pid, n, proposals[pid - 1], t) for pid in range(1, n + 1)]
    engine = ClassicSynchronousEngine(procs, schedule, t=t, rng=rng or RandomSource(2))
    return engine.run()


class TestValueKey:
    def test_plain_values(self):
        assert value_key(3) == 3

    def test_sized_values_unwrap(self):
        assert value_key(SizedValue(3, 64)) == 3


class TestFloodSet:
    def test_t_validated(self):
        with pytest.raises(ConfigurationError):
            FloodSetConsensus(1, 3, 0, t=3)

    def test_failure_free_takes_t_plus_one_rounds(self):
        # FloodSet never stops early: t+1 rounds even with f=0.
        for t in (0, 1, 2, 3):
            result = run_floodset(5, t)
            assert_consensus(result)
            assert result.rounds_executed == t + 1
            assert all(r == t + 1 for r in result.decision_rounds.values())

    def test_decides_minimum(self):
        result = run_floodset(4, 2, proposals=[7, 3, 9, 5])
        assert set(result.decisions.values()) == {3}

    def test_silence_optimisation_reduces_messages(self):
        # With identical proposals nothing new ever circulates after round 1.
        result = run_floodset(4, 2, proposals=[5, 5, 5, 5])
        assert_consensus(result)
        # Round 1: 4*3 sends; rounds 2..3: nothing new -> silence.
        assert result.stats.data_sent == 12

    def test_hidden_value_chain(self):
        # The adversarial chain: p1's (minimal) value hops through dying
        # processes one round at a time; survivors must still agree.
        n, t = 4, 2
        sched = CrashSchedule(
            [
                CrashEvent(1, 1, CrashPoint.DURING_DATA, data_subset=frozenset({2})),
                CrashEvent(2, 2, CrashPoint.DURING_DATA, data_subset=frozenset({3})),
            ]
        )
        result = run_floodset(n, t, sched, proposals=[1, 5, 6, 7])
        assert_consensus(result)
        # The chained value reached p3 who relayed it in round 3.
        assert set(result.decisions.values()) == {1}

    def test_uniform_agreement_includes_last_round_deciders(self):
        # All deciders decide at t+1 with equal sets (clean-round argument).
        n, t = 5, 2
        rng = RandomSource(9)
        sched = RandomCrashes(f=2, max_round=t + 1, classic=True).schedule(n, t, rng)
        result = run_floodset(n, t, sched, rng=rng)
        assert check_consensus(result).ok

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_property_uniform_consensus(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        t = data.draw(st.integers(0, n - 1), label="t")
        f = data.draw(st.integers(0, t), label="f")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        proposals = data.draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n), label="proposals"
        )
        rng = RandomSource(seed)
        sched = RandomCrashes(f, max_round=t + 1, classic=True).schedule(n, t, rng)
        result = run_floodset(n, t, sched, proposals=proposals, rng=rng)
        assert_consensus(result, round_bound=t + 1)


class TestVectorQuietState:
    """The vector table goes quiet after a round with no speaker: no
    sends, only the horizon decision.  Nothing observable may change."""

    N, T = 8, 6  # horizon 7: several silent rounds after the flood

    def _engine(self, proposals, schedule, seed, batched):
        procs = [
            FloodSetConsensus(pid, self.N, proposals[pid - 1], self.T)
            for pid in range(1, self.N + 1)
        ]
        return ClassicSynchronousEngine(
            procs, schedule, t=self.T, rng=RandomSource(seed), trace=False,
            batched=batched,
        )

    def test_crash_after_silence_lands_like_the_object_path(self):
        proposals = [100 + pid for pid in range(1, self.N + 1)]
        schedule = CrashSchedule([
            # Round 1 draws a real subset; rounds 5 and 6 fall in the
            # silence, where the crashing process has nothing to send.
            CrashEvent(pid=2, round_no=1, point=CrashPoint.DURING_DATA,
                       data_policy=Subset.RANDOM),
            CrashEvent(pid=4, round_no=5, point=CrashPoint.DURING_DATA,
                       data_policy=Subset.RANDOM),
            CrashEvent(pid=7, round_no=6, point=CrashPoint.BEFORE_SEND),
        ])
        vector = self._engine(proposals, schedule, 3, True)
        while vector.round_no < 4:
            vector.step()
        assert vector._vtable._quiet  # silent before either late crash
        vector.run()
        reference = self._engine(proposals, schedule, 3, False)
        reference.run()

        assert vector.crashed_rounds == reference.crashed_rounds == {2: 1, 4: 5, 7: 6}
        got, want = vector.result(), reference.result()
        assert got.outcomes == want.outcomes
        assert got.rounds_executed == want.rounds_executed == self.T + 1
        assert got.stats == want.stats
        # Same draws: both streams stand at the same position afterwards.
        assert vector.rng.random() == reference.rng.random()

    def test_refill_after_a_silent_run_speaks_again(self):
        first = [100 + pid for pid in range(1, self.N + 1)]
        engine = self._engine(first, None, 1, None)
        assert engine._vtable is not None  # auto mode engaged the table
        engine.run()
        assert engine._vtable._quiet

        second = [50 - pid for pid in range(1, self.N + 1)]
        schedule = CrashSchedule([
            CrashEvent(pid=5, round_no=2, point=CrashPoint.DURING_DATA,
                       data_policy=Subset.RANDOM),
        ])
        assert engine.refill(second, schedule, rng=RandomSource(9))
        assert not engine._vtable._quiet
        engine.step()
        assert engine.stats.data_sent == self.N * (self.N - 1)  # all speak
        result = engine.run()

        fresh = self._engine(second, schedule, 9, None).run()
        assert result.outcomes == fresh.outcomes
        assert result.rounds_executed == fresh.rounds_executed
        assert result.stats == fresh.stats
