"""Tests for MR99 — the Section-4 bridge target."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asyncsim.failure_detector import DetectorSpec
from repro.asyncsim.mr99 import BOT, MR99Consensus
from repro.asyncsim.network import GstDelay, LogNormalDelay, UniformDelay
from repro.asyncsim.runner import AsyncCrash, AsyncRunner
from repro.errors import ConfigurationError
from repro.sync.spec import check_consensus
from repro.util.rng import RandomSource


def run_mr99(
    n,
    t,
    proposals=None,
    crashes=(),
    delay_model=None,
    detector_spec=None,
    seed=1,
    until=10_000.0,
):
    proposals = proposals or [100 + pid for pid in range(1, n + 1)]
    procs = [MR99Consensus(pid, n, proposals[pid - 1], t) for pid in range(1, n + 1)]
    runner = AsyncRunner(
        procs,
        t=t,
        crashes=crashes,
        delay_model=delay_model,
        detector_spec=detector_spec,
        rng=RandomSource(seed),
    )
    return runner.run(until=until)


class TestConstruction:
    def test_majority_required(self):
        with pytest.raises(ConfigurationError):
            MR99Consensus(1, 4, 0, t=2)  # t < n/2 violated

    def test_coordinator_rotation(self):
        assert MR99Consensus.coordinator(1, 5) == 1
        assert MR99Consensus.coordinator(5, 5) == 5
        assert MR99Consensus.coordinator(6, 5) == 1

    def test_bot_singleton(self):
        from repro.asyncsim.mr99 import _Bot

        assert _Bot() is BOT
        assert BOT.bit_size() == 1


class TestFailureFree:
    def test_decides_first_coordinator_value(self):
        result = run_mr99(5, t=2)
        assert check_consensus(result).violations == ()
        assert set(result.decisions.values()) == {101}

    def test_single_round_when_detector_accurate(self):
        result = run_mr99(5, t=2)
        assert all(r == 1 for r in result.decision_rounds.values())

    def test_two_step_structure_message_count(self):
        # Round 1, no crash: 1 EST broadcast (n-1 wire messages: self-delivery
        # is local) + n AUX broadcasts (n*(n-1)) + n DECIDE floods (n*(n-1)).
        n = 4
        result = run_mr99(n, t=1)
        expected = (n - 1) + n * (n - 1) + n * (n - 1)
        assert result.stats.async_sent == expected


class TestCrashes:
    def test_dead_coordinator_skipped_via_suspicion(self):
        # p1 crashes before starting: everyone eventually suspects it,
        # aux = ⊥ in round 1, and round 2's coordinator (p2) decides.
        result = run_mr99(5, t=2, crashes=[AsyncCrash(1, 0.0)])
        assert check_consensus(result).violations == ()
        assert set(result.decisions.values()) == {102}

    def test_cascade_of_dead_coordinators(self):
        result = run_mr99(
            7, t=3, crashes=[AsyncCrash(1, 0.0), AsyncCrash(2, 0.0), AsyncCrash(3, 0.0)]
        )
        assert check_consensus(result).violations == ()
        assert set(result.decisions.values()) == {104}
        # At most t+1 rounds when crashes are immediate and the FD accurate.
        assert max(result.decision_rounds.values()) <= 4

    def test_late_crash_after_decision_harmless(self):
        result = run_mr99(5, t=2, crashes=[AsyncCrash(2, 5000.0)])
        assert check_consensus(result).violations == ()

    def test_decide_flood_unblocks_laggards(self):
        # Crash mid-protocol with slow heavy-tailed delays: the DECIDE flood
        # must still get every correct process out.
        result = run_mr99(
            5,
            t=2,
            crashes=[AsyncCrash(3, 1.0)],
            delay_model=LogNormalDelay(mu=0.5, sigma=1.0),
            seed=9,
        )
        assert check_consensus(result).violations == ()


class TestIndulgence:
    def test_false_suspicions_cost_rounds_not_safety(self):
        # Aggressive churn before stabilization: wrong coordinators get
        # suspected, rounds are wasted, but agreement and validity hold.
        spec = DetectorSpec(
            stabilization_time=30.0,
            detection_latency=1.0,
            churn_rate=2.0,
            false_suspicion_duration=3.0,
        )
        result = run_mr99(
            5,
            t=2,
            detector_spec=spec,
            delay_model=GstDelay(gst=30.0, wild=10.0, bound=1.0),
            seed=5,
        )
        assert check_consensus(result).violations == ()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_uniform_consensus_under_chaos(self, data):
        n = data.draw(st.sampled_from([3, 4, 5, 7]), label="n")
        t = (n - 1) // 2
        f = data.draw(st.integers(0, t), label="f")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        proposals = data.draw(
            st.lists(st.integers(0, 2), min_size=n, max_size=n), label="proposals"
        )
        crash_times = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=20.0),
                min_size=f,
                max_size=f,
            ),
            label="crash_times",
        )
        victims = data.draw(
            st.lists(st.integers(1, n), min_size=f, max_size=f, unique=True),
            label="victims",
        )
        spec = DetectorSpec(
            stabilization_time=25.0,
            detection_latency=1.0,
            churn_rate=0.5,
            false_suspicion_duration=2.0,
        )
        result = run_mr99(
            n,
            t,
            proposals=proposals,
            crashes=[AsyncCrash(p, at) for p, at in zip(victims, crash_times)],
            delay_model=GstDelay(gst=25.0, wild=5.0, bound=1.0),
            detector_spec=spec,
            seed=seed,
        )
        assert check_consensus(result).violations == (), result.decisions


class TestDecideFloodRound:
    """Regression: the DECIDE flood must carry the original deciding round."""

    class _FakeCtx:
        """Just enough ProcessContext for one handler invocation."""

        def __init__(self, n):
            self.n = n
            self.now = 42.0
            self.broadcasts = []

        def broadcast(self, tag, payload, round_no=0):
            self.broadcasts.append((tag, payload, round_no))

        def suspects(self, pid):
            return False

    def test_flood_learner_records_original_round(self):
        from repro.net.message import Message, MessageKind

        p = MR99Consensus(2, 5, 100, t=2)
        p.ctx = self._FakeCtx(5)
        # p sits in round 1; a DECIDE from a process that decided in
        # round 7 arrives through the flood.
        p.on_message(Message(MessageKind.ASYNC, 4, 2, 7, payload=104, tag="DECIDE"))
        assert p.decided and p.decision == 104
        # Previously: decision_round == p.r == 1 (the relayer's own round).
        assert p.decision_round == 7

    def test_relay_propagates_round_unchanged(self):
        from repro.net.message import Message, MessageKind

        p = MR99Consensus(3, 5, 100, t=2)
        p.ctx = self._FakeCtx(5)
        p.on_message(Message(MessageKind.ASYNC, 4, 3, 7, payload=104, tag="DECIDE"))
        assert p.ctx.broadcasts == [("DECIDE", 104, 7)]

    def test_run_level_flood_round_consistency(self):
        # Slow heavy-tailed delays + a mid-protocol crash: laggards learn
        # through the flood.  Every process must record the same deciding
        # round as the originator (pre-fix, learners stamped their own).
        result = run_mr99(
            5,
            t=2,
            crashes=[AsyncCrash(3, 1.0)],
            delay_model=LogNormalDelay(mu=0.5, sigma=1.0),
            seed=9,
        )
        assert check_consensus(result).violations == ()
        assert len(set(result.decision_rounds.values())) == 1

    def test_flood_round_consistency_across_seeds(self):
        spec = DetectorSpec(
            stabilization_time=15.0,
            detection_latency=1.0,
            churn_rate=1.0,
            false_suspicion_duration=2.0,
        )
        for seed in range(10):
            result = run_mr99(
                5,
                t=2,
                crashes=[AsyncCrash(1, 0.0), AsyncCrash(5, 3.0)],
                delay_model=GstDelay(gst=15.0, wild=5.0, bound=1.0),
                detector_spec=spec,
                seed=seed,
            )
            assert check_consensus(result).violations == ()
            assert len(set(result.decisions.values())) == 1
            # One decision propagated by the flood: every learner records
            # the originator's round (pre-fix these scenarios produced
            # two or three distinct recorded rounds).
            assert len(set(result.decision_rounds.values())) == 1, (
                seed,
                result.decision_rounds,
            )
