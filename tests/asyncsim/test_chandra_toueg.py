"""Tests for the Chandra-Toueg ◇S consensus (paper reference [5])."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asyncsim.chandra_toueg import ChandraTouegConsensus
from repro.asyncsim.failure_detector import DetectorSpec
from repro.asyncsim.network import GstDelay, LogNormalDelay
from repro.asyncsim.runner import AsyncCrash, AsyncRunner
from repro.errors import ConfigurationError
from repro.sync.spec import check_consensus
from repro.util.rng import RandomSource


def run_ct(
    n,
    t,
    proposals=None,
    crashes=(),
    delay_model=None,
    detector_spec=None,
    seed=1,
):
    proposals = proposals or [100 + pid for pid in range(1, n + 1)]
    procs = [
        ChandraTouegConsensus(pid, n, proposals[pid - 1], t) for pid in range(1, n + 1)
    ]
    runner = AsyncRunner(
        procs,
        t=t,
        crashes=crashes,
        delay_model=delay_model,
        detector_spec=detector_spec or DetectorSpec(detection_latency=1.0),
        rng=RandomSource(seed),
    )
    return runner.run()


class TestConstruction:
    def test_majority_required(self):
        with pytest.raises(ConfigurationError):
            ChandraTouegConsensus(1, 4, 0, t=2)

    def test_coordinator_rotation(self):
        assert ChandraTouegConsensus.coordinator(1, 5) == 1
        assert ChandraTouegConsensus.coordinator(6, 5) == 1


class TestFailureFree:
    def test_decides_first_coordinator_pick(self):
        result = run_ct(5, t=2)
        assert check_consensus(result).violations == ()
        # Round 1, all timestamps 0: the max-ts pick is among the first
        # majority of estimates to arrive; any proposal is valid, but all
        # deciders must agree.
        assert len(set(result.decisions.values())) == 1

    def test_every_correct_process_decides(self):
        result = run_ct(7, t=3)
        assert sorted(result.decisions) == list(range(1, 8))


class TestCrashes:
    def test_dead_first_coordinator(self):
        result = run_ct(5, t=2, crashes=[AsyncCrash(1, 0.0)])
        assert check_consensus(result).violations == ()
        assert 1 not in result.decisions

    def test_coordinator_cascade(self):
        result = run_ct(7, t=3, crashes=[AsyncCrash(pid, 0.0) for pid in (1, 2, 3)])
        assert check_consensus(result).violations == ()
        # p4 is the first live coordinator; decision = its round-4 pick.
        assert set(result.decisions.values()) <= {104, 105, 106, 107}

    def test_crash_after_try_broadcast(self):
        # The coordinator dies mid-protocol at an arbitrary time; the relay
        # discipline on DECIDE and the next rounds must keep things uniform.
        result = run_ct(
            5,
            t=2,
            crashes=[AsyncCrash(1, 2.0)],
            delay_model=LogNormalDelay(mu=0.0, sigma=0.8),
            seed=11,
        )
        assert check_consensus(result).violations == ()


class TestIndulgence:
    def test_churn_wastes_rounds_not_safety(self):
        spec = DetectorSpec(
            stabilization_time=25.0,
            detection_latency=1.0,
            churn_rate=1.5,
            false_suspicion_duration=2.5,
        )
        result = run_ct(
            5,
            t=2,
            detector_spec=spec,
            delay_model=GstDelay(gst=25.0, wild=6.0, bound=1.0),
            seed=3,
        )
        assert check_consensus(result).violations == ()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_property_uniform_consensus_under_chaos(self, data):
        n = data.draw(st.sampled_from([3, 5, 7]), label="n")
        t = (n - 1) // 2
        f = data.draw(st.integers(0, t), label="f")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        victims = data.draw(
            st.lists(st.integers(1, n), min_size=f, max_size=f, unique=True),
            label="victims",
        )
        times = data.draw(
            st.lists(st.floats(0.0, 15.0), min_size=f, max_size=f), label="times"
        )
        spec = DetectorSpec(
            stabilization_time=20.0,
            detection_latency=1.0,
            churn_rate=0.4,
            false_suspicion_duration=2.0,
        )
        result = run_ct(
            n,
            t,
            crashes=[AsyncCrash(p, at) for p, at in zip(victims, times)],
            delay_model=GstDelay(gst=20.0, wild=4.0, bound=1.0),
            detector_spec=spec,
            seed=seed,
        )
        assert check_consensus(result).violations == (), result.decisions


class TestBridgeComparison:
    def test_ct_and_mr99_realize_the_same_lock(self):
        """Both asynchronous algorithms decide a single locked value under
        the same failure scenario — the paper's family claim."""
        from repro.asyncsim.mr99 import MR99Consensus

        n, t = 5, 2
        crashes = [AsyncCrash(1, 0.0)]
        ct = run_ct(n, t, crashes=list(crashes))
        mr_procs = [MR99Consensus(pid, n, 100 + pid, t) for pid in range(1, n + 1)]
        mr = AsyncRunner(
            mr_procs,
            t=t,
            crashes=list(crashes),
            detector_spec=DetectorSpec(detection_latency=1.0),
            rng=RandomSource(1),
        ).run()
        assert check_consensus(ct).violations == ()
        assert check_consensus(mr).violations == ()
        assert len(set(ct.decisions.values())) == 1
        assert len(set(mr.decisions.values())) == 1
