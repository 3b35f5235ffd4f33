"""Engine leasing: reused (reset) engines are indistinguishable from fresh.

``execute(scenario, lease=lease)`` caches one engine per shape (the
non-seed configuration without ``f`` and ``adversary``) and refills or
resets it for every later run of that shape.
These tests pin the contract the sweep layer depends on: a leased run's
record is byte-identical to an unleased run's, across backends, seeds,
and interleaved configurations — and ``reset()`` on the engines
themselves restores a truly fresh state.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import EngineLease, Scenario, execute, expand_grid
from repro.util.rng import RandomSource


def _mixed_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return expand_grid(
            ["crw", "early-stopping", "mr99"],
            [5, 8],
            adversaries=("coordinator-killer", "random"),
            seeds=2,
        )


class TestLeasedExecuteParity:
    def test_fifty_cells_identical_records(self):
        # Same configuration, 50 seeds: every cell past the first resets
        # the cached engine instead of constructing one.
        scenario = Scenario(algorithm="crw", n=8, f=3, adversary="coordinator-killer")
        lease = EngineLease()
        for seed in range(50):
            cell = scenario.with_(seed=seed)
            fresh = execute(cell)
            leased = execute(cell, lease=lease)
            assert fresh.to_dict() == leased.to_dict(), seed
        assert len(lease) == 1  # one configuration -> one cached engine

    def test_interleaved_configurations(self):
        # Alternating configurations exercise the cache keying: each
        # resets its *own* engine, never a neighbour's.
        lease = EngineLease()
        for s in _mixed_grid():
            assert execute(s).to_dict() == execute(s, lease=lease).to_dict(), s

    def test_async_backend_reuse(self):
        scenario = Scenario(
            algorithm="mr99", n=7, f=2, adversary="random",
            timing={"delay": "lognormal", "mu": 0.3, "sigma": 0.8,
                    "churn_rate": 0.4, "stabilization_time": 10.0},
        )
        lease = EngineLease()
        for seed in range(20):
            cell = scenario.with_(seed=seed)
            assert execute(cell).to_dict() == execute(cell, lease=lease).to_dict()

    def test_leased_and_per_object_modes_key_separately(self):
        scenario = Scenario(algorithm="mr99", n=5, f=1, adversary="coordinator-killer")
        lease = EngineLease()
        a = execute(scenario, lease=lease, batched=None)
        b = execute(scenario, lease=lease, batched=False)
        assert a.to_dict() == b.to_dict()
        assert len(lease) == 2  # distinct keys: the flags shape the engine

    def test_lru_cap_bounds_the_cache(self):
        lease = EngineLease()
        base = Scenario(algorithm="crw", n=4, f=0, adversary="none")
        for n in range(4, 4 + EngineLease.MAX_ENTRIES + 8):
            execute(base.with_(n=n), lease=lease)
        assert len(lease) == EngineLease.MAX_ENTRIES
        # Evicted configurations simply rebuild on the next call.
        record = execute(base.with_(n=4), lease=lease)
        assert record.spec_ok


class TestEngineReset:
    def test_sync_reset_matches_fresh_engine(self):
        from repro.core.crw import CRWConsensus
        from repro.sync.extended import ExtendedSynchronousEngine
        from repro.workloads.crashes import ADVERSARIES

        def procs():
            return [CRWConsensus(pid, 8, 100 + pid) for pid in range(1, 9)]

        def schedule(seed):
            return ADVERSARIES["coordinator-killer"](3).schedule(
                8, 7, RandomSource(seed).spawn("adversary")
            )

        engine = ExtendedSynchronousEngine(
            procs(), schedule(0), t=7, rng=None, trace=False
        )
        first = engine.run()
        for seed in (1, 2, 3):
            reused = engine.reset(procs(), schedule(seed), trace=False).run()
            fresh = ExtendedSynchronousEngine(
                procs(), schedule(seed), t=7, rng=None, trace=False
            ).run()
            assert reused.rounds_executed == fresh.rounds_executed
            assert (reused.decisions, reused.decision_rounds, reused.crashed) == (
                fresh.decisions, fresh.decision_rounds, fresh.crashed
            )
            assert reused.stats.messages_sent == fresh.stats.messages_sent
            assert reused.stats.bits_sent == fresh.stats.bits_sent

    def test_sync_reset_rejects_wrong_shape(self):
        from repro.core.crw import CRWConsensus
        from repro.sync.extended import ExtendedSynchronousEngine

        engine = ExtendedSynchronousEngine(
            [CRWConsensus(pid, 4, pid) for pid in range(1, 5)], trace=False
        )
        engine.run()
        with pytest.raises(ConfigurationError):
            engine.reset([CRWConsensus(pid, 6, pid) for pid in range(1, 7)])
        with pytest.raises(ConfigurationError):
            engine.reset([])

    def test_classic_reset_still_rejects_control_crashes(self):
        from repro.baselines.floodset import FloodSetConsensus
        from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule
        from repro.sync.engine import ClassicSynchronousEngine

        def procs():
            return [FloodSetConsensus(pid, 4, pid, 2) for pid in range(1, 5)]

        engine = ClassicSynchronousEngine(procs(), t=2, trace=False)
        engine.run()
        bad = CrashSchedule(
            [CrashEvent(pid=1, round_no=1, point=CrashPoint.DURING_CONTROL)]
        )
        with pytest.raises(ConfigurationError):
            engine.reset(procs(), bad)

    def test_async_runner_reset_matches_fresh(self):
        import dataclasses

        from repro.asyncsim.mr99 import MR99Consensus
        from repro.asyncsim.runner import AsyncCrash, AsyncRunner

        def procs():
            return [MR99Consensus(pid, 5, 100 + pid, 2) for pid in range(1, 6)]

        runner = AsyncRunner(
            procs(), t=2, crashes=[AsyncCrash(1, 0.0)], rng=RandomSource(0)
        )
        runner.run()
        for seed in (1, 2, 3):
            crashes = [AsyncCrash(1, 0.0), AsyncCrash(5, 2.0)]
            reused = runner.reset(
                procs(), crashes=list(crashes), rng=RandomSource(seed)
            ).run()
            fresh = AsyncRunner(
                procs(), t=2, crashes=list(crashes), rng=RandomSource(seed)
            ).run()
            assert dataclasses.asdict(reused) == dataclasses.asdict(fresh)
