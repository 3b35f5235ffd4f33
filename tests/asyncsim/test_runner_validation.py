"""Validation and edge cases for the async runner."""

from __future__ import annotations

import pytest

from repro.asyncsim.mr99 import MR99Consensus
from repro.asyncsim.process import AsyncProcess, ProcessContext
from repro.asyncsim.runner import AsyncCrash, AsyncRunner
from repro.errors import ConfigurationError, ModelViolationError
from repro.util.rng import RandomSource


def mr99(n, t):
    return [MR99Consensus(pid, n, pid, t) for pid in range(1, n + 1)]


class TestRunnerValidation:
    def test_needs_processes(self):
        with pytest.raises(ConfigurationError):
            AsyncRunner([], t=0)

    def test_pids_must_cover_range(self):
        procs = mr99(5, 2)
        with pytest.raises(ConfigurationError):
            AsyncRunner(procs[:-1], t=2)

    def test_crash_budget(self):
        with pytest.raises(ConfigurationError):
            AsyncRunner(
                mr99(5, 2),
                t=2,
                crashes=[AsyncCrash(pid, 0.0) for pid in (1, 2, 3)],
            )

    def test_duplicate_crash_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncRunner(
                mr99(5, 2),
                t=2,
                crashes=[AsyncCrash(1, 0.0), AsyncCrash(1, 5.0)],
            )

    def test_negative_crash_time_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncCrash(1, -1.0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_crash_time_rejected(self, time):
        with pytest.raises(ConfigurationError, match="finite"):
            AsyncCrash(1, time)

    def test_double_attach_rejected(self):
        procs = mr99(3, 1)
        runner = AsyncRunner(procs, t=1)
        with pytest.raises(ConfigurationError):
            procs[0].attach(
                ProcessContext(1, 3, runner.queue, runner.network, runner.detector)
            )


class TestDecisionDiscipline:
    def test_idempotent_same_value(self):
        class Once(AsyncProcess):
            def on_start(self):
                self.decide(7)
                self.decide(7)  # same value: tolerated (reliable-broadcast relays)

            def on_message(self, msg):
                pass

        procs = [Once(pid, 2) for pid in (1, 2)]
        result = AsyncRunner(procs, t=0, rng=RandomSource(1)).run()
        assert result.decisions == {1: 7, 2: 7}

    def test_conflicting_decide_raises(self):
        class Flip(AsyncProcess):
            def on_start(self):
                self.decide(1)
                self.decide(2)

            def on_message(self, msg):
                pass

        procs = [Flip(pid, 2) for pid in (1, 2)]
        runner = AsyncRunner(procs, t=0, rng=RandomSource(1))
        with pytest.raises(ModelViolationError):
            runner.run()

    def test_bad_destination_raises(self):
        class Wild(AsyncProcess):
            def on_start(self):
                self.ctx.send(99, "X", None)

            def on_message(self, msg):
                pass

        procs = [Wild(pid, 2) for pid in (1, 2)]
        runner = AsyncRunner(procs, t=0, rng=RandomSource(1))
        with pytest.raises(ModelViolationError):
            runner.run()


class TestDeterminism:
    def test_same_seed_same_run(self):
        def once(seed):
            result = AsyncRunner(
                mr99(5, 2),
                t=2,
                crashes=[AsyncCrash(1, 0.5)],
                rng=RandomSource(seed),
            ).run()
            return (result.decisions, result.sim_time, result.stats.async_sent)

        assert once(9) == once(9)

    def test_stats_sent_geq_delivered(self):
        result = AsyncRunner(
            mr99(5, 2), t=2, crashes=[AsyncCrash(2, 1.0)], rng=RandomSource(3)
        ).run()
        assert result.stats.async_sent >= result.stats.async_delivered
