"""Batched columnar tables vs per-object stepping: byte-identical runs.

The async analogue of ``tests/sync/test_vector_parity.py``: for every
algorithm with a registered :class:`repro.asyncsim.process.AsyncBatchedTable`,
driving the run through the table (raw tuple deliveries, guarded progress
re-evaluation, no ``Message`` objects) must be observably identical to
per-object stepping — decisions, decision times *and rounds*, crash map,
simulated time, executed event count, and every stats counter.  This grid
is the contract the fast path's wake-condition guards are verified
against: a guard that wrongly skips a ``_progress`` call shows up here as
a diverging record.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.asyncsim.chandra_toueg import ChandraTouegConsensus
from repro.asyncsim.failure_detector import DetectorSpec
from repro.asyncsim.mr99 import MR99Consensus
from repro.asyncsim.network import (
    ConstantDelay,
    GstDelay,
    LogNormalDelay,
    UniformDelay,
)
from repro.asyncsim.runner import AsyncCrash, AsyncRunner
from repro.errors import ConfigurationError
from repro.sync.spec import check_consensus
from repro.util.rng import RandomSource

ALGORITHMS = {
    "mr99": MR99Consensus,
    "chandra-toueg": ChandraTouegConsensus,
}

DELAY_MODELS = {
    "uniform": UniformDelay(),
    "constant": ConstantDelay(1.0),
    "lognormal": LogNormalDelay(mu=0.5, sigma=1.0),
    "gst": GstDelay(gst=20.0, wild=4.0, bound=1.0),
}

ADVERSARIES = {
    "none": [],
    "coordinator-killer": [AsyncCrash(1, 0.0), AsyncCrash(2, 0.0)],
    "staggered": [AsyncCrash(7, 0.0), AsyncCrash(6, 1.0), AsyncCrash(5, 2.0)],
    "late": [AsyncCrash(3, 6.5)],
}

CHURNY = DetectorSpec(
    stabilization_time=20.0,
    detection_latency=1.0,
    churn_rate=0.4,
    false_suspicion_duration=2.0,
)


def _run(cls, batched, *, seed, crashes, delay_model, n=7, t=3):
    procs = [cls(pid, n, 100 + pid, t) for pid in range(1, n + 1)]
    runner = AsyncRunner(
        procs,
        t=t,
        crashes=list(crashes),
        delay_model=delay_model,
        detector_spec=CHURNY,
        rng=RandomSource(seed),
        batched=batched,
    )
    return runner.run()


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("delay", sorted(DELAY_MODELS))
@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_batched_equals_per_object(algorithm, delay, adversary):
    cls = ALGORITHMS[algorithm]
    for seed in range(5):
        batched = _run(
            cls,
            None,  # auto-detects the registered table
            seed=seed,
            crashes=ADVERSARIES[adversary],
            delay_model=DELAY_MODELS[delay],
        )
        reference = _run(
            cls,
            False,
            seed=seed,
            crashes=ADVERSARIES[adversary],
            delay_model=DELAY_MODELS[delay],
        )
        assert dataclasses.asdict(batched) == dataclasses.asdict(reference), (
            algorithm,
            delay,
            adversary,
            seed,
        )


def test_batched_runs_actually_use_the_table():
    procs = [MR99Consensus(pid, 5, pid, 2) for pid in range(1, 6)]
    runner = AsyncRunner(procs, t=2, rng=RandomSource(0))
    assert runner._table is not None  # auto-detection engaged
    runner.run()
    # The table is the authoritative state carrier; decisions were
    # mirrored back onto the process objects.
    assert all(p.decided for p in procs)
    assert len({p.decision for p in procs}) == 1


def test_batched_true_requires_a_table():
    from repro.asyncsim.process import AsyncProcess

    class Bare(AsyncProcess):
        def on_start(self):
            self.decide(0)

        def on_message(self, msg):
            pass

    procs = [Bare(pid, 3) for pid in range(1, 4)]
    with pytest.raises(ConfigurationError):
        AsyncRunner(procs, t=0, rng=RandomSource(0), batched=True)


def test_custom_delay_model_rides_the_table():
    # A subclass that implements only delay(now, rng) gets the base
    # draw_many, and its runs step through the batched table exactly
    # like the per-object reference.
    from repro.asyncsim.network import DelayModel

    class Backoff(DelayModel):
        def delay(self, now, rng):
            return 0.5 + rng.uniform(0.0, 1.0) / (1.0 + now)

    def run(batched):
        procs = [MR99Consensus(pid, 5, pid, 2) for pid in range(1, 6)]
        runner = AsyncRunner(
            procs, t=2, delay_model=Backoff(), rng=RandomSource(3), batched=batched
        )
        assert (runner._table is not None) is (batched is None)
        return runner.run()

    batched = run(None)
    assert check_consensus(batched).violations == ()
    assert dataclasses.asdict(batched) == dataclasses.asdict(run(False))


def test_mixed_process_types_fall_back():
    procs = [
        MR99Consensus(1, 3, 1, 1),
        MR99Consensus(2, 3, 2, 1),
        ChandraTouegConsensus(3, 3, 3, 1),
    ]
    runner = AsyncRunner(procs, t=1, rng=RandomSource(0))
    assert runner._table is None
