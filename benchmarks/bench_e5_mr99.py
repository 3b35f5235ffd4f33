"""E5 — Section 4: the MR99 asynchronous bridge."""

from __future__ import annotations

from repro.asyncsim.failure_detector import DetectorSpec
from repro.asyncsim.mr99 import MR99Consensus
from repro.asyncsim.runner import AsyncCrash, AsyncRunner
from repro.harness.experiments import e5_mr99
from repro.scenarios import Scenario, execute
from repro.sync.spec import check_consensus
from repro.util.rng import RandomSource


def test_e5_report(benchmark, report):
    result = benchmark.pedantic(
        lambda: e5_mr99(n_values=(5, 9), seeds=10), rounds=1, iterations=1
    )
    report(result)
    assert result.findings["all_async_runs_uniform"] is True


def test_e5_kernel_failure_free(benchmark):
    def kernel():
        procs = [MR99Consensus(pid, 9, 100 + pid, 4) for pid in range(1, 10)]
        runner = AsyncRunner(
            procs,
            t=4,
            detector_spec=DetectorSpec(detection_latency=1.0),
            rng=RandomSource(1),
        )
        return runner.run()

    result = benchmark(kernel)
    assert check_consensus(result).ok


def test_e5_kernel_coordinator_cascade(benchmark):
    def kernel():
        procs = [MR99Consensus(pid, 9, 100 + pid, 4) for pid in range(1, 10)]
        runner = AsyncRunner(
            procs,
            t=4,
            crashes=[AsyncCrash(pid, 0.0) for pid in range(1, 5)],
            detector_spec=DetectorSpec(detection_latency=1.0),
            rng=RandomSource(1),
        )
        return runner.run()

    result = benchmark(kernel)
    assert check_consensus(result).ok
    assert set(result.decisions.values()) == {105}


def test_e5_kernel_mr99_const_n32(benchmark):
    # A constant delay lands every broadcast's deliveries at one instant:
    # the same-instant fan-out path of the event queue.
    scenario = Scenario(algorithm="mr99", n=32, f=8, adversary="coordinator-killer",
                        timing={"delay": "constant", "value": 1.0})
    record = benchmark(execute, scenario)
    assert record.spec_ok and record.f_actual == 8
