"""E8 — engine scaling and replicated-log throughput."""

from __future__ import annotations

from repro.harness.experiments import e8_scaling
from repro.rsm.log import ReplicatedLog
from repro.rsm.machine import Command, KVStore
from repro.scenarios import Scenario, execute
from repro.util.rng import RandomSource


def test_e8_report(benchmark, report):
    result = benchmark.pedantic(
        lambda: e8_scaling(n_values=(8, 16, 32, 64), slots=20),
        rounds=1,
        iterations=1,
    )
    report(result)


def test_e8_kernel_crw_n64(benchmark):
    record = benchmark(execute, Scenario(algorithm="crw", n=64, t=63))
    assert record.rounds_executed == 1


def test_e8_kernel_crw_n128_cascade(benchmark):
    scenario = Scenario(algorithm="crw", n=128, t=127, f=16,
                        adversary="coordinator-killer")
    record = benchmark(execute, scenario)
    assert record.last_decision_round == 17


def test_e8_kernel_crw_n128_cascade_vector(benchmark):
    # The cascade with the vector tables required: whole-column stepping
    # (numpy columns when importable, stdlib ``array`` otherwise).
    scenario = Scenario(algorithm="crw", n=128, t=127, f=16,
                        adversary="coordinator-killer")
    record = benchmark(execute, scenario, batched=True)
    assert record.last_decision_round == 17


def test_e8_kernel_rsm_slots(benchmark):
    def kernel():
        log = ReplicatedLog(16, KVStore, rng=RandomSource(1))
        for s in range(10):
            log.commit({1: Command(1, f"set k{s} v{s}")})
        return log

    log = benchmark(kernel)
    assert log.check_invariants() == []
