"""E1 — Theorem 1: rounds to decision (table regeneration + micro-bench).

Regenerates the round-complexity comparison (CRW <= f+1 vs FloodSet t+1 vs
early-stopping min(f+2, t+1)) and times the underlying single-run kernel.
"""

from __future__ import annotations

from repro.harness.experiments import e1_rounds
from repro.scenarios import Scenario, execute


def test_e1_report(benchmark, report):
    result = benchmark.pedantic(
        lambda: e1_rounds(n_values=(4, 8, 16), seeds=10),
        rounds=1,
        iterations=1,
    )
    report(result)
    assert result.findings["all_runs_satisfy_uniform_consensus"] is True
    assert result.findings["crw_bound_tight_under_cascade"] is True
    assert result.findings["crw_single_round_under_benign_crashes"] is True


def test_e1_kernel_crw_worst_case(benchmark):
    scenario = Scenario(algorithm="crw", n=16, t=15, f=7,
                        adversary="coordinator-killer", seed=1)
    record = benchmark(execute, scenario)
    assert record.last_decision_round == 8


def test_e1_kernel_early_stopping(benchmark):
    scenario = Scenario(algorithm="early-stopping", n=16, t=15, f=7,
                        adversary="coordinator-killer", seed=1)
    record = benchmark(execute, scenario)
    assert record.last_decision_round <= 9


def test_e1_kernel_floodset(benchmark):
    scenario = Scenario(algorithm="floodset", n=16, t=7, f=3,
                        adversary="random-classic", seed=1)
    record = benchmark(execute, scenario)
    assert record.last_decision_round == 8
