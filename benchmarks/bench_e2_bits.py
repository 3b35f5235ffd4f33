"""E2 — Theorem 2: bit complexity vs the closed forms."""

from __future__ import annotations

from repro.harness.experiments import e2_bits
from repro.scenarios import Scenario, execute


def test_e2_report(benchmark, report):
    result = benchmark.pedantic(
        lambda: e2_bits(n_values=(4, 8, 16, 32), bit_widths=(8, 64, 1024)),
        rounds=1,
        iterations=1,
    )
    report(result)
    assert result.findings["best_case_matches_formula_exactly"] is True
    assert result.findings["worst_case_within_paper_bound"] is True


def test_e2_kernel_best_case_wide_values(benchmark):
    scenario = Scenario(algorithm="crw", n=32, t=31, workload="sized",
                        workload_params={"bits": 1024})
    record = benchmark(execute, scenario)
    # (n-1)(|v|+1) exactly.
    assert record.bits_sent == 31 * 1025


def test_e2_kernel_worst_case_traffic(benchmark):
    scenario = Scenario(algorithm="crw", n=32, t=31, f=31, adversary="max-traffic",
                        workload="sized", workload_params={"bits": 64})
    record = benchmark(execute, scenario)
    bound = sum(32 - r for r in range(1, 33)) * 65
    assert record.bits_sent <= bound
