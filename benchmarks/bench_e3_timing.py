"""E3 — Section 2.2: the (f+1)(D+d) vs (f+2)D crossover series."""

from __future__ import annotations

from repro.analysis.formulas import (
    classic_time,
    crossover_d,
    crw_round_bound,
    early_stopping_round_bound,
    extended_time,
)
from repro.harness.experiments import e3_timing


def test_e3_report(benchmark, report):
    result = benchmark.pedantic(e3_timing, rounds=1, iterations=1)
    report(result)
    assert result.findings["empirical_crossover_matches_formula"] is True


def test_e3_kernel_formulas(benchmark):
    """Which side of the crossover each f in 0..63 lands on at d = 2."""

    def kernel():
        D, d = 100.0, 2.0
        return [
            extended_time(crw_round_bound(f), D, d)
            < classic_time(early_stopping_round_bound(f, f + 1), D)
            for f in range(64)
        ]

    wins = benchmark(kernel)
    # d=2: extended wins while f+1 < D/d = 50, i.e. while d < D/(f+1).
    assert wins[48] is True and wins[49] is False
    assert all(win == (2.0 < crossover_d(100.0, f)) for f, win in enumerate(wins))
