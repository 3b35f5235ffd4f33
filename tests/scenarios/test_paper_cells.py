"""The cells E1/E2 tabulate, driven through execute(), expand_grid() and
summarize_records(): single runs, per-cell seed aggregates, whole grids."""

from __future__ import annotations

import pytest

from repro.scenarios import (
    ALGORITHMS,
    Scenario,
    SweepRunner,
    execute,
    expand_grid,
    summarize_records,
)

#: The three algorithms of the paper's round table.
TABLE_ALGORITHMS = ["crw", "early-stopping", "floodset"]


def seeds_summary(algorithm, n, t, f, adversary, seeds):
    """One cell aggregated over ``seeds`` seeds, the way E1 builds a row."""
    cell = Scenario(algorithm=algorithm, n=n, t=t, f=f, adversary=adversary)
    (row,) = summarize_records(execute(cell.with_(seed=s)) for s in range(seeds))
    return row


class TestSingleRuns:
    @pytest.mark.parametrize("algorithm", TABLE_ALGORITHMS)
    def test_failure_free(self, algorithm):
        record = execute(Scenario(algorithm=algorithm, n=5, t=4, f=0, adversary="none"))
        assert record.raw.completed
        assert len(record.decisions) == 5
        assert record.spec_ok, record.violations

    @pytest.mark.parametrize("algorithm", TABLE_ALGORITHMS)
    def test_with_random_crashes(self, algorithm):
        # "random" is mapped to the classic variant for classic models.
        record = execute(Scenario(algorithm=algorithm, n=6, t=5, f=2,
                                  adversary="random", seed=3))
        assert record.raw.completed
        assert record.spec_ok, record.violations

    def test_round_bounds_encode_paper_table(self):
        bound = {name: ALGORITHMS.get(name).round_bound for name in TABLE_ALGORITHMS}
        assert bound["crw"](2, 5) == 3  # f + 1
        assert bound["floodset"](2, 5) == 6  # t + 1
        assert bound["early-stopping"](2, 5) == 4  # min(f + 2, t + 1)
        assert bound["early-stopping"](5, 5) == 6


class TestCellAggregates:
    def test_cascade_is_tight_for_crw(self):
        row = seeds_summary("crw", 6, 5, 2, "coordinator-killer", seeds=5)
        assert row.spec_ok
        assert row.seeds == 5
        assert row.max_last_round == ALGORITHMS.get("crw").round_bound(2, 5) == 3
        assert row.mean_last_round == 3.0

    def test_floodset_constant_rounds(self):
        row = seeds_summary("floodset", 5, 2, 1, "random", seeds=5)
        assert row.spec_ok
        assert row.max_last_round == row.mean_last_round == 3  # always t + 1


class TestGrids:
    def test_cells_aggregated(self):
        cells = expand_grid(["crw"], [4], adversaries=("none", "coordinator-killer"),
                            seeds=3)
        rows = summarize_records(SweepRunner(cells).run())
        # none -> f=0 only; coordinator-killer -> f in 0..3.
        assert len(rows) == 1 + 4
        assert all(row.seeds == 3 for row in rows)
        assert all(row.spec_ok for row in rows)

    def test_bounds_hold_across_grid(self):
        cells = expand_grid(["crw"], [4, 6], adversaries=("coordinator-killer",),
                            seeds=2, t_rule=lambda algorithm, n: n - 1)
        rows = summarize_records(SweepRunner(cells).run())
        assert {row.n for row in rows} == {4, 6}
        for row in rows:
            assert row.max_last_round <= ALGORITHMS.get("crw").round_bound(row.f, row.t)

    def test_classic_algorithm_with_random_adversary(self):
        cells = expand_grid(["early-stopping"], [4], adversaries=("random",), seeds=2,
                            t_rule=lambda algorithm, n: (n - 1) // 3)
        rows = summarize_records(SweepRunner(cells).run())
        assert [row.f for row in rows] == [0, 1]  # t = 1
        assert all(row.spec_ok for row in rows)

    def test_value_bits_passthrough(self):
        base = Scenario(algorithm="crw", n=1, workload="sized",
                        workload_params={"bits": 256})
        cells = expand_grid(["crw"], [4], adversaries=("none",), seeds=1, base=base)
        (row,) = summarize_records(SweepRunner(cells).run())
        assert row.mean_bits == 3 * 257  # (n - 1)(|v| + 1)
