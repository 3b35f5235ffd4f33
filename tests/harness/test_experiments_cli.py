"""Smoke + contract tests for experiments, reports, and the CLI."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.formulas import (
    classic_time,
    crw_round_bound,
    extended_time,
    simulation_blowup,
)
from repro.harness import experiments
from repro.harness.cli import main
from repro.harness.experiments import (
    e1_rounds,
    e2_bits,
    e3_timing,
    e5_mr99,
    e6_ffd,
    e7_simulation,
)
from repro.harness.report import render_experiment_markdown


class TestExperiments:
    def test_e1_small(self):
        result = e1_rounds(n_values=(4,), seeds=3)
        assert result.findings["all_runs_satisfy_uniform_consensus"] is True
        assert result.findings["crw_bound_tight_under_cascade"] is True
        assert result.findings["crw_single_round_under_benign_crashes"] is True
        assert len(result.tables[0]) > 0

    def test_e2_small(self):
        result = e2_bits(n_values=(4, 8), bit_widths=(8, 64))
        assert result.findings["best_case_matches_formula_exactly"] is True
        assert result.findings["worst_case_within_paper_bound"] is True

    def test_e3(self):
        result = e3_timing()
        assert result.findings["empirical_crossover_matches_formula"] is True

    def test_e3_rows_are_the_formulas(self):
        table = e3_timing(D=100.0).tables[0]
        assert len(table.rows) == 4 * 8  # f values x d/D fractions
        col = table.columns.index
        for row in table.rows:  # cells are rendered strings
            f, frac = int(row[col("f")]), float(row[col("d/D")])
            crw = extended_time(crw_round_bound(f), 100.0, frac * 100.0)
            early = classic_time(f + 2, 100.0)
            assert float(row[col("crw time")]) == pytest.approx(crw)
            assert float(row[col("early-stopping time")]) == pytest.approx(early)
            assert row[col("extended wins")] == ("yes" if crw < early else "no")

    def test_e3_winner_flips_once_per_f(self):
        table = e3_timing().tables[0]
        col = table.columns.index
        for f in (0, 1, 2, 4):
            wins = [row[col("extended wins")] for row in table.rows if row[col("f")] == str(f)]
            assert wins[0] == "yes" and wins[-1] == "no"
            assert sum(a != b for a, b in zip(wins, wins[1:])) == 1

    def test_e3_f0_tie_at_d_equals_D(self):
        # For f=0: 1*(D+d) vs 2D ties exactly at d = D, and a tie is no win.
        table = e3_timing().tables[0]
        col = table.columns.index
        wins = {row[col("d/D")]: row[col("extended wins")]
                for row in table.rows if row[col("f")] == "0"}
        assert (wins["0.75"], wins["1"], wins["1.25"]) == ("yes", "no", "no")

    def test_e5_small(self, monkeypatch):
        summaries = []
        summarize_records = experiments.summarize_records

        def summarize(records):
            # Mark the first row's cell as violated; later rows keep theirs.
            (row,) = summarize_records(records)
            if not summaries:
                row = dataclasses.replace(row, spec_ok=False)
            summaries.append(row)
            return [row]

        result = e5_mr99(n_values=(5,), seeds=2)
        assert result.findings["all_async_runs_uniform"] is True

        monkeypatch.setattr(experiments, "summarize_records", summarize)
        result = e5_mr99(n_values=(5,), seeds=2)
        table = result.tables[0]
        spec = [row[table.columns.index("spec")] for row in table.rows]
        assert len(spec) == len(summaries) == 2 * 3 * 2  # algorithms x f x delays
        assert spec == ["ok" if row.spec_ok else "VIOLATED" for row in summaries]
        assert spec[0] == "VIOLATED" and "VIOLATED" not in spec[1:]
        assert result.findings["all_async_runs_uniform"] is False

    def test_e6_small(self):
        result = e6_ffd(f_values=(0, 2))
        assert result.findings["ffd_runs_uniform"] is True
        assert result.findings["measured_within_model_bound"] is True

    def test_e7_small(self):
        result = e7_simulation(n_values=(4,), f_values=(0, 1))
        assert result.findings["simulated_runs_uniform"] is True
        table = result.tables[0]
        for row in table.rows:
            n, blowup = int(row[0]), row[table.columns.index("blow-up")]
            assert float(blowup) == simulation_blowup(n)

    def test_render_markdown(self):
        md = render_experiment_markdown(e3_timing())
        assert md.startswith("## E3")
        assert "| f" in md
        assert "`empirical_crossover_matches_formula` = True" in md


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "crw" in out and "e1" in out

    def test_run_ok(self, capsys):
        code = main(["run", "--algorithm", "crw", "--n", "5", "--f", "1"])
        assert code == 0
        assert "spec:  OK" in capsys.readouterr().out

    def test_run_trace(self, capsys):
        main(["run", "--n", "4", "--trace"])
        assert "decide" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "e99"]) == 2

    def test_experiment_markdown(self, capsys):
        assert main(["experiment", "e3", "--markdown"]) == 0
        assert "## E3" in capsys.readouterr().out

    def test_explore_ok(self, capsys):
        code = main(["explore", "--n", "3", "--max-crashes", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "early stopping" in out

    def test_explore_finds_violations(self, capsys):
        code = main(
            ["explore", "--n", "4", "--max-crashes", "1", "--truncate-at", "1", "--max-rounds", "2"]
        )
        assert code == 1
        assert "violating leaves" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        "service run --loop open --rate nan",
        "service run --loop open --rate inf",
        "service run --timeout nan --chaos kill:leader,after=2,every=4,count=2",
        "service run --timeout inf",
        "service run --round-time nan",
        "service run --round-time inf",
        "service run --think-time nan",
        "service run --think-time inf",
        "scenario sweep -a crw --n 4 --seeds 2 --executor sharded --jobs 2"
        " --jsonl {tmp}/shards --liveness-timeout nan",
        "explore --n 4 --max-crashes 1 --truncate-at -5 --max-rounds 2",
        "scenario run -a mr99 --n 5 --f 1 --timing delay=constant --timing value=nan",
    ])
    def test_non_finite_and_out_of_range_inputs_exit_2(self, argv, tmp_path, capsys):
        # NaN fails every `<= 0` test, so each bound also rejects
        # non-finite values: nothing may run, hang or write a file.
        assert main(argv.format(tmp=tmp_path).split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []
