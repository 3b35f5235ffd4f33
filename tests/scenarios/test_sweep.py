"""SweepRunner: executor equivalence, JSONL persistence, resume."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    Scenario,
    SweepRunner,
    expand_grid,
    summarize_records,
)


def small_grid(seeds=3):
    return expand_grid(
        ["crw", "early-stopping"], [4],
        adversaries=("coordinator-killer",), seeds=seeds,
    )


class TestExpandGrid:
    def test_f_defaults_to_zero_to_t(self):
        cells = expand_grid(["crw"], [4], adversaries=("coordinator-killer",), seeds=2)
        assert len(cells) == 4 * 2  # f in 0..3, 2 seeds
        assert {c.f for c in cells} == {0, 1, 2, 3}

    def test_none_adversary_is_failure_free_only(self):
        cells = expand_grid(["crw"], [4], adversaries=("none",), seeds=2)
        assert {c.f for c in cells} == {0}

    def test_respects_algorithm_default_t(self):
        cells = expand_grid(["mr99"], [5], adversaries=("coordinator-killer",), seeds=1)
        assert {c.f for c in cells} == {0, 1, 2}  # t = (n-1)//2 = 2

    def test_partial_f_drop_warns(self):
        # mr99 n=5 has t=2, so f=2 survives but the crw cells keep f=2 too;
        # a grid mixing algorithms may legally cap f per algorithm, but the
        # drop must be announced.
        with pytest.warns(UserWarning, match="dropped unexpressible cells"):
            cells = expand_grid(["crw", "mr99"], [5], f_values=[0, 3],
                                adversaries=("coordinator-killer",), seeds=1)
        assert {(c.algorithm, c.f) for c in cells} == {
            ("crw", 0), ("crw", 3), ("mr99", 0),
        }

    def test_incompatible_adversary_cells_dropped_with_warning(self):
        # commit-splitter has no timed plan: the mr99 column must be
        # dropped up front instead of aborting the sweep mid-run.
        with pytest.warns(UserWarning, match="no plan"):
            cells = expand_grid(["crw", "mr99"], [5], f_values=[1],
                                adversaries=("commit-splitter",), seeds=1)
        assert {c.algorithm for c in cells} == {"crw"}

    def test_empty_grid_rejected(self):
        # Every f exceeds t=3: silently running zero cells would let a
        # mistyped sweep "pass" in CI.
        with pytest.raises(ConfigurationError, match="zero cells"):
            expand_grid(["crw"], [4], f_values=[5, 6],
                        adversaries=("coordinator-killer",), seeds=1)

    def test_ffd_summary_surfaces_sim_time(self):
        # FFD runs have no rounds; the sweep summary must expose the
        # timing metric instead of an all-zero rounds column only.
        cells = expand_grid(["ffd"], [6], f_values=[0, 2],
                            adversaries=("coordinator-killer",), seeds=2)
        rows = summarize_records(SweepRunner(cells).run())
        assert all(row.mean_sim_time is not None and row.mean_sim_time > 0
                   for row in rows)
        sync_rows = summarize_records(SweepRunner(
            expand_grid(["crw"], [4], adversaries=("none",), seeds=1)).run())
        assert sync_rows[0].mean_sim_time is None

    def test_summaries_sort_numerically(self):
        cells = expand_grid(["crw"], [4, 16], f_values=[1],
                            adversaries=("coordinator-killer",), seeds=1)
        rows = summarize_records(SweepRunner(cells).run())
        assert [row.n for row in rows] == [4, 16]  # not lexicographic '16' < '4'


class TestSweepRunner:
    def test_serial_matches_individual_execute(self):
        from repro.scenarios import execute

        cells = small_grid(seeds=2)
        records = SweepRunner(cells).run()
        assert len(records) == len(cells)
        spot = execute(cells[3])
        assert records[3].to_dict() == spot.to_dict()

    def test_sharded_equals_serial(self):
        cells = small_grid(seeds=3)
        serial = SweepRunner(cells, executor="serial").run()
        sharded = SweepRunner(
            cells, executor="sharded", processes=2, chunk_size=4
        ).run()
        assert [r.to_dict() for r in sharded] == [r.to_dict() for r in serial]

    def test_bad_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner([], executor="gpu")
        with pytest.raises(ConfigurationError, match="serial, sharded"):
            SweepRunner([], executor="process")

    def test_fabric_options_require_sharded_executor(self):
        cells = small_grid(seeds=1)
        for options in ({"processes": 2}, {"shards": 3},
                        {"processes": 2, "shards": 3}):
            with pytest.raises(ConfigurationError, match="sharded executor"):
                SweepRunner(cells, executor="serial", **options)

    def test_cli_rejects_fabric_options_on_serial(self, tmp_path, capsys):
        from repro.harness.cli import main

        path = tmp_path / "sweep.jsonl"
        assert main(["scenario", "sweep", "-a", "crw", "--n", "4", "--seeds", "1",
                     "--shards", "3", "--jobs", "2", "--jsonl", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: processes, shards require(s) the sharded")
        assert len(err.splitlines()) == 1
        assert not path.exists()  # refused before any cell ran

    def test_summarize_groups_by_cell(self):
        records = SweepRunner(small_grid(seeds=2)).run()
        rows = summarize_records(records)
        assert all(row.seeds == 2 for row in rows)
        assert all(row.spec_ok for row in rows)
        crw_worst = {row.f: row.max_last_round for row in rows if row.algorithm == "crw"}
        assert all(crw_worst[f] <= f + 1 for f in crw_worst)

    def test_summarize_merges_fresh_and_resumed_records(self, tmp_path):
        # A tuple-valued param serializes as a JSON array: records resumed
        # through json.loads carry the list form while fresh records keep
        # the caller's tuple.  Both are one configuration and must land in
        # one summary row (the group key is canonical-JSON, not repr).
        cells = [
            Scenario(algorithm="crw", n=4, f=1, adversary="coordinator-killer",
                     workload="identical", workload_params={"value": (1, 2)},
                     seed=seed)
            for seed in range(4)
        ]
        path = tmp_path / "mixed.jsonl"
        SweepRunner(cells[:2], jsonl_path=path).run()
        records = SweepRunner(cells, jsonl_path=path).run()
        rows = summarize_records(records)
        assert len(rows) == 1 and rows[0].seeds == 4


class TestPersistencePathKind:
    def test_sharded_refuses_an_existing_file(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text("", encoding="utf-8")
        runner = SweepRunner(small_grid(seeds=1), executor="sharded",
                             jsonl_path=path)
        with pytest.raises(ConfigurationError, match="shard directory"):
            runner.run()
        assert runner.executed == 0 and path.read_text() == ""

    def test_serial_refuses_a_directory(self, tmp_path):
        runner = SweepRunner(small_grid(seeds=1), jsonl_path=tmp_path)
        with pytest.raises(ConfigurationError, match="one JSONL file"):
            runner.run()
        assert runner.executed == 0 and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("executor,kind", [("sharded", "file"),
                                               ("serial", "directory")])
    def test_cli_exits_2_with_one_line(self, executor, kind, tmp_path, capsys):
        from repro.harness.cli import main

        path = tmp_path / "sweep.jsonl"
        if kind == "file":
            path.write_text("", encoding="utf-8")
        else:
            path.mkdir()
        assert main(["scenario", "sweep", "-a", "crw", "--n", "4", "--seeds", "1",
                     "--executor", executor, "--jsonl", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"is a {kind}" in err


class TestJsonlResume:
    def test_hundred_cell_sweep_with_resume(self, tmp_path):
        """A 100-cell sweep resumes from its JSONL after interruption."""
        path = tmp_path / "sweep.jsonl"
        cells = expand_grid(
            ["crw"], [4], f_values=[0, 1], adversaries=("coordinator-killer",),
            seeds=50,
        )
        assert len(cells) == 100

        # "Interrupted" first attempt: only a prefix got persisted.
        first = SweepRunner(cells[:37], chunk_size=10, jsonl_path=path)
        first.run()
        assert first.executed == 37

        # Resumed full sweep: only the missing 63 cells execute.
        full = SweepRunner(cells, chunk_size=10, jsonl_path=path)
        records = full.run()
        assert full.resumed == 37
        assert full.executed == 63
        assert len(records) == 100

        # Records come back in input order and match a fresh serial run.
        fresh = SweepRunner(cells, executor="serial").run()
        assert [r.to_dict() for r in records] == [r.to_dict() for r in fresh]

        # The file now covers every cell: a further rerun executes nothing.
        rerun = SweepRunner(cells, executor="serial", jsonl_path=path)
        rerun.run()
        assert rerun.executed == 0 and rerun.resumed == 100

    def test_duplicate_cells_execute_once(self):
        cell = Scenario(algorithm="crw", n=4, f=1, adversary="coordinator-killer")
        runner = SweepRunner([cell, cell, cell])
        records = runner.run()
        assert runner.executed == 1
        assert len(records) == 3  # every occurrence still gets its record
        assert records[0].to_dict() == records[2].to_dict()
        # Occurrences are independent objects: mutating one position's
        # containers must not leak into the others.
        assert records[0] is not records[2]
        records[0].decisions.clear()
        assert records[2].decisions

    def test_foreign_jsonl_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cells = small_grid(seeds=1)
        # A syntactically valid line whose scenario has an unknown key
        # (e.g. written by a newer version) must not abort the resume.
        path.write_text(
            json.dumps({"record": {"scenario": {"algorithm": "crw", "n": 4,
                                                "from_the_future": 1}}}) + "\n"
            + json.dumps({"record": {"scenario": {"n": 4}}}) + "\n"  # missing keys
            + json.dumps([1, 2, 3]) + "\n"  # valid JSON, not an object
        )
        runner = SweepRunner(cells, jsonl_path=path)
        records = runner.run()
        assert runner.executed == len(cells) and runner.resumed == 0
        assert len(records) == len(cells)

    def test_undecodable_legacy_line_reruns_its_cell(self, tmp_path):
        # A legacy line whose scenario is valid (so its key matches a
        # pending cell) but whose record is not: the cell must re-run,
        # not crash the resume when the record is decoded.
        from repro.scenarios import execute

        path = tmp_path / "sweep.jsonl"
        cells = small_grid(seeds=1)
        path.write_text(
            json.dumps({"record": {"scenario": cells[0].to_dict()}}) + "\n"
        )
        runner = SweepRunner(cells, jsonl_path=path)
        records = runner.run()
        assert runner.executed == len(cells) and runner.resumed == 0
        assert records[0] == execute(cells[0]).normalized()

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        cells = small_grid(seeds=1)
        runner = SweepRunner(cells, jsonl_path=path)
        runner.run()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"record": {"scenario"')  # interrupted mid-write
        resumed = SweepRunner(cells, jsonl_path=path)
        records = resumed.run()
        assert resumed.executed == 0
        assert len(records) == len(cells)

    def test_record_round_trips_through_columnar_jsonl(self, tmp_path):
        from repro.scenarios import RecordBatch

        path = tmp_path / "one.jsonl"
        cell = Scenario(algorithm="crw", n=4, f=1, adversary="coordinator-killer")
        (record,) = SweepRunner([cell], jsonl_path=path).run()
        with open(path, encoding="utf-8") as fh:
            payload = json.loads(fh.readline())["batch"]
        (stored,) = RecordBatch.from_payload(payload).to_records()
        assert stored.scenario == cell
        assert stored == record  # full normalized-record equality

    def test_sized_payloads_serialize(self, tmp_path):
        path = tmp_path / "sized.jsonl"
        cell = Scenario(algorithm="crw", n=4, workload="sized",
                        workload_params={"bits": 64})
        (record,) = SweepRunner([cell], jsonl_path=path).run()
        assert record.spec_ok
        line = json.loads(open(path, encoding="utf-8").readline())
        decisions = line["batch"]["decisions"][0]
        assert list(decisions.values())[0] == {"$sized": [101, 64]}

    def test_sized_payloads_resume_from_legacy_lines(self, tmp_path):
        path = tmp_path / "sized-legacy.jsonl"
        cell = Scenario(algorithm="crw", n=4, workload="sized",
                        workload_params={"bits": 64})
        (record,) = SweepRunner([cell]).run()
        path.write_text(json.dumps({"record": record.to_dict()}, sort_keys=True)
                        + "\n", encoding="utf-8")
        runner = SweepRunner([cell], jsonl_path=path)
        assert runner.run() == [record] and runner.resumed == 1
