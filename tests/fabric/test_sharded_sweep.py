"""ShardedSweep / SweepRunner(executor="sharded"): parity, resume, stats."""

from __future__ import annotations

import warnings

import pytest

from repro.errors import ConfigurationError
from repro.fabric import ShardedSweep
from repro.fabric.manifest import ShardManifest
from repro.scenarios import SweepRunner, expand_grid
from repro.scenarios.scenario import scenario_key


def grid():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return expand_grid(
            ["crw", "mr99"], [5],
            adversaries=("coordinator-killer",), seeds=3,
        )


@pytest.fixture(scope="module")
def cells():
    return grid()


@pytest.fixture(scope="module")
def serial_records(cells):
    return SweepRunner(cells, executor="serial").run()


class TestParity:
    def test_records_match_serial_exactly(self, cells, serial_records, tmp_path):
        runner = SweepRunner(
            cells, executor="sharded", jsonl_path=tmp_path / "shards",
            processes=2,
        )
        records = runner.run()
        assert records == serial_records
        assert runner.executed == len(cells) and runner.resumed == 0

    def test_parity_across_worker_and_shard_counts(
        self, cells, serial_records, tmp_path
    ):
        for i, (processes, shards) in enumerate([(1, 1), (3, 5), (2, 7)]):
            runner = SweepRunner(
                cells, executor="sharded", jsonl_path=tmp_path / f"v{i}",
                processes=processes, shards=shards,
            )
            assert runner.run() == serial_records, (processes, shards)

    def test_ephemeral_mode_needs_no_directory(self, cells, serial_records):
        runner = SweepRunner(cells, executor="sharded", processes=2)
        assert runner.run() == serial_records

    def test_duplicate_cells_collapse_like_serial(self, tmp_path):
        base = grid()[:6]
        doubled = base + base  # every cell twice
        serial = SweepRunner(doubled, executor="serial").run()
        runner = SweepRunner(
            doubled, executor="sharded", jsonl_path=tmp_path / "dup",
        )
        records = runner.run()
        assert records == serial
        assert runner.executed == len(base)  # unique cells run once
        # Duplicate positions get independent copies, not aliases.
        assert records[0] == records[len(base)]
        assert records[0] is not records[len(base)]
        assert records[0].decisions is not records[len(base)].decisions


class TestResume:
    def test_second_run_is_a_whole_manifest_noop(self, cells, tmp_path):
        d = tmp_path / "shards"
        SweepRunner(cells, executor="sharded", jsonl_path=d, shards=4).run()
        again = SweepRunner(cells, executor="sharded", jsonl_path=d, shards=4)
        records = again.run()
        assert again.executed == 0 and again.resumed == len(cells)
        assert again.resumed_shards == 4 and again.fresh_shards == 0
        assert [r.scenario for r in records] == list(cells)

    def test_resume_accepts_different_worker_and_shard_request(
        self, cells, serial_records, tmp_path
    ):
        d = tmp_path / "shards"
        SweepRunner(cells, executor="sharded", jsonl_path=d, shards=5).run()
        # The manifest's 5-shard plan wins over the new request.
        again = SweepRunner(cells, executor="sharded", jsonl_path=d,
                            processes=3, shards=2)
        assert again.run() == serial_records
        assert again.resumed_shards == 5

    def test_different_grid_in_same_directory_rejected(self, cells, tmp_path):
        d = tmp_path / "shards"
        SweepRunner(cells[:10], executor="sharded", jsonl_path=d).run()
        with pytest.raises(ConfigurationError, match="different grid"):
            SweepRunner(cells, executor="sharded", jsonl_path=d).run()


class TestStats:
    def test_shard_stats_shape(self, cells, tmp_path):
        runner = SweepRunner(
            cells, executor="sharded", jsonl_path=tmp_path / "shards",
            processes=2, shards=4,
        )
        runner.run()
        stats = runner.shard_stats
        assert [s["id"] for s in stats] == [0, 1, 2, 3]
        assert sum(s["cells"] for s in stats) == len(cells)
        assert sum(s["executed"] for s in stats) == len(cells)
        for s in stats:
            assert s["elapsed_s"] > 0 and s["cells_per_s"] > 0
            assert s["worker"] in (0, 1) and isinstance(s["stolen"], bool)
        assert runner.fresh_shards == 4 and runner.resumed_shards == 0
        assert runner.stolen_chunks == sum(s["stolen"] for s in stats)

    def test_single_worker_steals_nothing_from_itself(self, cells, tmp_path):
        runner = SweepRunner(
            cells, executor="sharded", jsonl_path=tmp_path / "shards",
            processes=1, shards=3,
        )
        runner.run()
        assert runner.stolen_chunks == 0


class TestValidation:
    def test_duplicate_keys_rejected_by_fabric_directly(self, cells):
        with pytest.raises(ConfigurationError, match="unique"):
            ShardedSweep(list(cells[:3]) + [cells[0]]).run()

    def test_keys_length_mismatch_rejected(self, cells):
        with pytest.raises(ConfigurationError, match="mismatch"):
            ShardedSweep(cells[:4], keys=[scenario_key(cells[0])])

    def test_bad_counts_rejected(self, cells):
        for kwargs in ({"processes": 0}, {"shards": 0}, {"chunk_size": 0}):
            with pytest.raises(ConfigurationError):
                ShardedSweep(cells[:2], **kwargs)


class TestCollectFalse:
    def test_files_written_but_nothing_returned_or_read(self, cells, tmp_path):
        d = tmp_path / "shards"
        sweep = ShardedSweep(cells, directory=d, shards=3, collect=False)
        assert sweep.run() is None
        assert sweep.executed == len(cells)
        manifest = ShardManifest.load(str(d))
        assert all(s.status == "done" for s in manifest.shards)
        # A collect=False resume trusts the manifest and never opens files.
        again = ShardedSweep(cells, directory=d, shards=3, collect=False)
        assert again.run() is None
        assert again.executed == 0 and again.resumed == len(cells)
