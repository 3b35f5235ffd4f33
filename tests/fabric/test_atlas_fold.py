"""The atlas column fold against the per-record reference.

``build_atlas`` folds each batch line's numeric columns straight into
per-configuration accumulators instead of rebuilding a record per cell.
Its rows must equal ``summarize_records`` over the same records for
every kind of directory a sweep leaves behind, and it must count a line
exactly when the resume index (``load_shard_index``) accepts it.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict

import pytest

from repro.fabric import FaultPlan, ShardedSweep, build_atlas, iter_directory_records
from repro.fabric.manifest import ShardManifest
from repro.fabric.shardio import load_shard_index
from repro.scenarios import SweepRunner, expand_grid, summarize_records
from repro.scenarios.record import RecordBatch


def grid(algorithms=("crw", "early-stopping"), seeds=3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return expand_grid(
            list(algorithms), [5], adversaries=("coordinator-killer",), seeds=seeds,
        )


def rows_of(records):
    return [asdict(s) for s in summarize_records(r for r in records if r is not None)]


def sweep(cells, d, **kwargs):
    return SweepRunner(
        cells, executor="sharded", jsonl_path=d, shards=4, chunk_size=2, **kwargs
    ).run()


def shard_paths(d):
    manifest = ShardManifest.load(str(d))
    return [d / spec.file for spec in manifest.shards]


class TestFoldEqualsSummarizeRecords:
    def test_fresh_directory(self, tmp_path):
        cells = grid()
        records = sweep(cells, tmp_path / "d")
        assert build_atlas(tmp_path / "d")["rows"] == rows_of(records)

    def test_resumed_torn_directory(self, tmp_path):
        cells = grid()
        d = tmp_path / "d"
        sweep(cells, d)
        manifest = ShardManifest.load(str(d))
        for spec in manifest.shards[1::2]:
            spec.status = "pending"
            path = d / spec.file
            lines = path.read_bytes().splitlines(keepends=True)
            # Half the lines, then a torn fragment of the next one.
            keep = len(lines) // 2
            path.write_bytes(b"".join(lines[:keep]) + lines[keep][:11])
        manifest.save()
        records = sweep(cells, d)
        assert build_atlas(d)["rows"] == rows_of(records)

    def test_chaos_quarantined_directory(self, tmp_path):
        cells = grid(("crw",), seeds=12)
        d = tmp_path / "d"
        records = ShardedSweep(
            cells, directory=d, processes=2, shards=4,
            faults=FaultPlan.from_spec("kill:worker=0,after=1;raise:cell=7"),
        ).run()
        assert records[7] is None
        doc = build_atlas(d)
        assert doc["quarantined"] == 1
        assert doc["rows"] == rows_of(records)

    def test_legacy_record_lines_feed_the_same_aggregates(self, tmp_path):
        cells = grid()
        d = tmp_path / "d"
        records = sweep(cells, d)
        reference = build_atlas(d)
        # Rewrite every other batch line as one legacy {"record": row}
        # line per cell: the old and new layouts mix in one file.
        for path in shard_paths(d):
            out = []
            for i, line in enumerate(path.read_text().splitlines()):
                if i % 2:
                    out.append(line)
                    continue
                batch = RecordBatch.from_payload(json.loads(line)["batch"])
                out += [json.dumps({"record": row}) for row in batch.to_rows()]
            path.write_text("\n".join(out) + "\n")
        assert build_atlas(d) == reference
        assert reference["rows"] == rows_of(records)

    def test_mixed_sync_and_async_directory_keeps_float_sums(self, tmp_path):
        cells = grid(("crw", "mr99", "ffd"), seeds=4)
        records = sweep(cells, tmp_path / "d")
        rows = build_atlas(tmp_path / "d")["rows"]
        assert rows == rows_of(records)
        # Equality above is of floats summed in record order.
        assert any(isinstance(row["mean_sim_time"], float) for row in rows)


def test_float_sums_keep_file_order(tmp_path):
    # Float addition is not associative: summed out of file order, these
    # three sim_times give 1.0 instead of 0.0.
    cells = grid(("mr99",), seeds=3)
    d = tmp_path / "d"
    SweepRunner(cells, executor="sharded", jsonl_path=d, shards=1, chunk_size=3).run()
    (path,) = shard_paths(d)
    lines = path.read_text().splitlines()
    entry = json.loads(lines[0])
    entry["batch"]["sim_time"] = [1.0, 1e16, -1e16]
    path.write_text("\n".join([json.dumps(entry)] + lines[1:]) + "\n")
    rows = build_atlas(d)["rows"]
    assert rows == rows_of(iter_directory_records(d))
    assert (rows[0]["f"], rows[0]["seeds"]) == (0, 3)  # the rewritten line's cells
    assert rows[0]["mean_sim_time"] == 0.0


def _first_batch(path):
    lines = path.read_text().splitlines()
    return lines, json.loads(lines[0])


def _short_column(entry):
    entry["batch"]["bits_sent"].pop()


def _long_column(entry):
    entry["batch"]["messages_sent"].append(0)


def _non_int_pid(entry):
    decisions = entry["batch"]["decisions"][0]
    decisions["p1"] = decisions.pop(next(iter(decisions)))


def _list_decisions(entry):
    entry["batch"]["decisions"][0] = [1]


def _bad_seed(entry):
    entry["batch"]["cells"][-1]["seed"] = "7"


def _bool_seed(entry):
    entry["batch"]["cells"][-1]["seed"] = True


def _bad_config(entry):
    entry["batch"]["cells"][0]["n"] = 0


def _valid(entry):
    pass


class TestLineAcceptance:
    @pytest.mark.parametrize(
        "corrupt",
        [_short_column, _long_column, _non_int_pid, _list_decisions, _bad_seed,
         _bool_seed, _bad_config, _valid],
    )
    def test_atlas_counts_a_line_iff_the_resume_index_accepts_it(
        self, corrupt, tmp_path
    ):
        cells = grid()
        d = tmp_path / "d"
        sweep(cells, d)
        path = shard_paths(d)[0]
        lines, entry = _first_batch(path)
        width = len(entry["batch"]["cells"])
        before = len(load_shard_index(str(path)))
        corrupt(entry)
        path.write_text("\n".join([json.dumps(entry)] + lines[1:]) + "\n")

        index = load_shard_index(str(path))
        skipped = corrupt is not _valid
        assert len(index) == before - (width if skipped else 0)
        doc = build_atlas(d)
        assert sum(row["seeds"] for row in doc["rows"]) == len(cells) - (
            width if skipped else 0
        )
        # The rows are exactly the summaries of what resume accepts.
        accepted = [
            r for p in shard_paths(d) for r in load_shard_index(str(p)).values()
        ]
        assert doc["rows"] == rows_of(accepted)
