"""Byte-identical records across every data path of the sweep pipeline.

The columnar pipeline must be invisible in the results.  One grid of
scenarios spanning three backends (extended, classic, async) × crashing
adversaries × seeds is executed through every alternative, and the
records must match dict for dict:

* the **legacy reader**: files holding the retired writer's
  one-record-per-line ``{"record": ...}`` layout (alone, or followed by
  columnar batch lines) still resume, in a serial file and in a shard
  file;
* the serial executor vs the sharded fabric's CellDelta wire;
* fresh vs **refilled** engines (the lease path that skips the
  n-object process factory entirely).
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.fabric import shardio
from repro.fabric.manifest import ShardManifest
from repro.scenarios import (
    EngineLease,
    Scenario,
    SweepRunner,
    execute,
    expand_grid,
)


def parity_grid():
    """3 backends x 2 adversaries x 3 seeds (plus per-backend f spread)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return expand_grid(
            ["crw", "early-stopping", "mr99"],
            [5, 8],
            f_values=[0, 2],
            adversaries=("coordinator-killer", "random"),
            seeds=3,
        )


@pytest.fixture(scope="module")
def grid():
    return parity_grid()


@pytest.fixture(scope="module")
def reference(grid):
    """Unleased, unpersisted serial records — the ground truth."""
    return [execute(cell, trace=False).to_dict() for cell in grid]


def legacy_lines(records) -> str:
    """The exact bytes the retired legacy writer appended for ``records``."""
    return "".join(
        json.dumps({"record": r.to_dict()}, sort_keys=True) + "\n" for r in records
    )


@pytest.fixture(scope="module")
def records(grid):
    return [execute(cell, trace=False).normalized() for cell in grid]


class TestLegacyReader:
    def test_serial_file_of_legacy_lines_resumes(self, grid, records, reference,
                                                 tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text(legacy_lines(records), encoding="utf-8")
        runner = SweepRunner(grid, jsonl_path=path)
        assert [r.to_dict() for r in runner.run()] == reference
        assert runner.executed == 0 and runner.resumed == len(grid)

    def test_serial_legacy_prefix_then_columnar_lines(self, grid, records,
                                                      reference, tmp_path):
        # A file the legacy writer started and the columnar writer
        # finished: resume must stitch both layouts together.
        half = len(grid) // 2
        path = tmp_path / "mixed.jsonl"
        path.write_text(legacy_lines(records[:half]), encoding="utf-8")
        runner = SweepRunner(grid, jsonl_path=path)
        assert [r.to_dict() for r in runner.run()] == reference
        assert runner.resumed == half and runner.executed == len(grid) - half
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert ["record" in line for line in lines[:half]] == [True] * half
        assert lines[half:] and all("batch" in line for line in lines[half:])
        rerun = SweepRunner(grid, jsonl_path=path)
        assert [r.to_dict() for r in rerun.run()] == reference
        assert rerun.executed == 0 and rerun.resumed == len(grid)

    def _sharded(self, grid, d):
        return SweepRunner(grid, executor="sharded", jsonl_path=d,
                           processes=2, shards=3, chunk_size=4)

    def test_done_shard_file_of_legacy_lines_resumes(self, grid, records,
                                                     reference, tmp_path):
        d = tmp_path / "shards"
        self._sharded(grid, d).run()
        spec = ShardManifest.load(str(d)).shards[0]
        shard = records[spec.start:spec.stop]
        cut = len(shard) // 2
        (d / spec.file).write_text(legacy_lines(shard), encoding="utf-8")
        runner = self._sharded(grid, d)
        assert [r.to_dict() for r in runner.run()] == reference
        assert runner.executed == 0 and runner.resumed == len(grid)
        # Legacy lines followed by a columnar batch line read the same.
        with open(d / spec.file, "w", encoding="utf-8") as fh:
            fh.write(legacy_lines(shard[:cut]))
            shardio.append_batch(fh, shard[cut:])
        runner = self._sharded(grid, d)
        assert [r.to_dict() for r in runner.run()] == reference
        assert runner.executed == 0 and runner.resumed == len(grid)

    def test_pending_shard_resumes_legacy_lines_per_cell(self, grid, records,
                                                         reference, tmp_path):
        # A shard interrupted after its legacy prefix: the worker resumes
        # those cells and appends columnar batch lines for the rest.
        d = tmp_path / "shards"
        self._sharded(grid, d).run()
        manifest = ShardManifest.load(str(d))
        spec = manifest.shards[1]
        spec.status = "pending"
        manifest.save()
        cut = spec.cells // 2
        (d / spec.file).write_text(
            legacy_lines(records[spec.start:spec.start + cut]), encoding="utf-8"
        )
        runner = self._sharded(grid, d)
        assert [r.to_dict() for r in runner.run()] == reference
        assert runner.executed == spec.cells - cut
        rerun = self._sharded(grid, d)
        assert [r.to_dict() for r in rerun.run()] == reference
        assert rerun.executed == 0


class TestShardedWireParity:
    def test_sharded_delta_wire_matches_serial(self, grid, reference):
        # The fabric ships cells as CellDeltas against one base scenario
        # and returns them through shared-memory slabs.
        records = SweepRunner(
            grid, executor="sharded", processes=2, chunk_size=7
        ).run()
        assert [r.to_dict() for r in records] == reference


class TestRefillParity:
    def test_leased_refill_matches_fresh_across_grid(self, grid, reference):
        lease = EngineLease()
        leased = [execute(cell, trace=False, lease=lease).to_dict() for cell in grid]
        assert leased == reference

    def test_sync_refill_skips_the_factory(self):
        # Same configuration, many seeds: after the first cell the lease
        # must reuse both the engine *and* its process objects (the
        # factory never runs again) while records stay byte-identical.
        base = Scenario(algorithm="crw", n=8, f=3, adversary="coordinator-killer")
        lease = EngineLease()
        execute(base, lease=lease)
        key = EngineLease.shape_for(base, False, None)
        engine = lease.get(key)
        proc_ids = {pid: id(p) for pid, p in engine.procs.items()}
        for seed in range(1, 15):
            cell = base.with_(seed=seed)
            leased = execute(cell, lease=lease)
            assert leased.to_dict() == execute(cell).to_dict(), seed
        engine_after = lease.get(key)
        assert engine_after is engine
        assert {pid: id(p) for pid, p in engine_after.procs.items()} == proc_ids

    def test_async_refill_skips_the_factory(self):
        base = Scenario(
            algorithm="chandra-toueg", n=7, f=2, adversary="staggered",
            timing={"delay": "uniform", "lo": 0.2, "hi": 1.2},
        )
        lease = EngineLease()
        execute(base, lease=lease)
        key = EngineLease.shape_for(base, False, None)
        runner = lease.get(key)
        proc_ids = {pid: id(p) for pid, p in runner.procs.items()}
        for seed in range(1, 12):
            cell = base.with_(seed=seed)
            leased = execute(cell, lease=lease)
            assert leased.to_dict() == execute(cell).to_dict(), seed
        runner_after = lease.get(key)
        assert runner_after is runner
        assert {pid: id(p) for pid, p in runner_after.procs.items()} == proc_ids

    def test_refill_declined_falls_back_to_reset(self):
        # interactive-consistency has no vector table: the lease must
        # keep working through the factory + reset path.
        base = Scenario(algorithm="interactive-consistency", n=5, f=1,
                        adversary="coordinator-killer")
        lease = EngineLease()
        for seed in range(4):
            cell = base.with_(seed=seed)
            assert execute(cell, lease=lease).to_dict() == execute(cell).to_dict()

    def test_engine_refill_rejects_wrong_arity(self):
        from repro.errors import ConfigurationError

        base = Scenario(algorithm="crw", n=6, f=1, adversary="coordinator-killer")
        lease = EngineLease()
        execute(base, lease=lease)
        engine = lease.get(EngineLease.shape_for(base, False, None))
        with pytest.raises(ConfigurationError, match="proposals"):
            engine.refill([1, 2, 3])

    def test_registry_advertises_refill_capability(self):
        from repro.baselines.early_stopping import EarlyStoppingConsensus
        from repro.baselines.floodset import FloodSetConsensus
        from repro.core.crw import CRWConsensus
        from repro.core.variants import SilentProcess
        from repro.sync.api import _VECTOR_TABLES, VectorAlgorithm

        def refillable(process_cls):
            # A table takes refills iff it overrides the declining default.
            factory = _VECTOR_TABLES.get(process_cls)
            return (
                factory is not None
                and factory.__self__.refill is not VectorAlgorithm.refill
            )

        assert refillable(CRWConsensus)
        assert refillable(FloodSetConsensus)
        assert refillable(EarlyStoppingConsensus)
        assert not refillable(SilentProcess)  # no table registered

    def test_every_registered_sync_table_refill_matches_from_processes(self):
        # Table-level parity: for each refillable sync algorithm, refill
        # on a used table must reproduce a freshly built table's run.
        for algorithm in ("crw", "eager-crw", "truncated-crw",
                          "increasing-commit-crw", "full-broadcast-crw",
                          "floodset", "early-stopping"):
            base = Scenario(algorithm=algorithm, n=6, f=2,
                            adversary="coordinator-killer")
            lease = EngineLease()
            for seed in (0, 1, 2):
                cell = base.with_(seed=seed)
                assert (
                    execute(cell, lease=lease).to_dict() == execute(cell).to_dict()
                ), (algorithm, seed)


class TestExecutorsAgree:
    @pytest.mark.parametrize("executor", ["serial", "sharded"])
    def test_default_paths_end_to_end(self, executor, grid, reference, tmp_path):
        # The all-defaults pipeline (columnar shard-file format + leases
        # everywhere) against the ground truth, with persistence on.
        runner = SweepRunner(grid, executor=executor,
                             jsonl_path=tmp_path / "persisted")
        records = runner.run()
        assert [r.to_dict() for r in records] == reference

    def test_columnar_file_resumes_with_zero_executed(self, grid, tmp_path):
        path = tmp_path / "full.jsonl"
        SweepRunner(grid, jsonl_path=path).run()
        rerun = SweepRunner(grid, jsonl_path=path)
        rerun.run()
        assert rerun.executed == 0 and rerun.resumed == len(grid)
