"""Supervision recovery paths under deterministic fault injection.

Every failure mode the dispatcher handles — worker death, hung worker,
poison cell, torn write, exhausted respawn budget — is driven by a
seeded :class:`FaultPlan` and asserted to (a) complete without raising
and (b) reproduce the fault-free run's records exactly, minus any
quarantined cells.  No real SIGKILL races: the injection points are
deterministic, so these are ordinary (if multiprocess) pytest tests.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.fabric import FaultPlan, QuarantineLog, ShardedSweep, ShardManifest
from repro.fabric.atlas import build_atlas
from repro.scenarios import Scenario, SweepRunner, expand_grid


def grid(seeds=12):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return expand_grid(
            ["crw"], [4], adversaries=("coordinator-killer",), seeds=seeds,
        )


@pytest.fixture(scope="module")
def cells():
    return grid()


@pytest.fixture(scope="module")
def clean_records(cells):
    """The fault-free reference run (any executor produces these bytes)."""
    return SweepRunner(list(cells), executor="serial").run()


def assert_matches_minus_quarantine(records, reference, quarantined_cells=()):
    """Records equal the reference except quarantined positions are None."""
    assert len(records) == len(reference)
    for i, (got, want) in enumerate(zip(records, reference)):
        if i in quarantined_cells:
            assert got is None, f"cell {i} should be quarantined"
        else:
            assert got == want, f"cell {i} diverged"


class TestKillRecovery:
    def test_killed_worker_respawns_and_records_match(
        self, cells, clean_records, tmp_path
    ):
        sweep = ShardedSweep(
            cells, directory=tmp_path / "shards", processes=2, shards=4,
            faults=FaultPlan.from_spec("kill:worker=0,after=1"),
        )
        records = sweep.run()
        assert_matches_minus_quarantine(records, clean_records)
        assert sweep.respawns >= 1
        assert sweep.quarantined == 0
        # The manifest ends fully done: a rerun resumes everything.
        manifest = ShardManifest.load(str(tmp_path / "shards"))
        assert all(s.status == "done" for s in manifest.shards)

    def test_kill_on_receiving_first_shard(self, cells, clean_records):
        # after=0: the worker dies holding its first shard, which fails
        # and is retried.
        sweep = ShardedSweep(
            cells, processes=2, shards=4,
            faults=FaultPlan.from_spec("kill:worker=1,after=0"),
        )
        records = sweep.run()
        assert_matches_minus_quarantine(records, clean_records)
        assert sweep.respawns >= 1
        assert sweep.retries >= 1

    def test_dispatch_into_dead_worker_requeues(self, cells, clean_records):
        # Both workers die after their first shard; every requeued shard
        # must land on a replacement (BrokenPipeError on send must not
        # crash the parent mid-dispatch).
        sweep = ShardedSweep(
            cells, processes=2, shards=6,
            faults=FaultPlan.from_spec("kill:after=1"),
        )
        records = sweep.run()
        assert_matches_minus_quarantine(records, clean_records)


class TestHangRecovery:
    def test_hung_worker_is_reaped_and_work_rescheduled(
        self, cells, clean_records, tmp_path
    ):
        # Shard 1 is round-robin-assigned to worker 1, which sleeps far
        # past the liveness timeout instead of running it.
        sweep = ShardedSweep(
            cells, directory=tmp_path / "shards", processes=2, shards=4,
            faults=FaultPlan.from_spec("hang:shard=1,worker=1",
                                       hang_seconds=120.0),
            liveness_timeout=0.5,
        )
        records = sweep.run()
        assert_matches_minus_quarantine(records, clean_records)
        assert sweep.respawns >= 1
        assert sweep.retries >= 1  # the hung shard was requeued
        assert sweep.elapsed < 60.0  # supervision ended the hang, not luck

    def test_no_liveness_timeout_still_detects_death(self, cells, clean_records):
        # EOF-based death detection needs no liveness config at all.
        sweep = ShardedSweep(
            cells, processes=2, shards=4,
            faults=FaultPlan.from_spec("kill:worker=0,after=1"),
        )
        assert sweep.liveness_timeout is None
        assert_matches_minus_quarantine(sweep.run(), clean_records)


class TestPoisonQuarantine:
    def test_poison_cell_quarantined_rest_completes(
        self, cells, clean_records, tmp_path
    ):
        d = tmp_path / "shards"
        sweep = ShardedSweep(
            cells, directory=d, processes=2, shards=4,
            faults=FaultPlan.from_spec("raise:cell=7"),
        )
        records = sweep.run()
        assert_matches_minus_quarantine(records, clean_records, {7})
        assert sweep.quarantined == 1
        # Durable quarantine ledger next to the manifest.
        log = QuarantineLog.load(str(d))
        assert log.cells() == {7}
        entry = log.entries[7]
        assert entry["shard"] == 0 and entry["attempts"] >= 1
        assert "FaultInjected" in entry["error"]
        # The owning shard is "quarantined", the others "done".
        manifest = ShardManifest.load(str(d))
        assert manifest.shards[0].status == "quarantined"
        assert all(s.status == "done" for s in manifest.shards[1:])

    def test_quarantine_is_sticky_across_resume(self, cells, clean_records, tmp_path):
        d = tmp_path / "shards"
        ShardedSweep(
            cells, directory=d, processes=2, shards=4,
            faults=FaultPlan.from_spec("raise:cell=7"),
        ).run()
        # Re-run WITHOUT the fault: the quarantined cell stays excluded
        # until the user deletes quarantine.json.
        again = ShardedSweep(cells, directory=d, processes=2, shards=4)
        records = again.run()
        assert_matches_minus_quarantine(records, clean_records, {7})
        assert again.executed == 0
        assert again.quarantined == 1
        # Clearing the ledger is all it takes: the quarantined shard no
        # longer covers its cells, so it demotes and re-runs just cell 7.
        (d / "quarantine.json").unlink()
        healed = ShardedSweep(cells, directory=d, processes=2, shards=4)
        assert_matches_minus_quarantine(healed.run(), clean_records)
        assert healed.quarantined == 0

    def test_transient_fault_retries_without_quarantine(
        self, cells, clean_records
    ):
        # until=2: the cell fails on attempts 0 and 1, then succeeds —
        # exponential-backoff retry absorbs it with nothing quarantined.
        sweep = ShardedSweep(
            cells, processes=2, shards=4, retry_backoff_s=0.01,
            faults=FaultPlan.from_spec("raise:cell=7,until=2"),
        )
        records = sweep.run()
        assert_matches_minus_quarantine(records, clean_records)
        assert sweep.retries >= 2
        assert sweep.quarantined == 0

    def test_atlas_reports_quarantined_coverage(self, cells, tmp_path):
        d = tmp_path / "shards"
        ShardedSweep(
            cells, directory=d, processes=2, shards=4, collect=False,
            faults=FaultPlan.from_spec("raise:cell=7"),
        ).run()
        doc = build_atlas(d)
        assert doc["quarantined"] == 1
        assert doc["covered_cells"] == len(cells) - 1
        assert sum(row["seeds"] for row in doc["rows"]) == len(cells) - 1


class TestTornWrite:
    def test_torn_shard_file_heals_on_retry(self, cells, clean_records, tmp_path):
        d = tmp_path / "shards"
        sweep = ShardedSweep(
            cells, directory=d, processes=2, shards=4,
            faults=FaultPlan.from_spec("torn:shard=0,worker=0"),
        )
        records = sweep.run()
        assert_matches_minus_quarantine(records, clean_records)
        assert sweep.retries >= 1
        # The flushed-then-torn cells resumed instead of re-running.
        assert sweep.resumed > 0


class TestUnattributedRepeatKiller:
    """A shard whose failure names no cell, once retries are spent, is
    probed in the parent; probed shards report no owning worker.

    A kill leaves worker 0 dying while it holds a shard: its first one
    with ``after=0``, its second with ``after=1``."""

    @pytest.mark.parametrize(
        "spec", ["torn:shard=0", "kill:worker=0,after=0", "kill:worker=0,after=1"]
    )
    def test_probe_in_parent_matches_clean_records(
        self, cells, clean_records, tmp_path, spec
    ):
        d = tmp_path / "shards"
        sweep = ShardedSweep(
            cells, directory=d, processes=2, shards=4,
            faults=FaultPlan.from_spec(spec), max_shard_retries=0,
        )
        records = sweep.run()
        assert_matches_minus_quarantine(records, clean_records)
        assert sweep.quarantined == 0
        assert sweep.retries >= 1
        assert any(s["worker"] is None for s in sweep.shard_stats)
        assert sweep.executed + sweep.resumed == len(cells)
        assert not (d / "quarantine.json").exists()
        manifest = ShardManifest.load(str(d))
        assert all(s.status == "done" for s in manifest.shards)


class TestConfigurationErrorEndsSweep:
    """A bad configuration is no fault: every path raises it, and nothing
    is retried or quarantined."""

    BAD = [Scenario(algorithm="crw", n=1, seed=seed) for seed in range(8)]

    def test_serial_executor_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="at least 2 processes"):
            SweepRunner(self.BAD, jsonl_path=tmp_path / "s.jsonl").run()

    @pytest.mark.parametrize("spec", [None, "kill:after=0"])
    def test_sharded_executor_raises_without_quarantine(self, tmp_path, spec):
        # kill:after=0 with no respawns leaves no worker: the parent's
        # serial drain runs the cells and must raise the same way.
        d = tmp_path / "shards"
        sweep = ShardedSweep(
            self.BAD, directory=d, processes=2, shards=4,
            faults=FaultPlan.from_spec(spec) if spec else None,
            max_respawns=0 if spec else None,
        )
        with pytest.raises(ConfigurationError, match="at least 2 processes"):
            sweep.run()
        assert not (d / "quarantine.json").exists()
        if spec is None:
            assert sweep.retries == 0  # raised at once, not retried


class TestGracefulDegradation:
    def test_respawns_exhausted_drains_in_process(self, cells, clean_records):
        # Every incarnation-0 worker dies after one shard and the budget
        # allows no replacements: the dispatcher must finish serially
        # in-process rather than raise.
        sweep = ShardedSweep(
            cells, processes=2, shards=4,
            faults=FaultPlan.from_spec("kill:after=1"),
            max_respawns=0,
        )
        records = sweep.run()
        assert_matches_minus_quarantine(records, clean_records)
        assert sweep.respawns == 0
        assert sweep.retries >= 1

    def test_serial_fallback_still_quarantines_poison(self, cells, clean_records):
        sweep = ShardedSweep(
            cells, processes=2, shards=4,
            faults=FaultPlan.from_spec("kill:after=0;raise:cell=7"),
            max_respawns=0,
        )
        records = sweep.run()
        assert_matches_minus_quarantine(records, clean_records, {7})
        assert sweep.quarantined == 1


class TestAcceptance:
    def test_kill_hang_and_poison_in_one_sweep(self, cells, clean_records, tmp_path):
        """The issue's acceptance scenario: an injected worker kill, an
        injected hang, and one poison cell in a single sweep — completes
        without raising, quarantines exactly the poison cell, and matches
        the fault-free records everywhere else."""
        d = tmp_path / "shards"
        sweep = ShardedSweep(
            cells, directory=d, processes=2, shards=4,
            faults=FaultPlan.from_spec(
                "kill:worker=0,after=1;hang:shard=1,worker=1;raise:cell=7",
                hang_seconds=120.0,
            ),
            liveness_timeout=0.5,
        )
        records = sweep.run()
        assert_matches_minus_quarantine(records, clean_records, {7})
        assert sweep.quarantined == 1
        assert sweep.respawns >= 1
        log = QuarantineLog.load(str(d))
        assert log.cells() == {7}
        # A replacement worker forked while the parent handled the dead
        # worker's EOF must not carry that EOFError into the traceback.
        assert "EOFError" not in log.entries[7]["error"]
        # And the directory still reduces to an honest atlas.
        doc = build_atlas(d)
        assert doc["covered_cells"] == len(cells) - 1

    def test_counters_surface_through_sweep_runner(self, cells, tmp_path):
        runner = SweepRunner(
            list(cells), executor="sharded", processes=2, shards=4,
            jsonl_path=tmp_path / "shards",
            faults=FaultPlan.from_spec("raise:cell=7"),
        )
        records = runner.run()
        assert runner.quarantined == 1
        assert runner.retries >= 1
        assert records[7] is None
        stats_by_id = {s["id"]: s for s in runner.shard_stats}
        assert stats_by_id[0]["quarantined"] == 1
        assert stats_by_id[0]["retries"] >= 1
        assert all(s["quarantined"] == 0 for i, s in stats_by_id.items() if i != 0)


class TestValidation:
    def test_supervision_knobs_require_sharded_executor(self, cells):
        with pytest.raises(ConfigurationError, match="sharded"):
            SweepRunner(cells, executor="serial", liveness_timeout=5.0)
        with pytest.raises(ConfigurationError, match="sharded"):
            SweepRunner(
                cells, executor="serial",
                faults=FaultPlan.from_spec("raise:cell=0"),
            )

    @pytest.mark.parametrize("kwargs", [
        {"liveness_timeout": 0.0},
        {"liveness_timeout": -1.0},
        {"max_respawns": -1},
        {"max_shard_retries": -1},
        {"retry_backoff_s": -0.1},
    ])
    def test_sharded_sweep_rejects_bad_knobs(self, cells, kwargs):
        with pytest.raises(ConfigurationError):
            ShardedSweep(cells, **kwargs)

    def test_quarantine_log_round_trip(self, tmp_path):
        log = QuarantineLog(str(tmp_path))
        log.add(cell=3, shard=1, key="k", error="boom", attempts=4)
        loaded = QuarantineLog.load(str(tmp_path))
        assert loaded.cells() == {3}
        assert loaded.entries[3]["attempts"] == 4
        assert len(loaded) == 1

    def test_quarantine_log_truncates_huge_errors(self, tmp_path):
        log = QuarantineLog(str(tmp_path))
        log.add(cell=0, shard=0, key="k", error="x" * 10000, attempts=1)
        assert len(log.entries[0]["error"]) == QuarantineLog.MAX_ERROR_CHARS

    def test_corrupt_quarantine_log_rejected(self, tmp_path):
        (tmp_path / "quarantine.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="quarantine"):
            QuarantineLog.load(str(tmp_path))


def test_chaos_run_matches_clean_shard_files_byte_for_byte(tmp_path):
    """Shard files from a kill/respawn run parse to the same record set
    as an undisturbed run's (the atlas over them is byte-identical)."""
    cells = grid()
    clean_d, chaos_d = tmp_path / "clean", tmp_path / "chaos"
    ShardedSweep(cells, directory=clean_d, processes=2, shards=4,
                 collect=False).run()
    ShardedSweep(cells, directory=chaos_d, processes=2, shards=4,
                 collect=False,
                 faults=FaultPlan.from_spec("kill:worker=0,after=1")).run()
    assert json.dumps(build_atlas(clean_d), sort_keys=True) == \
        json.dumps(build_atlas(chaos_d), sort_keys=True)
