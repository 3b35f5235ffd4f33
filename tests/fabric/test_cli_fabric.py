"""CLI faces of the fabric: sharded ``scenario sweep`` and ``atlas summarize``."""

from __future__ import annotations

import json

import pytest

from repro.harness.cli import main


@pytest.fixture
def shard_dir(tmp_path):
    return tmp_path / "shards"


def _sweep(shard_dir, *extra):
    return main([
        "scenario", "sweep",
        "--algorithm", "crw", "--n", "5", "--seeds", "2",
        "--adversary", "coordinator-killer",
        "--executor", "sharded", "--shards", "3",
        "--jsonl", str(shard_dir),
        *extra,
    ])


class TestShardedSweepCLI:
    def test_json_carries_shard_stats(self, shard_dir, capsys):
        assert _sweep(shard_dir, "--json") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["executed"] == out["cells"] > 0
        assert out["fresh_shards"] == 3 and out["resumed_shards"] == 0
        assert isinstance(out["stolen_chunks"], int)
        assert [s["id"] for s in out["shards"]] == [0, 1, 2]
        assert sum(s["cells"] for s in out["shards"]) == out["cells"]
        for s in out["shards"]:
            assert s["cells_per_s"] > 0

    def test_resume_reports_resumed_shards(self, shard_dir, capsys):
        assert _sweep(shard_dir) == 0
        capsys.readouterr()
        assert _sweep(shard_dir, "--json") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["executed"] == 0 and out["resumed"] == out["cells"]
        assert out["resumed_shards"] == 3 and out["fresh_shards"] == 0
        # Wholesale-resumed shards have no throughput of their own; the
        # stat stays numeric (0.0) rather than going null.
        assert all(s["cells_per_s"] == 0.0 for s in out["shards"])

    def test_progress_line_reports_shard_counts(self, shard_dir, capsys):
        assert _sweep(shard_dir) == 0
        out = capsys.readouterr().out
        assert "shards: 3 fresh, 0 resumed" in out
        assert _sweep(shard_dir) == 0
        out = capsys.readouterr().out
        assert "shards: 0 fresh, 3 resumed" in out


class TestChaosCLI:
    def test_json_carries_supervision_counters(self, shard_dir, capsys):
        assert _sweep(shard_dir, "--json") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["retries"] == 0
        assert out["respawns"] == 0
        assert out["quarantined"] == 0
        for s in out["shards"]:
            assert s["retries"] == 0 and s["quarantined"] == 0

    def test_chaos_kill_recovers_and_exits_zero(self, shard_dir, capsys):
        assert _sweep(
            shard_dir, "--jobs", "2",
            "--chaos", "kill:worker=0,after=1", "--json",
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["executed"] + out["resumed"] == out["cells"]
        assert out["respawns"] >= 1
        assert out["quarantined"] == 0

    def test_chaos_poison_quarantines_and_exits_nonzero(self, shard_dir, capsys):
        # A quarantined cell is honest-but-partial coverage → exit 1.
        assert _sweep(shard_dir, "--chaos", "raise:cell=0", "--json") == 1
        out = json.loads(capsys.readouterr().out)
        assert out["quarantined"] == 1
        assert out["records"][0] is None
        assert all(r is not None for r in out["records"][1:])
        assert (shard_dir / "quarantine.json").exists()

    def test_progress_line_reports_supervision(self, shard_dir, capsys):
        assert _sweep(shard_dir, "--chaos", "raise:cell=0") == 1
        out = capsys.readouterr().out
        assert "supervision:" in out and "1 quarantined" in out

    def test_chaos_requires_sharded_executor(self, capsys):
        code = main([
            "scenario", "sweep", "--algorithm", "crw", "--n", "4",
            "--seeds", "1", "--executor", "serial",
            "--chaos", "raise:cell=0",
        ])
        assert code == 2
        assert "sharded" in capsys.readouterr().err

    @pytest.mark.parametrize("executor, target", [
        ("serial", "s.jsonl"), ("sharded", "shards"),
    ])
    def test_bad_configuration_exits_2_on_both_executors(
        self, executor, target, tmp_path, capsys
    ):
        # n=1 is rejected inside each cell: a configuration error, not a
        # fault, so the sharded executor neither retries nor quarantines.
        code = main([
            "scenario", "sweep", "--algorithm", "crw", "--n", "1",
            "--seeds", "4", "--executor", executor,
            "--jsonl", str(tmp_path / target),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "need at least 2 processes, got n=1" in err
        assert not list(tmp_path.rglob("quarantine.json"))


class TestAtlasCLI:
    def test_summarize_table_and_artifact(self, shard_dir, tmp_path, capsys):
        assert _sweep(shard_dir) == 0
        capsys.readouterr()
        out_path = tmp_path / "atlas.json"
        code = main([
            "atlas", "summarize", "--dir", str(shard_dir),
            "--out", str(out_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "atlas:" in printed and "crw" in printed
        doc = json.loads(out_path.read_text())
        assert doc["shards"] == 3 and doc["rows"]

    def test_summarize_json(self, shard_dir, capsys):
        assert _sweep(shard_dir) == 0
        capsys.readouterr()
        assert main(["atlas", "summarize", "--dir", str(shard_dir), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(row["spec_ok"] for row in doc["rows"])
        assert doc["quarantined"] == 0
        assert doc["covered_cells"] == doc["cells"]

    def test_summarize_reports_quarantined_coverage(self, shard_dir, capsys):
        assert _sweep(shard_dir, "--chaos", "raise:cell=0") == 1
        capsys.readouterr()
        assert main(["atlas", "summarize", "--dir", str(shard_dir), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quarantined"] == 1
        assert doc["covered_cells"] == doc["cells"] - 1
        assert main(["atlas", "summarize", "--dir", str(shard_dir)]) == 0
        printed = capsys.readouterr().out
        assert "quarantined" in printed
