"""Interrupted-sweep durability: torn lines, partial flushes, exact resume.

A sweep killed mid-chunk leaves a JSONL file whose tail is garbage: the
final line may be torn mid-write (the buffered append was cut by the
kill) and whole chunks may never have flushed.  The contract, for files
the sweep wrote and for files in the retired writer's one-record-per-line
layout alike, is:

* resume must re-run **exactly** the cells whose records did not survive
  (never a survivor, never fewer than the lost set);
* the final record set after resume must be byte-identical to an
  uninterrupted run's.

Interruption is simulated by truncating a completed sweep's file at
byte/line granularity — the same states a SIGKILL between (or inside)
``write`` calls produces, reproduced deterministically.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.scenarios import SweepRunner, expand_grid


def grid():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return expand_grid(
            ["crw", "mr99"], [5],
            adversaries=("coordinator-killer",), seeds=5,
        )


@pytest.fixture(scope="module")
def cells():
    return grid()


@pytest.fixture(scope="module")
def uninterrupted(cells):
    return [r.to_dict() for r in SweepRunner(cells).run()]


def _write_complete(layout, path, cells, uninterrupted, **kwargs) -> None:
    """A completed sweep's file: written by the sweep (``columnar``) or
    holding the retired legacy writer's exact bytes (``legacy``)."""
    if layout == "columnar":
        SweepRunner(cells, jsonl_path=path, **kwargs).run()
    else:
        path.write_text("".join(
            json.dumps({"record": row}, sort_keys=True) + "\n"
            for row in uninterrupted
        ), encoding="utf-8")


def _records_in(path) -> int:
    """Complete records decodable from a (possibly torn) JSONL file."""
    count = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "record" in entry:
                count += 1
            elif "batch" in entry:
                count += len(entry["batch"]["cells"])
    return count


@pytest.mark.parametrize("layout", ["columnar", "legacy"])
class TestKilledMidChunk:
    def _interrupt(self, path, keep_lines: int, torn_bytes: int) -> None:
        """Rewrite ``path`` as ``keep_lines`` full lines + a torn prefix of
        the next line (``torn_bytes`` of it) — the on-disk state of a kill
        mid-append."""
        lines = path.read_bytes().splitlines(keepends=True)
        assert keep_lines < len(lines), "test grid too small to interrupt"
        torn = lines[keep_lines][:torn_bytes]
        path.write_bytes(b"".join(lines[:keep_lines]) + torn)

    def test_resume_reruns_exactly_the_lost_cells(
        self, layout, cells, uninterrupted, tmp_path
    ):
        path = tmp_path / f"kill-{layout}.jsonl"
        _write_complete(layout, path, cells, uninterrupted, chunk_size=4)

        # Kill: one full flush survives, the second line is torn mid-write,
        # everything after is lost (never flushed).
        self._interrupt(path, keep_lines=1, torn_bytes=25)
        survived = _records_in(path)
        assert 0 < survived < len(cells)

        resumed = SweepRunner(cells, jsonl_path=path, chunk_size=4)
        records = resumed.run()
        assert resumed.resumed == survived
        assert resumed.executed == len(cells) - survived
        assert [r.to_dict() for r in records] == uninterrupted

        # The healed file now covers everything: a further rerun is a no-op.
        healed = SweepRunner(cells, jsonl_path=path)
        healed.run()
        assert healed.executed == 0 and healed.resumed == len(cells)

    def test_torn_first_line_loses_nothing_but_that_chunk(
        self, layout, cells, uninterrupted, tmp_path
    ):
        # Kill during the very first flush: only a torn prefix on disk.
        path = tmp_path / f"first-{layout}.jsonl"
        _write_complete(layout, path, cells, uninterrupted, chunk_size=4)
        self._interrupt(path, keep_lines=0, torn_bytes=40)
        assert _records_in(path) == 0

        resumed = SweepRunner(cells, jsonl_path=path, chunk_size=4)
        records = resumed.run()
        assert resumed.resumed == 0 and resumed.executed == len(cells)
        assert [r.to_dict() for r in records] == uninterrupted

    def test_small_chunk_sweep_interrupted(self, layout, cells, uninterrupted,
                                           tmp_path):
        # Same contract with a smaller flush unit and a later kill point.
        path = tmp_path / f"small-{layout}.jsonl"
        _write_complete(layout, path, cells, uninterrupted, chunk_size=3)
        self._interrupt(path, keep_lines=2, torn_bytes=10)
        survived = _records_in(path)
        resumed = SweepRunner(cells, jsonl_path=path, chunk_size=3)
        records = resumed.run()
        assert resumed.resumed == survived
        assert resumed.executed == len(cells) - survived
        assert [r.to_dict() for r in records] == uninterrupted


class TestCellRaises:
    def test_serial_raises_the_cells_own_error_after_flushing(
        self, cells, uninterrupted, tmp_path, monkeypatch
    ):
        # The loop flushes the finished cells before the error leaves it,
        # so the rerun resumes them even though no chunk filled up.
        from repro.fabric import shardio

        real, seen = shardio.execute, []

        def execute(scenario, **kwargs):
            seen.append(scenario)
            if len(seen) == 6:
                raise RuntimeError("cell 5 broke")
            return real(scenario, **kwargs)

        monkeypatch.setattr(shardio, "execute", execute)
        path = tmp_path / "raised.jsonl"
        with pytest.raises(RuntimeError, match="cell 5 broke"):
            SweepRunner(cells, jsonl_path=path, chunk_size=32).run()
        assert _records_in(path) == 5

        monkeypatch.setattr(shardio, "execute", real)
        resumed = SweepRunner(cells, jsonl_path=path)
        assert [r.to_dict() for r in resumed.run()] == uninterrupted
        assert resumed.resumed == 5
        assert resumed.executed == len(cells) - 5
