"""ScalarSlab: exact scalar round-trips through shared memory."""

from __future__ import annotations

import pytest

from repro.fabric.shm import DEPTH, INT_COLUMNS, ScalarSlab
from repro.scenarios import RecordBatch, RunRecord, Scenario
from repro.util.columns import load_numpy


def _record(i: int, sim_time: float | None) -> RunRecord:
    return RunRecord(
        scenario=Scenario(algorithm="crw", n=4, f=0, seed=i),
        backend="sync-extended",
        decisions={p: 1 for p in range(4)},
        decision_rounds={p: 1 for p in range(4)},
        crashed=[],
        f_actual=i % 3,
        rounds_executed=i + 1,
        last_decision_round=i,
        messages_sent=12 * i,
        bits_sent=96 * i,
        spec_ok=i % 2 == 0,
        violations=[],
        sim_time=sim_time,
    ).normalized()


@pytest.fixture
def slab():
    slab = ScalarSlab.create(capacity=8)
    yield slab
    slab.unlink()


class TestRoundTrip:
    def test_int_columns_and_bool_and_none_time(self, slab):
        records = [_record(i, None) for i in range(5)]
        batch = RecordBatch.from_records(records)
        slab.write(0, batch)
        out = slab.read(0, len(records))
        for name in INT_COLUMNS:
            assert out[name] == getattr(batch, name), name
        assert out["spec_ok"] == [True, False, True, False, True]
        assert all(isinstance(v, bool) for v in out["spec_ok"])
        assert out["sim_time"] == [None] * 5

    def test_float_sim_time_is_exact(self, slab):
        times = [0.0, 1.5, 3.141592653589793, 1e-300, 7.25]
        batch = RecordBatch.from_records(
            [_record(i, t) for i, t in enumerate(times)]
        )
        slab.write(1, batch)
        out = slab.read(1, len(times))
        assert out["sim_time"] == times  # float64 round-trip, no drift

    def test_slots_are_independent(self, slab):
        a = RecordBatch.from_records([_record(1, None)])
        b = RecordBatch.from_records([_record(9, 2.5)])
        slab.write(0, a)
        slab.write(1, b)
        assert slab.read(0, 1)["rounds_executed"] == [2]
        assert slab.read(1, 1)["rounds_executed"] == [10]
        assert slab.read(1, 1)["sim_time"] == [2.5]

    def test_attach_sees_owner_writes(self, slab):
        batch = RecordBatch.from_records([_record(i, None) for i in range(3)])
        slab.write(0, batch)
        other = ScalarSlab.attach(slab.name, capacity=8)
        try:
            assert other.read(0, 3)["messages_sent"] == batch.messages_sent
        finally:
            other.close()

    def test_overflow_rejected(self, slab):
        batch = RecordBatch.from_records([_record(i, None) for i in range(9)])
        with pytest.raises(ValueError, match="capacity"):
            slab.write(0, batch)


def test_depth_is_at_least_two_for_pipelining():
    assert DEPTH >= 2


@pytest.mark.skipif(load_numpy() is None, reason="numpy not importable")
class TestNumpyLoopLayoutParity:
    """The numpy bulk path and the loop fallback share one byte layout.

    A slab written by a numpy worker must read back identically through
    a no-numpy parent (and vice versa) — pinned here by flipping one
    side of the round-trip onto the loop implementation.
    """

    @pytest.fixture
    def batch(self):
        times = [None, 1.5, None, 2.25]
        return RecordBatch.from_records(
            [_record(i, t) for i, t in enumerate(times)]
        )

    def _force_loop(self, slab):
        views = slab._np_ints, slab._np_floats
        slab._np_ints, slab._np_floats = [], []
        return views

    def test_numpy_write_loop_read(self, slab, batch):
        assert slab._np_ints  # numpy path active
        slab.write(0, batch)
        views = self._force_loop(slab)
        try:
            out = slab.read(0, len(batch))
        finally:
            slab._np_ints, slab._np_floats = views
        for name in INT_COLUMNS[:-1]:
            assert out[name] == getattr(batch, name), name
        assert out["spec_ok"] == batch.spec_ok
        assert out["sim_time"] == batch.sim_time

    def test_loop_write_numpy_read(self, slab, batch):
        views = self._force_loop(slab)
        try:
            slab.write(1, batch)
        finally:
            slab._np_ints, slab._np_floats = views
        out = slab.read(1, len(batch))
        for name in INT_COLUMNS[:-1]:
            assert out[name] == getattr(batch, name), name
        assert out["spec_ok"] == batch.spec_ok
        assert out["sim_time"] == batch.sim_time
        assert all(type(v) is int for v in out["messages_sent"])
        assert all(type(v) is bool for v in out["spec_ok"])
