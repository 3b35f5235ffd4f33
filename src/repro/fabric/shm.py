"""Shared-memory slabs for the numeric RecordBatch columns.

Profiling put the ceiling of a process-pool sweep at pickling result
batches back through the ``multiprocessing`` pipe.  The numeric columns
of a :class:`~repro.scenarios.record.RecordBatch` — per-cell counters
(``f_actual``, ``rounds_executed``, ``last_decision_round``,
``messages_sent``, ``bits_sent``), the ``spec_ok`` flag, and
``sim_time`` — are fixed-width, so a worker can write them straight into
a :mod:`multiprocessing.shared_memory` segment the parent maps too, and
only the small variable-width object columns (decisions, decision
rounds, crash lists, violations, backend names) cross the pipe.

One :class:`ScalarSlab` per worker, divided into :data:`DEPTH` slots so
the dispatcher can pipeline: the worker fills slot ``s`` for the task
tagged ``s`` while the parent drains the other slot.  The dispatcher
never has more than ``DEPTH`` tasks outstanding per worker and reads a
slot before reusing its tag, so no fence beyond the pipe's own result
message is needed — the message *is* the publication barrier (it is sent
after the slot is fully written).

``sim_time`` rides the float column with NaN standing in for ``None``
(the continuous-time backends always produce finite floats; the
round-based ones produce ``None``), so the round-trip is exact and
records stay byte-identical with the serial executor's.

Lifecycle: the parent creates (and finally unlinks) every slab; workers
attach by name and close on exit.  Worker-side attachment unregisters
from the ``resource_tracker`` (best effort) so a worker's exit cannot
prematurely destroy a segment the parent still owns.
"""

from __future__ import annotations

import math
from multiprocessing import shared_memory

from repro.scenarios.record import RecordBatch
from repro.util.columns import load_numpy

__all__ = ["ScalarSlab", "INT_COLUMNS", "DEPTH"]

#: RecordBatch columns carried as int64 slots (``spec_ok`` as 0/1).
INT_COLUMNS = (
    "f_actual",
    "rounds_executed",
    "last_decision_round",
    "messages_sent",
    "bits_sent",
    "spec_ok",
)
_N_INTS = len(INT_COLUMNS)

#: Pipeline depth: result slots per worker (write one, drain the other).
DEPTH = 2

#: Bytes per cell: the int64 columns plus the float64 ``sim_time``.
CELL_BYTES = _N_INTS * 8 + 8


class ScalarSlab:
    """A ``DEPTH``-slotted shared-memory buffer of per-cell scalars."""

    __slots__ = ("shm", "capacity", "_owner", "_ints", "_floats",
                 "_np_ints", "_np_floats")

    def __init__(self, shm: shared_memory.SharedMemory, capacity: int,
                 owner: bool) -> None:
        self.shm = shm
        self.capacity = capacity
        self._owner = owner
        # One contiguous int64 region then one float64 region per slot,
        # viewed once — per-shard writes index the casts directly.  With
        # numpy available, a (capacity, N_INTS) view per slot turns each
        # column transfer into one strided C-level copy.
        self._ints = []
        self._floats = []
        self._np_ints = []
        self._np_floats = []
        np = load_numpy()
        slot_bytes = capacity * CELL_BYTES
        for slot in range(DEPTH):
            off = slot * slot_bytes
            mid = off + capacity * _N_INTS * 8
            ibuf = shm.buf[off:mid]
            fbuf = shm.buf[mid:off + slot_bytes]
            self._ints.append(ibuf.cast("q"))
            self._floats.append(fbuf.cast("d"))
            if np is not None:
                self._np_ints.append(
                    np.frombuffer(ibuf, dtype=np.int64).reshape(capacity, _N_INTS)
                )
                self._np_floats.append(np.frombuffer(fbuf, dtype=np.float64))

    @property
    def name(self) -> str:
        return self.shm.name

    @classmethod
    def create(cls, capacity: int) -> "ScalarSlab":
        """Parent side: allocate a slab for shards of up to ``capacity`` cells."""
        size = max(1, capacity) * CELL_BYTES * DEPTH
        shm = shared_memory.SharedMemory(create=True, size=size)
        return cls(shm, max(1, capacity), owner=True)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ScalarSlab":
        """Worker side: map the parent's segment by name.

        Workers only ever :meth:`close`; the parent owns the segment and
        unlinks it once every worker has exited.  Registration with the
        (fork-shared) resource tracker is left alone — the parent's
        ``unlink`` balances it, and if the whole sweep is SIGKILLed the
        tracker reaping the orphaned segment is exactly what we want.
        """
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, max(1, capacity), owner=False)

    # -- data path ---------------------------------------------------------

    def write(self, slot: int, batch: RecordBatch) -> None:
        """Fill ``slot`` with the numeric columns of ``batch`` (worker side).

        With numpy: one strided bulk assignment per column (the list →
        int64 conversion happens in C).  The fallback loop writes the
        same cell-major byte layout, so a slab written by either path
        reads back identically from either path.
        """
        count = len(batch)
        if count > self.capacity:
            raise ValueError(
                f"batch of {count} cells exceeds slab capacity {self.capacity}"
            )
        if self._np_ints:
            cells = self._np_ints[slot][:count]
            cells[:, 0] = batch.f_actual
            cells[:, 1] = batch.rounds_executed
            cells[:, 2] = batch.last_decision_round
            cells[:, 3] = batch.messages_sent
            cells[:, 4] = batch.bits_sent
            cells[:, 5] = batch.spec_ok  # bools cast to 0/1
            self._np_floats[slot][:count] = [
                math.nan if t is None else t for t in batch.sim_time
            ]
            return
        ints = self._ints[slot]
        floats = self._floats[slot]
        base = 0
        for i in range(count):
            ints[base] = batch.f_actual[i]
            ints[base + 1] = batch.rounds_executed[i]
            ints[base + 2] = batch.last_decision_round[i]
            ints[base + 3] = batch.messages_sent[i]
            ints[base + 4] = batch.bits_sent[i]
            ints[base + 5] = 1 if batch.spec_ok[i] else 0
            base += _N_INTS
            t = batch.sim_time[i]
            floats[i] = math.nan if t is None else t
        # The result message on the pipe publishes the slot; nothing else
        # reads it until the parent has received that message.

    def read(self, slot: int, count: int) -> dict[str, list]:
        """Decode ``count`` cells of ``slot`` back into column lists (parent).

        Always plain Python lists out (``tolist`` on the numpy side):
        the columns land directly in a :class:`RecordBatch`, whose
        records carry built-in ints/bools/floats.
        """
        if self._np_ints:
            cells = self._np_ints[slot][:count]
            return {
                "f_actual": cells[:, 0].tolist(),
                "rounds_executed": cells[:, 1].tolist(),
                "last_decision_round": cells[:, 2].tolist(),
                "messages_sent": cells[:, 3].tolist(),
                "bits_sent": cells[:, 4].tolist(),
                "spec_ok": (cells[:, 5] != 0).tolist(),
                "sim_time": [
                    None if math.isnan(t) else t
                    for t in self._np_floats[slot][:count].tolist()
                ],
            }
        ints = self._ints[slot]
        floats = self._floats[slot]
        out: dict[str, list] = {
            "f_actual": [],
            "rounds_executed": [],
            "last_decision_round": [],
            "messages_sent": [],
            "bits_sent": [],
            "spec_ok": [],
            "sim_time": [],
        }
        base = 0
        for i in range(count):
            out["f_actual"].append(ints[base])
            out["rounds_executed"].append(ints[base + 1])
            out["last_decision_round"].append(ints[base + 2])
            out["messages_sent"].append(ints[base + 3])
            out["bits_sent"].append(ints[base + 4])
            out["spec_ok"].append(bool(ints[base + 5]))
            base += _N_INTS
            t = floats[i]
            out["sim_time"].append(None if math.isnan(t) else t)
        return out

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (both sides)."""
        # The memoryview casts and numpy frombuffer views pin the
        # underlying buffer; release them before SharedMemory.close() or
        # it raises BufferError.
        self._ints.clear()
        self._floats.clear()
        self._np_ints.clear()
        self._np_floats.clear()
        self.shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner/parent side, after workers exited)."""
        self.close()
        if self._owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass
