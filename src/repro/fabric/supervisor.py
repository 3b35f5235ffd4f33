"""Worker lifecycle supervision for the sharded dispatcher.

The dispatcher's scheduling state (shard queues, outstanding slots,
retry bookkeeping) stays in :class:`~repro.fabric.dispatcher.ShardedSweep`;
this module owns the *mechanics* of keeping workers alive:

* :class:`WorkerHandle` — one worker's process, pipe, shared-memory
  slab, shard queue, free result slots, and liveness clock, all in one
  place so replacing a worker swaps a single object.
* :class:`Supervisor` — spawns handles, retires them with
  **terminate → kill escalation** (a wedged worker ignoring SIGTERM
  cannot leave a zombie holding its slab), respawns replacements at the
  same worker index (incarnation + 1, inheriting the queue) up to
  ``max_respawns``, and tears everything down at shutdown — slabs are
  **always** unlinked, even when a join times out.

The worker lifecycle state machine (see DESIGN.md §3.6)::

    spawned ── dispatch ──▶ busy ── result ──▶ idle ──▶ ... ──▶ stopped
       ▲                     │ EOF (died) / liveness timeout (hung)
       │                     ▼
       └── respawn ◀── retired (terminate → kill; slab unlinked)
             │ budget exhausted
             ▼
           dead (queue redistributed; serial fallback if no one is left)
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable

from repro.fabric.shm import DEPTH, ScalarSlab

__all__ = ["WorkerHandle", "Supervisor"]


class WorkerHandle:
    """One shard worker: process, pipe, slab, queue, slots, liveness."""

    __slots__ = (
        "index",
        "incarnation",
        "proc",
        "conn",
        "slab",
        "queue",
        "free_slots",
        "last_seen",
        "alive",
        "_released",
    )

    def __init__(self, index: int, incarnation: int, proc: Any, conn: Any,
                 slab: ScalarSlab, queue: deque) -> None:
        self.index = index
        self.incarnation = incarnation
        self.proc = proc
        self.conn = conn
        self.slab = slab
        self.queue = queue
        self.free_slots: list[int] = list(range(DEPTH))
        self.last_seen = time.monotonic()
        self.alive = True
        self._released = False

    @property
    def busy(self) -> int:
        """Outstanding result slots (0 = idle, safe from liveness reaping)."""
        return DEPTH - len(self.free_slots)


class Supervisor:
    """Spawn, reap, respawn, and tear down the dispatcher's workers.

    Parameters
    ----------
    ctx:
        The ``multiprocessing`` context (pipes come from it).
    capacity:
        Slab capacity (cells) for every worker's :class:`ScalarSlab`.
    spawn:
        ``spawn(child_conn, parent_ends, slab_name, index, incarnation)
        -> Process``: builds and **starts** the worker process.  The
        dispatcher owns the target and its arguments; the supervisor owns
        the resources.  ``parent_ends`` are the parent-side pipe ends open
        at spawn time (the new worker's own among them): a forked child
        inherits them and must close them, or its ``recv`` never sees EOF
        once the parent dies.
    max_respawns:
        Total replacement workers allowed across the whole sweep.  Once
        exhausted, :meth:`respawn` returns ``None`` and the dispatcher
        degrades (redistribute, then serial fallback) instead of raising.
    """

    #: Grace given to a politely stopped worker before escalation.
    STOP_GRACE_S = 5.0
    #: Grace after ``terminate()`` before escalating to ``kill()``.
    TERM_GRACE_S = 2.0
    #: Grace after ``kill()``; SIGKILL cannot be ignored, so this only
    #: bounds scheduler latency.
    KILL_GRACE_S = 5.0

    def __init__(self, *, ctx: Any, capacity: int,
                 spawn: Callable[[Any, list, str, int, int], Any],
                 max_respawns: int) -> None:
        self._ctx = ctx
        self._capacity = capacity
        self._spawn = spawn
        self.max_respawns = max_respawns
        #: Replacement workers spawned so far.
        self.respawns = 0
        #: Position == worker index; respawns replace in place, retired
        #: workers stay (``alive=False``) so their queues can be drained.
        self.handles: list[WorkerHandle] = []

    # -- lifecycle ---------------------------------------------------------

    def _make(self, index: int, incarnation: int, queue: deque) -> WorkerHandle:
        slab = ScalarSlab.create(self._capacity)
        parent_conn, child_conn = self._ctx.Pipe()
        parent_ends = [h.conn for h in self.handles if not h.conn.closed]
        parent_ends.append(parent_conn)
        try:
            proc = self._spawn(child_conn, parent_ends, slab.name, index,
                               incarnation)
        except BaseException:
            parent_conn.close()
            child_conn.close()
            slab.unlink()
            raise
        child_conn.close()
        return WorkerHandle(index, incarnation, proc, parent_conn, slab, queue)

    def start(self, n_workers: int) -> list[WorkerHandle]:
        """Spawn the initial fleet (incarnation 0, empty queues)."""
        self.handles = []
        for i in range(n_workers):
            # Appended one by one so each spawn sees its elders' pipe ends.
            self.handles.append(self._make(i, 0, deque()))
        return self.handles

    def live(self) -> list[WorkerHandle]:
        return [h for h in self.handles if h.alive]

    def hung(self, timeout: float, now: float | None = None) -> list[WorkerHandle]:
        """Live workers with outstanding work and no sign of life lately."""
        now = time.monotonic() if now is None else now
        return [
            h for h in self.handles
            if h.alive and h.busy > 0 and now - h.last_seen > timeout
        ]

    def retire(self, handle: WorkerHandle) -> None:
        """Kill a worker (terminate → kill escalation) and free its resources.

        Never raises and never hangs past the graces: a worker that
        ignores SIGTERM gets SIGKILL, and the slab is unlinked
        regardless, so no zombie can pin shared memory.
        """
        handle.alive = False
        proc = handle.proc
        if proc.is_alive():
            proc.terminate()
            proc.join(self.TERM_GRACE_S)
            if proc.is_alive():
                proc.kill()
                proc.join(self.KILL_GRACE_S)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed by EOF handling
            pass
        self._release(handle)

    def respawn(self, handle: WorkerHandle) -> WorkerHandle | None:
        """Replace a retired worker in place, or ``None`` if out of budget.

        The replacement keeps the worker index (the dispatcher's
        bookkeeping is index-keyed) and inherits the queue; its
        incarnation increments so incarnation-scoped injected faults do
        not re-fire in the replacement.
        """
        if self.respawns >= self.max_respawns:
            return None
        self.respawns += 1
        replacement = self._make(handle.index, handle.incarnation + 1, handle.queue)
        self.handles[handle.index] = replacement
        return replacement

    # -- teardown ----------------------------------------------------------

    def _release(self, handle: WorkerHandle) -> None:
        if not handle._released:
            handle._released = True
            handle.slab.unlink()

    def shutdown(self) -> None:
        """Stop every worker and free every slab, escalating as needed.

        Polite stop first (idle workers exit immediately), then
        terminate, then kill — and slabs are unlinked even for a worker
        whose join timed out, so an interrupted sweep cannot leak
        shared-memory segments.
        """
        for handle in self.handles:
            if handle.alive:
                try:
                    handle.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for handle in self.handles:
            if handle.alive and handle.proc.is_alive():
                handle.proc.join(self.STOP_GRACE_S)
        for handle in self.handles:
            try:
                if handle.proc.is_alive():
                    handle.proc.terminate()
                    handle.proc.join(self.TERM_GRACE_S)
                    if handle.proc.is_alive():
                        handle.proc.kill()
                        handle.proc.join(self.KILL_GRACE_S)
            finally:
                try:
                    handle.conn.close()
                except OSError:
                    pass
                self._release(handle)
