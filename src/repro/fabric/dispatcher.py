"""The sharded sweep executor: work-stealing dispatch over supervised workers.

:class:`ShardedSweep` runs an expanded grid as shards (see
:mod:`repro.fabric.manifest`) over long-lived worker processes:

* **Dispatch** — every worker owns a queue of shards (round-robin
  initial assignment); an idle worker first drains its own queue, then
  **steals** the coldest shard from the longest remaining queue
  (classic work-stealing, with the bookkeeping centralized in the
  parent so no cross-process locks exist).  ``stolen_chunks`` counts
  the steals.
* **Result return** — the numeric record columns come back through a
  per-worker :class:`~repro.fabric.shm.ScalarSlab`
  (``multiprocessing.shared_memory``), and only the small object
  columns (decisions, decision rounds, crash lists, violations,
  backend names) cross the pipe — the result path the PR 5 profile
  showed dominated by pickling is near-zero-copy.  Two slots per slab
  let the dispatcher pipeline: a worker computes its next shard while
  the parent drains the previous one.
* **Persistence** — each worker runs its shard through
  :func:`~repro.fabric.shardio.run_cells`, the loop the serial executor
  and the parent's probe run too, appending columnar batch lines to
  *its shard's own file* as it goes (one flush per chunk), so JSONL
  encoding runs inside the workers, in parallel with compute.
* **Resume** — the manifest skips ``"done"`` shards wholesale; a
  partially-written shard re-runs only the cells missing from its file
  (per-cell torn-tail-healing resume inside ``run_cells``).
* **Supervision** — a dead worker (pipe EOF) or a hung one (no
  result/heartbeat within ``liveness_timeout`` while holding work) is
  killed with terminate→kill escalation, its outstanding shards are
  requeued, its slab is retired, and a replacement is spawned at the
  same index (incarnation + 1) up to ``max_respawns``
  (:mod:`repro.fabric.supervisor`).  A shard that keeps failing is
  retried with exponential backoff up to ``max_shard_retries`` times;
  after that an attributed failing cell is **quarantined**
  (``quarantine.json`` — :class:`~repro.fabric.manifest.QuarantineLog`)
  and the rest of the shard completes, while an unattributed repeat
  killer is probed in the parent, which reruns the shard after
  quarantining each raising cell.  If the respawn budget runs out,
  remaining shards drain in-process the same way (serial fallback) —
  the sweep degrades, it does not raise.  A
  :class:`~repro.errors.ConfigurationError` is no fault: nothing is
  retried or quarantined, and the parent raises it after shutting the
  workers down, as the serial executor does.
* **Fault injection** — a bound :class:`~repro.fabric.faults.FaultPlan`
  rides the worker spawn args and injects worker death, hangs, poison
  cells, and torn writes at deterministic points, so every recovery
  path above is exercised by ordinary pytest (``tests/fabric/``).

Cell order inside a shard is the grid order, so the record set — and
the atlas reduced from the shard files — is byte-identical across
worker counts, steal schedules, and kill/resume histories (pinned by
``tests/fabric/``); quarantined cells are simply absent (``None`` in
collected results).

The cell wire format is the :func:`CellDelta
<repro.scenarios.scenario.scenario_delta>` against one shared base
scenario.  The parent computes it once per run of cells of one
configuration (:func:`~repro.scenarios.scenario.scenario_deltas`), a
worker decodes a shard's deltas once per configuration
(:class:`~repro.scenarios.scenario.CellColumn`), and workers compile
plans and reuse engines through an
:class:`~repro.scenarios.execute.EngineLease` exactly like the serial
executor; the parity discipline carries over verbatim.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
import traceback
from functools import partial
from heapq import heappop, heappush
from itertools import count as _counter
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from typing import Any, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.fabric.faults import FaultPlan
from repro.fabric.manifest import QuarantineLog, ShardManifest, ShardSpec
from repro.fabric.shardio import (
    CellFailure,
    append_batch,
    load_shard_index,
    run_cells,
)
from repro.fabric.shm import ScalarSlab
from repro.fabric.supervisor import Supervisor, WorkerHandle
from repro.scenarios.execute import EngineLease
from repro.scenarios.record import RecordBatch, RunRecord
from repro.scenarios.scenario import (
    CellColumn,
    Scenario,
    scenario_deltas,
    scenario_key,
)

__all__ = ["ShardedSweep"]

#: Exit code of a fault-injected worker death (distinguishable from
#: crashes in test output; the parent treats any death the same way).
_FAULT_EXIT = 17

#: Backoff ceiling: retries are about letting transients clear, not
#: about stalling a sweep.
_MAX_BACKOFF_S = 2.0


# -- worker side -------------------------------------------------------------


def _shard_chunk_size(cells: int, chunk_size: int | None) -> int:
    """Flush unit inside a shard: ~4 flushes per shard, bounded 8..64."""
    if chunk_size is not None:
        return chunk_size
    return max(8, min(64, -(-cells // 4)))


def _run_shard(
    base_dict: dict[str, Any],
    lease: EngineLease,
    path: str,
    deltas: Sequence[dict[str, Any]],
    chunk_size: int | None,
    slab: ScalarSlab,
    slot: int,
    *,
    start: int = 0,
    skip: frozenset[int] = frozenset(),
    attempt: int = 0,
    faults: FaultPlan | None = None,
    torn: bool = False,
    notify: Any = None,
) -> tuple[int, int, float, dict[str, list]]:
    """Execute one shard through :func:`run_cells`, then publish the slab.

    ``skip`` holds quarantined *global* cell indices — those cells are
    not run, not written, and not published (the parent pads their
    result positions with ``None``).  A cell that raises aborts the
    shard with :class:`CellFailure` *after* flushing completed work,
    so retries only re-run from the failure onward.
    """
    # One validation per configuration, not a ``with_`` per cell; keys
    # are spliced per configuration too, and only for a resumed file.
    column = CellColumn.from_deltas(base_dict, deltas)
    flushed = 0

    def write(fh, records: list[RunRecord], positions: list[int]) -> None:
        nonlocal flushed
        append_batch(fh, records, base_dict, [deltas[p] for p in positions])
        flushed += 1
        if torn and flushed == 1:
            # Injected torn write: leave a half line (no newline) and
            # die — the retry must heal the tail before resuming.
            fh.write('{"torn"')
            fh.flush()
            os._exit(_FAULT_EXIT)
        if notify is not None:
            notify()

    started = time.perf_counter()
    records, executed = run_cells(
        path, column.scenarios(), column.keys, lease, write,
        _shard_chunk_size(len(deltas), chunk_size), start=start, skip=skip,
        check=None if faults is None else partial(faults.check_cell, attempt=attempt),
    )
    elapsed = time.perf_counter() - started
    batch = RecordBatch.from_records(records)
    slab.write(slot, batch)
    # Only the variable-width object columns ride the pipe; scenarios
    # never return at all (the parent knows the cells it dispatched).
    objects = {
        "backend": batch.backend,
        "decisions": batch.decisions,
        "decision_rounds": batch.decision_rounds,
        "crashed": batch.crashed,
        "violations": batch.violations,
    }
    return executed, len(records) - executed, elapsed, objects


def _worker_main(
    conn,
    shm_name: str,
    capacity: int,
    base_dict: dict[str, Any],
    directory: str,
    chunk_size: int | None,
    faults: FaultPlan | None = None,
    worker_id: int = 0,
    incarnation: int = 0,
    heartbeat: bool = False,
    inherited: tuple = (),
) -> None:
    """Long-lived shard worker: recv shard tasks until ``stop`` (or EOF).

    A failing shard does not kill the worker: the failure (with the
    guilty cell's global index when attributable; a
    :class:`~repro.errors.ConfigurationError` as a ``"config"`` message)
    goes back over the pipe and the worker takes the next task on a
    fresh engine lease.
    ``faults`` (already bound) injects death/hang/torn/poison at the
    documented points; ``heartbeat`` adds an ``("hb", shard_id)`` pipe
    message per flushed chunk for the parent's liveness clock.
    ``inherited`` holds the parent-side pipe ends a forked worker copied
    from the parent; closing them first is what lets ``recv`` see EOF
    when the parent dies, so an orphaned worker exits instead of
    blocking forever.
    """
    for end in inherited:
        end.close()
    slab = ScalarSlab.attach(shm_name, capacity)
    lease = EngineLease()
    completed = 0
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return  # parent died; the manifest makes the rerun resume
            if msg[0] == "stop":
                return
            _, shard_id, slot, file_name, start, deltas, skip, attempt = msg
            torn = False
            if faults is not None:
                if completed == 0 and faults.kill_now(0, worker_id, incarnation):
                    os._exit(_FAULT_EXIT)  # after=0: die holding the first shard
                pause = faults.hang_for(shard_id, worker_id, incarnation)
                if pause is not None:
                    time.sleep(pause)
                torn = faults.torn_on(shard_id, worker_id, incarnation)
            notify = None
            if heartbeat:
                def notify(sid=shard_id):  # noqa: E306 - per-shard closure
                    conn.send(("hb", sid))
            try:
                result = _run_shard(
                    base_dict, lease, os.path.join(directory, file_name),
                    deltas, chunk_size, slab, slot,
                    start=start, skip=frozenset(skip), attempt=attempt,
                    faults=faults, torn=torn, notify=notify,
                )
            except CellFailure as fail:
                conn.send(("error", shard_id, slot, fail.cell, fail.tb))
                lease = EngineLease()  # drop possibly mid-run engine state
                continue
            except ConfigurationError as exc:
                conn.send(("config", shard_id, slot, str(exc)))
                lease = EngineLease()
                continue
            except Exception:
                conn.send(("error", shard_id, slot, None, traceback.format_exc()))
                lease = EngineLease()
                continue
            conn.send(("shard", shard_id, slot, *result))
            completed += 1
            if faults is not None and faults.kill_now(
                completed, worker_id, incarnation
            ):
                os._exit(_FAULT_EXIT)
    except (BrokenPipeError, ConnectionResetError):
        return  # parent died mid-send: the same exit as EOF on recv
    finally:
        slab.close()
        conn.close()


# -- parent side -------------------------------------------------------------


class ShardedSweep:
    """Run scenario cells as manifest-backed shards over stealing workers.

    Parameters
    ----------
    cells:
        The grid cells, in grid order.  Canonical keys must be unique
        (:class:`~repro.scenarios.sweep.SweepRunner` dedupes before
        delegating here).
    directory:
        The shard directory (manifest + per-shard files).  ``None`` runs
        in an ephemeral temporary directory — the fabric machinery with
        no durable artifact.
    processes:
        Worker count (default ``os.cpu_count()``), capped at the number
        of unfinished shards.
    shards:
        Shard count for a *fresh* plan (default: ~4 per worker, so
        stealing has slack).  An existing manifest's plan always wins —
        resume must line up with the files already on disk.
    chunk_size:
        Flush unit inside a shard (default: ~4 flushes per shard,
        bounded 8..64 cells).
    keys:
        Precomputed canonical keys, one per cell, when the caller
        already paid for them (``SweepRunner`` computes keys to dedupe
        before delegating — recomputing ~1µs-per-cell hashes twice is
        measurable at atlas scale).  ``None`` computes them here.
    collect:
        ``True`` returns every cell's record (merge-on-read over done
        shards; quarantined cells come back as ``None``); ``False``
        skips collection entirely — completed shard files are *never
        read* — for atlas-scale sweeps reduced later by
        :mod:`repro.fabric.atlas`.
    faults:
        A :class:`~repro.fabric.faults.FaultPlan` to inject
        deterministic failures (tests / ``--chaos``); ``None`` (the
        default) adds zero per-cell work.
    liveness_timeout:
        Seconds without any pipe traffic (results or per-chunk
        heartbeats) after which a worker *holding work* is declared
        hung and replaced.  ``None`` (default) disables hang detection;
        death detection (pipe EOF) is always on.
    max_respawns:
        Replacement-worker budget for the whole sweep (default: the
        worker count).  Exhausting it degrades to in-process draining
        instead of raising.
    max_shard_retries:
        Times a shard may fail before its failure is isolated
        (quarantine the attributed cell, or probe cell-by-cell).
    retry_backoff_s:
        Base of the exponential retry backoff (doubles per failure,
        capped at 2s).
    """

    def __init__(
        self,
        cells: Iterable[Scenario],
        *,
        directory: str | os.PathLike[str] | None = None,
        processes: int | None = None,
        shards: int | None = None,
        chunk_size: int | None = None,
        keys: Sequence[str] | None = None,
        collect: bool = True,
        faults: FaultPlan | None = None,
        liveness_timeout: float | None = None,
        max_respawns: int | None = None,
        max_shard_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self.cells = list(cells)
        if keys is not None and len(keys) != len(self.cells):
            raise ConfigurationError(
                f"keys/cells length mismatch: {len(keys)} keys for "
                f"{len(self.cells)} cells"
            )
        self.keys = list(keys) if keys is not None else None
        self.directory = os.fspath(directory) if directory is not None else None
        if processes is not None and processes < 1:
            raise ConfigurationError(f"processes must be >= 1, got {processes}")
        if shards is not None and shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if liveness_timeout is not None and not 0 < liveness_timeout < math.inf:
            raise ConfigurationError(
                f"liveness_timeout must be finite and > 0, got {liveness_timeout}"
            )
        if max_respawns is not None and max_respawns < 0:
            raise ConfigurationError(
                f"max_respawns must be >= 0, got {max_respawns}"
            )
        if max_shard_retries < 0:
            raise ConfigurationError(
                f"max_shard_retries must be >= 0, got {max_shard_retries}"
            )
        if not 0 <= retry_backoff_s < math.inf:
            raise ConfigurationError(
                f"retry_backoff_s must be finite and >= 0, got {retry_backoff_s}"
            )
        self.processes = processes
        self.shards = shards
        self.chunk_size = chunk_size
        self.collect = collect
        self.faults = faults
        self.liveness_timeout = liveness_timeout
        self.max_respawns = max_respawns
        self.max_shard_retries = max_shard_retries
        self.retry_backoff_s = retry_backoff_s
        #: Cells actually executed / loaded back by the last :meth:`run`.
        self.executed = 0
        self.resumed = 0
        #: Shards skipped via the manifest vs dispatched to workers.
        self.resumed_shards = 0
        self.fresh_shards = 0
        #: Shards an idle worker stole from another worker's queue.
        self.stolen_chunks = 0
        #: Supervision counters: shard failures handled (requeues),
        #: replacement workers spawned, quarantined cells on disk.
        self.retries = 0
        self.respawns = 0
        self.quarantined = 0
        #: Per-shard stats dicts (id, cells, executed, resumed, elapsed_s,
        #: cells_per_s, worker, stolen, retries, quarantined), shard-id order.
        self.shard_stats: list[dict[str, Any]] = []
        self.elapsed = 0.0

    # -- public ------------------------------------------------------------

    def run(self) -> list[RunRecord | None] | None:
        """Run/resume the sweep; records in cell order (``None`` per
        quarantined cell; ``None`` overall if not collecting)."""
        started = time.perf_counter()
        self.executed = self.resumed = 0
        self.resumed_shards = self.fresh_shards = self.stolen_chunks = 0
        self.retries = self.respawns = self.quarantined = 0
        self.shard_stats = []
        tmp = None
        directory = self.directory
        if directory is None:
            tmp = tempfile.TemporaryDirectory(prefix="repro-shards-")
            directory = tmp.name
        try:
            result = self._run_in(directory)
        finally:
            if tmp is not None:
                tmp.cleanup()
            self.elapsed = time.perf_counter() - started
        return result

    # -- internals ---------------------------------------------------------

    def _run_in(self, directory: str) -> list[RunRecord | None] | None:
        cells = self.cells
        if not cells:
            return [] if self.collect else None
        keys = self.keys or [scenario_key(cell) for cell in cells]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(
                "sharded sweeps need unique cells (duplicate scenario keys "
                "in the grid); SweepRunner dedupes before delegating"
            )
        workers = self.processes or os.cpu_count() or 2
        shard_count = self.shards or max(1, workers * 4)
        manifest = ShardManifest.load_or_create(directory, keys, shard_count)
        quarantine = QuarantineLog.load(directory)
        # Quarantine is sticky: global cell index sets per owning shard.
        skips: dict[int, set[int]] = {}
        for cell_index, entry in quarantine.entries.items():
            skips.setdefault(int(entry["shard"]), set()).add(cell_index)

        results: list[RunRecord | None] | None = (
            [None] * len(cells) if self.collect else None
        )
        pending: list[ShardSpec] = []
        for spec in manifest.shards:
            path = os.path.join(directory, spec.file)
            if spec.status in ("done", "quarantined") and os.path.exists(path):
                skip = skips.get(spec.id, set())
                if self._collect_done_shard(spec, path, keys, results, skip):
                    continue
                spec.status = "pending"  # file incomplete: fall through
            pending.append(spec)
        if pending:
            self._dispatch(
                directory, manifest, pending, results, workers, keys,
                quarantine, skips,
            )
        self.quarantined = len(quarantine)
        self.shard_stats.sort(key=lambda stat: stat["id"])
        return results  # type: ignore[return-value]

    def _collect_done_shard(
        self,
        spec: ShardSpec,
        path: str,
        keys: list[str],
        results: list[RunRecord | None] | None,
        skip: set[int],
    ) -> bool:
        """Account (and, when collecting, load) one finished shard.

        Quarantined cells stay ``None`` in the results.  Returns False
        when the file no longer covers the shard's non-quarantined
        cells — the shard is then demoted and re-run (its surviving
        records still resume per-cell inside the worker).
        """
        if results is not None:
            index = load_shard_index(path)
            loaded: list[RunRecord | None] = []
            for i in range(spec.start, spec.stop):
                if i in skip:
                    loaded.append(None)
                    continue
                record = index.get(keys[i])
                if record is None:
                    return False
                loaded.append(record)
            results[spec.start:spec.stop] = loaded
        # collect=False trusts the manifest outright: done shards are
        # never read here — that is the merge-on-read contract the atlas
        # layer depends on for million-cell sweeps.
        self.resumed += spec.cells - len(skip)
        self.resumed_shards += 1
        self.shard_stats.append({
            "id": spec.id,
            "cells": spec.cells,
            "executed": 0,
            "resumed": spec.cells - len(skip),
            "elapsed_s": 0.0,
            "cells_per_s": 0.0,
            "worker": None,
            "stolen": False,
            "retries": 0,
            "quarantined": len(skip),
        })
        return True

    def _dispatch(
        self,
        directory: str,
        manifest: ShardManifest,
        pending: list[ShardSpec],
        results: list[RunRecord | None] | None,
        workers: int,
        keys: list[str],
        quarantine: QuarantineLog,
        skips: dict[int, set[int]],
    ) -> None:
        cells = self.cells
        base = cells[0]
        base_dict = base.to_dict()
        n_workers = max(1, min(workers, len(pending)))
        capacity = max(spec.cells for spec in pending)
        self.fresh_shards = len(pending)
        liveness = self.liveness_timeout
        max_retries = self.max_shard_retries
        backoff = self.retry_backoff_s
        faults = (
            self.faults.bind(
                workers=n_workers, shards=len(manifest.shards), cells=len(cells)
            )
            if self.faults is not None
            else None
        )

        ctx = get_context()

        # Only a forked child holds copies of the parent's pipe ends.
        forked = ctx.get_start_method() == "fork"

        def spawn(child_conn, parent_ends: list, slab_name: str, index: int,
                  incarnation: int):
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, slab_name, capacity, base_dict, directory,
                      self.chunk_size, faults, index, incarnation,
                      liveness is not None,
                      tuple(parent_ends) if forked else ()),
                daemon=True,
            )
            proc.start()
            return proc

        sup = Supervisor(
            ctx=ctx,
            capacity=capacity,
            spawn=spawn,
            max_respawns=(
                self.max_respawns if self.max_respawns is not None else n_workers
            ),
        )

        remaining = len(pending)
        outstanding: dict[tuple[int, int], tuple[ShardSpec, bool]] = {}
        attempts: dict[int, int] = {}  # shard id → failures this retry window
        failures: dict[int, int] = {}  # shard id → failures, cumulative
        delayed: list[tuple[float, int, ShardSpec]] = []  # backoff heap
        seq = _counter()  # heap tiebreak (ShardSpec is not orderable)

        def next_spec(handle: WorkerHandle) -> tuple[ShardSpec | None, bool]:
            if handle.queue:
                return handle.queue.popleft(), False
            live = sup.live()
            victim = max(live, key=lambda h: len(h.queue), default=None)
            if victim is not None and victim.queue:
                self.stolen_chunks += 1
                return victim.queue.pop(), True  # coldest end of the queue
            return None, False

        def dispatch_to(handle: WorkerHandle) -> None:
            while handle.free_slots:
                spec, stolen = next_spec(handle)
                if spec is None:
                    return
                slot = handle.free_slots.pop()
                deltas = scenario_deltas(base, cells[spec.start:spec.stop])
                skip = sorted(skips.get(spec.id, ()))
                try:
                    handle.conn.send((
                        "shard", spec.id, slot, spec.file, spec.start,
                        deltas, skip, attempts.get(spec.id, 0),
                    ))
                except (BrokenPipeError, OSError):
                    # The worker died between results; give the shard and
                    # the slot back and let the wait loop reap it (EOF).
                    handle.free_slots.append(slot)
                    handle.queue.appendleft(spec)
                    return
                outstanding[(handle.index, slot)] = (spec, stolen)

        def finish_shard(
            spec: ShardSpec,
            shard_records: list[RunRecord] | None,
            executed: int,
            resumed: int,
            elapsed: float,
            worker: int | None,
            stolen: bool,
        ) -> None:
            nonlocal remaining
            skip = skips.get(spec.id, set())
            if results is not None and shard_records is not None:
                padded: list[RunRecord | None] = []
                it = iter(shard_records)
                for i in range(spec.start, spec.stop):
                    padded.append(None if i in skip else next(it))
                results[spec.start:spec.stop] = padded
            if skip:
                manifest.mark_quarantined(spec.id)
            else:
                manifest.mark_done(spec.id)
            self.executed += executed
            self.resumed += resumed
            self.shard_stats.append({
                "id": spec.id,
                "cells": spec.cells,
                "executed": executed,
                "resumed": resumed,
                "elapsed_s": elapsed,
                "cells_per_s": spec.cells / elapsed if elapsed > 0 else 0.0,
                "worker": worker,
                "stolen": stolen,
                "retries": failures.get(spec.id, 0),
                "quarantined": len(skip),
            })
            remaining -= 1

        def quarantine_cell(spec: ShardSpec, cell: int, tb: str, n: int) -> None:
            skips.setdefault(spec.id, set()).add(cell)
            quarantine.add(
                cell=cell, shard=spec.id, key=keys[cell], error=tb, attempts=n,
            )

        def probe_shard(spec: ShardSpec) -> None:
            """Drain one shard in the parent, isolating poison per cell.

            The shard runs through :func:`run_cells` again after each
            raising cell is quarantined; the cells finished so far
            resume from its file, so each surviving cell runs once
            while blame lands on exactly the cells that raise.  Used
            when a shard exhausts retries without an attributed cell,
            and as the serial fallback when no workers are left.
            """
            attempt = max(attempts.get(spec.id, 0), max_retries)
            check = None if faults is None else partial(
                faults.check_cell, attempt=attempt
            )
            deltas = scenario_deltas(base, cells[spec.start:spec.stop])
            executed = 0

            def write(fh, records: list[RunRecord], positions: list[int]) -> None:
                nonlocal executed
                append_batch(fh, records, base_dict, [deltas[p] for p in positions])
                executed += len(records)  # each fresh record is written once

            started = time.perf_counter()
            while True:
                try:
                    shard_records, _ = run_cells(
                        os.path.join(directory, spec.file),
                        cells[spec.start:spec.stop],
                        lambda: keys[spec.start:spec.stop],
                        EngineLease(),  # fresh: a raise may leave engine state
                        write, _shard_chunk_size(spec.cells, self.chunk_size),
                        start=spec.start, skip=skips.get(spec.id, ()),
                        check=check,
                    )
                    break
                except CellFailure as fail:
                    quarantine_cell(
                        spec, fail.cell, fail.tb, attempts.get(spec.id, 0) + 1
                    )
            finish_shard(
                spec, shard_records, executed, len(shard_records) - executed,
                time.perf_counter() - started, None, False,
            )

        def shard_failed(spec: ShardSpec, cell: int | None, tb: str) -> None:
            """Route one shard failure: backoff retry, quarantine, or probe."""
            n = attempts.get(spec.id, 0) + 1
            failures[spec.id] = failures.get(spec.id, 0) + 1
            self.retries += 1
            if n <= max_retries:
                attempts[spec.id] = n
                delay = min(backoff * (2 ** (n - 1)), _MAX_BACKOFF_S)
                heappush(delayed, (time.monotonic() + delay, next(seq), spec))
                return
            if cell is not None:
                # Attributed poison: quarantine the cell, finish the rest.
                quarantine_cell(spec, cell, tb, n)
                attempts[spec.id] = 0
                heappush(delayed, (time.monotonic(), next(seq), spec))
                return
            # Repeat killer with no attribution: isolate it in-process.
            probe_shard(spec)

        def reap(handle: WorkerHandle, reason: str) -> None:
            """Retire a dead/hung worker, requeue its work, respawn."""
            lost = [
                outstanding.pop(key)
                for key in [k for k in outstanding if k[0] == handle.index]
            ]
            sup.retire(handle)
            replacement = sup.respawn(handle)
            if replacement is None:
                live = sup.live()
                while handle.queue and live:
                    target = min(live, key=lambda h: len(h.queue))
                    target.queue.append(handle.queue.popleft())
                # No live workers: the queue stays put for the serial drain.
            for spec, _stolen in lost:
                shard_failed(spec, None, reason)

        try:
            handles = sup.start(n_workers)
            for i, spec in enumerate(pending):
                handles[i % n_workers].queue.append(spec)
            for handle in handles:
                dispatch_to(handle)
            while remaining:
                live = sup.live()
                if not live:
                    break  # respawn budget exhausted → serial fallback
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, spec = heappop(delayed)
                    target = min(live, key=lambda h: len(h.queue))
                    target.queue.append(spec)
                    dispatch_to(target)
                timeout = None
                if delayed:
                    timeout = max(0.0, delayed[0][0] - now)
                if liveness is not None:
                    tick = min(max(liveness / 4.0, 0.05), 1.0)
                    timeout = tick if timeout is None else min(timeout, tick)
                watched = sup.live()
                conn_map = {id(h.conn): h for h in watched}
                ready = mp_connection.wait([h.conn for h in watched], timeout)
                for conn in ready:
                    handle = conn_map[id(conn)]
                    if not handle.alive:
                        continue  # reaped earlier in this batch
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        msg = None
                    if msg is None:
                        # Reap outside the handler: a replacement forked
                        # inside it would carry this EOFError as the
                        # context of every traceback it quarantines.
                        reap(handle, "worker died (pipe closed mid-shard)")
                        continue
                    handle.last_seen = time.monotonic()
                    kind = msg[0]
                    if kind == "hb":
                        continue
                    if kind == "config":
                        # A bad configuration is no fault to retry or
                        # quarantine: it ends the sweep, as in serial.
                        raise ConfigurationError(msg[3])
                    if kind == "error":
                        _, shard_id, slot, cell, tb = msg
                        spec, _stolen = outstanding.pop((handle.index, slot))
                        handle.free_slots.append(slot)
                        shard_failed(spec, cell, tb)
                        dispatch_to(handle)
                        continue
                    _, shard_id, slot, executed, resumed, elapsed, objects = msg
                    spec, stolen = outstanding.pop((handle.index, slot))
                    skip = skips.get(spec.id, ())
                    live_cells = spec.cells - len(skip)
                    shard_records: list[RunRecord] | None = None
                    if results is not None:
                        batch = RecordBatch()
                        batch.scenarios = [
                            cells[i]
                            for i in range(spec.start, spec.stop)
                            if i not in skip
                        ]
                        batch.backend = objects["backend"]
                        batch.decisions = objects["decisions"]
                        batch.decision_rounds = objects["decision_rounds"]
                        batch.crashed = objects["crashed"]
                        batch.violations = objects["violations"]
                        for name, column in handle.slab.read(
                            slot, live_cells
                        ).items():
                            setattr(batch, name, column)
                        shard_records = batch.to_records()
                    handle.free_slots.append(slot)
                    attempts.pop(spec.id, None)
                    finish_shard(
                        spec, shard_records, executed, resumed, elapsed,
                        handle.index, stolen,
                    )
                    dispatch_to(handle)
                if liveness is not None:
                    for handle in sup.hung(liveness):
                        reap(
                            handle,
                            f"worker hung (> {liveness}s without a "
                            f"result or heartbeat)",
                        )
            if remaining:
                # Graceful degradation: every worker is gone and the
                # respawn budget is spent — drain what's left in-process
                # rather than abandoning a partially-swept directory.
                leftovers: list[ShardSpec] = []
                for handle in sup.handles:
                    while handle.queue:
                        leftovers.append(handle.queue.popleft())
                while delayed:
                    leftovers.append(heappop(delayed)[2])
                leftovers.sort(key=lambda s: s.id)
                for spec in leftovers:
                    probe_shard(spec)
        finally:
            self.respawns = sup.respawns
            sup.shutdown()
