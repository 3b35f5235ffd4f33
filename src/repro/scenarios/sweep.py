"""Grid sweeps over scenarios: two executors, one shard-file format.

:class:`SweepRunner` takes any iterable of :class:`Scenario` cells and
executes them under a chosen executor:

* ``"serial"`` — in-process loop (debuggable, zero overhead), persisting
  to one JSONL file;
* ``"sharded"`` — the :mod:`repro.fabric` work-stealing executor:
  ``jsonl_path`` names a shard *directory* (manifest + one JSONL file
  per shard), results return through shared-memory scalar slabs, and
  resume is shard-wise off the manifest.  See
  :class:`repro.fabric.ShardedSweep`.

Both executors persist through :mod:`repro.fabric.shardio`: one
``{"batch": <RecordBatch payload>}`` line per flushed chunk, torn tails
healed before any append, and a per-cell resume index that also decodes
the retired one-record-per-line ``{"record": ...}`` layout, so old files
still resume.  Every cell reaches its file through one loop,
:func:`~repro.fabric.shardio.run_cells`, in the serial executor and in
the shard workers alike.  With a ``jsonl_path`` every finished record
is persisted, and a rerun **resumes**: cells whose canonical scenario
key already appears in the file are loaded instead of re-run.  Lines
that do not decode (the torn tail of an interrupted sweep, foreign or
incompatible JSONL) are skipped, and their cells simply re-run.  Serial
writes are flushed once per ``chunk_size`` cells, and at least every
:attr:`SweepRunner.FLUSH_INTERVAL_S` seconds, so an interrupted sweep
of slow cells loses little work.

A cell that raises :class:`~repro.errors.ConfigurationError` ends the
sweep with that error on both executors.  Any other exception ends a
serial sweep as it is; the sharded executor retries and quarantines it.

Duplicate cells run once.  Results come back in input order and are
byte-identical across executors (``tests/scenarios/test_sweep.py``,
``tests/scenarios/test_columnar_parity.py``).
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.scenarios.execute import EngineLease
from repro.scenarios.record import RecordBatch, RunRecord
from repro.scenarios.registry import ADVERSARIES, ALGORITHMS
from repro.scenarios.scenario import (
    Scenario,
    config_identity,
    identity_key,
    scenario_key,
)

__all__ = [
    "SweepRunner",
    "expand_grid",
    "CellGroups",
    "CellSummary",
    "summarize_records",
    "summarize_record_sources",
]


def expand_grid(
    algorithms: Sequence[str],
    n_values: Sequence[int],
    *,
    f_values: Sequence[int] | None = None,
    adversaries: Sequence[str] = ("none",),
    seeds: int = 1,
    t_rule: Callable[[str, int], int | None] | None = None,
    base: Scenario | None = None,
) -> list[Scenario]:
    """Expand a cartesian grid into scenario cells.

    ``f_values=None`` means "0..t for crashing adversaries, 0 for none".
    ``t_rule(algorithm, n)`` may pin ``t`` per cell; by default the
    algorithm's own rule applies (``t=None`` in the scenario).  ``base``
    supplies non-grid fields (workload, timing, params).

    Explicit ``f_values`` exceeding a combination's effective ``t``, and
    (algorithm, adversary) pairs the adversary's backend plans cannot
    serve, are dropped with a :class:`UserWarning` (a mixed grid
    legitimately caps ``f`` or pairs adversaries per algorithm, but
    silent drops would fake coverage — and an incompatible cell would
    otherwise abort the sweep mid-run); a grid that expands to zero
    cells is an error.
    """
    template = base if base is not None else Scenario(algorithm="crw", n=1)
    cells: list[Scenario] = []
    dropped: list[str] = []
    for algorithm in algorithms:
        algo = ALGORITHMS.get(algorithm)
        for n in n_values:
            t = t_rule(algorithm, n) if t_rule is not None else None
            effective_t = t if t is not None else algo.default_t(n)
            for adversary in adversaries:
                adv = ADVERSARIES.get(adversary)
                plan = (
                    adv.make_sync
                    if algo.backend in ("extended", "classic")
                    else adv.make_timed
                )
                if plan is None:
                    dropped.append(
                        f"{algorithm} ({algo.backend}): adversary {adversary!r} "
                        f"has no plan for that backend"
                    )
                    continue
                if f_values is not None:
                    fs = [f for f in f_values if f <= effective_t]
                    if len(fs) < len(f_values):
                        dropped.append(
                            f"{algorithm} n={n} {adversary}: "
                            f"f={sorted(set(f_values) - set(fs))} > t={effective_t}"
                        )
                elif adversary == "none":
                    fs = [0]
                else:
                    fs = list(range(0, effective_t + 1))
                for f in fs:
                    for seed in range(seeds):
                        cells.append(template.with_(
                            algorithm=algorithm,
                            n=n,
                            t=t,
                            f=f,
                            adversary=adversary,
                            seed=seed,
                        ))
    if dropped and cells:  # fully-empty grids raise below instead
        warnings.warn(
            "expand_grid dropped unexpressible cells: " + "; ".join(dropped),
            UserWarning,
            stacklevel=2,
        )
    if not cells:
        # A silently empty grid would let `scenario sweep` "pass" without
        # running anything; the usual cause is every requested f exceeding
        # the effective t for the given algorithms and n values.
        raise ConfigurationError(
            f"grid expanded to zero cells (algorithms={list(algorithms)}, "
            f"n={list(n_values)}, f={list(f_values) if f_values is not None else 'auto'}, "
            f"adversaries={list(adversaries)}, seeds={seeds})"
        )
    return cells


class SweepRunner:
    """Execute a list of scenario cells with persistence and resume.

    Parameters
    ----------
    scenarios:
        The cells to run (ordering is preserved in the results).
    executor:
        ``"serial"`` or ``"sharded"`` (the :mod:`repro.fabric`
        work-stealing executor; ``jsonl_path`` then names a shard
        *directory*).
    chunk_size:
        Cells per flush (serial; default 32) or per shard-worker flush
        (sharded; default auto-sized by the fabric).
    jsonl_path:
        Serial: an append-mode JSONL file.  Sharded: a shard directory.
        Records already persisted there are treated as completed cells
        (resume).
    processes, shards, faults, liveness_timeout, max_respawns, max_shard_retries, retry_backoff_s:
        Fabric options, passed through to
        :class:`repro.fabric.ShardedSweep` (worker count, shard count for
        a fresh plan, fault injection, hung-worker detection, respawn
        budget, retry/quarantine policy).  ``None`` keeps the fabric's
        defaults; setting any of them with the serial executor is an
        error.  A sweep that quarantined poison cells returns ``None`` at
        their positions (see :attr:`quarantined`).
    """

    #: Serial executor: flush the JSONL buffer at least this often even
    #: when the per-count threshold is not reached, so sweeps over slow
    #: cells keep near-per-record durability.
    FLUSH_INTERVAL_S = 2.0

    def __init__(
        self,
        scenarios: Iterable[Scenario],
        *,
        executor: str = "serial",
        processes: int | None = None,
        chunk_size: int | None = None,
        jsonl_path: str | os.PathLike[str] | None = None,
        shards: int | None = None,
        faults: Any | None = None,
        liveness_timeout: float | None = None,
        max_respawns: int | None = None,
        max_shard_retries: int | None = None,
        retry_backoff_s: float | None = None,
    ) -> None:
        self.scenarios = list(scenarios)
        if executor not in ("serial", "sharded"):
            raise ConfigurationError(
                f"unknown executor {executor!r}; available: serial, sharded"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if processes is not None and processes < 1:
            raise ConfigurationError(f"processes must be >= 1, got {processes}")
        fabric = {
            "processes": processes,
            "shards": shards,
            "faults": faults,
            "liveness_timeout": liveness_timeout,
            "max_respawns": max_respawns,
            "max_shard_retries": max_shard_retries,
            "retry_backoff_s": retry_backoff_s,
        }
        #: The fabric options actually set (None keeps the fabric's own
        #: defaults), forwarded verbatim to ShardedSweep.
        self._fabric_options = {k: v for k, v in fabric.items() if v is not None}
        if self._fabric_options and executor != "sharded":
            raise ConfigurationError(
                f"{', '.join(self._fabric_options)} require(s) the sharded "
                f"executor (workers, shards and supervision live in the "
                f"fabric dispatcher), got executor={executor!r}"
            )
        self.executor = executor
        self.chunk_size = chunk_size
        self.jsonl_path = os.fspath(jsonl_path) if jsonl_path is not None else None
        #: Cells actually executed by the last :meth:`run` (excludes resumed).
        self.executed = 0
        #: Cells loaded from the JSONL file by the last :meth:`run`.
        self.resumed = 0
        #: Wall-clock seconds spent inside the last :meth:`run`.
        self.elapsed = 0.0
        #: Sharded executor only: shard counts, steal count, per-shard stats
        #: (see :class:`repro.fabric.ShardedSweep`); zero/empty otherwise.
        self.resumed_shards = 0
        self.fresh_shards = 0
        self.stolen_chunks = 0
        self.shard_stats: list[dict[str, Any]] = []
        #: Sharded executor supervision counters: shard failures handled,
        #: replacement workers spawned, quarantined cells; zero otherwise.
        self.retries = 0
        self.respawns = 0
        self.quarantined = 0

    def run(self) -> list[RunRecord | None]:
        """Run every pending cell; return records for *all* cells, in order.

        Each unique cell runs (or resumes) once.  Duplicate cells get an
        independent copy per position — callers could mutate one
        occurrence's containers in place, and aliasing would silently
        edit the others.  Quarantined cells (sharded) come back as None.
        """
        started = time.perf_counter()
        self._check_path()
        keys = [scenario_key(s) for s in self.scenarios]
        unique: dict[str, Scenario] = {}
        for scenario, key in zip(self.scenarios, keys):
            unique.setdefault(key, scenario)
        execute_unique = (
            self._run_sharded if self.executor == "sharded" else self._run_serial
        )
        try:
            done = execute_unique(list(unique.values()), list(unique))
        finally:
            self.elapsed = time.perf_counter() - started
        out: list[RunRecord | None] = []
        emitted: set[str] = set()
        for key in keys:
            record = done[key]
            if record is not None and key in emitted:
                record = record.normalized()  # fresh containers, equal value
            else:
                emitted.add(key)
            out.append(record)
        return out

    def _check_path(self) -> None:
        """Refuse a persistence path of the wrong kind before any cell runs."""
        path, sharded = self.jsonl_path, self.executor == "sharded"
        if path is None or not os.path.exists(path) or os.path.isdir(path) == sharded:
            return
        want, got = (("a shard directory", "file") if sharded
                     else ("one JSONL file", "directory"))
        raise ConfigurationError(
            f"the {self.executor} executor persists to {want}, but {path!r} "
            f"is a {got}; point jsonl_path (--jsonl) elsewhere or switch "
            f"executor"
        )

    def _flush(self, fh, records: list[RunRecord]) -> None:
        """Persist one chunk of finished records as one batch line."""
        if fh is not None:
            from repro.fabric import shardio

            shardio.append_batch(fh, records)

    def _run_serial(
        self, cells: list[Scenario], keys: list[str]
    ) -> dict[str, RunRecord]:
        """Run the unique cells in-process; key → normalized record."""
        from repro.fabric import shardio

        self.executed = self.resumed = 0
        try:
            records, self.executed = shardio.run_cells(
                self.jsonl_path, cells, lambda: keys, EngineLease(),
                lambda fh, chunk, _positions: self._flush(fh, chunk),
                self.chunk_size or 32, interval=self.FLUSH_INTERVAL_S,
            )
        except shardio.CellFailure as fail:
            error = fail.error
        else:
            self.resumed = len(records) - self.executed
            return dict(zip(keys, records))
        raise error

    def _run_sharded(
        self, cells: list[Scenario], keys: list[str]
    ) -> dict[str, RunRecord | None]:
        """Delegate the unique cells to the :mod:`repro.fabric` executor.

        ``jsonl_path`` is the shard directory (an ephemeral one when no
        path was given); the fabric's stats map back onto the runner's
        counters.
        """
        from repro.fabric.dispatcher import ShardedSweep

        fabric = ShardedSweep(
            cells,
            directory=self.jsonl_path,
            chunk_size=self.chunk_size,
            keys=keys,  # already computed for the dedupe
            **self._fabric_options,
        )
        records = fabric.run()
        for counter in ("executed", "resumed", "resumed_shards", "fresh_shards",
                        "stolen_chunks", "shard_stats", "retries", "respawns",
                        "quarantined"):
            setattr(self, counter, getattr(fabric, counter))
        return dict(zip(keys, records))


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CellSummary:
    """Aggregate of the seeds of one (algorithm, n, t, f, adversary) cell."""

    algorithm: str
    n: int
    t: int | None
    f: int
    adversary: str
    seeds: int
    mean_last_round: float
    max_last_round: int
    mean_messages: float
    mean_bits: float
    spec_ok: bool
    #: Mean simulated completion time; None for the round-based backends
    #: (for ffd this is the metric that matters — rounds are always 0).
    mean_sim_time: float | None = None


class _CellAggregate:
    """Incremental accumulator for one cell group (streaming summaries)."""

    __slots__ = ("scenario", "seeds", "sum_rounds", "max_round",
                 "sum_messages", "sum_bits", "spec_ok", "sum_time", "n_time")

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario  # the group's configuration, any seed
        self.seeds = 0
        self.sum_rounds = 0
        self.max_round = 0
        self.sum_messages = 0
        self.sum_bits = 0
        self.spec_ok = True
        self.sum_time = 0.0
        self.n_time = 0

    def add(
        self,
        last_round: int,
        messages: int,
        bits: int,
        spec_ok: bool,
        sim_time: float | None,
    ) -> None:
        """Fold one cell's ``last_decision_round``, ``messages_sent``,
        ``bits_sent``, ``spec_ok`` and ``sim_time``."""
        self.seeds += 1
        self.sum_rounds += last_round
        if last_round > self.max_round or self.seeds == 1:
            self.max_round = last_round
        self.sum_messages += messages
        self.sum_bits += bits
        self.spec_ok = self.spec_ok and spec_ok
        if sim_time is not None:
            self.sum_time += sim_time
            self.n_time += 1

    def summary(self) -> CellSummary:
        s = self.scenario
        return CellSummary(
            algorithm=s.algorithm,
            n=s.n,
            t=s.t,
            f=s.f,
            adversary=s.adversary,
            seeds=self.seeds,
            mean_last_round=self.sum_rounds / self.seeds,
            max_last_round=self.max_round,
            mean_messages=self.sum_messages / self.seeds,
            mean_bits=self.sum_bits / self.seeds,
            spec_ok=self.spec_ok,
            mean_sim_time=self.sum_time / self.n_time if self.n_time else None,
        )


class CellGroups:
    """One :class:`_CellAggregate` per configuration (everything but the seed).

    Groups are keyed by :func:`~repro.scenarios.scenario.config_identity`,
    the same per-configuration identity the canonical keys are spliced
    from, so records built from live scenarios and records resumed
    through ``json.loads`` land in one group exactly when their keys
    differ only in the seed.  Sums accumulate in the order cells are
    added; :meth:`summaries` orders the rows.
    """

    __slots__ = ("_groups",)

    def __init__(self) -> None:
        self._groups: dict[tuple, _CellAggregate] = {}

    def aggregate(self, config: Scenario) -> _CellAggregate:
        """The accumulator of ``config``'s group (created on first sight)."""
        key = config_identity(config)
        agg = self._groups.get(key)
        if agg is None:
            agg = self._groups[key] = _CellAggregate(config)
        return agg

    def add_record(self, record: RunRecord) -> None:
        self.aggregate(record.scenario).add(
            record.last_decision_round,
            record.messages_sent,
            record.bits_sent,
            record.spec_ok,
            record.sim_time,
        )

    def summaries(self) -> list[CellSummary]:
        """One row per group, ordered by (algorithm, n, t, f, adversary)
        and then the full non-seed configuration's canonical JSON."""

        def order(item: tuple[tuple, _CellAggregate]) -> tuple:
            identity, agg = item
            s = agg.scenario
            return (
                s.algorithm,
                s.n,
                -1 if s.t is None else s.t,  # t=None ("auto") sorts first
                s.f,
                s.adversary,
                identity_key(identity, 0),  # the configuration's JSON at seed 0
            )

        return [agg.summary() for _, agg in sorted(self._groups.items(), key=order)]


def summarize_record_sources(
    sources: Iterable[Iterable[RunRecord] | RecordBatch],
) -> list[CellSummary]:
    """Streaming :func:`summarize_records` over multiple record sources.

    Each source is any record iterable (a list, a lazy generator over one
    shard file — see :func:`repro.fabric.atlas.iter_shard_records`) or a
    :class:`RecordBatch`.  Aggregation is incremental: only one
    accumulator per distinct cell group stays in memory, never the
    records themselves, so a million-cell sweep spread over per-shard
    files reduces in shard-file-sized working memory.  The output —
    grouping, ordering, and every mean — is identical to feeding all
    records to :func:`summarize_records` at once (sums accumulate in the
    same record order).
    """
    groups = CellGroups()
    for source in sources:
        if isinstance(source, RecordBatch):
            source = source.to_records()
        for record in source:
            groups.add_record(record)
    return groups.summaries()


def summarize_records(
    records: Iterable[RunRecord] | RecordBatch,
) -> list[CellSummary]:
    """Group records by cell (everything but the seed) and aggregate.

    Accepts any record iterable or a :class:`RecordBatch`.  Cells
    differing only in workload/timing/params get separate rows (their
    displayed columns may coincide; the averages never mix).  Grouping
    runs over cheap per-record tuples into incremental per-group
    accumulators (records are never retained); the canonical non-seed
    config JSON is computed once per **group**, only to order the output
    rows.  For many sources — e.g. per-shard files — use
    :func:`summarize_record_sources` directly.
    """
    return summarize_record_sources((records,))
