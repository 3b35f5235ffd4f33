"""The five end-to-end workloads: inputs from a seed, timed reps, checks.

Every workload builds its inputs from ``seed`` alone, runs one *rep*
(a whole sweep down to its atlas or summary, or a whole service run)
per call, checks the outputs of every rep, and, in a traced cycle,
turns the spans of :mod:`tracing` into per-layer numbers.

The sharded sweeps' workers are separate processes, so their spans
would die with them; a traced cycle therefore replays the same cells in
this process through :func:`replay`, which makes the public calls a
shard worker makes, in the same order.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import itertools
import json
import math
import os
import shutil
import time
from dataclasses import asdict, dataclass, field

from repro.asyncsim.runner import AsyncRunner
from repro.fabric import atlas, shardio
from repro.fabric.faults import ServiceFaultPlan
from repro.fabric.manifest import ShardManifest
from repro.fabric.shm import ScalarSlab
from repro.rsm.log import ReplicatedLog
from repro.scenarios import scenario as scenario_mod
from repro.scenarios import sweep as sweep_mod
from repro.scenarios.execute import EngineLease
from repro.scenarios.record import RecordBatch, RunRecord
from repro.scenarios.scenario import Scenario
from repro.service import ClosedLoopWorkload, ConsensusService
from repro.service.ring import LeaderRing
from repro.service.sessions import SessionTable
from repro.service.traffic import Workload, command_stream
from repro.sync.engine import SynchronousEngine
from repro.util.rng import RandomSource

from tracing import Tracer

# ``repro.scenarios.execute`` the module is shadowed by the function of
# the same name on the package, so look the module up directly.
execute_mod = importlib.import_module("repro.scenarios.execute")

clock = time.perf_counter

#: Shard workers of the sharded sweeps; ``nproc`` on the reference host.
WORKERS = 2
#: Shard plan of every sharded run, pinned so one- and two-worker runs
#: write the same atlas.  The dispatcher's default (4 per worker) hands
#: each worker its second shard up front, so nothing is left to steal
#: and the tail imbalance varies a rep's wall by ±26% (IQR); 16 shards
#: keep it near ±11%.
SHARDS = 16

SYNC_ALGORITHMS = ("crw", "early-stopping", "floodset")


@dataclass(frozen=True)
class Sizes:
    """Input sizes: the full benchmark, or the self-tests' smoke size."""

    sync_n: tuple[int, ...]
    sync_adversaries: tuple[str, ...]
    sync_seeds: int
    async_grid: tuple[tuple[str, int], ...]
    async_seeds: int
    steady_clients: int
    steady_per_client: int
    storm_requests: int
    storm_faults: str
    min_reps: int


FULL = Sizes(
    sync_n=(8, 16, 32),
    sync_adversaries=("coordinator-killer", "staggered", "random"),
    sync_seeds=6,
    async_grid=(("mr99", 32), ("chandra-toueg", 32), ("ffd", 16)),
    async_seeds=6,
    steady_clients=8,
    steady_per_client=500,
    storm_requests=3000,
    storm_faults="kill:leader,after=50,every=400,count=3",
    min_reps=8,
)

SMOKE = Sizes(
    sync_n=(8,),
    sync_adversaries=("coordinator-killer",),
    sync_seeds=4,
    async_grid=(("mr99", 8), ("chandra-toueg", 8), ("ffd", 8)),
    async_seeds=1,
    steady_clients=8,
    steady_per_client=20,
    storm_requests=240,
    storm_faults="kill:leader,after=10,every=60,count=3",
    min_reps=2,
)


@dataclass
class Rep:
    """One rep: its timed wall, what it covered, and what its checks found."""

    wall: float
    items: int  # covered cells, or acked requests
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    latencies_ms: list[float] = field(default_factory=list)  # inf = not acked
    layers: dict[str, float] = field(default_factory=dict)
    slots: int = 0  # service: log slots committed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``inf`` entries sort last)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def us_per(seconds: float, count: int) -> float:
    return seconds * 1e6 / count if count else 0.0


def traced(tracer: Tracer | None, targets) -> contextlib.AbstractContextManager:
    """Wrap ``targets(tracer)`` for the block, or do nothing untraced.

    Installing scans the loaded modules, so callers start their clock
    inside the block.
    """
    return tracer.installed(targets(tracer)) if tracer is not None else contextlib.nullcontext()


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    return path


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------

#: Span name → per-layer metric: self time in microseconds per cell.
SWEEP_LAYERS = {
    "scenarios.scenario": "scenarios.scenario.us_per_cell",
    "scenarios.execute": "scenarios.execute.us_per_cell",
    "scenarios.record.normalize": "scenarios.record.normalize_us_per_cell",
    "scenarios.record.batch": "scenarios.record.batch_us_per_cell",
    "sync.engine.refill": "sync.engine.refill_us_per_cell",
    "sync.engine.reset": "sync.engine.reset_us_per_cell",
    "sync.engine.run": "sync.engine.run_us_per_cell",
    "asyncsim.runner.run": "asyncsim.runner.run_us_per_cell",
    "asyncsim.runner.refill": "asyncsim.runner.refill_us_per_cell",
    "ffd.consensus": "ffd.consensus.us_per_cell",
    "fabric.shardio.append": "fabric.shardio.append_us_per_cell",
    "fabric.shardio.index": "fabric.shardio.index_us_per_cell",
    "fabric.shm.write": "fabric.shm.write_us_per_cell",
    "fabric.shm.read": "fabric.shm.read_us_per_cell",
    "scenarios.sweep.flush": "scenarios.sweep.flush_us_per_cell",
    "fabric.atlas": "fabric.atlas.us_per_cell",
}


def sweep_targets(tracer: Tracer, cell_rid=None) -> list[tuple]:
    """Every public call on the sweep path, by layer."""
    lease = {"on_result": lambda engine: tracer.tally("lease", engine is not None)}
    refill = {"on_result": lambda ok: tracer.tally("refill", ok)}
    execute = {"rid_of": cell_rid} if cell_rid is not None else {}
    return [
        (Scenario, "with_", "scenarios.scenario"),
        ("repro.scenarios.scenario", "scenario_key", "scenarios.scenario"),
        ("repro.scenarios.scenario", "scenario_delta", "scenarios.scenario"),
        ("repro.scenarios.execute", "execute", "scenarios.execute", execute),
        (EngineLease, "get", "scenarios.execute.lease", lease),
        (SynchronousEngine, "refill", "sync.engine.refill", refill),
        (SynchronousEngine, "reset", "sync.engine.reset"),
        (SynchronousEngine, "run", "sync.engine.run"),
        (AsyncRunner, "refill", "asyncsim.runner.refill"),
        (AsyncRunner, "reset", "asyncsim.runner.reset"),
        (AsyncRunner, "run", "asyncsim.runner.run"),
        ("repro.ffd.consensus", "run_ffd_consensus", "ffd.consensus"),
        (RunRecord, "normalized", "scenarios.record.normalize"),
        (RecordBatch, "from_records", "scenarios.record.batch"),
        ("repro.fabric.shardio", "append_batch", "fabric.shardio.append"),
        ("repro.fabric.shardio", "load_shard_index", "fabric.shardio.index"),
        ("repro.fabric.shardio", "heal_torn_tail", "fabric.shardio.index"),
        (ScalarSlab, "create", "fabric.shm.alloc"),
        (ScalarSlab, "write", "fabric.shm.write"),
        (ScalarSlab, "read", "fabric.shm.read"),
        (ScalarSlab, "unlink", "fabric.shm.alloc"),
        (ShardManifest, "load_or_create", "fabric.manifest.load"),
        (ShardManifest, "mark_done", "fabric.manifest.save"),
        ("repro.fabric.atlas", "write_atlas", "fabric.atlas"),
        (sweep_mod.SweepRunner, "run", "scenarios.sweep.run"),
        # The serial writer's flush has no public name; it is the layer
        # boundary the serial sweep persists through.
        (sweep_mod.SweepRunner, "_flush", "scenarios.sweep.flush"),
        ("repro.scenarios.sweep", "summarize_records", "scenarios.sweep.summarize"),
    ]


def sweep_layers(tracer: Tracer, cells: int, traced_wall: float) -> dict[str, float]:
    own = tracer.self_by_name()
    layers = {metric: us_per(own.get(span, 0.0), cells)
              for span, metric in SWEEP_LAYERS.items()}
    layers["fabric.manifest.load_ms"] = sum(tracer.durations("fabric.manifest.load")) * 1e3
    layers["scenarios.execute.lease_hit_ratio"] = tracer.hit_ratio("lease")
    layers["sync.engine.refill_hit_ratio"] = tracer.hit_ratio("refill")
    layers["trace.coverage"] = sum(own.values()) / traced_wall
    return layers


def check_records(cells: list[Scenario], records: list) -> tuple[int, list[str]]:
    """Failed cells (violations, Theorem 1 breaches, missing) and why."""
    failed = abs(len(records) - len(cells))
    problems = [f"{len(records)} records for {len(cells)} cells"] if failed else []
    for cell, record in zip(cells, records):
        if record is None:
            failed += 1
            problems.append(f"no record for {scenario_mod.scenario_key(cell)}")
        elif record.scenario != cell:
            failed += 1
            problems.append(f"record out of order at {scenario_mod.scenario_key(cell)}")
        elif not record.spec_ok:
            failed += 1
            problems.append(f"spec violation {record.violations} in {record.summary()}")
        elif cell.algorithm == "crw" and record.last_decision_round > record.f_actual + 1:
            failed += 1
            problems.append(f"Theorem 1 (f + 1 rounds) broken: {record.summary()}")
    return failed, problems[:5]


def work_counts(records: list) -> dict[str, float]:
    """Exact work per cell: a change here is a behaviour change."""
    done = [r for r in records if r is not None]
    count = len(done) or 1
    return {
        "sync.engine.rounds_per_cell": sum(r.rounds_executed for r in done) / count,
        "net.messages_per_cell": sum(r.messages_sent for r in done) / count,
        "net.bits_per_cell": sum(r.bits_sent for r in done) / count,
    }


def sync_grid(seed: int, sizes: Sizes) -> list[Scenario]:
    grid = sweep_mod.expand_grid(
        SYNC_ALGORITHMS, sizes.sync_n,
        adversaries=sizes.sync_adversaries, seeds=sizes.sync_seeds,
    )
    offset = seed * sizes.sync_seeds
    return [cell.with_(seed=cell.seed + offset) for cell in grid]


def replay(
    cells: list[Scenario],
    directory: str,
    atlas_path: str,
    tracer: Tracer | None = None,
) -> tuple[list, list[str]]:
    """A sharded sweep of ``cells`` in this process, down to its atlas.

    The calls and their order follow the fabric: the parent's manifest
    and done-shard index loads, then per pending shard the worker's
    resume index, per cell ``with_`` → ``scenario_key`` → ``execute`` →
    ``normalized``, a batch append per flush, the slab write the parent
    reads back, and the manifest update; ``write_atlas`` last.
    """
    scenario_key = scenario_mod.scenario_key
    keys = [scenario_key(cell) for cell in cells]
    manifest = ShardManifest.load_or_create(directory, keys, SHARDS)
    base = cells[0]
    base_dict = base.to_dict()
    records: list = [None] * len(cells)
    problems: list[str] = []
    pending = []
    for spec in manifest.shards:
        path = os.path.join(directory, spec.file)
        if spec.status == "done" and os.path.exists(path):
            index = shardio.load_shard_index(path)
            loaded = [index.get(keys[i]) for i in range(spec.start, spec.stop)]
            if None not in loaded:
                records[spec.start:spec.stop] = loaded
                continue
        pending.append(spec)
    if pending:
        lease = EngineLease()
        slab = ScalarSlab.create(max(spec.cells for spec in pending))
        try:
            for spec in pending:
                deltas = [
                    scenario_mod.scenario_delta(base, cells[i])
                    for i in range(spec.start, spec.stop)
                ]
                path = os.path.join(directory, spec.file)
                done = {}
                if os.path.exists(path):
                    done = shardio.load_shard_index(path)
                    shardio.heal_torn_tail(path)
                # The worker's flush unit: ~4 appends a shard, 8..64 cells.
                flush_every = max(8, min(64, -(-spec.cells // 4)))
                shard: list[RunRecord] = []
                buffer: list[RunRecord] = []
                buffer_deltas: list[dict] = []
                with open(path, "a", encoding="utf-8") as fh:
                    for offset, delta in enumerate(deltas):
                        if tracer is not None:
                            tracer.rid = spec.start + offset
                        cell = base.with_(**delta) if delta else base
                        if done:
                            prior = done.get(scenario_key(cell))
                            if prior is not None:
                                shard.append(prior)
                                continue
                        record = execute_mod.execute(
                            cell, trace=False, lease=lease
                        ).normalized()
                        shard.append(record)
                        buffer.append(record)
                        buffer_deltas.append(delta)
                        if len(buffer) >= flush_every:
                            shardio.append_batch(fh, buffer, base_dict, buffer_deltas)
                            buffer.clear()
                            buffer_deltas.clear()
                    shardio.append_batch(fh, buffer, base_dict, buffer_deltas)
                if tracer is not None:
                    tracer.rid = None
                batch = RecordBatch.from_records(shard)
                slab.write(0, batch)
                returned = slab.read(0, len(batch))
                if returned["bits_sent"] != batch.bits_sent:
                    problems.append(f"shard {spec.id}: slab round trip changed bits")
                records[spec.start:spec.stop] = shard
                manifest.mark_done(spec.id)
        finally:
            slab.unlink()
    atlas.write_atlas(directory, atlas_path)
    return records, problems


class SweepSyncSharded:
    """3024 small synchronous cells over two shard workers, then the atlas."""

    name = "sweep_sync_sharded"

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.shard_dir = os.path.join(workdir, "shards")
        self.atlas_path = os.path.join(workdir, "atlas.json")
        self.reference: str | None = None  # atlas digest every rep must match
        self.cells: list[Scenario] = []
        self.tracer: Tracer | None = None

    def setup(self) -> None:
        self.cells = sync_grid(self.seed, self.sizes)

    def rep_dir(self) -> str:
        return fresh_dir(self.shard_dir)

    def finish(self, records: list, wall: float, items: int) -> Rep:
        """Check one rep's records and atlas; count its exact work."""
        failed, problems = check_records(self.cells, records)
        with open(self.atlas_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["covered_cells"] != len(self.cells) or doc["cells"] != len(self.cells):
            problems.append(
                f"atlas covers {doc['covered_cells']} of {doc['cells']} cells, "
                f"expected {len(self.cells)}"
            )
        digest = sha256_file(self.atlas_path)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"atlas digest {digest[:12]} != reference {self.reference[:12]}")
        layers = work_counts(records)
        shard_bytes = sum(
            os.path.getsize(os.path.join(self.shard_dir, name))
            for name in os.listdir(self.shard_dir) if name.endswith(".jsonl")
        )
        layers["fabric.shardio.bytes_per_cell"] = shard_bytes / len(self.cells)
        return Rep(wall, items, len(self.cells), failed, problems, digest, layers=layers)

    def rep(self, processes: int = WORKERS) -> Rep:
        directory = self.rep_dir()
        started = clock()
        runner = sweep_mod.SweepRunner(
            self.cells, executor="sharded", processes=processes,
            shards=SHARDS, jsonl_path=directory,
        )
        records = runner.run()
        atlas.write_atlas(directory, self.atlas_path)
        wall = clock() - started
        result = self.finish(records, wall, runner.executed + runner.resumed)
        if runner.retries or runner.respawns or runner.quarantined:
            result.problems.append(
                f"fabric recovered from faults in a fault-free sweep: retries="
                f"{runner.retries} respawns={runner.respawns} "
                f"quarantined={runner.quarantined}"
            )
        result.layers.update({
            "fabric.dispatcher.stolen": runner.stolen_chunks,
            "fabric.dispatcher.retries": runner.retries,
            "fabric.dispatcher.respawns": runner.respawns,
        })
        return result

    def replay_rep(self, tracer: Tracer | None) -> Rep:
        directory = self.rep_dir()
        with traced(tracer, sweep_targets):
            started = clock()
            records, problems = replay(self.cells, directory, self.atlas_path, tracer)
            wall = clock() - started
        result = self.finish(records, wall, sum(r is not None for r in records))
        result.problems.extend(problems)
        return result

    def trace_cycle(self) -> tuple[list[Rep], dict[str, float]]:
        two = self.rep()
        one = self.rep(processes=1)
        plain = self.replay_rep(None)
        self.tracer = Tracer()
        spanned = self.replay_rep(self.tracer)
        layers = dict(two.layers)
        layers.update(sweep_layers(self.tracer, len(self.cells), spanned.wall))
        layers["fabric.dispatcher.speedup_2w"] = (
            (two.items / two.wall) / (one.items / one.wall)
        )
        layers["fabric.dispatcher.parallel_efficiency"] = plain.wall / (WORKERS * two.wall)
        layers["trace.overhead_frac"] = spanned.wall / plain.wall - 1.0
        return [two, one, plain, spanned], layers


class SweepResume(SweepSyncSharded):
    """The sharded grid resumed from a half-written, torn shard directory."""

    name = "sweep_resume"

    def setup(self) -> None:
        """Sweep once, then undo half the work the way a kill would."""
        super().setup()
        self.prepared = os.path.join(self.workdir, "prepared")
        runner = sweep_mod.SweepRunner(
            self.cells, executor="sharded", processes=WORKERS,
            shards=SHARDS, jsonl_path=fresh_dir(self.prepared),
        )
        runner.run()
        atlas.write_atlas(self.prepared, self.atlas_path)
        # The uninterrupted sweep's atlas is what every resume must rebuild.
        self.reference = sha256_file(self.atlas_path)
        manifest = ShardManifest.load(self.prepared)
        odd = [spec for spec in manifest.shards if spec.id % 2 == 1]
        for spec in odd:
            spec.status = "pending"
            path = os.path.join(self.prepared, spec.file)
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(lines[: len(lines) // 2])
                if spec is odd[-1]:
                    fh.write('{"batch": {"base": ')  # a write cut off mid-line
        manifest.save()

    def rep_dir(self) -> str:
        shutil.copytree(self.prepared, fresh_dir(self.shard_dir))
        return self.shard_dir


class SweepAsyncSerial:
    """Heavy event-queue cells through the serial executor to one JSONL file."""

    name = "sweep_async_serial"

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.path = os.path.join(workdir, "sweep.jsonl")
        self.reference: str | None = None
        self.cells: list[Scenario] = []
        self.tracer: Tracer | None = None

    def setup(self) -> None:
        cells: list[Scenario] = []
        for algorithm, n in self.sizes.async_grid:
            cells += sweep_mod.expand_grid(
                [algorithm], [n], adversaries=("coordinator-killer",),
                seeds=self.sizes.async_seeds,
            )
        offset = self.seed * self.sizes.async_seeds
        self.cells = [cell.with_(seed=cell.seed + offset) for cell in cells]

    def _sweep(self) -> list:
        records = sweep_mod.SweepRunner(
            self.cells, executor="serial", jsonl_path=self.path
        ).run()
        self.summaries = sweep_mod.summarize_records(records)
        return records

    def rep(self, tracer: Tracer | None = None) -> Rep:
        if os.path.exists(self.path):
            os.remove(self.path)
        counter = itertools.count()  # the serial sweep runs cells in grid order

        def targets(tracer: Tracer) -> list[tuple]:
            return sweep_targets(tracer, lambda args, kwargs: next(counter))

        with traced(tracer, targets):
            started = clock()
            records = self._sweep()
            wall = clock() - started
        failed, problems = check_records(self.cells, records)
        digest = hashlib.sha256(json.dumps(
            [asdict(summary) for summary in self.summaries], sort_keys=True
        ).encode()).hexdigest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"summary digest {digest[:12]} != reference {self.reference[:12]}")
        return Rep(wall, len(records), len(self.cells), failed, problems, digest,
                   layers=work_counts(records))

    def trace_cycle(self) -> tuple[list[Rep], dict[str, float]]:
        plain = self.rep()
        self.tracer = Tracer()
        spanned = self.rep(self.tracer)
        layers = dict(plain.layers)
        layers.update(sweep_layers(self.tracer, len(self.cells), spanned.wall))
        layers["trace.overhead_frac"] = spanned.wall / plain.wall - 1.0
        return [plain, spanned], layers


# ---------------------------------------------------------------------------
# The consensus service.
# ---------------------------------------------------------------------------


class AckClock(SessionTable):
    """The service's session table, timestamping every ack it lets through."""

    __slots__ = ("acked",)

    def __init__(self) -> None:
        super().__init__()
        self.acked: dict[tuple[int, int], float] = {}

    def accept_ack(self, ack, ring) -> bool:
        accepted = super().accept_ack(ack, ring)
        if accepted:
            self.acked[(ack.session, ack.request_id)] = clock()
        return accepted


class AdmissionLog:
    """Per request: scheduled arrival and admission (virtual), admission (wall).

    The service numbers each session's requests 1, 2, ... in the order
    the workload hands them over, so the workload can name them too.
    """

    def _init_log(self) -> None:
        self.admitted: dict[tuple[int, int], tuple[float, float, float]] = {}
        self.last_settle = 0.0

    def _admit(self, keys_scheduled, now: float) -> None:
        stamp = clock()
        for key, scheduled in keys_scheduled:
            self.admitted[key] = (scheduled, now, stamp)

    def _settled(self) -> None:
        self.last_settle = clock()


class LoggedClosedLoop(AdmissionLog, ClosedLoopWorkload):
    """:class:`ClosedLoopWorkload`, logging admissions (due = admitted)."""

    def __init__(self, clients: int, per_client: int) -> None:
        super().__init__(clients, per_client)
        self._init_log()
        self._rids = dict.fromkeys(range(1, clients + 1), 0)

    def due(self, now: float) -> list[tuple[int, str]]:
        out = super().due(now)
        keys = []
        for session, _op in out:
            self._rids[session] += 1
            keys.append(((session, self._rids[session]), now))
        self._admit(keys, now)
        return out

    def on_settle(self, session: int, now: float) -> None:
        super().on_settle(session, now)
        self._settled()


class ScheduledOpenLoop(AdmissionLog, Workload):
    """Poisson arrivals, the same schedule as :class:`OpenLoopWorkload`.

    Built with the same draws (exponential gaps at ``rate``, sessions in
    round robin, each session's own command stream), and it keeps each
    request's *scheduled* arrival, so latency can be measured from when a
    request was due rather than from when the loop admitted it.
    """

    def __init__(self, clients: int, requests: int, *, rate: float,
                 rng: RandomSource, machine: str = "kv") -> None:
        self._init_log()
        self.total_requests = requests
        arrivals = []
        at = 0.0
        seqs = dict.fromkeys(range(1, clients + 1), 0)
        for i in range(requests):
            at += rng.exponential(1.0 / rate)
            session = i % clients + 1
            seq = seqs[session]
            seqs[session] = seq + 1
            arrivals.append((at, session, seq + 1, command_stream(machine, session, seq)))
        self._arrivals = arrivals
        self._next = 0

    def due(self, now: float) -> list[tuple[int, str]]:
        start = self._next
        arrivals = self._arrivals
        end = start
        while end < len(arrivals) and arrivals[end][0] <= now:
            end += 1
        self._next = end
        batch = arrivals[start:end]
        self._admit((((s, rid), at) for at, s, rid, _ in batch), now)
        return [(s, op) for _, s, _, op in batch]

    def next_arrival(self) -> float | None:
        if self._next < len(self._arrivals):
            return self._arrivals[self._next][0]
        return None

    def on_settle(self, session: int, now: float) -> None:
        self._settled()

    def exhausted(self) -> bool:
        return self._next >= len(self._arrivals)


def service_targets(tracer: Tracer, workload_cls: type, work: dict) -> list[tuple]:
    """Every public call on the request path, by layer."""

    def engine_ran(result) -> None:
        work["rounds"] += result.rounds_executed
        work["messages"] += result.stats.messages_sent
        work["bits"] += result.stats.bits_sent

    def slot_rid(args, kwargs):
        commands = args[1]
        return next(iter(commands.values())).tag if commands else None

    traffic = [(workload_cls, name, "service.traffic")
               for name in ("due", "next_arrival", "on_settle", "on_refuse", "exhausted")]
    return traffic + [
        (ConsensusService, "run", "service.loop"),
        (ReplicatedLog, "commit", "rsm.log.commit", {"rid_of": slot_rid}),
        (ReplicatedLog, "check_invariants", "rsm.log.check"),
        (SynchronousEngine, "refill", "sync.engine.refill",
         {"on_result": lambda ok: tracer.tally("refill", ok)}),
        (SynchronousEngine, "reset", "sync.engine.reset"),
        (SynchronousEngine, "run", "sync.engine.run", {"on_result": engine_ran}),
        (SessionTable, "committed", "service.sessions"),
        (SessionTable, "record_commit", "service.sessions"),
        (SessionTable, "accept_ack", "service.sessions",
         {"rid_of": lambda args, kwargs: (args[1].session, args[1].request_id)}),
        (LeaderRing, "observe_crashes", "service.ring"),
        (LeaderRing, "fences", "service.ring"),
        (ServiceFaultPlan, "kills_for", "service.faults"),
        (ServiceFaultPlan, "check_slot", "service.faults"),
    ]


class ServiceWorkload:
    """One whole service run per rep; latency from admission to ack.

    Reps cycle through :attr:`REALIZATIONS` sub-seeds of ``--seed`` (one
    arrival schedule and crash-point stream each), so a run's latencies
    do not hang on one schedule's queueing.  Traced cycles
    always serve sub-seed 0, which keeps their exact counts a function
    of ``--seed`` alone.
    """

    name = ""
    REALIZATIONS = 4

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.tracer: Tracer | None = None
        self.served = 0

    def setup(self) -> None:
        """The inputs are small specs; each rep builds its own service."""

    def build(self, seed: int) -> tuple[ConsensusService, AdmissionLog]:
        raise NotImplementedError

    def rep(self, tracer: Tracer | None = None, work: dict | None = None,
            realization: int | None = None) -> Rep:
        if realization is None:
            realization = self.served % self.REALIZATIONS
            self.served += 1
        service, workload = self.build(self.seed * self.REALIZATIONS + realization)
        table = service.table = AckClock()
        with traced(tracer, lambda t: service_targets(t, type(workload), work)):
            started = clock()
            report = service.run(workload)
            finished = clock()
        total = workload.total_requests
        acked = report.counters["acked"]
        failed = total - acked
        problems = []
        if not report.ok:
            problems.append(f"service report not ok: state={report.state} "
                            f"counters={report.counters}")
        if report.problems:
            problems.append(f"service problems: {report.problems[:3]}")
        if acked != report.counters["submitted"] or report.counters["submitted"] != total:
            problems.append(f"acked {acked} of {report.counters['submitted']} "
                            f"submitted, {total} offered")
        if len(set(report.digests.values())) != 1:
            problems.append(f"live replicas disagree: {report.digests}")
        wall_ms, virtual, lag = [], [], []
        for key, (scheduled, admitted_at, admitted_wall) in workload.admitted.items():
            req = service.requests.get(key)
            lag.append(admitted_at - scheduled)
            ack_wall = table.acked.get(key)
            if req is None or req.acked_at is None or ack_wall is None:
                wall_ms.append(math.inf)
                virtual.append(math.inf)
                continue
            wall_ms.append((ack_wall - admitted_wall) * 1e3)
            virtual.append(req.acked_at - scheduled)
        wall_ms += [math.inf] * (total - len(wall_ms))  # never admitted
        slots = service.log.slots
        rt = service.round_time
        counters = report.counters
        layers = {
            "service.req_wall_p99_ms": percentile(wall_ms, 99),
            "service.virtual_p99_rounds": percentile(virtual, 99) / rt if virtual else 0.0,
            "service.traffic.admit_lag_p99_rounds": percentile(lag, 99) / rt if lag else 0.0,
            "service.loop.verify_ms": (finished - workload.last_settle) * 1e3,
            "rsm.log.rounds_per_slot": sum(s.rounds for s in slots) / max(1, len(slots)),
            "service.loop.slots_per_ack": counters["slots"] / max(1, acked),
            "service.loop.retry_ratio": counters["retried"] / max(1, counters["submitted"]),
            "service.sessions.deduped": counters["deduped"],
            "service.sessions.rejected_stale": counters["rejected_stale"],
            "service.ring.rotations": report.rotations,
        }
        digest = next(iter(report.digests.values()), "")
        return Rep(finished - started, acked, total, failed, problems, digest,
                   wall_ms, layers, len(slots))

    def trace_cycle(self) -> tuple[list[Rep], dict[str, float]]:
        plain = self.rep(realization=0)
        self.tracer = tracer = Tracer()
        work = {"rounds": 0, "messages": 0, "bits": 0}
        spanned = self.rep(tracer, work, realization=0)
        own = tracer.self_by_name()
        slots = max(1, spanned.slots)
        requests = spanned.attempted
        commit_us = [d * 1e6 for d in tracer.durations("rsm.log.commit")]
        layers = dict(plain.layers)
        layers.update({
            "rsm.log.commit_us_p50": percentile(commit_us, 50),
            "rsm.log.commit_us_p99": percentile(commit_us, 99),
            "sync.engine.refill_us_per_slot": us_per(own.get("sync.engine.refill", 0.0), slots),
            "sync.engine.run_us_per_slot": us_per(own.get("sync.engine.run", 0.0), slots),
            "sync.engine.refill_hit_ratio": tracer.hit_ratio("refill"),
            "sync.engine.rounds_per_cell": work["rounds"] / slots,
            "net.messages_per_cell": work["messages"] / slots,
            "net.bits_per_cell": work["bits"] / slots,
            "service.traffic.us_per_request": us_per(own.get("service.traffic", 0.0), requests),
            "service.loop.us_per_request": us_per(own.get("service.loop", 0.0), requests),
            "service.sessions.us_per_request": us_per(own.get("service.sessions", 0.0), requests),
            "trace.coverage": sum(own.values()) / spanned.wall,
            "trace.overhead_frac": spanned.wall / plain.wall - 1.0,
        })
        return [plain, spanned], layers


class ServiceSteady(ServiceWorkload):
    """Closed loop, no faults: every slot commits in one round."""

    name = "service_steady"

    def build(self, seed: int):
        service = ConsensusService(5, t=3, machine="kv", seed=seed)
        workload = LoggedClosedLoop(self.sizes.steady_clients, self.sizes.steady_per_client)
        return service, workload


class ServiceStorm(ServiceWorkload):
    """Open-loop Poisson traffic through a storm of leader kills."""

    name = "service_storm"

    #: Arrivals per virtual round.  After the third kill a slot takes 4
    #: rounds, so this is 64% utilization: no request of 800 sub-seeds
    #: failed (worst p99 52 rounds, against a retry budget of ~127).  At
    #: 0.2 one sub-seed in 200 fails requests; at 0.25 every one does.
    RATE = 0.16

    def build(self, seed: int):
        plan = ServiceFaultPlan.from_spec(self.sizes.storm_faults, seed=seed)
        service = ConsensusService(7, t=5, seed=seed, faults=plan)
        workload = ScheduledOpenLoop(
            8, self.sizes.storm_requests, rate=self.RATE, rng=RandomSource(seed),
        )
        return service, workload


WORKLOADS = {
    cls.name: cls
    for cls in (SweepSyncSharded, SweepAsyncSerial, SweepResume, ServiceSteady, ServiceStorm)
}

