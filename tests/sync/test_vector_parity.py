"""Vector-stepping parity: columnar tables must match per-process runs.

The vector stepping protocol (``repro.sync.api.VectorAlgorithm``)
replaces the per-process send/compute calls with whole-column operations
over int64 columns (numpy or ``array``) or object columns (plain lists,
any value type).  The engine auto-detects a registered vector table
whenever tracing is off, so this grid is the contract: for every
algorithm that registered one, a vector run must be **byte-identical**
to the per-process reference — the normalized RunRecord and every
MessageStats counter — across adversaries, seeds, value types and
engine reuse (fresh / leased / refilled).

The same file runs under ``REPRO_NO_NUMPY=1`` in CI, pinning the stdlib
``array`` fallback to the same bytes.  The generated crash-round grid
below also switches backends in process, so both run in every job that
has numpy.

Crash rounds are where the vector tables take shortcuts: the flooding
tables fold the full broadcasts once and patch up only the receivers a
truncated (crashing) sender reached, and every table hands the engine
its payloads' bit widths.  The generated grid, the multi-truncation
cells and the width contract below pin those shortcuts.
"""

from __future__ import annotations

import contextlib
import warnings
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.payload import SizedValue, bit_size
from repro.scenarios import ADVERSARIES, ALGORITHMS, EngineLease, Scenario, execute
from repro.scenarios.registry import WORKLOADS, WorkloadDef, register_workload
from repro.sync.api import _VECTOR_TABLES, vector_table_for
from repro.sync.crash import CrashEvent, CrashPoint, CrashSchedule, Subset
from repro.util import columns
from repro.util.rng import RandomSource

#: Test-only workloads, registered for this module's duration: random
#: bools, and random picks from 1 / True / 1.0 — equal values of three
#: types, which size and serialize differently.
_TEST_WORKLOADS = (
    WorkloadDef("test-bools", lambda n, rng, params: rng.bools(n)),
    WorkloadDef(
        "test-ties",
        lambda n, rng, params: [(1, True, 1.0)[i] for i in rng.randints(n, 0, 2)],
    ),
)


@pytest.fixture(scope="module", autouse=True)
def _test_workloads():
    for workload in _TEST_WORKLOADS:
        register_workload(workload)
    yield
    for workload in _TEST_WORKLOADS:
        WORKLOADS._entries.pop(workload.name)


#: Value-type workloads every vector table must step exactly like the
#: reference: id -> Scenario fields.
WORKLOAD_CASES = {
    "sized": {"workload": "sized", "workload_params": {"bits": 16}},
    "identical-str": {"workload": "identical", "workload_params": {"value": "v"}},
    "identical-float": {"workload": "identical", "workload_params": {"value": 2.5}},
    "bools": {"workload": "test-bools"},
    "ties": {"workload": "test-ties"},
}

#: Algorithms whose tables order values by ``value_key`` and so decline
#: the 1 / True / 1.0 ties (the reference's pick would depend on set order).
KEY_ORDERED = ("early-stopping", "floodset")


def _has_vtable(name: str) -> bool:
    algo = ALGORITHMS.get(name)
    if algo.backend not in ("extended", "classic") or algo.factory is None:
        return False
    procs = algo.factory(3, 2, [1, 2, 3], {})
    return vector_table_for(procs) is not None


VECTOR_ALGORITHMS = sorted(
    name for name in ALGORITHMS.names() if _has_vtable(name)
)

EXTENDED_ADVERSARIES = sorted(
    name for name, adv in ADVERSARIES.items() if adv.make_sync is not None
)
CLASSIC_ADVERSARIES = ["none", "staggered", "random"]


def _cells():
    for algorithm in VECTOR_ALGORITHMS:
        backend = ALGORITHMS.get(algorithm).backend
        adversaries = (
            EXTENDED_ADVERSARIES if backend == "extended" else CLASSIC_ADVERSARIES
        )
        for adversary in adversaries:
            yield algorithm, adversary


def test_hot_algorithms_are_vectorized():
    """The algorithms the issue names must actually carry vector tables."""
    for name in ("crw", "eager-crw", "truncated-crw", "increasing-commit-crw",
                 "full-broadcast-crw", "floodset", "early-stopping"):
        assert name in VECTOR_ALGORITHMS, f"{name} lost its vector table"


def _record_cells():
    for algorithm, adversary in _cells():
        for seed in (0, 1, 2, 7, 13):
            yield algorithm, adversary, "distinct-ints", seed
        for workload in WORKLOAD_CASES:
            for seed in (0, 7):
                yield algorithm, adversary, workload, seed
        if algorithm == "floodset":
            for seed in (0, 7):
                yield algorithm, adversary, "wide", seed


def _scenario(algorithm, adversary, workload, seed) -> Scenario:
    if workload == "wide":
        # 72 distinct values: a FloodSet universe past any machine word.
        return Scenario(algorithm=algorithm, n=72, t=4, f=2,
                        adversary=adversary, seed=seed)
    return Scenario(algorithm=algorithm, n=6, f=2, adversary=adversary,
                    seed=seed, **WORKLOAD_CASES.get(workload, {}))


@pytest.mark.parametrize("algorithm,adversary,workload,seed", list(_record_cells()))
def test_records_and_stats_identical(algorithm, adversary, workload, seed):
    scenario = _scenario(algorithm, adversary, workload, seed)
    declines = workload == "ties" and algorithm in KEY_ORDERED
    vector = execute(scenario, batched=None if declines else True)
    reference = execute(scenario, batched=False)

    # The normalized record agrees field for field (to_dict drops `raw`).
    assert vector.to_dict() == reference.to_dict()

    # And the raw per-kind counters agree individually — messages_sent /
    # bits_sent alone could mask compensating errors between kinds or
    # between the sent and delivered sides.
    assert vector.raw.stats == reference.raw.stats


@pytest.mark.parametrize("algorithm", VECTOR_ALGORITHMS)
def test_auto_mode_engages_the_vector_table(algorithm):
    """``batched=None`` with tracing off must pick the vector path —
    and still produce the reference bytes."""
    from repro.sync.engine import ClassicSynchronousEngine
    from repro.sync.extended import ExtendedSynchronousEngine

    scenario = Scenario(algorithm=algorithm, n=5, f=1, adversary="staggered", seed=3)
    auto = execute(scenario)
    explicit = execute(scenario, batched=True)
    reference = execute(scenario, batched=False)
    assert auto.to_dict() == explicit.to_dict() == reference.to_dict()

    # The auto-detected engine really holds a vector table, on both
    # engine classes.
    algo = ALGORITHMS.get(algorithm)
    procs = algo.factory(5, 4, [1, 2, 3, 4, 5], {})
    cls = (
        ExtendedSynchronousEngine if algo.backend == "extended"
        else ClassicSynchronousEngine
    )
    engine = cls(procs, t=4, trace=False)
    assert engine._vtable is not None


class TestLeasedAndRefilled:
    """Engine reuse: a leased (refilled/reset) vector engine stays exact."""

    @pytest.mark.parametrize("algorithm", VECTOR_ALGORITHMS)
    def test_leased_runs_identical(self, algorithm):
        scenario = Scenario(
            algorithm=algorithm, n=9, f=3, adversary="staggered",
        )
        lease = EngineLease()
        for seed in range(8):
            cell = scenario.with_(seed=seed)
            fresh = execute(cell)
            leased = execute(cell, lease=lease)
            assert fresh.to_dict() == leased.to_dict(), (algorithm, seed)
        # One configuration -> one cached engine, and it runs vectorized.
        assert len(lease) == 1
        (engine,) = lease._engines.values()
        assert getattr(engine, "_vtable", None) is not None

    def test_vector_and_other_modes_key_separately(self):
        scenario = Scenario(algorithm="crw", n=5, f=1, adversary="coordinator-killer")
        lease = EngineLease()
        a = execute(scenario, lease=lease, batched=None)
        b = execute(scenario, lease=lease, batched=True)
        c = execute(scenario, lease=lease, batched=False)
        assert a.to_dict() == b.to_dict() == c.to_dict()
        assert len(lease) == 3  # distinct keys: the flags shape the engine

    @pytest.mark.parametrize("algorithm", VECTOR_ALGORITHMS)
    def test_refill_across_value_types(self, algorithm):
        """One configuration whose seeds draw 1 / True / 1.0: the leased
        engine refills across column kinds (int64 <-> object), across
        universes of equal but distinguishable values, and into and out
        of declined tables — and every run stays exact."""
        base = Scenario(algorithm=algorithm, n=3, f=1, adversary="staggered",
                        workload="test-ties")
        lease = EngineLease()
        for seed in range(40):
            cell = base.with_(seed=seed)
            leased = execute(cell, lease=lease)
            assert leased.to_dict() == execute(cell, batched=False).to_dict(), (
                algorithm, seed,
            )
        assert len(lease) == 1

    @pytest.mark.parametrize("algorithm", VECTOR_ALGORITHMS)
    def test_engine_refill_keeps_equal_values_of_different_types_apart(
        self, algorithm
    ):
        """``engine.refill`` straight from 1 to True to 1.0 (and 0.0 to
        -0.0, ints to strs to SizedValues): equal values that size and
        serialize differently must not inherit the previous run's
        column or universe."""
        from repro.sync.engine import ClassicSynchronousEngine
        from repro.sync.extended import ExtendedSynchronousEngine

        algo = ALGORITHMS.get(algorithm)
        cls = (
            ExtendedSynchronousEngine if algo.backend == "extended"
            else ClassicSynchronousEngine
        )
        n, t = 4, 3
        runs = [[1] * n, [True] * n, [1.0] * n, [0.0] * n, [-0.0] * n,
                [5, 6, 7, 8], ["a", "b", "c", "d"], [SizedValue(3, 8)] * n,
                [1] * n]
        engine = None
        for proposals in runs:
            if engine is None:
                engine = cls(algo.factory(n, t, proposals, {}), t=t, trace=False)
            else:
                assert engine.refill(proposals), proposals
            assert engine._vtable is not None
            result = engine.run()
            reference = cls(
                algo.factory(n, t, proposals, {}), t=t, trace=False, batched=False
            ).run()
            assert {p: repr(o.decision) for p, o in result.outcomes.items()} == {
                p: repr(o.decision) for p, o in reference.outcomes.items()
            }, proposals
            assert result.stats == reference.stats, proposals


class TestModeSelection:
    def test_vector_mode_requires_tracing_off(self):
        scenario = Scenario(algorithm="crw", n=4, f=1, adversary="none", seed=0)
        with pytest.raises(ConfigurationError, match="tracing"):
            execute(scenario, trace=True, batched=True)

    @pytest.mark.parametrize("algorithm", ["crw", "floodset", "mr99", "ffd"])
    @pytest.mark.parametrize("batched", ["vector", 1, 0, "yes"])
    def test_batched_takes_none_true_or_false_only(self, algorithm, batched):
        scenario = Scenario(algorithm=algorithm, n=4, f=1, adversary="none", seed=0)
        with pytest.raises(ConfigurationError, match="batched"):
            execute(scenario, batched=batched)

    def test_engine_rejects_other_batched_values(self):
        from repro.core.crw import CRWConsensus
        from repro.sync.extended import ExtendedSynchronousEngine

        procs = [CRWConsensus(pid, 3, pid) for pid in (1, 2, 3)]
        with pytest.raises(ConfigurationError, match="batched"):
            ExtendedSynchronousEngine(procs, t=2, trace=False, batched="vector")

    @staticmethod
    def _engages_and_matches(make_procs, t, engine_cls=None):
        """The vector table engages on ``make_procs()`` and its run equals
        the ``batched=False`` reference."""
        from repro.sync.extended import ExtendedSynchronousEngine

        engine_cls = engine_cls or ExtendedSynchronousEngine
        assert vector_table_for(make_procs()) is not None
        engine = engine_cls(make_procs(), t=t, trace=False)
        assert engine._vtable is not None
        result = engine.run()
        reference = engine_cls(make_procs(), t=t, trace=False, batched=False).run()
        assert result.outcomes == reference.outcomes
        assert result.stats == reference.stats

    def test_sized_values_engage_the_vector_table(self):
        from repro.core.crw import CRWConsensus

        self._engages_and_matches(
            lambda: [
                CRWConsensus(pid, 4, SizedValue(pid, bits=128))
                for pid in range(1, 5)
            ],
            t=3,
        )

    def test_bool_proposals_engage_the_vector_table(self):
        from repro.core.crw import CRWConsensus

        self._engages_and_matches(
            lambda: [CRWConsensus(pid, 3, pid == 1) for pid in (1, 2, 3)], t=2
        )

    def test_wide_floodset_universe_engages_the_vector_table(self):
        from repro.baselines.floodset import FloodSetConsensus
        from repro.sync.engine import ClassicSynchronousEngine

        n = 72  # 72 distinct values: masks wider than 64 bits
        self._engages_and_matches(
            lambda: [FloodSetConsensus(pid, n, pid, t=3) for pid in range(1, n + 1)],
            t=3,
            engine_cls=ClassicSynchronousEngine,
        )

    def test_equal_values_of_different_types_decline_key_ordered_tables(self):
        """1, True and 1.0 are equal but size and serialize differently:
        FloodSet and early-stopping decline them, CRW (no ordering) not."""
        from repro.baselines.early_stopping import EarlyStoppingConsensus
        from repro.baselines.floodset import FloodSetConsensus
        from repro.core.crw import CRWConsensus

        values = [1, True, 1.0]
        for cls in (FloodSetConsensus, EarlyStoppingConsensus):
            procs = [cls(pid, 3, values[pid - 1], 2) for pid in (1, 2, 3)]
            assert vector_table_for(procs) is None, cls.__name__
        procs = [CRWConsensus(pid, 3, values[pid - 1]) for pid in (1, 2, 3)]
        assert vector_table_for(procs) is not None

    def test_wrappers_fall_back_to_per_process(self):
        """Cross-model wrappers are not tables: detection must decline them."""
        from repro.baselines.floodset import FloodSetConsensus
        from repro.core.crw import CRWConsensus
        from repro.simulation.classic_on_extended import ClassicOnExtended

        inner = [FloodSetConsensus(pid, 3, pid, t=1) for pid in (1, 2, 3)]
        wrapped = [ClassicOnExtended(p) for p in inner]
        assert vector_table_for(wrapped) is None

        # Mixed tables decline too, even when every class has a table.
        mixed = [CRWConsensus(1, 3, 1), CRWConsensus(2, 3, 2),
                 FloodSetConsensus(3, 3, 3, t=1)]
        assert vector_table_for(mixed) is None

    def test_batched_true_requires_a_table(self):
        from repro.sync.api import NO_SEND, SyncProcess
        from repro.sync.extended import ExtendedSynchronousEngine

        class Plain(SyncProcess):
            def send_phase(self, round_no):
                return NO_SEND

            def compute_phase(self, round_no, inbox):
                self.decide(0)

        procs = [Plain(pid, 3) for pid in (1, 2, 3)]
        with pytest.raises(ConfigurationError, match="vector table"):
            ExtendedSynchronousEngine(procs, t=2, trace=False, batched=True)
        # Auto mode simply steps per process.
        engine = ExtendedSynchronousEngine(procs, t=2, trace=False)
        assert engine._vtable is None
        engine.run()
        assert engine.decisions == {1: 0, 2: 0, 3: 0}


def test_sharded_sweep_runs_vectorized_cells(tmp_path):
    """End to end: a sharded sweep (vector mode auto-engaged in every
    worker) produces the same records as serial per-object execution."""
    from repro.scenarios import SweepRunner, expand_grid

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cells = expand_grid(
            ["crw", "floodset"], [5],
            adversaries=("coordinator-killer",), seeds=4,
        )
    sharded = SweepRunner(
        cells, executor="sharded", jsonl_path=str(tmp_path / "shards"),
        shards=3, chunk_size=2, processes=2,
    ).run()
    reference = [execute(cell, batched=False) for cell in cells]
    assert [r.to_dict() for r in sharded] == [r.to_dict() for r in reference]


# ---------------------------------------------------------------------------
# Crash rounds: generated grid, multi-truncation cells, width contract.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def column_backend(name: str):
    """Build vector columns on ``name`` ("numpy" or "array") inside.

    "array" hides a loaded numpy from :mod:`repro.util.columns` for the
    duration, the in-process equivalent of ``REPRO_NO_NUMPY=1`` for
    tables built inside the block.
    """
    if name == "numpy":
        assert columns.load_numpy() is not None
        yield
        return
    saved = columns._numpy, columns._ndarray
    columns._numpy, columns._ndarray = None, ()
    try:
        yield
    finally:
        columns._numpy, columns._ndarray = saved


BACKENDS = [
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            columns.load_numpy() is None, reason="numpy not importable"
        ),
    ),
    "array",
]

CRASH_ADVERSARIES = ("random", "staggered", "coordinator-killer")


def _table_class(algorithm: str) -> type:
    procs = ALGORITHMS.get(algorithm).factory(3, 2, [1, 2, 3], {})
    return type(vector_table_for(procs))


def _assert_parity(scenario: Scenario) -> None:
    vector = execute(scenario, batched=True)
    reference = execute(scenario, batched=False)
    assert vector.to_dict() == reference.to_dict(), scenario
    assert vector.raw.stats == reference.raw.stats, scenario


@st.composite
def crash_cells(draw, algorithm: str) -> Scenario:
    n = draw(st.integers(2, 32))
    t = draw(st.integers(0, n - 1))
    return Scenario(
        algorithm=algorithm,
        n=n,
        t=t,
        f=draw(st.integers(min(1, t), t)),  # crash whenever t allows
        adversary=draw(st.sampled_from(CRASH_ADVERSARIES)),
        seed=draw(st.integers(0, 2**16)),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_array_backend_switch_builds_array_columns(backend):
    """The backend switch really changes what the tables are built on."""
    with column_backend(backend):
        for algorithm in VECTOR_ALGORITHMS:
            procs = ALGORITHMS.get(algorithm).factory(4, 3, [1, 2, 3, 4], {})
            table = vector_table_for(procs)
            if algorithm == "floodset":
                assert type(table.known) is list  # Python-int masks
                continue
            assert isinstance(table.est, array) == (backend == "array"), algorithm


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", VECTOR_ALGORITHMS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_crash_rounds_match_object_path(backend, algorithm, data):
    """Every vector algorithm, n in [2, 32], f <= t, crash-heavy
    adversaries: vector records and counters equal the object path's."""
    scenario = data.draw(crash_cells(algorithm))
    with column_backend(backend):
        _assert_parity(scenario)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", VECTOR_ALGORITHMS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_object_workloads_match_object_path(backend, algorithm, data):
    """The same generated crash grid over the value-type workloads: the
    object columns (and the declining tables) equal the object path."""
    scenario = data.draw(crash_cells(algorithm))
    fields = WORKLOAD_CASES[data.draw(st.sampled_from(sorted(WORKLOAD_CASES)))]
    scenario = scenario.with_(**fields)
    with column_backend(backend):
        vector = execute(scenario)
        reference = execute(scenario, batched=False)
    assert vector.to_dict() == reference.to_dict(), scenario
    assert vector.raw.stats == reference.raw.stats, scenario


class TestMultiTruncationRounds:
    """n=32 crash rounds in which two or more senders are cut short — the
    flooding tables' fold plus per-receiver fixups, several at once."""

    #: (f, seed) pairs of the ``random`` adversary at n=32 whose runs have
    #: a round with at least two truncated senders.
    RANDOM_CELLS = [(3, 9), (4, 5), (4, 12), (6, 16)]

    @staticmethod
    def _spy(monkeypatch, algorithm: str) -> list[int]:
        """Record, per crash round, how many sends arrive truncated."""
        table_cls = _table_class(algorithm)
        real = table_cls.compute_phase_vector
        truncated: list[int] = []

        def spy(self, round_no, receivers, receiver_order, sends, crash_free):
            if not crash_free:
                truncated.append(sum(len(s[1]) != self.n - 1 for s in sends))
            return real(self, round_no, receivers, receiver_order, sends, crash_free)

        monkeypatch.setattr(table_cls, "compute_phase_vector", spy)
        return truncated

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", ["early-stopping", "floodset"])
    @pytest.mark.parametrize("f,seed", RANDOM_CELLS)
    def test_random_adversary_cells(self, monkeypatch, backend, algorithm, f, seed):
        truncated = self._spy(monkeypatch, algorithm)
        scenario = Scenario(
            algorithm=algorithm, n=32, f=f, adversary="random", seed=seed
        )
        with column_backend(backend):
            _assert_parity(scenario)
        assert max(truncated) >= 2, truncated

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algorithm", ["early-stopping", "floodset"])
    def test_many_senders_cut_in_one_round(self, monkeypatch, backend, algorithm):
        """A hand-made schedule: five random-subset crashes in round 1,
        three in round 2, one after its send in round 3."""
        from repro.sync.engine import ClassicSynchronousEngine

        truncated = self._spy(monkeypatch, algorithm)
        n, t = 32, 12
        events = [
            CrashEvent(pid=pid, round_no=1, point=CrashPoint.DURING_DATA,
                       data_policy=Subset.RANDOM)
            for pid in (2, 9, 17, 25, 31)
        ] + [
            CrashEvent(pid=pid, round_no=2, point=CrashPoint.DURING_DATA,
                       data_policy=Subset.RANDOM)
            for pid in (1, 12, 30)
        ] + [CrashEvent(pid=5, round_no=3, point=CrashPoint.AFTER_SEND)]
        factory = ALGORITHMS.get(algorithm).factory
        proposals = [(7 * pid) % 41 for pid in range(1, n + 1)]

        def run(batched):
            engine = ClassicSynchronousEngine(
                factory(n, t, proposals, {}), CrashSchedule(events), t=t,
                rng=RandomSource(11), trace=False, batched=batched,
            )
            result = engine.run()
            return result.outcomes, result.rounds_executed, result.stats

        with column_backend(backend):
            vector = run(True)
        assert vector == run(False)
        assert truncated[:2] == [5, 3], truncated


@pytest.mark.parametrize("backend", BACKENDS)
def test_early_flag_carried_only_by_a_truncated_send(backend):
    """Early-stopping: the EARLY flag reaches p3 only on a crashing
    sender's truncated send, while p3's own count drops — the flag alone
    must make it early (the folded full broadcasts carry no flag)."""
    from repro.baselines.early_stopping import EarlyStoppingConsensus
    from repro.sync.engine import ClassicSynchronousEngine

    n, t = 6, 4
    schedule = CrashSchedule([
        # Round 1: only p2 hears p1, so only p2's count stays at n.
        CrashEvent(pid=1, round_no=1, point=CrashPoint.DURING_DATA,
                   data_subset=frozenset({2})),
        # Round 2: early p2 reaches p3 alone; p4's silence drops p3's count.
        CrashEvent(pid=2, round_no=2, point=CrashPoint.DURING_DATA,
                   data_subset=frozenset({3})),
        CrashEvent(pid=4, round_no=2, point=CrashPoint.BEFORE_SEND),
    ])

    def run(batched):
        procs = [
            EarlyStoppingConsensus(pid, n, 10 * pid, t) for pid in range(1, n + 1)
        ]
        return ClassicSynchronousEngine(
            procs, schedule, t=t, trace=False, batched=batched
        ).run()

    with column_backend(backend):
        vector = run(True)
    reference = run(False)
    assert vector.outcomes == reference.outcomes
    assert vector.stats == reference.stats
    rounds = reference.decision_rounds
    assert rounds[3] < rounds[5]  # p3 went early on the flag alone


@pytest.mark.parametrize("algorithm", VECTOR_ALGORITHMS)
def test_send_widths_match_bit_size(monkeypatch, algorithm):
    """Width contract over the parity grid: each send's ``bits`` equals
    ``bit_size(payload)``, truncated sends included.  The engine charges
    accounting from it, so a misreported width would otherwise only show
    as wrong stats totals — or not at all, where errors cancel."""
    table_cls = _table_class(algorithm)
    real = table_cls.compute_phase_vector
    checked = {"sends": 0, "truncated": 0}

    def spy(self, round_no, receivers, receiver_order, sends, crash_free):
        for sender, dests, payload, _control, bits in sends:
            assert bits == bit_size(payload), (algorithm, round_no, sender)
            checked["sends"] += 1
            checked["truncated"] += type(dests) is frozenset
        return real(self, round_no, receivers, receiver_order, sends, crash_free)

    monkeypatch.setattr(table_cls, "compute_phase_vector", spy)
    for name, adversary in _cells():
        if name != algorithm:
            continue
        for seed in (0, 1, 2, 7, 13):
            execute(
                Scenario(algorithm=algorithm, n=6, f=2, adversary=adversary,
                         seed=seed),
                batched=True,
            )
    assert checked["sends"] > 0
    assert checked["truncated"] > 0  # crash truncation keeps the width


def test_width_contract_covers_every_registered_table():
    """The width grid above reaches every registered vector table."""
    registered = {factory.__self__ for factory in _VECTOR_TABLES.values()}
    assert {_table_class(algorithm) for algorithm in VECTOR_ALGORITHMS} == registered
