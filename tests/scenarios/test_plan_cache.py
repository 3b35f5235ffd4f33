"""Compiled plans and shape-keyed engines: leased runs stay exact.

``execute(scenario, lease=lease)`` compiles a configuration once (a plan
cached under :meth:`EngineLease.key_for`) and leases engines by shape
(the same key without ``f`` and ``adversary``), reusing a seed-free
crash schedule across a plan's seeds.  These tests pin that every leased
record equals the unleased one whatever order the cells arrive in, that
schedules are rebuilt exactly when they draw, that a failing
configuration is never cached, and that the parent's per-configuration
deltas equal the per-cell ones the shard files used to carry.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import EngineLease, Scenario, execute, expand_grid
from repro.scenarios.scenario import scenario_delta, scenario_deltas
from repro.sync.adversary import CoordinatorKiller, RandomCrashes, StaggeredKiller


def _exact(record) -> tuple:
    return record.to_dict(), record.raw.stats


def _shuffled(cells: list[Scenario], seed: int = 0) -> list[Scenario]:
    return random.Random(seed).sample(cells, len(cells))


def _cells(shapes, adversaries, fs, seeds=3) -> list[Scenario]:
    return [
        shape.with_(f=f, adversary=adversary, seed=seed)
        for shape in shapes
        for adversary in adversaries
        for f in fs
        if f <= (shape.t if shape.t is not None else shape.n - 1)
        for seed in range(seeds)
    ]


SYNC_ADVERSARIES = ("none", "coordinator-killer", "staggered", "random")

GRIDS = {
    "extended": _cells(
        [
            Scenario(algorithm="crw", n=6),
            Scenario(algorithm="crw", n=9, t=4),
            Scenario(algorithm="truncated-crw", n=7, params={"k": 3}),
        ],
        SYNC_ADVERSARIES + ("commit-splitter", "max-traffic"),
        (0, 1, 3),
    ),
    # ``random`` runs as ``random-classic`` on the classic engine.
    "classic": _cells(
        [
            Scenario(algorithm="floodset", n=6),
            Scenario(algorithm="early-stopping", n=7, t=4),
            Scenario(algorithm="interactive-consistency", n=5),
        ],
        SYNC_ADVERSARIES,
        (0, 1, 3),
    ),
    "async": _cells(
        [
            Scenario(algorithm="mr99", n=7),
            Scenario(
                algorithm="chandra-toueg", n=5,
                timing={"delay": "uniform", "lo": 0.2, "hi": 1.2},
            ),
        ],
        SYNC_ADVERSARIES,
        (0, 1, 2),
        seeds=2,
    ),
    "ffd": _cells(
        [Scenario(algorithm="ffd", n=5), Scenario(algorithm="ffd", n=6, t=3)],
        SYNC_ADVERSARIES,
        (0, 1, 3),
    ),
}


class TestShuffledLease:
    @pytest.mark.parametrize("backend", sorted(GRIDS))
    def test_one_lease_in_any_order_equals_unleased(self, backend):
        cells = _shuffled(GRIDS[backend])
        lease = EngineLease()
        for cell in cells:
            assert _exact(execute(cell, trace=False, lease=lease)) == _exact(
                execute(cell, trace=False)
            ), cell

    def test_every_backend_through_one_lease(self):
        cells = _shuffled([cell for grid in GRIDS.values() for cell in grid], seed=1)
        lease = EngineLease()
        leased = [_exact(execute(cell, lease=lease)) for cell in cells]
        assert leased == [_exact(execute(cell)) for cell in cells]

    def test_engines_are_shared_across_f_and_adversary(self):
        shape = Scenario(algorithm="crw", n=6)
        cells = _cells([shape], SYNC_ADVERSARIES, (0, 1, 3))
        lease = EngineLease()
        for cell in _shuffled(cells):
            execute(cell, lease=lease)
        assert len(lease) == 1
        assert len(lease._plans) == len({(c.f, c.adversary) for c in cells})

    def test_traced_and_untraced_plans_key_apart(self):
        cell = Scenario(algorithm="crw", n=5, f=2, adversary="coordinator-killer")
        lease = EngineLease()
        traced = execute(cell, trace=True, lease=lease)
        fast = execute(cell, trace=False, lease=lease)
        assert traced.to_dict() == fast.to_dict()
        assert len(traced.raw.trace) > 0 and len(fast.raw.trace) == 0
        assert len(lease._plans) == 2


class TestScheduleReuse:
    @pytest.fixture
    def builds(self, monkeypatch):
        counts: dict[str, int] = {}
        for cls in (CoordinatorKiller, StaggeredKiller, RandomCrashes):
            original = cls.schedule

            def spy(self, n, t, rng, _original=original, _name=cls.__name__):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(self, n, t, rng)

            monkeypatch.setattr(cls, "schedule", spy)
        return counts

    @pytest.mark.parametrize(
        "adversary, builder",
        [("coordinator-killer", "CoordinatorKiller"), ("staggered", "StaggeredKiller")],
    )
    def test_seed_free_schedules_build_once_per_plan(self, builds, adversary, builder):
        base = Scenario(algorithm="crw", n=7, f=3, adversary=adversary)
        lease = EngineLease()
        for seed in range(6):
            execute(base.with_(seed=seed), lease=lease)
        assert builds == {builder: 1}
        execute(base.with_(f=2), lease=lease)  # a second plan builds its own
        assert builds == {builder: 2}

    def test_random_schedules_build_once_per_cell(self, builds):
        base = Scenario(algorithm="crw", n=7, f=3, adversary="random")
        lease = EngineLease()
        for seed in range(6):
            execute(base.with_(seed=seed), lease=lease)
        assert builds == {"RandomCrashes": 6}

    def test_unleased_calls_build_per_call(self, builds):
        base = Scenario(algorithm="floodset", n=5, f=2, adversary="staggered")
        for seed in range(3):
            execute(base.with_(seed=seed))
        assert builds == {"StaggeredKiller": 3}

    def test_engine_keeps_its_crash_map_for_the_same_schedule(self):
        from repro.core.crw import CRWConsensus
        from repro.sync.extended import ExtendedSynchronousEngine
        from repro.workloads.crashes import ADVERSARIES
        from repro.util.rng import RandomSource

        def procs(seed):
            return [CRWConsensus(pid, 6, 100 * seed + pid) for pid in range(1, 7)]

        schedule = ADVERSARIES["coordinator-killer"](2).schedule(6, 5, RandomSource(0))
        engine = ExtendedSynchronousEngine(procs(0), schedule, t=5, trace=False)
        engine.run()
        mapped = engine._crashes_by_round
        for seed in (1, 2):
            reused = engine.reset(procs(seed), schedule, trace=False).run()
            assert engine._crashes_by_round is mapped
            fresh = ExtendedSynchronousEngine(
                procs(seed), schedule, t=5, trace=False
            ).run()
            assert reused.stats == fresh.stats
            assert reused.rounds_executed == fresh.rounds_executed == 3
        other = ADVERSARIES["staggered"](2).schedule(6, 5, RandomSource(0))
        engine.reset(procs(3), other, trace=False).run()
        assert engine._crashes_by_round is not mapped


class TestFailingConfigurations:
    @pytest.mark.parametrize(
        "bad, match, compiles",
        [
            (
                Scenario(algorithm="crw", n=5, params={"bogus": 1}),
                "unknown parameter", False,
            ),
            (Scenario(algorithm="crw", n=5, model="async"), "pins model", False),
            (Scenario(algorithm="mr99", n=5, timing={"until": "soon"}), "until", False),
            (
                Scenario(algorithm="mr99", n=5, timing={"delay": "teleport"}),
                "delay model", False,
            ),
            (Scenario(algorithm="ffd", n=5, timing={"D": "big"}), "'D'", False),
            (
                Scenario(algorithm="mr99", n=5, f=1, adversary="commit-splitter"),
                "no timed crash plan", False,
            ),
            # Checks of the seed's own steps fail per cell after a clean
            # compile: the workload build and the engine's schedule check.
            (
                Scenario(algorithm="crw", n=5, workload_params={"base": "x"}),
                "must be int-valued", True,
            ),
            (
                Scenario(algorithm="floodset", n=5, f=2, adversary="commit-splitter"),
                "DURING_CONTROL", True,
            ),
        ],
    )
    def test_raises_on_every_cell_and_leaves_the_lease_usable(
        self, bad, match, compiles
    ):
        lease = EngineLease()
        valid = Scenario(algorithm=bad.algorithm, n=5, f=1, adversary="staggered")
        execute(valid, lease=lease)
        for seed in range(3):
            with pytest.raises(ConfigurationError, match=match):
                execute(bad.with_(seed=seed), lease=lease)
            with pytest.raises(ConfigurationError, match=match):
                execute(bad.with_(seed=seed))
        assert (EngineLease.key_for(bad, False, None) in lease._plans) is compiles
        for seed in range(3):
            cell = valid.with_(seed=seed)
            assert _exact(execute(cell, lease=lease)) == _exact(execute(cell))

    def test_tuple_and_list_values_compile_apart(self):
        lease = EngineLease()
        as_tuple = Scenario(
            algorithm="crw", n=4, workload="identical", workload_params={"value": (1, 2)}
        )
        as_list = as_tuple.with_(workload_params={"value": [1, 2]})
        for seed in range(2):
            leased = execute(as_tuple.with_(seed=seed), lease=lease)
            assert leased.to_dict() == execute(as_tuple.with_(seed=seed)).to_dict()
            assert leased.decisions == {pid: (1, 2) for pid in range(1, 5)}
            for run in (lambda c: execute(c, lease=lease), execute):
                with pytest.raises(ConfigurationError, match="unhashable proposal"):
                    run(as_list.with_(seed=seed))

    def test_plan_cache_stays_within_its_bound(self):
        lease = EngineLease()
        base = Scenario(algorithm="crw", n=4, f=1, adversary="coordinator-killer")
        for k in range(EngineLease.MAX_PLANS + 10):
            execute(base.with_(workload_params={"base": k}), lease=lease)
            assert len(lease._plans) <= EngineLease.MAX_PLANS
        assert len(lease._plans) == EngineLease.MAX_PLANS
        assert len(lease) == EngineLease.MAX_ENTRIES  # workload params shape too
        # The oldest plans were evicted and simply recompile.
        cell = base.with_(workload_params={"base": 0}, seed=3)
        assert execute(cell, lease=lease).to_dict() == execute(cell).to_dict()


def _benchmark_grid() -> list[Scenario]:
    return expand_grid(
        ("crw", "early-stopping", "floodset"), (8, 16, 32),
        adversaries=("coordinator-killer", "staggered", "random"), seeds=6,
    )


def _every_field_grid(base: Scenario) -> list[Scenario]:
    variants = [
        {},
        {"algorithm": "floodset"},
        {"n": 9},
        {"t": None},
        {"t": 2},
        {"f": 2},
        # Falsy values of different types: 0 and None.
        {"t": 0, "f": 0},
        {"t": None, "f": 0},
        {"adversary": "random"},
        {"workload": "binary", "workload_params": {"p_one": 0.25}},
        {"workload_params": {"base": 1}},
        {"workload_params": {"base": 1.0}},
        {"timing": {"delay": "constant", "value": 2.0}},
        {"timing": {"delay": "constant", "value": (1, 2)}},
        {"timing": {"delay": "constant", "value": [1, 2]}},
        {"max_rounds": 30},
        {"params": {"k": 2}},
        {"params": {"k": {"nested": [1, (2, 3)]}}},
        {"model": "extended"},
    ]
    cells = []
    for change in variants:
        for seed in (base.seed, base.seed + 1, -4, 2**70):
            cells.append(base.with_(**change, seed=seed))
    # The same configuration again, not adjacent to its first run.
    cells.append(base.with_(seed=base.seed))
    return cells


class TestParentDeltas:
    def test_benchmark_grid(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            grid = _benchmark_grid()
        base = grid[0]
        for start in range(0, len(grid), 189):  # one dispatched shard each
            cells = grid[start:start + 189]
            assert scenario_deltas(base, cells) == [
                scenario_delta(base, cell) for cell in cells
            ]

    @pytest.mark.parametrize(
        "base",
        [
            Scenario(algorithm="crw", n=8, t=5, f=1, adversary="staggered", seed=3,
                     workload_params={"base": 1}, params={"k": [1, 2]}),
            Scenario(algorithm="crw", n=8),
        ],
    )
    def test_grid_varying_every_field(self, base):
        cells = _every_field_grid(base)
        expected = [scenario_delta(base, cell) for cell in cells]
        got = scenario_deltas(base, cells)
        assert got == expected
        # Type-exact too: 1 and 1.0, tuple and list, stay apart.
        assert [
            {k: (type(v), repr(v)) for k, v in d.items()} for d in got
        ] == [{k: (type(v), repr(v)) for k, v in d.items()} for d in expected]
        assert any("seed" not in d for d in got)
