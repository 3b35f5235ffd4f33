"""``execute(scenario) -> RunRecord``: one front door over four backends.

The facade compiles a scenario's configuration — every field but the
seed — into a plan, then runs the plan for the scenario's seed:

* the **plan** resolves the names against the registries and makes every
  check that does not depend on the seed: ``batched``, the param,
  workload and timing keys, ``model``, ``t``/``f``, the adversary and
  engine class, and the continuous-time backends' timing numbers.  A
  check that fails raises :class:`~repro.errors.ConfigurationError`
  before any proposal is drawn;
* the **run** builds the proposal workload and crash plan from labelled
  child RNG streams (``workload`` / ``adversary`` / ``engine``), drives
  the algorithm's backend, checks the spec and reduces whatever the
  backend returns to the normalized
  :class:`~repro.scenarios.record.RunRecord`.

An :class:`EngineLease` caches plans per configuration and engines per
shape, so a sweep compiles each configuration once and runs every seed
of it on a reused engine; without a lease a call compiles and runs one
cell.  On the round-based backends a plan also keeps its crash schedule
when building it drew nothing from the ``adversary`` stream
(``coordinator-killer``, ``staggered``, ``none`` …): such a schedule is
the same for every seed.

Determinism contract: the labelled RNG tree makes a record a pure
function of its scenario — child streams depend only on ``(seed,
label)``, never on draw order — so a cell's record is byte-identical
whichever executor, stepping mode, plan cache or engine lease produced
it (pinned by ``tests/scenarios/test_columnar_parity.py``,
``tests/scenarios/test_plan_cache.py`` and the stepping-mode parity
grids under ``tests/sync/``).
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.scenarios.record import RunRecord
from repro.scenarios.registry import ADVERSARIES, ALGORITHMS, WORKLOADS, AlgorithmDef
from repro.scenarios.scenario import Scenario
from repro.sync.engine import check_batched
from repro.sync.spec import check_consensus
from repro.util.rng import RandomSource

__all__ = ["execute", "resolved_t", "delay_model_from", "EngineLease"]


def _items_repr(params: dict[str, Any]) -> str:
    """``repr(sorted(params.items()))``, without the sort for the usual ``{}``."""
    return repr(sorted(params.items())) if params else "[]"


class EngineLease:
    """A cache of compiled plans and reusable engines for :func:`execute`.

    Two caches, both small LRUs, amortize what seed-dense sweeps would
    otherwise pay for every cell:

    * **plans**, keyed by :meth:`key_for` — the scenario's full non-seed
      configuration plus the ``trace``/``batched`` flags.  A plan holds
      every lookup and check of the configuration (see the module
      docstring), so the later seeds of a configuration go straight to
      their run.  A configuration whose checks raise is never cached:
      each of its cells raises again.
    * **engines**, keyed by :meth:`shape_for` — the same key without
      ``f`` and ``adversary``.  Those two reach an engine only through
      the per-run :class:`~repro.sync.crash.CrashSchedule` or
      ``AsyncCrash`` list that ``refill`` and ``reset`` take, so every
      ``(f, adversary)`` of one shape shares one engine.  The first run
      of a shape builds its engine as usual; every later run **refills**
      or **resets** it (:meth:`repro.sync.engine.SynchronousEngine.refill`
      / :meth:`~repro.sync.engine.SynchronousEngine.reset`,
      :meth:`repro.asyncsim.runner.AsyncRunner.refill` /
      :meth:`~repro.asyncsim.runner.AsyncRunner.reset`) instead of
      rebuilding it.

    Refill and reset are pinned byte-identical to fresh construction
    (``tests/scenarios/test_engine_reuse.py``,
    ``tests/scenarios/test_plan_cache.py``), so leased and unleased runs
    of any scenario produce the same record.

    Leases are not thread-safe and not meant to cross process
    boundaries; :class:`~repro.scenarios.sweep.SweepRunner` holds one for
    the whole serial pass and every shard worker one of its own.
    ``len(lease)`` counts cached engines.
    """

    #: Upper bound on cached engines; least-recently-used beyond this.
    MAX_ENTRIES = 32
    #: Upper bound on cached plans; least-recently-used beyond this.
    MAX_PLANS = 128

    __slots__ = ("_engines", "_plans")

    def __init__(self) -> None:
        self._engines: dict[tuple, Any] = {}
        self._plans: dict[tuple, _Plan] = {}

    def __len__(self) -> int:
        return len(self._engines)

    @staticmethod
    def key_for(scenario: Scenario, trace: bool, batched: bool | None) -> tuple:
        """The plan key: the full non-seed configuration, cheaply hashable.

        ``repr`` flattens the (JSON-typed, possibly nested) dict fields
        instead of ``to_json`` — an order of magnitude cheaper per cell,
        and exact: two scenarios with equal reprs of their sorted items
        are the same configuration, while a tuple-valued param and its
        list spelling (one canonical JSON) stay apart.
        """
        return (
            scenario.algorithm,
            scenario.n,
            scenario.t,
            scenario.f,
            scenario.adversary,
            scenario.workload,
            _items_repr(scenario.workload_params),
            _items_repr(scenario.timing),
            _items_repr(scenario.params),
            scenario.max_rounds,
            scenario.model,
            trace,
            batched,
        )

    @staticmethod
    def shape_for(scenario: Scenario, trace: bool, batched: bool | None) -> tuple:
        """The engine key: :meth:`key_for` without ``f`` and ``adversary``."""
        key = EngineLease.key_for(scenario, trace, batched)
        return key[:3] + key[5:]

    def get(self, key: tuple) -> Any:
        """The cached engine for shape ``key`` (refreshing LRU), or None."""
        engine = self._engines.pop(key, None)
        if engine is not None:
            self._engines[key] = engine  # re-insert: most recently used
        return engine

    def put(self, key: tuple, engine: Any) -> None:
        """Cache ``engine`` under shape ``key``, evicting the oldest past the cap."""
        self._engines[key] = engine
        if len(self._engines) > self.MAX_ENTRIES:
            self._engines.pop(next(iter(self._engines)))

    def plan(self, scenario: Scenario, trace: bool, batched: bool | None) -> "_Plan":
        """The compiled plan of ``scenario``'s configuration, cached by key.

        Compiles on a miss; a compile that raises caches nothing.
        """
        key = self.key_for(scenario, trace, batched)
        plans = self._plans
        plan = plans.pop(key, None)
        if plan is None:
            plan = _compile(scenario, trace, batched)
            if len(plans) >= self.MAX_PLANS:
                plans.pop(next(iter(plans)))
        plans[key] = plan  # (re-)insert: most recently used
        return plan


def resolved_t(scenario: Scenario, algo: AlgorithmDef | None = None) -> int:
    """The resilience bound actually used: explicit ``t`` or the default rule."""
    if scenario.t is not None:
        return scenario.t
    algo = algo or ALGORITHMS.get(scenario.algorithm)
    return algo.default_t(scenario.n)


#: Per-delay-model parameter keys accepted in ``Scenario.timing``.
_DELAY_KEYS = {
    "constant": {"value"},
    "uniform": {"lo", "hi"},
    "lognormal": {"mu", "sigma"},
    "gst": {"gst", "wild", "bound"},
}
#: Non-delay timing keys accepted per continuous-time backend.
_TIMING_KEYS = {
    "async": {
        "delay", "stabilization_time", "detection_latency", "churn_rate",
        "false_suspicion_duration", "until", "max_events",
    },
    "ffd": {"D", "d", "delta_min"},
}


def _check_keys(
    given: dict[str, Any], accepted: set[str] | frozenset[str], kind: str, owner: str
) -> None:
    """Reject ``kind`` keys ``owner`` does not read instead of silently defaulting."""
    unknown = set(given) - accepted
    if unknown:
        raise ConfigurationError(
            f"unknown {kind} key(s) {sorted(unknown)} for {owner}; "
            f"accepted: {sorted(accepted)}"
        )


#: Every timing key some backend reads: the round-based backends read
#: none, but accept these so a mixed-backend grid can share one base
#: ``timing``.
_ANY_TIMING_KEYS = frozenset().union(*_TIMING_KEYS.values(), *_DELAY_KEYS.values())


def _check_timing_keys(timing: dict[str, Any], backend: str) -> None:
    """Reject typoed/unsupported timing keys instead of silently defaulting."""
    if backend not in _TIMING_KEYS:
        _check_keys(
            timing, _ANY_TIMING_KEYS, "timing",
            f"any backend (the {backend!r} backend reads none)",
        )
        return
    allowed = set(_TIMING_KEYS[backend])
    if backend == "async":
        allowed |= _DELAY_KEYS.get(timing.get("delay"), set())
    _check_keys(timing, allowed, "timing", f"the {backend!r} backend")


def _timing_number(
    timing: dict[str, Any], key: str, default: float, backend: str, cast=float
) -> Any:
    """``cast(timing.get(key, default))``, failing as a configuration error
    unless it is a finite number."""
    value = timing.get(key, default)
    try:
        number = cast(value)
    except (OverflowError, TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigurationError(
            f"timing {key!r} must be a finite number for the {backend!r} "
            f"backend, got {value!r}"
        )
    return number


def delay_model_from(timing: dict[str, Any]):
    """Build the async delay model described by ``timing`` (None = default)."""
    from repro.asyncsim.network import (
        ConstantDelay,
        GstDelay,
        LogNormalDelay,
        UniformDelay,
    )

    def number(key: str, default: float) -> float:
        return _timing_number(timing, key, default, "async")

    name = timing.get("delay")
    if name is None:
        return None
    if name == "constant":
        return ConstantDelay(value=number("value", 1.0))
    if name == "uniform":
        return UniformDelay(lo=number("lo", 0.5), hi=number("hi", 1.5))
    if name == "lognormal":
        return LogNormalDelay(mu=number("mu", 0.0), sigma=number("sigma", 0.5))
    if name == "gst":
        return GstDelay(
            gst=number("gst", 10.0),
            wild=number("wild", 5.0),
            bound=number("bound", 1.0),
        )
    raise ConfigurationError(
        f"unknown delay model {name!r}; available: constant, uniform, lognormal, gst"
    )


class _Plan:
    """One configuration compiled for :func:`execute`.

    ``run(plan, scenario, proposals, rng, lease)`` runs one seed; the
    other slots are what the backend's run reads.  ``schedule`` starts
    as None and is set by the first run whose crash schedule drew
    nothing from its ``adversary`` stream.
    """

    __slots__ = (
        "algo", "n", "t", "build", "trace", "batched", "max_rounds",
        "run", "shape", "check",
        # round-based backends
        "adversary", "engine_cls", "schedule",
        # continuous-time backends
        "timed", "detector", "delay_model", "until", "max_events", "ffd_spec",
    )

    def __init__(
        self, algo: AlgorithmDef, n: int, t: int, build: Callable,
        trace: bool, batched: bool | None, max_rounds: int | None,
    ) -> None:
        self.algo = algo
        self.n = n
        self.t = t
        self.build = build
        self.trace = trace
        self.batched = batched
        self.max_rounds = max_rounds
        self.shape: tuple | None = None
        self.schedule = None


def _compile(scenario: Scenario, trace: bool, batched: bool | None) -> _Plan:
    """Resolve and check everything about ``scenario`` but its seed
    (:func:`execute` has checked ``batched``)."""
    algo = ALGORITHMS.get(scenario.algorithm)
    _check_keys(
        scenario.params, algo.param_keys, "parameter",
        f"algorithm {scenario.algorithm!r}",
    )
    if scenario.model is not None and scenario.model != algo.backend:
        raise ConfigurationError(
            f"scenario pins model {scenario.model!r} but algorithm "
            f"{scenario.algorithm!r} runs on the {algo.backend!r} backend"
        )
    n, t = scenario.n, resolved_t(scenario, algo)
    if not 0 <= t < n:
        raise ConfigurationError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
    if scenario.f > t:
        raise ConfigurationError(f"f={scenario.f} exceeds t={t}")
    workload = WORKLOADS.get(scenario.workload)
    _check_keys(
        scenario.workload_params, workload.param_keys, "parameter",
        f"workload {scenario.workload!r}",
    )
    plan = _Plan(algo, n, t, workload.build, trace, batched, scenario.max_rounds)
    spec = algo.spec
    plan.check = (
        (lambda result: tuple(spec(result))) if spec is not None
        else (lambda result: check_consensus(result).violations)
    )
    if algo.backend in ("extended", "classic"):
        _compile_sync(plan, scenario)
    elif algo.backend == "async":
        _compile_async(plan, scenario)
    elif algo.backend == "ffd":
        _compile_ffd(plan, scenario)
    else:  # pragma: no cover - BACKENDS is closed
        raise ConfigurationError(f"unhandled backend {algo.backend!r}")
    return plan


def _timed_adversary(scenario: Scenario) -> Callable:
    adv = ADVERSARIES.get(scenario.adversary)
    if adv.make_timed is None:
        raise ConfigurationError(
            f"adversary {scenario.adversary!r} has no timed crash plan; "
            f"usable on continuous-time backends: "
            f"{[name for name, a in ADVERSARIES.items() if a.make_timed is not None]}"
        )
    return adv.make_timed


def execute(
    scenario: Scenario,
    *,
    trace: bool = False,
    batched: bool | None = None,
    lease: EngineLease | None = None,
) -> RunRecord:
    """Run one scenario on its backend and return the normalized record.

    ``batched`` is forwarded to the engines and takes one value set on
    every backend: ``None`` (auto) steps through the algorithm's
    columnar table where one engages (on the synchronous engines only
    with tracing off), ``True`` requires that table and raises when it
    is unavailable, and ``False`` forces per-process/per-object stepping
    — the parity grids compare the two.  Any other value raises.  The
    ``ffd`` backend has no table and ignores it.

    ``lease`` opts into plan and engine reuse: a run whose configuration
    a previous run through the same :class:`EngineLease` compiled skips
    straight to its seed, and a run whose engine shape matches refills or
    resets that engine instead of constructing a new one.  Records are
    identical either way; sweeps hold a lease per pass or worker.
    """
    check_batched(batched)
    if lease is None:
        plan = _compile(scenario, trace, batched)
    else:
        plan = lease.plan(scenario, trace, batched)
    n = plan.n
    rng = RandomSource(scenario.seed)
    proposals = plan.build(n, rng.spawn("workload"), dict(scenario.workload_params))
    if len(proposals) != n:
        raise ConfigurationError(
            f"workload {scenario.workload!r} produced {len(proposals)} proposals for n={n}"
        )
    try:
        hash(tuple(proposals))
    except TypeError as exc:
        # The consensus checks collect proposals in sets: fail here, not
        # after a whole engine run.
        raise ConfigurationError(
            f"workload {scenario.workload!r} produced an unhashable proposal "
            f"({exc}); consensus values must be hashable"
        ) from None
    return plan.run(plan, scenario, proposals, rng, lease)


# ---------------------------------------------------------------------------
# Round-based backends.
# ---------------------------------------------------------------------------


def _compile_sync(plan: _Plan, scenario: Scenario) -> None:
    from repro.sync.engine import ClassicSynchronousEngine
    from repro.sync.extended import ExtendedSynchronousEngine

    algo = plan.algo
    if scenario.timing:
        _check_timing_keys(scenario.timing, algo.backend)
    adversary_name = scenario.adversary
    if algo.backend == "classic" and adversary_name == "random":
        adversary_name = "random-classic"  # classic model: no control step
    adv = ADVERSARIES.get(adversary_name)
    if adv.make_sync is None:
        raise ConfigurationError(
            f"adversary {adversary_name!r} has no synchronous crash plan"
        )
    plan.adversary = adv.make_sync(scenario.f)
    plan.engine_cls = (
        ExtendedSynchronousEngine if algo.backend == "extended" else ClassicSynchronousEngine
    )
    plan.shape = EngineLease.shape_for(scenario, plan.trace, plan.batched)
    plan.run = _run_sync


def _run_sync(
    plan: _Plan,
    scenario: Scenario,
    proposals: list[Any],
    rng: RandomSource,
    lease: EngineLease | None,
) -> RunRecord:
    n, t, trace = plan.n, plan.t, plan.trace
    schedule = plan.schedule
    if schedule is None:
        stream = rng.spawn("adversary")
        schedule = plan.adversary.schedule(n, t, stream)
        if not stream.drawn:
            # Built without a draw: the same schedule for every seed.
            # The engine keeps its crash map for the same object, too.
            plan.schedule = schedule
    engine = lease.get(plan.shape) if lease is not None else None
    # A leased engine with a refillable vector table takes the run with
    # no process construction at all: the table columns are rewritten in
    # place from the proposals.  Only when that is declined does the
    # n-object factory run (fresh construction or full reset).
    if engine is None or not engine.refill(
        proposals, schedule, rng=rng.spawn("engine"), trace=trace
    ):
        procs = plan.algo.factory(n, t, proposals, dict(scenario.params))
        if engine is None:
            engine = plan.engine_cls(
                procs, schedule, t=t, rng=rng.spawn("engine"), trace=trace,
                batched=plan.batched,
            )
            if lease is not None:
                lease.put(plan.shape, engine)
        else:
            engine.reset(
                procs, schedule, rng=rng.spawn("engine"), trace=trace,
                batched=plan.batched,
            )
    result = engine.run(plan.max_rounds)
    return _record(plan, scenario, result, result.rounds_executed)


# ---------------------------------------------------------------------------
# Asynchronous (◇S) backend.
# ---------------------------------------------------------------------------


def _compile_async(plan: _Plan, scenario: Scenario) -> None:
    from repro.asyncsim.failure_detector import DetectorSpec

    timing = dict(scenario.timing)
    _check_timing_keys(timing, "async")
    plan.timed = _timed_adversary(scenario)
    plan.detector = DetectorSpec(
        stabilization_time=_timing_number(timing, "stabilization_time", 0.0, "async"),
        detection_latency=_timing_number(timing, "detection_latency", 1.0, "async"),
        churn_rate=_timing_number(timing, "churn_rate", 0.0, "async"),
        false_suspicion_duration=_timing_number(
            timing, "false_suspicion_duration", 1.0, "async"
        ),
    )
    plan.delay_model = delay_model_from(timing)
    plan.until = _timing_number(timing, "until", 10_000.0, "async")
    plan.max_events = _timing_number(timing, "max_events", 2_000_000, "async", int)
    # The runner never traces, so both flags share one engine.
    plan.shape = EngineLease.shape_for(scenario, False, plan.batched)
    plan.run = _run_async


def _run_async(
    plan: _Plan,
    scenario: Scenario,
    proposals: list[Any],
    rng: RandomSource,
    lease: EngineLease | None,
) -> RunRecord:
    from repro.asyncsim.runner import AsyncCrash, AsyncRunner

    n, t = plan.n, plan.t
    crashes = [
        AsyncCrash(pid, time)
        for pid, time in plan.timed(n, t, scenario.f, rng.spawn("adversary"))
    ]
    runner = lease.get(plan.shape) if lease is not None else None
    # Mirror of the synchronous path: a leased runner with a refillable
    # columnar table reruns the configuration without constructing a
    # single process object.
    if runner is None or not runner.refill(
        proposals, crashes=crashes, rng=rng.spawn("engine")
    ):
        procs = plan.algo.factory(n, t, proposals, dict(scenario.params))
        if runner is None:
            runner = AsyncRunner(
                procs,
                t=t,
                crashes=crashes,
                delay_model=plan.delay_model,
                detector_spec=plan.detector,
                rng=rng.spawn("engine"),
                batched=plan.batched,
            )
            if lease is not None:
                lease.put(plan.shape, runner)
        else:
            runner.reset(procs, crashes=crashes, rng=rng.spawn("engine"))
    result = runner.run(until=plan.until, max_events=plan.max_events)
    # An asynchronous run's rounds are its deciders' protocol rounds.
    rounds = max(result.decision_rounds.values(), default=0)
    return _record(plan, scenario, result, rounds, result.sim_time)


# ---------------------------------------------------------------------------
# Fast-failure-detector backend.
# ---------------------------------------------------------------------------


def _compile_ffd(plan: _Plan, scenario: Scenario) -> None:
    from repro.ffd.timed import TimedSpec

    timing = dict(scenario.timing)
    _check_timing_keys(timing, "ffd")
    plan.ffd_spec = TimedSpec(
        n=plan.n,
        D=_timing_number(timing, "D", 100.0, "ffd"),
        d=_timing_number(timing, "d", 1.0, "ffd"),
        delta_min=_timing_number(timing, "delta_min", 0.3, "ffd"),
    )
    plan.timed = _timed_adversary(scenario)
    plan.run = _run_ffd


def _run_ffd(
    plan: _Plan,
    scenario: Scenario,
    proposals: list[Any],
    rng: RandomSource,
    lease: EngineLease | None,
) -> RunRecord:
    from repro.ffd.consensus import run_ffd_consensus
    from repro.ffd.timed import TimedCrash

    crashes = [
        TimedCrash(pid, time)
        for pid, time in plan.timed(plan.n, plan.t, scenario.f, rng.spawn("adversary"))
    ]
    result = run_ffd_consensus(plan.ffd_spec, proposals, crashes, rng=rng.spawn("engine"))
    return _record(plan, scenario, result, 0, result.sim_time)


# ---------------------------------------------------------------------------
# The normalized record, from any backend's ledgers.
# ---------------------------------------------------------------------------


def _record(
    plan: _Plan,
    scenario: Scenario,
    result: Any,
    rounds_executed: int,
    sim_time: float | None = None,
) -> RunRecord:
    """Check ``result`` against the plan's spec and reduce it to a record.

    Every backend's result carries the same ledgers (``decisions``,
    ``decision_rounds``, ``crashed`` keyed by pid, and ``stats``); only
    the round count and the simulated time differ by backend.
    """
    violations = plan.check(result)
    decision_rounds = result.decision_rounds
    crashed = sorted(result.crashed)
    stats = result.stats
    return RunRecord(
        scenario=scenario,
        backend=plan.algo.backend,
        decisions=result.decisions,
        decision_rounds=decision_rounds,
        crashed=crashed,
        f_actual=len(crashed),
        rounds_executed=rounds_executed,
        last_decision_round=max(decision_rounds.values(), default=0),
        messages_sent=stats.messages_sent,
        bits_sent=stats.bits_sent,
        spec_ok=not violations,
        violations=violations,
        sim_time=sim_time,
        raw=result,
    )
