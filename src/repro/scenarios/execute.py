"""``execute(scenario) -> RunRecord``: one front door over four backends.

The facade resolves the scenario's names against the registries, builds
the proposal workload and crash plan from labelled child RNG streams
(``workload`` / ``adversary`` / ``engine``), dispatches on the
algorithm's backend, and reduces whatever the backend returns to the
normalized :class:`~repro.scenarios.record.RunRecord`.

Determinism contract: the labelled RNG tree makes a record a pure
function of its scenario — child streams depend only on ``(seed,
label)``, never on draw order — so a cell's record is byte-identical
whichever executor, stepping mode or engine lease produced it (pinned by
``tests/scenarios/test_columnar_parity.py`` and the stepping-mode parity
grids under ``tests/sync/``).
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.scenarios.record import RunRecord
from repro.scenarios.registry import ADVERSARIES, ALGORITHMS, WORKLOADS, AlgorithmDef
from repro.scenarios.scenario import Scenario
from repro.sync.engine import check_batched
from repro.util.rng import RandomSource

__all__ = ["execute", "resolved_t", "delay_model_from", "EngineLease"]


class EngineLease:
    """A cache of reusable engines, keyed by non-seed scenario configuration.

    Per-run engine construction — process-table bookkeeping, schedule
    maps, detector/network/context wiring on the asynchronous backend —
    is a fixed cost that seed-dense sweeps pay thousands of times for
    identically shaped runs.  A lease passed to :func:`execute` amortizes
    it: the first run of a configuration builds its engine as usual, and
    every later run with the same key **resets** that engine
    (:meth:`repro.sync.engine.SynchronousEngine.reset` /
    :meth:`repro.asyncsim.runner.AsyncRunner.reset`) instead of
    rebuilding it.

    The key is everything that shapes the engine except the seed: the
    scenario's non-seed fields plus the ``trace``/``batched`` execute
    flags.  Reset is pinned byte-identical to fresh construction
    (``tests/scenarios/test_engine_reuse.py``), so leased and unleased
    runs of any scenario produce the same record.

    Leases are not thread-safe and not meant to cross process
    boundaries; :class:`~repro.scenarios.sweep.SweepRunner` holds one per
    worker chunk (and one for the whole serial pass).  The cache is a
    small LRU (``MAX_ENTRIES``) so a sweep over many configurations
    cannot grow it without bound.
    """

    #: Upper bound on cached engines; least-recently-used beyond this.
    MAX_ENTRIES = 32

    __slots__ = ("_engines",)

    def __init__(self) -> None:
        self._engines: dict[tuple, Any] = {}

    def __len__(self) -> int:
        return len(self._engines)

    @staticmethod
    def key_for(scenario: Scenario, trace: bool, batched: bool | None) -> tuple:
        """The cache key: the full non-seed configuration, cheaply hashable.

        ``repr`` flattens the (JSON-typed, possibly nested) dict fields
        instead of ``to_json`` — an order of magnitude cheaper per cell,
        and exact: two scenarios with equal reprs of their sorted items
        are the same configuration.
        """
        return (
            scenario.algorithm,
            scenario.n,
            scenario.t,
            scenario.f,
            scenario.adversary,
            scenario.workload,
            repr(sorted(scenario.workload_params.items())),
            repr(sorted(scenario.timing.items())),
            repr(sorted(scenario.params.items())),
            scenario.max_rounds,
            scenario.model,
            trace,
            batched,
        )

    def get(self, key: tuple) -> Any:
        """The cached engine for ``key`` (refreshing LRU), or None."""
        engine = self._engines.pop(key, None)
        if engine is not None:
            self._engines[key] = engine  # re-insert: most recently used
        return engine

    def put(self, key: tuple, engine: Any) -> None:
        """Cache ``engine`` under ``key``, evicting the oldest past the cap."""
        self._engines[key] = engine
        if len(self._engines) > self.MAX_ENTRIES:
            self._engines.pop(next(iter(self._engines)))


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


def _check_timing_keys(timing: dict[str, Any], backend: str) -> None:
    """Reject typoed/unsupported timing keys instead of silently defaulting."""
    allowed = set(_TIMING_KEYS[backend])
    if backend == "async":
        allowed |= _DELAY_KEYS.get(timing.get("delay"), set())
    _check_keys(timing, allowed, "timing", f"the {backend!r} backend")


def delay_model_from(timing: dict[str, Any]):
    """Build the async delay model described by ``timing`` (None = default)."""
    from repro.asyncsim.network import (
        ConstantDelay,
        GstDelay,
        LogNormalDelay,
        UniformDelay,
    )

    name = timing.get("delay")
    if name is None:
        return None
    if name == "constant":
        return ConstantDelay(value=float(timing.get("value", 1.0)))
    if name == "uniform":
        return UniformDelay(
            lo=float(timing.get("lo", 0.5)), hi=float(timing.get("hi", 1.5))
        )
    if name == "lognormal":
        return LogNormalDelay(
            mu=float(timing.get("mu", 0.0)), sigma=float(timing.get("sigma", 0.5))
        )
    if name == "gst":
        return GstDelay(
            gst=float(timing.get("gst", 10.0)),
            wild=float(timing.get("wild", 5.0)),
            bound=float(timing.get("bound", 1.0)),
        )
    raise ConfigurationError(
        f"unknown delay model {name!r}; available: constant, uniform, lognormal, gst"
    )




def _timed_crashes(scenario: Scenario, n: int, t: int, rng: RandomSource):
    adv = ADVERSARIES.get(scenario.adversary)
    if adv.make_timed is None:
        raise ConfigurationError(
            f"adversary {scenario.adversary!r} has no timed crash plan; "
            f"usable on continuous-time backends: "
            f"{[name for name, a in ADVERSARIES.items() if a.make_timed is not None]}"
        )
    return adv.make_timed(n, t, scenario.f, rng)


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

    ``lease`` opts into engine reuse: runs whose non-seed configuration
    matches a previous run through the same :class:`EngineLease` reset
    that run's engine instead of constructing a new one.  Records are
    identical either way; sweeps hold a lease per chunk.
    """
    check_batched(batched)
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

    rng = RandomSource(scenario.seed)
    workload = WORKLOADS.get(scenario.workload)
    _check_keys(
        scenario.workload_params, workload.param_keys, "parameter",
        f"workload {scenario.workload!r}",
    )
    proposals = workload.build(n, rng.spawn("workload"), dict(scenario.workload_params))
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

    if algo.backend in ("extended", "classic"):
        return _execute_sync(scenario, algo, n, t, proposals, rng, trace, batched, lease)
    if algo.backend == "async":
        return _execute_async(scenario, algo, n, t, proposals, rng, batched, lease)
    if algo.backend == "ffd":
        return _execute_ffd(scenario, algo, n, t, proposals, rng)
    raise ConfigurationError(f"unhandled backend {algo.backend!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Round-based backends.
# ---------------------------------------------------------------------------


def _execute_sync(
    scenario: Scenario,
    algo: AlgorithmDef,
    n: int,
    t: int,
    proposals: list[Any],
    rng: RandomSource,
    trace: bool,
    batched: bool | None = None,
    lease: EngineLease | None = None,
) -> RunRecord:
    from repro.sync.engine import ClassicSynchronousEngine
    from repro.sync.extended import ExtendedSynchronousEngine
    from repro.sync.spec import check_consensus

    adversary_name = scenario.adversary
    if algo.backend == "classic" and adversary_name == "random":
        adversary_name = "random-classic"  # classic model: no control step
    adv = ADVERSARIES.get(adversary_name)
    if adv.make_sync is None:
        raise ConfigurationError(
            f"adversary {adversary_name!r} has no synchronous crash plan"
        )
    schedule = adv.make_sync(scenario.f).schedule(n, t, rng.spawn("adversary"))
    engine_cls = (
        ExtendedSynchronousEngine if algo.backend == "extended" else ClassicSynchronousEngine
    )
    engine = None
    key: tuple | None = None
    if lease is not None:
        key = EngineLease.key_for(scenario, trace, batched)
        engine = lease.get(key)
    # A leased engine with a refillable vector table takes the run with
    # no process construction at all: the table columns are rewritten in
    # place from the proposals.  Only when that is declined does the
    # n-object factory run (fresh construction or full reset).
    if engine is None or not engine.refill(
        proposals, schedule, rng=rng.spawn("engine"), trace=trace
    ):
        procs = algo.factory(n, t, proposals, dict(scenario.params))
        if engine is None:
            engine = engine_cls(
                procs, schedule, t=t, rng=rng.spawn("engine"), trace=trace,
                batched=batched,
            )
            if lease is not None:
                lease.put(key, engine)
        else:
            engine.reset(
                procs, schedule, rng=rng.spawn("engine"), trace=trace, batched=batched
            )
    result = engine.run(scenario.max_rounds)

    if algo.spec is not None:
        violations = tuple(algo.spec(result))
    else:
        violations = check_consensus(result).violations
    # Straight off the engine's ledgers (identical to the per-outcome
    # derivation but with C-level dict copies instead of an n-wide
    # attribute-reading loop).
    decisions = engine.decisions
    decision_rounds = engine.decision_rounds
    crashed = sorted(engine.crashed_rounds)
    last_decision_round = max(decision_rounds.values(), default=0)
    return RunRecord(
        scenario=scenario,
        backend=algo.backend,
        decisions=decisions,
        decision_rounds=decision_rounds,
        crashed=crashed,
        f_actual=len(crashed),
        rounds_executed=result.rounds_executed,
        last_decision_round=last_decision_round,
        messages_sent=result.stats.messages_sent,
        bits_sent=result.stats.bits_sent,
        spec_ok=not violations,
        violations=violations,
        raw=result,
    )


# ---------------------------------------------------------------------------
# Asynchronous (◇S) backend.
# ---------------------------------------------------------------------------


def _execute_async(
    scenario: Scenario,
    algo: AlgorithmDef,
    n: int,
    t: int,
    proposals: list[Any],
    rng: RandomSource,
    batched: bool | None = None,
    lease: EngineLease | None = None,
) -> RunRecord:
    from repro.asyncsim.failure_detector import DetectorSpec
    from repro.asyncsim.runner import AsyncCrash, AsyncRunner

    timing = dict(scenario.timing)
    _check_timing_keys(timing, "async")
    crashes = [
        AsyncCrash(pid, time)
        for pid, time in _timed_crashes(scenario, n, t, rng.spawn("adversary"))
    ]
    runner = None
    key: tuple | None = None
    if lease is not None:
        key = EngineLease.key_for(scenario, False, batched)
        runner = lease.get(key)
    # Mirror of the synchronous path: a leased runner with a refillable
    # columnar table reruns the configuration without constructing a
    # single process object.
    if runner is None or not runner.refill(
        proposals, crashes=crashes, rng=rng.spawn("engine")
    ):
        procs = algo.factory(n, t, proposals, dict(scenario.params))
        if runner is None:
            detector = DetectorSpec(
                stabilization_time=float(timing.get("stabilization_time", 0.0)),
                detection_latency=float(timing.get("detection_latency", 1.0)),
                churn_rate=float(timing.get("churn_rate", 0.0)),
                false_suspicion_duration=float(
                    timing.get("false_suspicion_duration", 1.0)
                ),
            )
            runner = AsyncRunner(
                procs,
                t=t,
                crashes=crashes,
                delay_model=delay_model_from(timing),
                detector_spec=detector,
                rng=rng.spawn("engine"),
                batched=batched,
            )
            if lease is not None:
                lease.put(key, runner)
        else:
            runner.reset(procs, crashes=crashes, rng=rng.spawn("engine"))
    result = runner.run(
        until=float(timing.get("until", 10_000.0)),
        max_events=int(timing.get("max_events", 2_000_000)),
    )
    violations = tuple(result.check_consensus())
    last_round = max(result.decision_rounds.values(), default=0)
    return RunRecord(
        scenario=scenario,
        backend="async",
        decisions=dict(result.decisions),
        decision_rounds=dict(result.decision_rounds),
        crashed=sorted(result.crashed),
        f_actual=result.f,
        rounds_executed=last_round,
        last_decision_round=last_round,
        messages_sent=result.stats.messages_sent,
        bits_sent=result.stats.bits_sent,
        spec_ok=not violations,
        violations=violations,
        sim_time=result.sim_time,
        raw=result,
    )


# ---------------------------------------------------------------------------
# Fast-failure-detector backend.
# ---------------------------------------------------------------------------


def _execute_ffd(
    scenario: Scenario,
    algo: AlgorithmDef,
    n: int,
    t: int,
    proposals: list[Any],
    rng: RandomSource,
) -> RunRecord:
    from repro.ffd.consensus import run_ffd_consensus
    from repro.ffd.timed import TimedCrash, TimedSpec

    timing = dict(scenario.timing)
    _check_timing_keys(timing, "ffd")
    spec = TimedSpec(
        n=n,
        D=float(timing.get("D", 100.0)),
        d=float(timing.get("d", 1.0)),
        delta_min=float(timing.get("delta_min", 0.3)),
    )
    crashes = [
        TimedCrash(pid, time)
        for pid, time in _timed_crashes(scenario, n, t, rng.spawn("adversary"))
    ]
    result = run_ffd_consensus(spec, proposals, crashes, rng=rng.spawn("engine"))
    violations = tuple(result.check_consensus())
    stats = result.stats
    return RunRecord(
        scenario=scenario,
        backend="ffd",
        decisions=dict(result.decisions),
        decision_rounds={pid: 0 for pid in result.decisions},
        crashed=sorted(result.crashed),
        f_actual=result.f,
        rounds_executed=0,
        last_decision_round=0,
        messages_sent=stats.messages_sent if stats is not None else 0,
        bits_sent=stats.bits_sent if stats is not None else 0,
        spec_ok=not violations,
        violations=violations,
        sim_time=result.sim_time,
        raw=result,
    )
