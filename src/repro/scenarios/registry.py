"""Unified registries: algorithms, adversaries, and proposal workloads.

This module is the single naming authority the scenario layer resolves
against.  It covers every algorithm shipped in the repository, across
all four execution backends, and every adversary of
``workloads.crashes.ADVERSARIES`` plus the timed-model plans:

========== =========================================================
backend     algorithms
========== =========================================================
extended    ``crw``, ``eager-crw``, ``truncated-crw``,
            ``increasing-commit-crw``, ``full-broadcast-crw``
classic     ``floodset``, ``early-stopping``,
            ``interactive-consistency``, ``ic-consensus``
async       ``mr99``, ``chandra-toueg``
ffd         ``ffd``
========== =========================================================

Registration is explicit and duplicate-safe: :func:`register_algorithm`,
:func:`register_adversary`, and :func:`register_workload` raise
:class:`~repro.errors.ConfigurationError` on name collisions unless
``replace=True`` is passed, and lookups of unknown names raise with the
list of available names.  Entries registered at import time here are what
the shard workers of a sharded sweep see; user extensions must be
registered at module import time to be visible in those workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Iterator, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.util.rng import RandomSource

__all__ = [
    "Registry",
    "AlgorithmDef",
    "AdversaryDef",
    "WorkloadDef",
    "ALGORITHMS",
    "ADVERSARIES",
    "WORKLOADS",
    "register_algorithm",
    "register_adversary",
    "register_workload",
]

T = TypeVar("T")

#: Execution backends a registered algorithm may target.
BACKENDS = ("extended", "classic", "async", "ffd")


class Registry(Generic[T]):
    """A named table with duplicate rejection and helpful unknown-name errors."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, T] = {}

    def register(self, name: str, value: T, *, replace: bool = False) -> T:
        if not name or not isinstance(name, str):
            raise ConfigurationError(f"{self.kind} name must be a non-empty string")
        if name in self._entries and not replace:
            raise ConfigurationError(
                f"{self.kind} {name!r} is already registered (pass replace=True to override)"
            )
        self._entries[name] = value
        return value

    def get(self, name: str) -> T:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; available: {sorted(self._entries)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> list[tuple[str, T]]:
        return sorted(self._entries.items())

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Entry shapes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgorithmDef:
    """How to instantiate one consensus algorithm on its backend.

    ``factory(n, t, proposals, params)`` builds the process list for the
    round-based and asynchronous backends (the ``ffd`` backend wires its
    own processes inside :func:`repro.ffd.consensus.run_ffd_consensus`).
    ``spec`` optionally overrides the default uniform-consensus check for
    algorithms whose decision values are not proposals (interactive
    consistency decides vectors).  ``round_bound(f, t)`` is the latest
    decision round, from :mod:`repro.analysis.formulas`; it is ``None``
    where no paper formula applies.  ``param_keys`` declares the
    ``Scenario.params`` keys the factory reads;
    :func:`~repro.scenarios.execute.execute` rejects any other key (by
    default every key: most algorithms read no params).
    """

    name: str
    backend: str
    factory: Callable[[int, int, Sequence[Any], dict[str, Any]], list[Any]] | None
    round_bound: Callable[[int, int], int] | None = None
    default_t: Callable[[int], int] = lambda n: n - 1
    spec: Callable[[Any], list[str]] | None = None
    description: str = ""
    param_keys: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"algorithm {self.name!r}: backend must be one of {BACKENDS}, "
                f"got {self.backend!r}"
            )


@dataclass(frozen=True)
class AdversaryDef:
    """A named crash-plan family, per backend.

    ``make_sync(f)`` yields a :class:`repro.sync.adversary.Adversary` for
    the round-based engines; ``make_timed(n, t, f, rng)`` yields
    ``(pid, time)`` crash instants for the continuous-time backends.  An
    adversary may support either or both; using one on an unsupported
    backend is a configuration error.  A synchronous schedule may depend
    on the seed only through draws from the ``rng`` it is handed:
    :func:`~repro.scenarios.execute.execute` reuses a schedule built
    without a draw for every seed of its configuration.
    """

    name: str
    make_sync: Callable[[int], Any] | None = None
    make_timed: Callable[[int, int, int, RandomSource], list[tuple[int, float]]] | None = None
    description: str = ""


@dataclass(frozen=True)
class WorkloadDef:
    """A named proposal-vector generator: ``build(n, rng, params)``.

    ``param_keys`` declares the ``Scenario.workload_params`` keys
    ``build`` reads (default: none), as on :class:`AlgorithmDef`.
    """

    name: str
    build: Callable[[int, RandomSource, dict[str, Any]], list[Any]]
    description: str = ""
    param_keys: frozenset[str] = frozenset()


def _number_param(
    params: dict[str, Any], key: str, default: Any, kind: type, owner: str
) -> Any:
    """``kind(params.get(key, default))``, raising ConfigurationError if it fails."""
    value = params.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"{owner}: parameter {key!r} must be {kind.__name__}-valued, "
            f"got {value!r}"
        ) from None


ALGORITHMS: Registry[AlgorithmDef] = Registry("algorithm")
ADVERSARIES: Registry[AdversaryDef] = Registry("adversary")
WORKLOADS: Registry[WorkloadDef] = Registry("workload")


def register_algorithm(algo: AlgorithmDef, *, replace: bool = False) -> AlgorithmDef:
    """Register ``algo`` under ``algo.name``; rejects duplicates."""
    return ALGORITHMS.register(algo.name, algo, replace=replace)


def register_adversary(adv: AdversaryDef, *, replace: bool = False) -> AdversaryDef:
    """Register ``adv`` under ``adv.name``; rejects duplicates."""
    return ADVERSARIES.register(adv.name, adv, replace=replace)


def register_workload(wl: WorkloadDef, *, replace: bool = False) -> WorkloadDef:
    """Register ``wl`` under ``wl.name``; rejects duplicates."""
    return WORKLOADS.register(wl.name, wl, replace=replace)


# ---------------------------------------------------------------------------
# Built-in algorithms.
# ---------------------------------------------------------------------------


def _register_builtin_algorithms() -> None:
    from repro.analysis.formulas import (
        crw_round_bound,
        early_stopping_round_bound,
        floodset_rounds,
    )
    from repro.asyncsim.chandra_toueg import ChandraTouegConsensus
    from repro.asyncsim.mr99 import MR99Consensus
    from repro.baselines.early_stopping import EarlyStoppingConsensus
    from repro.baselines.floodset import FloodSetConsensus
    from repro.baselines.interactive_consistency import (
        ICConsensus,
        InteractiveConsistency,
        check_interactive_consistency,
    )
    from repro.core.crw import CRWConsensus
    from repro.core.variants import (
        EagerCRW,
        FullBroadcastCRW,
        IncreasingCommitCRW,
        TruncatedCRW,
    )

    majority_t = lambda n: max(0, (n - 1) // 2)  # noqa: E731

    def crw_like(cls):
        return lambda n, t, props, params: [
            cls(pid, n, props[pid - 1]) for pid in range(1, n + 1)
        ]

    def classic_with_t(cls):
        return lambda n, t, props, params: [
            cls(pid, n, props[pid - 1], t) for pid in range(1, n + 1)
        ]

    crw_bound = lambda f, t: crw_round_bound(f)  # noqa: E731
    flood_bound = lambda f, t: floodset_rounds(t)  # noqa: E731

    register_algorithm(AlgorithmDef(
        name="crw",
        backend="extended",
        factory=crw_like(CRWConsensus),
        round_bound=crw_bound,
        description="the paper's Figure-1 algorithm (f+1 rounds, extended model)",
    ))
    register_algorithm(AlgorithmDef(
        name="eager-crw",
        backend="extended",
        factory=crw_like(EagerCRW),
        round_bound=crw_bound,
        description="ablation: decides on DATA alone (agreement breaks under crashes)",
    ))
    register_algorithm(AlgorithmDef(
        name="truncated-crw",
        backend="extended",
        factory=lambda n, t, props, params: [
            TruncatedCRW(
                pid, n, props[pid - 1],
                k=_number_param(params, "k", max(t, 1), int, "algorithm 'truncated-crw'"),
            )
            for pid in range(1, n + 1)
        ],
        description="ablation: force-decides at round k (params: k, default max(t, 1))",
        param_keys=frozenset({"k"}),
    ))
    register_algorithm(AlgorithmDef(
        name="increasing-commit-crw",
        backend="extended",
        factory=crw_like(IncreasingCommitCRW),
        description="ablation: COMMIT order reversed (safe, loses the f+1 bound)",
    ))
    register_algorithm(AlgorithmDef(
        name="full-broadcast-crw",
        backend="extended",
        factory=crw_like(FullBroadcastCRW),
        round_bound=crw_bound,
        description="ablation: coordinator broadcasts to everyone (extra traffic)",
    ))
    register_algorithm(AlgorithmDef(
        name="floodset",
        backend="classic",
        factory=classic_with_t(FloodSetConsensus),
        round_bound=flood_bound,
        description="textbook flooding consensus (t+1 rounds, classic model)",
    ))
    register_algorithm(AlgorithmDef(
        name="early-stopping",
        backend="classic",
        factory=classic_with_t(EarlyStoppingConsensus),
        round_bound=early_stopping_round_bound,
        description="early-stopping classic consensus (min(f+2, t+1) rounds)",
    ))
    register_algorithm(AlgorithmDef(
        name="interactive-consistency",
        backend="classic",
        factory=classic_with_t(InteractiveConsistency),
        round_bound=flood_bound,
        spec=lambda result: check_interactive_consistency(result),
        description="flooding IC: agree on the full proposal vector (t+1 rounds)",
    ))
    register_algorithm(AlgorithmDef(
        name="ic-consensus",
        backend="classic",
        factory=classic_with_t(ICConsensus),
        round_bound=flood_bound,
        description="the IC -> consensus reduction (decide the minimum entry)",
    ))
    register_algorithm(AlgorithmDef(
        name="mr99",
        backend="async",
        factory=classic_with_t(MR99Consensus),
        default_t=majority_t,
        description="Mostefaoui-Raynal ◇S consensus (async, t < n/2)",
    ))
    register_algorithm(AlgorithmDef(
        name="chandra-toueg",
        backend="async",
        factory=classic_with_t(ChandraTouegConsensus),
        default_t=majority_t,
        description="Chandra-Toueg ◇S consensus (async, t < n/2)",
    ))
    register_algorithm(AlgorithmDef(
        name="ffd",
        backend="ffd",
        factory=None,
        default_t=lambda n: n - 1,
        description="fast-failure-detector consensus, decides by D + f*d (ALT02)",
    ))


# ---------------------------------------------------------------------------
# Built-in adversaries.
# ---------------------------------------------------------------------------


def _initial_crashes(n: int, t: int, f: int, rng: RandomSource) -> list[tuple[int, float]]:
    """Crash the first ``f`` rotating coordinators at time 0."""
    return [(pid, 0.0) for pid in range(1, min(f, n) + 1)]


def _staggered_crashes(n: int, t: int, f: int, rng: RandomSource) -> list[tuple[int, float]]:
    """Crash the ``f`` highest pids (never early coordinators), spread in time."""
    return [(n - i, float(i)) for i in range(min(f, n))]


def _random_crashes(n: int, t: int, f: int, rng: RandomSource) -> list[tuple[int, float]]:
    pids = rng.sample(range(1, n + 1), min(f, n))
    return [(pid, rng.uniform(0.0, 5.0)) for pid in pids]


def _register_builtin_adversaries() -> None:
    from repro.workloads.crashes import ADVERSARIES as LEGACY_SYNC

    timed = {
        "none": lambda n, t, f, rng: [],
        "coordinator-killer": _initial_crashes,
        "staggered": _staggered_crashes,
        "random": _random_crashes,
    }
    descriptions = {
        "none": "failure-free",
        "coordinator-killer": "crashes each rotating coordinator mid-control-step",
        "coordinator-killer-subset": "cascade delivering to a random subset",
        "commit-splitter": "splits the COMMIT prefix at the worst position",
        "max-traffic": "cascade withholding each COMMIT from the next coordinator",
        "staggered": "crashes processes that are never coordinators",
        "random": "random pids, points, and prefixes",
        "random-classic": "random crashes restricted to classic crash points",
    }
    for name, ctor in LEGACY_SYNC.items():
        register_adversary(AdversaryDef(
            name=name,
            make_sync=ctor,
            make_timed=timed.get(name),
            description=descriptions.get(name, ""),
        ))


# ---------------------------------------------------------------------------
# Built-in workloads.
# ---------------------------------------------------------------------------


def _register_builtin_workloads() -> None:
    from repro.workloads import proposals as P

    def num(params, key, default, kind, workload):
        return _number_param(params, key, default, kind, f"workload {workload!r}")

    register_workload(WorkloadDef(
        name="distinct-ints",
        build=lambda n, rng, params: P.distinct_ints(
            n, base=num(params, "base", 100, int, "distinct-ints")
        ),
        description="everyone proposes a distinct int (base+pid)",
        param_keys=frozenset({"base"}),
    ))
    register_workload(WorkloadDef(
        name="sized",
        build=lambda n, rng, params: P.sized_proposals(
            n,
            bits=num(params, "bits", 64, int, "sized"),
            base=num(params, "base", 100, int, "sized"),
        ),
        description="distinct values with a declared wire width (params: bits)",
        param_keys=frozenset({"bits", "base"}),
    ))
    register_workload(WorkloadDef(
        name="identical",
        build=lambda n, rng, params: P.identical(n, value=params.get("value", 7)),
        description="everyone proposes the same value",
        param_keys=frozenset({"value"}),
    ))
    register_workload(WorkloadDef(
        name="binary",
        build=lambda n, rng, params: P.binary_vector(
            n, rng, p_one=num(params, "p_one", 0.5, float, "binary")
        ),
        description="random 0/1 proposals (params: p_one)",
        param_keys=frozenset({"p_one"}),
    ))
    register_workload(WorkloadDef(
        name="skewed",
        build=lambda n, rng, params: P.skewed(
            n, rng, alphabet=num(params, "alphabet", 3, int, "skewed")
        ),
        description="small-alphabet random proposals (params: alphabet)",
        param_keys=frozenset({"alphabet"}),
    ))


_register_builtin_algorithms()
_register_builtin_adversaries()
_register_builtin_workloads()
