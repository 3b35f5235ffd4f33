"""repro — reproduction of Cao–Raynal–Wang–Wu (ICPP'06).

*The Power and Limit of Adding Synchronization Messages for Synchronous
Agreement*: an extended round-based synchronous model whose send phase
pipelines an ordered 1-bit synchronization ("commit") step behind the data
step, a rotating-coordinator uniform consensus algorithm deciding in at
most ``f + 1`` rounds, and the matching ``f + 1`` lower bound.

Quickstart (the unified scenario API — one declarative entry point over
the extended/classic synchronous engines, the asynchronous ◇S simulator,
and the timed fast-failure-detector backend)::

    from repro import Scenario, execute

    record = execute(Scenario(algorithm="crw", n=8, f=2, adversary="coordinator-killer"))
    assert record.spec_ok and record.last_decision_round == record.f_actual + 1

Every registered algorithm (``repro.scenarios.ALGORITHMS``) runs through
the same three lines; swap ``algorithm="mr99"`` or ``"ffd"`` to change
execution stack without changing code.  Engines remain directly usable
for fine-grained control (see :mod:`repro.sync.engine`).

See ``DESIGN.md`` for the system inventory, the experiment index, and
the scenario-layer extension guide.
"""

from repro._version import __version__
from repro.analysis import (
    crossover_d,
    decision_skew,
    skew_profile,
    verify_pipelining_invariant,
)
from repro.asyncsim import (
    AsyncCrash,
    AsyncRunner,
    ChandraTouegConsensus,
    DetectorSpec,
    MR99Consensus,
)
from repro.baselines import EarlyStoppingConsensus, FloodSetConsensus
from repro.ffd import TimedCrash, TimedSpec, run_ffd_consensus
from repro.lowerbound import (
    ExplorationConfig,
    Explorer,
    certify_f_plus_one,
    certify_no_run_exceeds,
    refute_round_bound,
)
from repro.rsm import Command, KVStore, ReplicatedLog
from repro.scenarios import (
    EngineLease,
    RunRecord,
    Scenario,
    SweepRunner,
    execute,
    expand_grid,
    register_adversary,
    register_algorithm,
    register_workload,
)
from repro.simulation import run_classic_on_extended, run_extended_on_classic
from repro.snapshot import TransferSystem
from repro.core import (
    CRWConsensus,
    EagerCRW,
    IncreasingCommitCRW,
    TruncatedCRW,
    analyze_locking,
)
from repro.errors import (
    ConfigurationError,
    ModelViolationError,
    ReproError,
    SimulationError,
    SpecViolationError,
)
from repro.net import Message, MessageKind, MessageStats, SizedValue, bit_size
from repro.sync import (
    ClassicSynchronousEngine,
    CommitSplitter,
    CoordinatorKiller,
    CrashEvent,
    CrashPoint,
    CrashSchedule,
    ExtendedSynchronousEngine,
    NoCrash,
    RandomCrashes,
    RoundInbox,
    RunResult,
    SendPlan,
    StaggeredKiller,
    SyncProcess,
    assert_consensus,
    check_consensus,
)

__all__ = [
    "__version__",
    "crossover_d",
    "decision_skew",
    "skew_profile",
    "verify_pipelining_invariant",
    "AsyncCrash",
    "AsyncRunner",
    "ChandraTouegConsensus",
    "DetectorSpec",
    "MR99Consensus",
    "TimedCrash",
    "TimedSpec",
    "run_ffd_consensus",
    "Scenario",
    "RunRecord",
    "execute",
    "EngineLease",
    "SweepRunner",
    "expand_grid",
    "register_algorithm",
    "register_adversary",
    "register_workload",
    "ExplorationConfig",
    "Explorer",
    "certify_f_plus_one",
    "certify_no_run_exceeds",
    "refute_round_bound",
    "Command",
    "KVStore",
    "ReplicatedLog",
    "run_classic_on_extended",
    "run_extended_on_classic",
    "TransferSystem",
    "EarlyStoppingConsensus",
    "FloodSetConsensus",
    "CRWConsensus",
    "EagerCRW",
    "IncreasingCommitCRW",
    "TruncatedCRW",
    "analyze_locking",
    "ConfigurationError",
    "ModelViolationError",
    "ReproError",
    "SimulationError",
    "SpecViolationError",
    "Message",
    "MessageKind",
    "MessageStats",
    "SizedValue",
    "bit_size",
    "ClassicSynchronousEngine",
    "CommitSplitter",
    "CoordinatorKiller",
    "CrashEvent",
    "CrashPoint",
    "CrashSchedule",
    "ExtendedSynchronousEngine",
    "NoCrash",
    "RandomCrashes",
    "RoundInbox",
    "RunResult",
    "SendPlan",
    "StaggeredKiller",
    "SyncProcess",
    "assert_consensus",
    "check_consensus",
]
