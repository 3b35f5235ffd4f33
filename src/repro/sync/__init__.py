"""Synchronous round-based engines (classic and extended models)."""

from repro.sync.adversary import (
    Adversary,
    CommitSplitter,
    CoordinatorKiller,
    MaxTrafficCascade,
    NoCrash,
    RandomCrashes,
    StaggeredKiller,
)
from repro.sync.api import NO_SEND, RoundInbox, SendPlan, SyncProcess
from repro.sync.crash import (
    CrashEvent,
    CrashPoint,
    CrashSchedule,
    Prefix,
    ResolvedCrash,
    Subset,
)
from repro.sync.engine import (
    ClassicSynchronousEngine,
    RoundOutcome,
    SynchronousEngine,
    execute_round,
)
from repro.sync.extended import ExtendedSynchronousEngine
from repro.sync.result import RunResult
from repro.sync.spec import SpecReport, assert_consensus, check_consensus

__all__ = [
    "Adversary",
    "CommitSplitter",
    "CoordinatorKiller",
    "MaxTrafficCascade",
    "NoCrash",
    "RandomCrashes",
    "StaggeredKiller",
    "NO_SEND",
    "RoundInbox",
    "SendPlan",
    "SyncProcess",
    "CrashEvent",
    "CrashPoint",
    "CrashSchedule",
    "Prefix",
    "ResolvedCrash",
    "Subset",
    "ClassicSynchronousEngine",
    "RoundOutcome",
    "SynchronousEngine",
    "execute_round",
    "ExtendedSynchronousEngine",
    "RunResult",
    "SpecReport",
    "assert_consensus",
    "check_consensus",
]
