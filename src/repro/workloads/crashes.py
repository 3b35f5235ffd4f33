"""Named crash adversaries: ``name -> Adversary`` constructors."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sync.adversary import (
    Adversary,
    CommitSplitter,
    CoordinatorKiller,
    MaxTrafficCascade,
    NoCrash,
    RandomCrashes,
    StaggeredKiller,
)

__all__ = ["ADVERSARIES", "make_adversary"]

#: Registry of named adversary constructors: name -> callable(f) -> Adversary.
ADVERSARIES = {
    "none": lambda f: NoCrash(),
    "coordinator-killer": lambda f: CoordinatorKiller(f),
    "coordinator-killer-subset": lambda f: CoordinatorKiller(f, deliver_to_none=False),
    "commit-splitter": lambda f: CommitSplitter(f),
    "max-traffic": lambda f: MaxTrafficCascade(f),
    "staggered": lambda f: StaggeredKiller(f),
    "random": lambda f: RandomCrashes(f),
    "random-classic": lambda f: RandomCrashes(f, classic=True),
}


def make_adversary(name: str, f: int) -> Adversary:
    """Instantiate a registered adversary by name."""
    try:
        ctor = ADVERSARIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown adversary {name!r}; available: {sorted(ADVERSARIES)}"
        ) from None
    return ctor(f)

