"""The declarative :class:`Scenario` — one JSON-serializable run description.

A scenario names *what* to run (algorithm, system size, fault budget,
adversary, proposal workload, timing model, seed) without touching *how*
it runs; :func:`repro.scenarios.execute.execute` resolves the names
against the registries in :mod:`repro.scenarios.registry` and drives
the algorithm's backend: the extended or classic synchronous engine,
the asynchronous event simulator, or the timed fast-failure-detector
environment.  (Cross-model embeddings from ``repro.simulation`` are
separate, direct-call utilities.)

Scenarios are plain data: they round-trip through JSON (``to_json`` /
``from_json``), compare by value, and are safe to pickle across process
boundaries — which is what lets :class:`repro.scenarios.sweep.SweepRunner`
fan a grid of them out over the sharded fabric's worker processes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "Scenario",
    "scenario_key",
    "scenario_delta",
    "apply_scenario_delta",
    "SCENARIO_FIELDS",
]


@dataclass(frozen=True)
class Scenario:
    """One fully specified consensus run, as data.

    Parameters
    ----------
    algorithm:
        Name in the algorithm registry (``repro.scenarios.ALGORITHMS``).
    n:
        Number of processes (pids ``1..n``).
    t:
        Resilience bound; ``None`` uses the algorithm's default rule
        (``n - 1`` for synchronous algorithms, the majority bound
        ``(n - 1) // 2`` for the ◇S-based asynchronous ones).
    f:
        Crash budget handed to the adversary for this run.
    adversary:
        Name in the adversary registry (crash plan family).
    workload:
        Name in the workload registry (proposal-vector generator), with
        generator keyword arguments in ``workload_params``.
    timing:
        Timing/delay parameters for the continuous-time backends, e.g.
        ``{"delay": "lognormal", "mu": 0.0, "sigma": 0.75}`` for the
        asynchronous simulator or ``{"D": 100.0, "d": 1.0}`` for the
        fast-failure-detector model.  Ignored by the round-based engines.
    seed:
        Root seed; every stochastic component draws from a labelled
        child stream, so a run is a pure function of the scenario.
    max_rounds:
        Round budget override for the synchronous engines.
    params:
        Algorithm-specific extras (e.g. ``{"k": 2}`` for ``truncated-crw``).
    model:
        Optional assertion of the execution model ("extended",
        "classic", "async", "ffd").  ``None`` means "whatever backend the
        algorithm runs on"; a mismatch is rejected at execution time.
    """

    algorithm: str
    n: int
    t: int | None = None
    f: int = 0
    adversary: str = "none"
    workload: str = "distinct-ints"
    workload_params: dict[str, Any] = field(default_factory=dict)
    timing: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    max_rounds: int | None = None
    params: dict[str, Any] = field(default_factory=dict)
    model: str | None = None

    def __post_init__(self) -> None:
        # Snapshot the dict fields: a frozen Scenario must not change
        # value (or JSONL resume key) when the caller mutates the dicts
        # it passed in.
        for name in ("workload_params", "timing", "params"):
            object.__setattr__(self, name, dict(getattr(self, name)))
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise ConfigurationError("scenario needs an algorithm name")
        for name in ("n", "t", "f", "max_rounds"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, int):
                # Hand-authored JSON with quoted numbers would otherwise
                # surface as a raw TypeError from the comparisons below.
                raise ConfigurationError(
                    f"{name} must be an int, got {type(value).__name__}"
                )
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.f < 0:
            raise ConfigurationError(f"f must be >= 0, got {self.f}")
        if self.t is not None and not 0 <= self.t < self.n:
            raise ConfigurationError(
                f"t must satisfy 0 <= t < n, got t={self.t}, n={self.n}"
            )
        if self.t is not None and self.f > self.t:
            raise ConfigurationError(f"f={self.f} exceeds t={self.t}")
        if not isinstance(self.seed, int):
            raise ConfigurationError("seed must be an int")

    # -- derived -----------------------------------------------------------

    def with_(self, **changes: Any) -> "Scenario":
        """A copy with the given fields replaced (grid-expansion helper)."""
        return replace(self, **changes)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (stable key order, JSON-ready)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; unknown and missing keys are rejected."""
        fields = {f for f in cls.__dataclass_fields__}
        extra = set(data) - fields
        if extra:
            raise ConfigurationError(f"unknown scenario keys: {sorted(extra)}")
        try:
            return cls(**dict(data))
        except TypeError as exc:
            # Missing required keys (e.g. a hand-written file without
            # "algorithm") must surface as the scenario layer's own error,
            # not a raw TypeError that bypasses the curated CLI/resume paths.
            raise ConfigurationError(f"incomplete scenario: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigurationError("scenario JSON must be an object")
        return cls.from_dict(data)


def scenario_key(scenario: Scenario) -> str:
    """Canonical string identity of a scenario (JSONL resume key)."""
    return scenario.to_json()


#: Field names of :class:`Scenario`, in declaration order (delta helpers
#: iterate this instead of rediscovering the dataclass shape per cell).
SCENARIO_FIELDS: tuple[str, ...] = tuple(Scenario.__dataclass_fields__)


def _same_wire_value(a: Any, b: Any) -> bool:
    """Type-exact equality for delta elision.

    Plain ``==`` is too loose for a wire format: ``1 == 1.0 == True`` and
    ``(1, 2) == [1, 2]``, yet the variants serialize (and resume-key)
    differently — eliding such a field would rebuild the cell with the
    *base's* spelling and silently change its canonical key.  A field is
    droppable only when every element matches in concrete type and value.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _same_wire_value(v, b[k]) for k, v in a.items()
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_wire_value, a, b))
    return a == b


def scenario_delta(base: Scenario | None, cell: Scenario) -> dict[str, Any]:
    """The **CellDelta** wire form of ``cell``: fields differing from ``base``.

    Grid cells differ from a shared base in a handful of fields (typically
    just the seed, sometimes ``f``/``n``/``algorithm``), so shipping one
    base-scenario dict plus per-cell deltas replaces a full scenario dict
    per cell — both across the shard-worker pipes and in the columnar
    JSONL lines.  Field values are compared directly on the dataclass (no
    ``asdict`` materialization), with concrete types respected (see
    :func:`_same_wire_value`); ``base=None`` yields the full dict.
    ``apply_scenario_delta`` is the exact inverse.
    """
    if base is None:
        return cell.to_dict()
    delta = {
        name: getattr(cell, name)
        for name in SCENARIO_FIELDS
        if not _same_wire_value(getattr(cell, name), getattr(base, name))
    }
    # Dict-valued fields are snapshotted so a wire/JSONL payload can never
    # alias live scenario state (scalars are immutable already).
    for name in ("workload_params", "timing", "params"):
        if name in delta:
            delta[name] = dict(delta[name])
    return delta


def apply_scenario_delta(
    base: Scenario | None, delta: Mapping[str, Any]
) -> Scenario:
    """Rebuild the scenario a :func:`scenario_delta` described.

    With a ``base``, the delta's fields replace the base's (re-running
    scenario validation through ``with_``); without one the delta must be
    a full scenario dict.
    """
    if base is None:
        return Scenario.from_dict(delta)
    if not delta:
        return base
    unknown = set(delta) - set(SCENARIO_FIELDS)
    if unknown:
        raise ConfigurationError(f"unknown scenario keys: {sorted(unknown)}")
    return base.with_(**delta)
