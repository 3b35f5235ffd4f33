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

A sweep keys, groups and resumes thousands of cells that differ only in
their seed, so the per-cell identities are built once per distinct
*configuration* (every field but the seed):

* :func:`config_identity` is a cheap hashable tuple of the non-seed
  fields, exact to the wire (the dict fields enter as their canonical
  JSON), shared by the atlas grouping and the key cache;
* :func:`scenario_key` — the canonical JSONL resume key, byte-equal to
  :meth:`Scenario.to_json` — splices ``seed`` between a JSON head and
  tail that a small LRU cache computes once per configuration;
* :class:`CellColumn` decodes a column of :func:`scenario_delta` cells
  (one shard-file batch line) per distinct non-seed delta: each
  configuration is validated once, and cells stay ``(configuration,
  seed)`` pairs until a caller needs :class:`Scenario` objects or keys.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import lru_cache
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "Scenario",
    "CellColumn",
    "config_identity",
    "identity_key",
    "scenario_key",
    "scenario_delta",
    "scenario_deltas",
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
        Round budget override for the synchronous engines (``>= 1``;
        the continuous-time backends accept and ignore it).
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
        for name in ("adversary", "workload", "model"):
            value = getattr(self, name)
            if not isinstance(value, str) and not (name == "model" and value is None):
                raise ConfigurationError(
                    f"{name} must be a name string, got {type(value).__name__}"
                )
        for name in ("n", "t", "f", "seed", "max_rounds"):
            value = getattr(self, name)
            if value is None and name in ("t", "max_rounds"):
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                # Hand-authored JSON with quoted numbers would otherwise
                # surface as a raw TypeError from the comparisons below.
                # Bools run like 0/1 but key as false/true: one grid
                # could run the same cell twice under two keys.
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
        # The engines' own budget check, at the boundary.  The async and
        # ffd backends ignore a valid budget: mixed grids share one base.
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {self.max_rounds}")

    # -- derived -----------------------------------------------------------

    def with_(self, **changes: Any) -> "Scenario":
        """A copy with the given fields replaced (grid-expansion helper)."""
        return replace(self, **changes)

    def _reseeded(self, seed: int) -> "Scenario":
        """``with_(seed=seed)`` without revalidation, for a checked ``seed``.

        Only :class:`CellColumn` calls it: the configuration was validated
        once per column and the seed is an int, so every check
        ``__post_init__`` would rerun is known to pass.  The dict fields
        are still copied, so no two cells alias one dict.
        """
        cell = object.__new__(Scenario)
        state = cell.__dict__
        state.update(self.__dict__)
        state["seed"] = seed
        for name in _DICT_FIELDS:
            state[name] = dict(state[name])
        return cell

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


#: Field names of :class:`Scenario`, in declaration order (delta helpers
#: iterate this instead of rediscovering the dataclass shape per cell).
SCENARIO_FIELDS: tuple[str, ...] = tuple(Scenario.__dataclass_fields__)

_DICT_FIELDS = ("workload_params", "timing", "params")

#: The fields of :func:`config_identity`, in its tuple order.
_CONFIG_FIELDS = tuple(name for name in SCENARIO_FIELDS if name != "seed")

#: How many config fields sort before ``"seed"`` in the canonical JSON.
_SEED_CUT = sum(name < "seed" for name in _CONFIG_FIELDS)

#: The JSON text of an int: what ``json.dumps`` writes for ints and int
#: subclasses alike (``str`` of an ``IntEnum`` would be its member name).
_int_text = int.__repr__


def _asdict_nested(value: Any) -> Any:
    """``json.dumps`` fallback: a dataclass nested in a dict field
    serializes as ``asdict`` (and so :meth:`Scenario.to_json`) writes it."""
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dict_json(value: dict[str, Any]) -> str:
    return json.dumps(value, sort_keys=True, default=_asdict_nested) if value else "{}"


def config_identity(s: Scenario) -> tuple:
    """Hashable identity of every field but the seed, exact to the wire.

    Two scenarios share it exactly when their canonical JSON differs at
    most in the seed.  The dict fields enter as their canonical JSON
    text (almost always the empty ``"{}"``), so JSON-equal values — a
    tuple-valued param and its decoded list — share a configuration,
    while ``1`` and ``1.0`` do not.  The remaining fields are ints (never
    bools), ``None`` or strings, which hash and compare exactly as they
    serialize.  Tuple order is :data:`_CONFIG_FIELDS`.
    """
    return (
        s.algorithm,
        s.n,
        s.t,
        s.f,
        s.adversary,
        s.workload,
        _dict_json(s.workload_params),
        _dict_json(s.timing),
        s.max_rounds,
        _dict_json(s.params),
        s.model,
    )


@lru_cache(maxsize=1024)
def _key_parts(identity: tuple) -> tuple[str, str]:
    """The canonical JSON of a configuration, cut where the seed goes.

    Built item by item exactly as ``json.dumps(..., sort_keys=True)``
    writes an object: sorted keys, ``", "`` between items, ``": "``
    after keys.  Bounded: a sweep visits its configurations in runs of
    seeds, so a small LRU serves it, and memory never grows with the
    number of configurations ever keyed.
    """
    values = dict(zip(_CONFIG_FIELDS, identity))
    items = [
        f"{json.dumps(name)}: "
        f"{values[name] if name in _DICT_FIELDS else json.dumps(values[name])}"
        for name in sorted(values)
    ]
    return (
        "{" + ", ".join(items[:_SEED_CUT]) + ', "seed": ',
        ", " + ", ".join(items[_SEED_CUT:]) + "}",
    )


def identity_key(identity: tuple, seed: int) -> str:
    """The canonical key of the configuration ``identity`` at ``seed``."""
    head, tail = _key_parts(identity)
    return head + _int_text(seed) + tail


def scenario_key(scenario: Scenario) -> str:
    """Canonical string identity of a scenario (JSONL resume key).

    Byte-equal to :meth:`Scenario.to_json`, but the JSON of everything
    except the seed is built once per configuration (:func:`_key_parts`)
    and the seed is spliced in, so keying a grid costs a tuple and a
    string join per cell instead of an ``asdict`` and a sorted dump.
    """
    return identity_key(config_identity(scenario), scenario.seed)


class CellColumn:
    """A column of scenarios factored per distinct non-seed configuration.

    Cell ``i`` is ``configs[config_of[i]]`` with seed ``seeds[i]``.  This
    is how a shard-file batch line's ``cells`` decode: the grid's cells
    differ from the line's base mostly in their seed, so each distinct
    non-seed delta is validated (and keyed, and grouped) once, and a
    reader that only aggregates never builds a :class:`Scenario` per
    cell.
    """

    __slots__ = ("configs", "config_of", "seeds")

    def __init__(
        self, configs: list[Scenario], config_of: list[int], seeds: list[int]
    ) -> None:
        self.configs = configs
        self.config_of = config_of
        self.seeds = seeds

    def __len__(self) -> int:
        return len(self.seeds)

    @classmethod
    def from_deltas(
        cls, base: Mapping[str, Any] | None, deltas: Sequence[Any]
    ) -> "CellColumn":
        """Decode ``[apply_scenario_delta(base, d) for d in deltas]``, factored.

        Accepts and rejects exactly what that list comprehension does
        (over ``Scenario.from_dict(base)`` for a non-empty ``base``): a
        configuration is validated once, through
        :func:`apply_scenario_delta`, and the seed — the one field its
        checks do not cover — per cell.
        """
        base_scenario = Scenario.from_dict(base) if base else None
        default_seed = base_scenario.seed if base_scenario is not None else 0
        configs: list[Scenario] = []
        config_of: list[int] = []
        seeds: list[int] = []
        # Slots are keyed type-exactly (1, 1.0 and True differ): by the
        # items and their types when hashable, else by repr.  Two
        # spellings of one configuration merely cost a second slot.
        slots: dict[Any, int] = {}
        for delta in deltas:
            if isinstance(delta, Mapping):
                rest = dict(delta)
                seed = rest.pop("seed", default_seed)
            elif not delta:  # apply_scenario_delta returns the base as is
                rest, seed = {}, default_seed
            else:
                raise ConfigurationError(
                    f"a cell delta must be an object, got {type(delta).__name__}"
                )
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ConfigurationError(
                    f"seed must be an int, got {type(seed).__name__}"
                )
            try:
                slot_key: Any = (tuple(rest.items()), tuple(map(type, rest.values())))
                slot = slots.get(slot_key)
            except TypeError:  # a dict-valued field
                slot_key = repr(rest)
                slot = slots.get(slot_key)
            if slot is None:
                slot = slots[slot_key] = len(configs)
                configs.append(apply_scenario_delta(base_scenario, rest))
            config_of.append(slot)
            seeds.append(seed)
        return cls(configs, config_of, seeds)

    def scenarios(self) -> list[Scenario]:
        """The cells as :class:`Scenario` objects, in column order."""
        configs = self.configs
        return [
            configs[c]._reseeded(seed) for c, seed in zip(self.config_of, self.seeds)
        ]

    def keys(self) -> list[str]:
        """Each cell's :func:`scenario_key`, spliced per configuration."""
        parts = [_key_parts(config_identity(config)) for config in self.configs]
        return [
            parts[c][0] + _int_text(seed) + parts[c][1]
            for c, seed in zip(self.config_of, self.seeds)
        ]


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


def _same_config(a: Scenario, b: Scenario) -> bool:
    """Whether ``a`` and ``b`` agree type-exactly on every field but the seed.

    Grid cells of one configuration mostly share their scalar field
    objects, and their dict fields are almost always empty; both cases
    skip the recursive comparison.  A Scenario's fields are ints, strs,
    ``None`` or plain dicts, so two falsy values of one type are equal
    (no ``-0.0`` at the top level).
    """
    da, db = a.__dict__, b.__dict__
    for name in _CONFIG_FIELDS:
        x, y = da[name], db[name]
        if x is y or (not x and not y and type(x) is type(y)):
            continue
        if not _same_wire_value(x, y):
            return False
    return True


def scenario_deltas(base: Scenario, cells: Sequence[Scenario]) -> list[dict[str, Any]]:
    """``[scenario_delta(base, cell) for cell in cells]``, per configuration.

    A grid ships its cells in runs of seeds, so the delta of a run's
    non-seed fields is computed once, when a cell's configuration differs
    type-exactly from the one before it, and each cell adds only its seed
    (when that differs from the base's).  The deltas of one run share
    their dict-valued fields, which are copies, never a cell's own.
    """
    base_seed = base.seed
    deltas: list[dict[str, Any]] = []
    template: dict[str, Any] = {}
    last: Scenario | None = None
    for cell in cells:
        if last is None or not _same_config(last, cell):
            template = scenario_delta(base, cell)
            template.pop("seed", None)
            last = cell
        seed = cell.seed
        delta = dict(template)
        if not _same_wire_value(seed, base_seed):
            delta["seed"] = seed
        deltas.append(delta)
    return deltas


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
