"""Deterministic fault injection for the sweep fabric.

The paper's algorithms tolerate up to *f* crash failures; the fabric
that sweeps them must tolerate failures too, and — as "Asynchrony from
Synchrony" argues at the protocol level — failures belong in the model,
not in an abort path.  Testing the recovery machinery with real SIGKILL
races makes slow, flaky tests, so the dispatcher instead threads a
seeded :class:`FaultPlan` through its workers: every failure mode the
supervisor handles (worker death, hang, poison cell, torn write) is
injected at a deterministic point and exercised by ordinary pytest.

Chaos spec grammar (CLI ``scenario sweep --chaos``)::

    plan    ::= clause (";" clause)*
    clause  ::= kind ":" key "=" value ("," key "=" value)*
    kind    ::= "kill" | "hang" | "raise" | "torn"
    value   ::= integer | "rand"

Per-kind keys:

* ``kill`` — ``worker`` (target index; default: any), ``after`` (die
  right after completing this many shards; ``0`` = on receiving its
  first shard, before running it), ``incarnation`` (default ``0``: only
  the original worker dies, so its respawned replacement makes
  progress).
* ``hang`` — ``shard`` (sleep instead of running it; default: any),
  ``worker``, ``incarnation`` (defaults as above).  The sleep outlasts
  any sane liveness timeout, so the supervisor's hang detection is what
  ends it.
* ``torn`` — ``shard``/``worker``/``incarnation``: after the first
  flushed chunk, append a torn half-line to the shard file and die —
  the retry must heal the tail before resuming.
* ``raise`` — ``cell`` (global grid index): raise
  :class:`FaultInjected` inside that cell.  With ``until=K`` the fault
  is transient — it fires only while the shard's dispatch attempt is
  ``< K`` (exercising retry-with-backoff); without ``until`` the cell
  is poison and ends up quarantined.

``value = rand`` defers the target to :meth:`FaultPlan.bind`, which
resolves it with ``random.Random(seed)`` once the worker/shard/cell
counts are known — seeded chaos, reproducible run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = [
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "parse_chaos",
    "ServiceFaultSpec",
    "ServiceFaultPlan",
    "parse_service_chaos",
]


class FaultInjected(RuntimeError):
    """Raised inside a cell by a ``raise`` fault (poison or transient)."""


#: Valid keys per fault kind (grammar validation).
_KEYS = {
    "kill": {"worker", "after", "incarnation"},
    "hang": {"shard", "worker", "incarnation"},
    "torn": {"shard", "worker", "incarnation"},
    "raise": {"cell", "until"},
}

#: Values of "rand" fields resolved by :meth:`FaultPlan.bind`.
RAND = "rand"


@dataclass(slots=True, frozen=True)
class FaultSpec:
    """One injected fault.  Fields not applicable to ``kind`` stay None."""

    kind: str  # "kill" | "hang" | "raise" | "torn"
    worker: int | str | None = None  # kill/hang/torn: target worker index
    after: int = 1  # kill: shards to complete before dying
    shard: int | str | None = None  # hang/torn: target shard id
    cell: int | str | None = None  # raise: global cell index
    until: int | None = None  # raise: transient while attempt < until
    incarnation: int = 0  # kill/hang/torn: which worker lifetime fires

    def __post_init__(self) -> None:
        if self.kind not in _KEYS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; available: "
                f"{', '.join(sorted(_KEYS))}"
            )
        if self.kind == "raise" and self.cell is None:
            raise ConfigurationError("raise faults need a cell=<index> target")
        if self.after < 0:
            raise ConfigurationError(f"kill after must be >= 0, got {self.after}")


def _parse_value(kind: str, key: str, text: str) -> int | str:
    if text == RAND:
        return RAND
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(
            f"chaos clause {kind!r}: {key}={text!r} is neither an integer "
            f"nor 'rand'"
        ) from None


def _parse_clauses(
    text: str,
    keys: dict[str, set[str]],
    *,
    flags: dict[str, set[str]] | None = None,
    words: dict[str, set[str]] | None = None,
) -> list[tuple[str, dict[str, object]]]:
    """Split a chaos spec into ``(kind, fields)`` clauses against ``keys``.

    The one grammar both fault vocabularies share (fabric workers and the
    consensus service): ``kind:key=value,...`` clauses joined by ``;``.
    ``flags`` names keys usable bare (``kill:leader``, parsed as True);
    ``words`` maps keys to the bare-word values they accept (``point=
    control``) — everything else must be an integer or ``rand``.
    """
    flags = flags or {}
    words = words or {}
    clauses: list[tuple[str, dict[str, object]]] = []
    for raw in text.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        kind, _, body = clause.partition(":")
        kind = kind.strip()
        if kind not in keys:
            raise ConfigurationError(
                f"unknown fault kind {kind!r} in chaos spec {text!r}; "
                f"available: {', '.join(sorted(keys))}"
            )
        fields: dict[str, object] = {}
        for pair in body.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, eq, value = pair.partition("=")
            key = key.strip()
            if not eq and key in flags.get(kind, ()):
                fields[key] = True
                continue
            if not eq or key not in keys[kind]:
                raise ConfigurationError(
                    f"chaos clause {clause!r}: {kind!r} takes "
                    f"{', '.join(sorted(keys[kind]))} (got {pair!r})"
                )
            value = value.strip()
            if key in words:
                if value not in words[key]:
                    raise ConfigurationError(
                        f"chaos clause {clause!r}: {key}={value!r} must be "
                        f"one of {', '.join(sorted(words[key]))}"
                    )
                fields[key] = value
            else:
                fields[key] = _parse_value(kind, key, value)
        clauses.append((kind, fields))
    if not clauses:
        raise ConfigurationError(f"chaos spec {text!r} contains no fault clauses")
    return clauses


def parse_chaos(text: str) -> tuple[FaultSpec, ...]:
    """Parse a chaos spec string into fault specs (see module grammar)."""
    return tuple(
        FaultSpec(kind=kind, **fields)  # type: ignore[arg-type]
        for kind, fields in _parse_clauses(text, _KEYS)
    )


@dataclass(slots=True, frozen=True)
class FaultPlan:
    """A deterministic set of faults threaded through a sharded sweep.

    A plan crosses the process boundary once per worker spawn (it rides
    the ``Process`` args), so it must stay a small, picklable value
    object.  The dispatcher :meth:`bind`\\ s it before the first spawn —
    ``rand`` targets resolve against the real worker/shard/cell counts
    with ``random.Random(seed)`` — and both sides then consult the same
    bound plan: workers check kill/hang/torn/raise points, the parent's
    in-process fallback re-checks only the ``raise`` faults (hang and
    death injection in the parent would kill the sweep itself).
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int | None = None
    #: How long a hang fault sleeps; far beyond any liveness timeout, so
    #: only supervision (or test teardown) ends a hung worker.
    hang_seconds: float = 3600.0

    @classmethod
    def from_spec(
        cls,
        text: str,
        *,
        seed: int | None = None,
        hang_seconds: float = 3600.0,
    ) -> "FaultPlan":
        """Build a plan from the chaos grammar (see module docstring)."""
        return cls(specs=parse_chaos(text), seed=seed, hang_seconds=hang_seconds)

    def bind(self, *, workers: int, shards: int, cells: int) -> "FaultPlan":
        """Resolve every ``rand`` target against the sweep's real sizes."""
        rng = random.Random(self.seed)
        bound: list[FaultSpec] = []
        for spec in self.specs:
            fields = {}
            if spec.worker == RAND:
                fields["worker"] = rng.randrange(workers)
            if spec.shard == RAND:
                fields["shard"] = rng.randrange(shards)
            if spec.cell == RAND:
                fields["cell"] = rng.randrange(cells)
            bound.append(replace(spec, **fields) if fields else spec)
        return replace(self, specs=tuple(bound))

    # -- injection points (bound plans only) -------------------------------

    def kill_now(self, completed: int, worker: int, incarnation: int) -> bool:
        """Worker side: die after ``completed`` shards? (checked per shard,
        and on receiving the first one for ``after=0``)."""
        return any(
            s.kind == "kill"
            and (s.worker is None or s.worker == worker)
            and s.incarnation == incarnation
            and completed >= s.after
            for s in self.specs
        )

    def hang_for(self, shard: int, worker: int, incarnation: int) -> float | None:
        """Worker side: sleep this long instead of running ``shard``."""
        for s in self.specs:
            if (
                s.kind == "hang"
                and (s.shard is None or s.shard == shard)
                and (s.worker is None or s.worker == worker)
                and s.incarnation == incarnation
            ):
                return self.hang_seconds
        return None

    def torn_on(self, shard: int, worker: int, incarnation: int) -> bool:
        """Worker side: tear the shard file after its first flush and die."""
        return any(
            s.kind == "torn"
            and (s.shard is None or s.shard == shard)
            and (s.worker is None or s.worker == worker)
            and s.incarnation == incarnation
            for s in self.specs
        )

    def check_cell(self, cell: int, attempt: int) -> None:
        """Both sides: raise :class:`FaultInjected` if ``cell`` is targeted.

        ``attempt`` is the shard's dispatch-attempt number (0 on the
        first dispatch); transient faults (``until=K``) stop firing once
        the supervisor has retried the shard ``K`` times.
        """
        for s in self.specs:
            if s.kind == "raise" and s.cell == cell:
                if s.until is None or attempt < s.until:
                    raise FaultInjected(
                        f"injected fault in cell {cell} (attempt {attempt})"
                    )


# ---------------------------------------------------------------------------
# Service chaos: the same grammar, aimed at the consensus service.
# ---------------------------------------------------------------------------

#: Valid keys per service fault kind.
_SERVICE_KEYS = {
    "kill": {"leader", "pid", "after", "every", "count", "point"},
    "raise": {"slot", "until"},
}
#: Keys usable bare, as flags (``kill:leader``).
_SERVICE_FLAGS = {"kill": {"leader"}}
#: Bare-word values accepted per key.
_SERVICE_WORDS = {"point": {"before", "data", "control", "after", RAND}}


@dataclass(slots=True, frozen=True)
class ServiceFaultSpec:
    """One injected service fault (see :func:`parse_service_chaos`).

    * ``kill`` — crash a replica inside a log slot.  Target: ``leader``
      (the ring's current leader at firing time) or ``pid=K``.  Timing:
      fires in slot ``after + 1``; with ``every=E`` it re-fires every
      ``E`` slots after that (a crash storm), ``count=C`` capping the
      number of firings.  ``point`` picks the crash point within the
      slot (``before``/``data``/``control``/``after``; default ``rand``
      — seeded per firing by the service): ``before`` loses the leader's
      proposal (the slot decides a successor's noop, the client must
      retry the command itself), the later points commit it but kill the
      ack (the retry must hit the dedup ledger instead of re-proposing).
    * ``raise`` — raise :class:`FaultInjected` in the service's propose
      path for slot ``slot``; with ``until=A`` the fault is transient
      (fires only while the slot's propose attempt is ``< A``), without
      it the slot is poison and the head request is failed honestly
      after the service's propose-retry budget.
    """

    kind: str  # "kill" | "raise"
    leader: bool = False
    pid: int | str | None = None
    after: int = 0  # kill: committed slots before the first firing
    every: int | None = None  # kill: storm period in slots
    count: int | None = None  # kill: max storm firings
    point: str = RAND  # kill: crash point within the slot
    slot: int | str | None = None  # raise: target slot number (1-based)
    until: int | None = None  # raise: transient while attempt < until

    def __post_init__(self) -> None:
        if self.kind not in _SERVICE_KEYS:
            raise ConfigurationError(
                f"unknown service fault kind {self.kind!r}; available: "
                f"{', '.join(sorted(_SERVICE_KEYS))}"
            )
        if self.kind == "kill":
            if self.leader == (self.pid is not None):
                raise ConfigurationError(
                    "kill faults target exactly one of 'leader' or 'pid=K'"
                )
            if self.after < 0:
                raise ConfigurationError(
                    f"kill after must be >= 0, got {self.after}"
                )
            if self.every is not None and self.every < 1:
                raise ConfigurationError(
                    f"kill every must be >= 1, got {self.every}"
                )
            if self.count is not None:
                if self.every is None:
                    raise ConfigurationError("kill count=C needs every=E")
                if self.count < 1:
                    raise ConfigurationError(
                        f"kill count must be >= 1, got {self.count}"
                    )
        if self.kind == "raise":
            if self.slot is None:
                raise ConfigurationError("raise faults need a slot=<number> target")
            if isinstance(self.slot, int) and self.slot < 1:
                raise ConfigurationError(f"raise slot must be >= 1, got {self.slot}")
            if self.until is not None and self.until < 1:
                raise ConfigurationError(f"raise until must be >= 1, got {self.until}")


def parse_service_chaos(text: str) -> tuple[ServiceFaultSpec, ...]:
    """Parse a service chaos spec (same grammar, service vocabulary).

    Examples::

        kill:leader,after=3                  # one leader kill in slot 4
        kill:leader,after=2,every=4,count=3  # a 3-kill leader storm
        kill:pid=5,point=control             # kill p5 mid-control-step
        raise:slot=7,until=2                 # transient propose fault
    """
    return tuple(
        ServiceFaultSpec(kind=kind, **fields)  # type: ignore[arg-type]
        for kind, fields in _parse_clauses(
            text, _SERVICE_KEYS, flags=_SERVICE_FLAGS, words=_SERVICE_WORDS
        )
    )


@dataclass(slots=True, frozen=True)
class ServiceFaultPlan:
    """A deterministic set of faults drilled through the consensus service.

    The service-side sibling of :class:`FaultPlan`: a frozen value object
    the service consults per slot.  ``rand`` pids/slots resolve in
    :meth:`bind` against the replica count and the expected slot horizon;
    ``point=rand`` stays symbolic — the service resolves it per firing
    from its own labelled chaos stream, so storms vary crash points while
    staying a pure function of the service seed.
    """

    specs: tuple[ServiceFaultSpec, ...] = ()
    seed: int | None = None

    @classmethod
    def from_spec(cls, text: str, *, seed: int | None = None) -> "ServiceFaultPlan":
        """Build a plan from the service chaos grammar."""
        return cls(specs=parse_service_chaos(text), seed=seed)

    def bind(self, *, replicas: int, slots: int) -> "ServiceFaultPlan":
        """Resolve every ``rand`` pid/slot against the service's real sizes."""
        rng = random.Random(self.seed)
        bound: list[ServiceFaultSpec] = []
        for spec in self.specs:
            fields: dict[str, int] = {}
            if spec.pid == RAND:
                fields["pid"] = rng.randrange(replicas) + 1
            if spec.slot == RAND:
                fields["slot"] = rng.randrange(max(slots, 1)) + 1
            bound.append(replace(spec, **fields) if fields else spec)
        return replace(self, specs=tuple(bound))

    # -- injection points (bound plans only) -------------------------------

    def kills_for(self, slot_no: int) -> list[ServiceFaultSpec]:
        """The kill faults firing in slot ``slot_no`` (1-based).

        A spec fires first in slot ``after + 1``; with ``every`` it
        re-fires each period, capped by ``count``.  Firing is a pure
        function of the slot number, so the plan needs no mutable state.
        """
        fires: list[ServiceFaultSpec] = []
        for s in self.specs:
            if s.kind != "kill":
                continue
            first = s.after + 1
            if slot_no < first:
                continue
            if s.every is None:
                if slot_no == first:
                    fires.append(s)
            else:
                period, phase = divmod(slot_no - first, s.every)
                if phase == 0 and (s.count is None or period < s.count):
                    fires.append(s)
        return fires

    def check_slot(self, slot_no: int, attempt: int) -> None:
        """Raise :class:`FaultInjected` if ``slot_no``'s propose is targeted.

        ``attempt`` is the slot's propose-attempt number (0 on the first
        try); transient faults (``until=A``) stop firing once the service
        has retried the propose ``A`` times.
        """
        for s in self.specs:
            if s.kind == "raise" and s.slot == slot_no:
                if s.until is None or attempt < s.until:
                    raise FaultInjected(
                        f"injected fault in slot {slot_no} (attempt {attempt})"
                    )
