"""Process-facing API of the round-based synchronous models.

A :class:`SyncProcess` is driven by an engine through exactly two hooks per
round:

1. :meth:`SyncProcess.send_phase` — returns a :class:`SendPlan`: the data
   messages (dest → payload) and the *ordered* control-message destination
   sequence for this round.  The engine calls it **before** delivering
   anything, which structurally enforces the model rule that a round's
   outgoing messages may depend only on previous rounds ("no local
   computation is allowed to take place between the two sending steps").

2. :meth:`SyncProcess.compute_phase` — receives a :class:`RoundInbox` with
   everything delivered to the process this round and performs the round's
   local computation, possibly calling :meth:`SyncProcess.decide`.

Deciding models the paper's ``return`` statement: the process terminates and
takes no further part in the run.  The classic model is the special case in
which every plan has an empty control sequence (engines enforce this).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError, ModelViolationError

__all__ = [
    "SendPlan",
    "RoundInbox",
    "SyncProcess",
    "NO_SEND",
    "EMPTY_INBOX",
    "VectorSend",
    "VectorAlgorithm",
    "register_vector_table",
    "vector_table_for",
]


@dataclass(slots=True, unsafe_hash=True)
class SendPlan:
    """What one process intends to send in one round.

    Attributes
    ----------
    data:
        Mapping destination id → payload for the data step.  At most one
        data message per channel per round (model invariant).
    control:
        Ordered tuple of destination ids for the control step.  Order
        matters: on a crash during this step, an *ordered prefix* is
        delivered.  At most one control message per channel per round, so
        destinations must be distinct.

    Treat instances as immutable — :data:`NO_SEND` in particular is one
    shared object.  Not ``frozen``: flooding algorithms build ``n`` plans
    per round and a frozen dataclass pays ``object.__setattr__`` per
    field on every construction.
    """

    data: Mapping[int, Any] = field(default_factory=dict)
    control: tuple[int, ...] = ()

    def validate(
        self,
        pid: int,
        n: int,
        allow_control: bool,
        *,
        pids: frozenset[int] | None = None,
    ) -> None:
        """Check the plan against model rules; raise on violation.

        ``pids`` is an optional precomputed ``frozenset(range(1, n + 1))``:
        engines validating every plan of every round pass it so the
        destination checks run as C-level set comparisons instead of a
        Python loop per destination; the slow per-destination loop is kept
        only to produce the precise error message on violation.
        """
        if pids is not None:
            data_ok = not self.data or (
                pid not in self.data and self.data.keys() <= pids
            )
        else:
            data_ok = all(1 <= dest <= n and dest != pid for dest in self.data)
        if not data_ok:
            for dest in self.data:
                if not (1 <= dest <= n) or dest == pid:
                    raise ModelViolationError(
                        f"p{pid}: invalid data destination {dest} (n={n})"
                    )
        if self.control:
            if not allow_control:
                raise ModelViolationError(
                    f"p{pid}: control messages are not part of the classic model"
                )
            dests = set(self.control)
            if len(dests) != len(self.control):
                raise ModelViolationError(
                    f"p{pid}: duplicate control destinations {self.control}"
                )
            if pid in dests or not (
                dests <= pids if pids is not None
                else all(1 <= dest <= n for dest in dests)
            ):
                for dest in self.control:
                    if not (1 <= dest <= n) or dest == pid:
                        raise ModelViolationError(
                            f"p{pid}: invalid control destination {dest} (n={n})"
                        )


#: Shared empty plan for rounds in which a process stays silent.
NO_SEND = SendPlan()


@dataclass(slots=True)
class RoundInbox:
    """Everything delivered to one process in one round.

    Attributes
    ----------
    data:
        sender id → payload, for data messages received this round.
    control:
        ids of processes whose control (synchronization) message arrived.

    Treat instances as immutable.  The class is not ``frozen`` because a
    frozen dataclass pays an ``object.__setattr__`` per field on every
    construction and engines build one inbox per hearing receiver per
    round on the benchmark hot path.
    """

    data: Mapping[int, Any] = field(default_factory=dict)
    control: frozenset[int] = frozenset()

    @property
    def empty(self) -> bool:
        """True when nothing at all was received this round."""
        return not self.data and not self.control


#: Shared inbox for receivers that heard nothing this round: frozensets are
#: immutable and the data view is a read-only mapping proxy, so every such
#: receiver can hold the same object without aliasing risk.
EMPTY_INBOX = RoundInbox(data=MappingProxyType({}), control=frozenset())


class SyncProcess(abc.ABC):
    """Base class for processes of the (classic or extended) round model.

    Subclasses implement :meth:`send_phase` and :meth:`compute_phase`.
    State must live in instance attributes so runs can be snapshotted by
    the lower-bound explorer via ``copy.deepcopy``.

    The base class declares ``__slots__`` (engines construct ``n``
    processes per run; slotted attribute writes are measurably cheaper on
    n=128 grids).  Subclasses may declare their own slots for the same
    benefit or omit ``__slots__`` entirely — they then simply get a
    ``__dict__`` as usual.
    """

    __slots__ = ("pid", "n", "_decision", "_decided", "_decision_round")

    def __init__(self, pid: int, n: int) -> None:
        if not 1 <= pid <= n:
            raise ConfigurationError(f"pid must be in 1..{n}, got {pid}")
        if n < 2:
            raise ConfigurationError(f"need at least 2 processes, got n={n}")
        self.pid = pid
        self.n = n
        self._decision: Any = None
        self._decided = False
        self._decision_round = 0

    # -- hooks ------------------------------------------------------------

    @abc.abstractmethod
    def send_phase(self, round_no: int) -> SendPlan:
        """Produce this round's :class:`SendPlan` (may not inspect inbox)."""

    @abc.abstractmethod
    def compute_phase(self, round_no: int, inbox: RoundInbox) -> None:
        """Consume this round's :class:`RoundInbox`; may call :meth:`decide`."""

    # -- decision ---------------------------------------------------------

    def decide(self, value: Any) -> None:
        """Decide ``value`` (the paper's ``return``); idempotence not allowed.

        The engine observes the decision after the hook returns, records the
        round, and removes the process from the run.
        """
        if self._decided:
            raise ModelViolationError(f"p{self.pid} decided twice")
        self._decided = True
        self._decision = value

    @property
    def decided(self) -> bool:
        """Whether :meth:`decide` has been called."""
        return self._decided

    @property
    def decision(self) -> Any:
        """The decided value (only meaningful when :attr:`decided`)."""
        return self._decision

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"decided={self._decision!r}" if self._decided else "running"
        return f"{type(self).__name__}(pid={self.pid}, n={self.n}, {state})"


# ---------------------------------------------------------------------------
# Vector stepping: whole-table hooks over columns, no plans, no inboxes.
# ---------------------------------------------------------------------------

#: One speaker's outgoing traffic for one round, as a plain tuple
#: ``(sender, data_dests, payload, control_dests, bits)``:
#:
#: * ``data_dests`` — the planned data destinations.  A ``range`` (the
#:   coordinator patterns), the table's precomputed all-others tuple, or —
#:   after crash truncation — the resolved ``frozenset`` subset.  **Every
#:   destination carries the same ``payload``** (uniform-payload contract;
#:   all first-party sync algorithms broadcast one value per round), and
#:   ``data_dests`` of length ``n - 1`` is by contract the all-others
#:   broadcast: a *full* send that reaches every receiver.
#: * ``payload`` — the exact value the per-process ``send_phase`` would
#:   have put in the plan (Python-native types: bit sizing and JSON
#:   serialization are type-sensitive).
#: * ``control_dests`` — ordered control destinations, ``range`` or tuple
#:   (sliceable: a crash delivers ``control_dests[:prefix]``).
#: * ``bits`` — ``bit_size(payload)``, filled in by the table that built
#:   the payload (sized once per distinct payload, not once per send).
#:   Crash truncation keeps it; the engine charges accounting from it and
#:   never sizes a vector payload itself.
#:
#: Tuples, not a dataclass: the engine builds/consumes one per speaker per
#: round on the benchmark-critical path.
VectorSend = tuple  # (sender, data_dests, payload, control_dests, bits)


class VectorAlgorithm(abc.ABC):
    """Columnar drop-in for a whole table of same-typed processes.

    Engines step a round one of two ways.  The reference calls
    ``send_phase``/``compute_phase`` on every :class:`SyncProcess`: one
    :class:`SendPlan` and one :class:`RoundInbox` per process per round.
    A vector table instead holds every process's state in pid-indexed
    columns (:mod:`repro.util.columns`: int64 arrays for plain ints,
    object lists for any other value type), describes a round's traffic
    as a sparse list of :data:`VectorSend` tuples (speakers only) and
    computes the round whole-column instead of per process.  The engine
    never materializes plans or inboxes in this mode; it resolves
    crashes and charges accounting straight off the send tuples.

    Contract (byte-parity with per-process stepping depends on all of it):

    * :meth:`from_processes` may return None when the processes'
      configuration is mixed (a non-uniform horizon or deadline) or when
      the values would make the reference's choice depend on set order
      (equal ``value_key`` but distinguishable values such as ``1``,
      ``True`` and ``1.0``); the engine then steps per process.
    * :meth:`send_phase_vector` returns sends for **speakers only**, in
      ascending pid order, mirroring what the per-process ``send_phase``
      loop would have produced (including raising the same model
      violations).  Silent processes simply do not appear.  The list is
      the round's own (the engine truncates crashing senders' tuples in
      place, finding them by bisection on the sender).  Each send's
      ``bits`` must equal ``bit_size(payload)``: the engine trusts it
      for the message accounting.  Tables size each distinct payload
      once (per round, or from a per-run intern cache).
    * :meth:`compute_phase_vector` receives the post-truncation sends and
      the surviving receivers and returns the round's new decisions
      ``{pid: value}`` **in ascending pid order** with Python-native
      values — the engine's ledgers (and ultimately the record JSON)
      inherit dict insertion order.
    * ``crash_free=True`` guarantees every send was delivered in full to
      every receiver (no crash resolved this round), unlocking the
      uniform whole-column math.  On ``crash_free=False`` rounds the
      full sends (``data_dests`` of length ``n - 1``) still reached
      every receiver, so tables fold them once and look per receiver
      only at the truncated sends of the crashing senders — a crash
      round costs O(n + truncated destinations), not O(n²).

    Vector tables are first-party mirrors of their process classes (the
    vector parity grid runs the validated object path against them), so
    the engine does not re-validate their sends.
    """

    @classmethod
    @abc.abstractmethod
    def from_processes(
        cls, processes: Sequence[SyncProcess]
    ) -> "VectorAlgorithm | None":
        """Build the columnar table, or None when it must not engage."""

    @abc.abstractmethod
    def send_phase_vector(
        self, round_no: int, active: Sequence[int]
    ) -> list[VectorSend]:
        """This round's sends, speakers only, ascending pid order."""

    @abc.abstractmethod
    def compute_phase_vector(
        self,
        round_no: int,
        receivers: set[int],
        receiver_order: list[int],
        sends: list[VectorSend],
        crash_free: bool,
    ) -> dict[int, Any]:
        """Consume the round's (post-truncation) sends; return decisions."""

    def quiet_until(self) -> int | None:
        """The next round this table can act in, when it has gone quiet.

        A quiet table sends nothing, changes no state and decides nothing
        in every round before the returned one, whatever crashes: the
        engine's :meth:`~repro.sync.engine.SynchronousEngine.run` then
        resolves those rounds' scheduled crashes without stepping them.
        ``None`` (the default) means the table may act next round.
        """
        return None

    def refill(self, proposals: Sequence[Any]) -> bool:
        """Rewrite the columns in place for a fresh run with ``proposals``.

        A taken refill lets a leased engine skip the n-object process
        factory entirely on same-configuration reruns.  Returns True when
        the table took the refill (it must then be byte-for-byte
        equivalent to ``from_processes`` over freshly constructed
        processes of the same configuration — the refill parity grid in
        ``tests/scenarios/test_columnar_parity.py`` pins this).  Returns
        False when ``from_processes`` would have declined the new
        proposals (ambiguous value order) — the caller then falls back to
        the factory + reset path, which re-detects the stepping mode.
        Configuration-shaped state (``n``, TruncatedCRW's ``k``,
        destination tuples) is fixed across a lease and must not change.
        The default declines every refill.
        """
        return False


#: Exact process type -> vector table factory.  Keyed by exact type (not
#: ``isinstance``): a subclass overriding a hook must not silently inherit
#: its parent's table semantics — it opts in with its own table.
_VECTOR_TABLES: dict[type, Callable[[Sequence[SyncProcess]], "VectorAlgorithm | None"]] = {}


def register_vector_table(
    process_cls: type,
) -> Callable[[type["VectorAlgorithm"]], type["VectorAlgorithm"]]:
    """Class decorator: register a vector table for ``process_cls``."""

    def deco(table_cls: type[VectorAlgorithm]) -> type[VectorAlgorithm]:
        if process_cls in _VECTOR_TABLES:
            raise ConfigurationError(
                f"{process_cls.__name__} already has a vector table"
            )
        _VECTOR_TABLES[process_cls] = table_cls.from_processes
        return table_cls

    return deco


def vector_table_for(processes: Sequence[SyncProcess]) -> "VectorAlgorithm | None":
    """The vector table for ``processes``, or None when unavailable.

    None covers three distinct cases that all mean "step per process":
    no registration for the (exact) process type, a mixed table, or a
    registered factory declining the processes' current state
    (:meth:`VectorAlgorithm.from_processes` returning None).
    """
    if not processes:
        return None
    cls = type(processes[0])
    factory = _VECTOR_TABLES.get(cls)
    if factory is None:
        return None
    if any(type(p) is not cls for p in processes):
        return None
    return factory(processes)
