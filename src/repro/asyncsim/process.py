"""Asynchronous process API.

An :class:`AsyncProcess` is an event-driven state machine: the runner wires
it to a :class:`ProcessContext` and invokes ``on_start`` once, then
``on_message`` per delivery and ``on_fd_change`` per detector update.
The context's sends go to :class:`~repro.asyncsim.network.AsyncNetwork`
as plain tuples; the runner builds the one
:class:`~repro.net.message.Message` a handler receives only when the
message is delivered to a live process.
Handlers run atomically at a simulated instant; crashes take effect between
events (message-granular crash interleavings are the synchronous engines'
job — MR99-style indulgent protocols are safe under any interleaving, which
the property tests check through delay/churn randomisation instead).

Unlike the synchronous API there is no round structure: protocols must tag
messages with their own round numbers (Section 4 of the paper points to
exactly this as an intrinsic cost of asynchrony).

Like the synchronous engines' vector tables
(:class:`repro.sync.api.VectorAlgorithm`), an asynchronous algorithm
may additionally register a **columnar table**
(:class:`AsyncBatchedTable` via :func:`register_async_table`): one object
holding every process's state in pid-indexed parallel lists, fed raw
delivery tuples by the runner.  The table applies each event straight to
its columns and re-evaluates the protocol's wait conditions only when the
event can actually satisfy one — instead of re-running the per-object
``_progress`` state machine on every callback — while emitting exactly
the sends the per-object processes would (byte-identical runs, pinned by
``tests/asyncsim/test_batched_async_parity.py``).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Sequence

from repro.asyncsim.events import EventQueue
from repro.asyncsim.failure_detector import SimulatedDiamondS
from repro.asyncsim.network import AsyncNetwork
from repro.errors import ConfigurationError, ModelViolationError
from repro.net.message import Message

__all__ = [
    "ProcessContext",
    "AsyncProcess",
    "AsyncBatchedTable",
    "register_async_table",
    "async_table_for",
]


class ProcessContext:
    """Capabilities handed to one process by the runner."""

    def __init__(
        self,
        pid: int,
        n: int,
        queue: EventQueue,
        network: AsyncNetwork,
        detector: SimulatedDiamondS,
    ) -> None:
        self.pid = pid
        self.n = n
        self._queue = queue
        self._network = network
        self._detector = detector

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._queue.now

    def send(self, dest: int, tag: str, payload: Any, round_no: int = 0) -> None:
        """Send one protocol message (a send to self is local)."""
        if not 1 <= dest <= self.n:
            raise ModelViolationError(f"p{self.pid}: bad destination {dest}")
        self._network.send(self.pid, dest, round_no, payload, tag)

    def broadcast(self, tag: str, payload: Any, round_no: int = 0) -> None:
        """Send to every process including self (self delivery is local).

        Delegates to the network's batched broadcast: byte-identical to a
        loop of :meth:`send` over ``1..n`` but with one bulk accounting
        charge and one scheduling call.
        """
        self._network.broadcast(self.pid, self.n, tag, payload, round_no)

    def suspects(self, pid: int) -> bool:
        """Query this process's failure-detector module."""
        return self._detector.suspects(self.pid, pid)

    def suspected(self) -> frozenset[int]:
        """The full current suspect list."""
        return self._detector.suspected(self.pid)


class AsyncProcess(abc.ABC):
    """Base class for asynchronous protocol processes."""

    def __init__(self, pid: int, n: int) -> None:
        if n < 1 or not 1 <= pid <= n:
            raise ConfigurationError(f"bad pid/n: {pid}/{n}")
        self.pid = pid
        self.n = n
        self.ctx: ProcessContext | None = None  # wired by the runner
        self._decided = False
        self._decision: Any = None
        self._decision_time = 0.0
        self._decision_round = 0
        #: Runner-installed callback fired once on the first decision, so
        #: the run loop's stop predicate can be O(1) instead of scanning
        #: every process between every event.
        self._settle_hook: Callable[[int], None] | None = None

    # -- runner wiring -------------------------------------------------------

    def attach(self, ctx: ProcessContext) -> None:
        """Install the runner-provided context (once)."""
        if self.ctx is not None:
            raise ConfigurationError(f"p{self.pid} attached twice")
        self.ctx = ctx

    # -- protocol hooks --------------------------------------------------------

    @abc.abstractmethod
    def on_start(self) -> None:
        """Called once at time 0."""

    @abc.abstractmethod
    def on_message(self, msg: Message) -> None:
        """Called per delivered message."""

    def on_fd_change(self) -> None:
        """Called when this process's suspect list may have changed."""

    # -- decision --------------------------------------------------------------

    def decide(self, value: Any, round_no: int = 0) -> None:
        """Record the (single) decision; the process may keep participating."""
        if self._decided:
            if value != self._decision:
                raise ModelViolationError(
                    f"p{self.pid} decided twice with different values"
                )
            return
        self._decided = True
        self._decision = value
        self._decision_time = self.ctx.now if self.ctx is not None else 0.0
        self._decision_round = round_no
        if self._settle_hook is not None:
            self._settle_hook(self.pid)

    @property
    def decided(self) -> bool:
        return self._decided

    @property
    def decision(self) -> Any:
        return self._decision

    @property
    def decision_time(self) -> float:
        return self._decision_time

    @property
    def decision_round(self) -> int:
        return self._decision_round


# ---------------------------------------------------------------------------
# Batched stepping: columnar tables over event-tuple deliveries.
# ---------------------------------------------------------------------------


class AsyncBatchedTable(abc.ABC):
    """Columnar drop-in for a whole table of same-typed async processes.

    The runner normally dispatches every delivery through an
    :class:`AsyncProcess` object — one ``on_message`` plus one full
    ``_progress`` re-evaluation per event.  A table holds all per-process
    protocol state in pid-indexed parallel lists and consumes the raw
    delivery tuples; it applies each event to its columns and re-runs the
    (mirrored) progress machine only when the event can actually satisfy
    the destination's current wait condition.

    Contract (parity with per-object stepping depends on all of it):

    * handlers must emit exactly the sends the per-object process would,
      in the same order, through the same network primitives — delay
      draws and event sequence numbers then line up and runs are
      byte-identical (``tests/asyncsim/test_batched_async_parity.py``);
    * a *skipped* progress re-evaluation must be provably side-effect
      free in the per-object code (the guard conditions under-approximate
      "this event unblocks the destination" exactly);
    * the table is the authoritative copy of protocol state; decisions
      are mirrored back onto the process objects (value, time, round,
      settle hook) so runner results and user-held references stay true,
      other attributes are not kept in sync mid-run.
    """

    @classmethod
    @abc.abstractmethod
    def from_processes(
        cls,
        processes: Sequence[AsyncProcess],
        network: AsyncNetwork,
        detector: SimulatedDiamondS,
    ) -> "AsyncBatchedTable":
        """Build the columnar table from freshly constructed processes."""

    def bind_run(self, stats: Any, crashed: dict[int, float]) -> None:
        """Install the run's stats ledger and live crash map.

        Called by the runner after construction (and after every reset):
        :meth:`deliver` charges delivered-side accounting and drops
        messages into the void itself, so the runner can schedule it as
        the delivery action with no intermediate frame.
        """
        self.stats = stats
        self.crashed = crashed

    @abc.abstractmethod
    def on_start(self, pid: int) -> None:
        """The runner's time-0 start event for ``pid``."""

    @abc.abstractmethod
    def deliver(self, entry: tuple) -> None:
        """One delivery event: ``(bits, sender, dest, round_no, payload, tag)``.

        Scheduled directly as the event action — the single Python frame
        per delivered message.  Implementations must, in order: charge
        ``stats.async_delivered``/``bits_delivered`` by ``entry[0]`` when
        nonzero (local self-deliveries carry 0 and are never charged),
        drop the message if ``entry[2]`` is in :attr:`crashed`, then apply
        the protocol handler.
        """

    @abc.abstractmethod
    def on_fd_change(self, observer: int) -> None:
        """``observer``'s suspect list may have changed."""

    def refill(self, proposals: Sequence[Any]) -> bool:
        """Rewrite the columns in place for a fresh run with ``proposals``.

        A taken refill lets a leased runner rerun a configuration without
        rebuilding processes or table.  Returns True when taken (the
        columns must then equal what ``from_processes`` over freshly
        constructed same-configuration processes would build —
        byte-identical runs, pinned by the refill parity grid), False when
        unsupported (the default).  The runner re-arms the retained
        process objects' decision mirrors itself.
        """
        return False


#: Exact process type -> table factory.  Keyed by exact type (not
#: ``isinstance``) for the same reason as the synchronous registry: a
#: subclass overriding a handler must not silently inherit its parent's
#: batched semantics.
_ASYNC_TABLES: dict[type, Callable[..., AsyncBatchedTable]] = {}


def register_async_table(
    process_cls: type,
) -> Callable[[type[AsyncBatchedTable]], type[AsyncBatchedTable]]:
    """Class decorator: register a columnar table for ``process_cls``.

    ::

        @register_async_table(MR99Consensus)
        class MR99Table(AsyncBatchedTable): ...
    """

    def deco(table_cls: type[AsyncBatchedTable]) -> type[AsyncBatchedTable]:
        if process_cls in _ASYNC_TABLES:
            raise ConfigurationError(
                f"{process_cls.__name__} already has an async batched table"
            )
        _ASYNC_TABLES[process_cls] = table_cls.from_processes
        return table_cls

    return deco


def async_table_for(
    processes: Sequence[AsyncProcess],
    network: AsyncNetwork,
    detector: SimulatedDiamondS,
) -> AsyncBatchedTable | None:
    """The columnar table for ``processes``, or None when unavailable.

    Requires a homogeneous table: every process of the exact registered
    type.
    """
    if not processes:
        return None
    cls = type(processes[0])
    factory = _ASYNC_TABLES.get(cls)
    if factory is None:
        return None
    if any(type(p) is not cls for p in processes):
        return None
    return factory(processes, network, detector)
