"""The normalized result schema every backend reduces to.

Whatever executes a scenario — round engine, asynchronous event queue, or
the timed FFD environment — the caller gets one :class:`RunRecord`:
decisions, decision rounds, crash set, message/bit totals, and a spec
verdict, in backend-independent form.  The backend-native result object
stays reachable via ``record.raw`` for callers that need model-specific
detail (it is excluded from serialization).

Records serialize to plain JSON (``to_dict``/``from_dict``) so sweeps can
persist one record per line in a JSONL file and resume from it.  Decision
payloads are mapped through :func:`jsonable` — value types the library
uses (ints, strings, :class:`~repro.net.payload.SizedValue`, IC vectors,
the ⊥ sentinels) all have stable encodings.

Sweeps move records in bulk, and one dict per cell is the wrong shape for
that: :class:`RecordBatch` holds a whole chunk of records as cell-indexed
parallel columns.  A batch round-trips through the per-record row form
(``to_rows``/``from_rows``), reduces straight to normalized records
(``to_records``), and — paired with the :func:`CellDelta
<repro.scenarios.scenario.scenario_delta>` wire format — encodes to one
compact payload per chunk (``to_payload``/``from_payload``): one shared
base-scenario dict plus per-cell deltas instead of a full scenario dict
per record.  That payload is the JSONL line format of every sweep file
(:mod:`repro.fabric.shardio`), serial or sharded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.scenarios.scenario import CellColumn, Scenario, scenario_delta

__all__ = ["RunRecord", "RecordBatch", "jsonable"]

#: JSON-native scalar types that pass through :func:`jsonable` unchanged —
#: the overwhelmingly common decision payloads (ints) skip every check.
_JSON_SCALARS = (bool, int, float, str)


def jsonable(value: Any) -> Any:
    """Best-effort stable JSON encoding of a decision/proposal payload."""
    if value is None or isinstance(value, _JSON_SCALARS):
        return value
    # The ⊥ sentinels advertise themselves through a protocol marker
    # (``__consensus_bottom__``) rather than their repr: matching on
    # ``repr(value) == "⊥"`` would silently swallow any user payload that
    # happens to print as "⊥".  SizedValue stays structural (value+bits)
    # to avoid importing every payload-defining module here.
    if getattr(value, "__consensus_bottom__", False):
        return {"$bot": True}
    if hasattr(value, "value") and hasattr(value, "bits"):
        return {"$sized": [jsonable(value.value), value.bits]}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    return {"$repr": repr(value)}


def _encode_decisions(decisions: Mapping[int, Any]) -> dict[int, Any]:
    """One-pass ``jsonable`` over a decision map (int keys preserved)."""
    return {
        pid: v if v is None or type(v) in (int, str, bool, float) else jsonable(v)
        for pid, v in decisions.items()
    }


@dataclass(slots=True)
class RunRecord:
    """Everything observable about one executed scenario, normalized."""

    scenario: Scenario
    backend: str  # "extended" | "classic" | "async" | "ffd"
    decisions: dict[int, Any]  # pid -> decided value
    decision_rounds: dict[int, int]  # pid -> round (0 for purely timed decisions)
    crashed: list[int]  # pids that crashed during the run
    f_actual: int  # crashes that actually happened
    rounds_executed: int
    last_decision_round: int
    messages_sent: int
    bits_sent: int
    spec_ok: bool
    violations: tuple[str, ...]
    sim_time: float | None = None  # continuous-time backends only
    raw: Any = field(default=None, compare=False)  # backend-native result

    def summary(self) -> str:
        """One-line human summary."""
        verdict = "OK" if self.spec_ok else "; ".join(self.violations)
        return (
            f"{self.backend} run {self.scenario.algorithm} n={self.scenario.n} "
            f"f={self.f_actual} rounds={self.last_decision_round} "
            f"msgs={self.messages_sent} bits={self.bits_sent} spec={verdict}"
        )

    # -- serialization -----------------------------------------------------

    def normalized(self) -> "RunRecord":
        """The serialization-stable form of this record, without the JSON trip.

        Equal (``==``) to ``RunRecord.from_dict(self.to_dict())`` — decision
        payloads in their encoded ``jsonable`` form, ``raw`` dropped — but
        built directly, skipping the dict materialization and the
        ``Scenario.from_dict`` revalidation.  Sweeps normalize every
        freshly executed record so fresh and resumed runs return
        byte-identical results cell for cell.
        """
        return RunRecord(
            scenario=self.scenario,
            backend=self.backend,
            decisions=_encode_decisions(self.decisions),
            decision_rounds=dict(self.decision_rounds),
            crashed=list(self.crashed),
            f_actual=self.f_actual,
            rounds_executed=self.rounds_executed,
            last_decision_round=self.last_decision_round,
            messages_sent=self.messages_sent,
            bits_sent=self.bits_sent,
            spec_ok=self.spec_ok,
            violations=tuple(self.violations),
            sim_time=self.sim_time,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (drops ``raw``)."""
        return {
            "scenario": self.scenario.to_dict(),
            "backend": self.backend,
            "decisions": {str(pid): jsonable(v) for pid, v in self.decisions.items()},
            "decision_rounds": {
                str(pid): r for pid, r in self.decision_rounds.items()
            },
            "crashed": list(self.crashed),
            "f_actual": self.f_actual,
            "rounds_executed": self.rounds_executed,
            "last_decision_round": self.last_decision_round,
            "messages_sent": self.messages_sent,
            "bits_sent": self.bits_sent,
            "spec_ok": self.spec_ok,
            "violations": list(self.violations),
            "sim_time": self.sim_time,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Decision payloads come back in their encoded (``jsonable``) form;
        resumed sweep rows are used for aggregation and dedup, not for
        re-instantiating payload objects.
        """
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            backend=data["backend"],
            decisions={int(pid): v for pid, v in data["decisions"].items()},
            decision_rounds={
                int(pid): int(r) for pid, r in data["decision_rounds"].items()
            },
            crashed=[int(pid) for pid in data["crashed"]],
            f_actual=int(data["f_actual"]),
            rounds_executed=int(data["rounds_executed"]),
            last_decision_round=int(data["last_decision_round"]),
            messages_sent=int(data["messages_sent"]),
            bits_sent=int(data["bits_sent"]),
            spec_ok=bool(data["spec_ok"]),
            violations=tuple(data["violations"]),
            sim_time=data.get("sim_time"),
        )


# ---------------------------------------------------------------------------
# Columnar batches: a chunk of records as parallel columns.
# ---------------------------------------------------------------------------

#: RunRecord fields carried as plain columns (scenario and decisions need
#: bespoke encoding; ``raw`` never crosses a batch boundary).
_PLAIN_COLUMNS = (
    "backend",
    "decision_rounds",
    "crashed",
    "f_actual",
    "rounds_executed",
    "last_decision_round",
    "messages_sent",
    "bits_sent",
    "spec_ok",
    "sim_time",
)


class RecordBatch:
    """A chunk of normalized records as cell-indexed parallel columns.

    The batch is the bulk currency of the sweep layer: every sweep file
    line encodes one per flush, shard workers return their numeric
    columns through shared memory, and resume/aggregation read columns
    instead of grouping record objects.

    Append :meth:`normalized <RunRecord.normalized>` records only —
    columns store decision payloads in their encoded ``jsonable`` form and
    the batch never re-encodes (:meth:`append` is called once per executed
    cell on the sweep hot path).
    """

    __slots__ = (
        "scenarios",
        "backend",
        "decisions",
        "decision_rounds",
        "crashed",
        "f_actual",
        "rounds_executed",
        "last_decision_round",
        "messages_sent",
        "bits_sent",
        "spec_ok",
        "violations",
        "sim_time",
    )

    def __init__(self) -> None:
        self.scenarios: list[Scenario] = []
        self.backend: list[str] = []
        self.decisions: list[dict[int, Any]] = []  # encoded payloads, int pids
        self.decision_rounds: list[dict[int, int]] = []
        self.crashed: list[list[int]] = []
        self.f_actual: list[int] = []
        self.rounds_executed: list[int] = []
        self.last_decision_round: list[int] = []
        self.messages_sent: list[int] = []
        self.bits_sent: list[int] = []
        self.spec_ok: list[bool] = []
        self.violations: list[tuple[str, ...]] = []
        self.sim_time: list[float | None] = []

    def __len__(self) -> int:
        return len(self.scenarios)

    def append(self, record: RunRecord) -> None:
        """Append one (already normalized) record to the columns."""
        self.scenarios.append(record.scenario)
        self.backend.append(record.backend)
        self.decisions.append(record.decisions)
        self.decision_rounds.append(record.decision_rounds)
        self.crashed.append(record.crashed)
        self.f_actual.append(record.f_actual)
        self.rounds_executed.append(record.rounds_executed)
        self.last_decision_round.append(record.last_decision_round)
        self.messages_sent.append(record.messages_sent)
        self.bits_sent.append(record.bits_sent)
        self.spec_ok.append(record.spec_ok)
        self.violations.append(record.violations)
        self.sim_time.append(record.sim_time)

    @classmethod
    def from_records(cls, records: Iterable[RunRecord]) -> "RecordBatch":
        """Batch up normalized records (see :meth:`append`)."""
        batch = cls()
        for record in records:
            batch.append(record)
        return batch

    def to_records(self) -> list[RunRecord]:
        """The batch as normalized :class:`RunRecord` objects (no JSON trip)."""
        return [
            RunRecord(
                scenario=self.scenarios[i],
                backend=self.backend[i],
                decisions=self.decisions[i],
                decision_rounds=self.decision_rounds[i],
                crashed=self.crashed[i],
                f_actual=self.f_actual[i],
                rounds_executed=self.rounds_executed[i],
                last_decision_round=self.last_decision_round[i],
                messages_sent=self.messages_sent[i],
                bits_sent=self.bits_sent[i],
                spec_ok=self.spec_ok[i],
                violations=self.violations[i],
                sim_time=self.sim_time[i],
            )
            for i in range(len(self.scenarios))
        ]

    # -- row form (the legacy one-dict-per-record shape) --------------------

    def to_rows(self) -> list[dict[str, Any]]:
        """Per-record :meth:`RunRecord.to_dict`-shaped dicts."""
        return [record.to_dict() for record in self.to_records()]

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, Any]]) -> "RecordBatch":
        """Rebuild a batch from :meth:`RunRecord.to_dict`-shaped rows."""
        return cls.from_records(RunRecord.from_dict(row) for row in rows)

    # -- chunk payload (wire + columnar JSONL form) -------------------------

    def to_payload(
        self,
        base: Mapping[str, Any] | None = None,
        deltas: Sequence[Mapping[str, Any]] | None = None,
    ) -> dict[str, Any]:
        """One compact chunk payload: shared base scenario + columns.

        ``base`` is the shared base-scenario dict (defaults to the first
        cell's); every cell is stored as its :func:`CellDelta
        <repro.scenarios.scenario.scenario_delta>` against it.  The dict is
        JSON-ready (``json.dumps`` stringifies the int pid keys of the
        decision columns) and pickles compactly across a worker pipe.

        ``deltas`` short-circuits the per-cell :func:`scenario_delta` pass
        with deltas the caller already holds — the sharded fabric's
        workers receive each cell *as* its delta against ``base``, so
        recomputing them per flush would be pure overhead.  Callers must
        guarantee ``base.with_(**deltas[i]) == scenarios[i]``.
        """
        if deltas is not None:
            if base is None or len(deltas) != len(self.scenarios):
                raise ValueError(
                    "to_payload(deltas=...) needs the matching base dict "
                    "and one delta per batched cell"
                )
            cells = [dict(delta) for delta in deltas]
        else:
            if base is None:
                base = self.scenarios[0].to_dict() if self.scenarios else {}
            base_scenario = Scenario.from_dict(base) if base else None
            cells = [scenario_delta(base_scenario, s) for s in self.scenarios]
        return {
            "base": dict(base),
            "cells": cells,
            "decisions": self.decisions,
            "violations": [list(v) for v in self.violations],
            **{name: getattr(self, name) for name in _PLAIN_COLUMNS},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RecordBatch":
        """Inverse of :meth:`to_payload` (accepts wire and JSON-decoded forms).

        Key normalization makes the two sources converge: pid keys arrive
        as ints off a worker pipe and as strings out of
        ``json.loads``; both land as ints in the columns.
        """
        cells, batch = cls.decode_payload(payload)
        batch.scenarios = cells.scenarios()
        return batch

    @classmethod
    def decode_payload(
        cls, payload: Mapping[str, Any]
    ) -> tuple[CellColumn, "RecordBatch"]:
        """Validate and decode a payload, leaving its scenarios factored.

        Returns the cells as a :class:`~repro.scenarios.scenario.CellColumn`
        and a batch holding every other column; its ``scenarios`` column
        stays empty until the caller fills it from ``cells.scenarios()``
        (:meth:`from_payload` does).  Readers that only aggregate or key
        the cells never build a :class:`Scenario` per cell.  Every check
        runs here: a payload decodes exactly when :meth:`from_payload`
        succeeds, and every column has one entry per cell.
        """
        cells = CellColumn.from_deltas(payload["base"], payload["cells"])
        batch = cls()
        # int() of every pid key, memoized per payload: each cell repeats
        # the same n keys, so the conversions run once per distinct key.
        pid = _IntMemo().__getitem__
        batch.decisions = [
            dict(zip(map(pid, cell), cell.values())) for cell in payload["decisions"]
        ]
        batch.violations = [tuple(v) for v in payload["violations"]]
        for name in _PLAIN_COLUMNS:
            setattr(batch, name, list(payload[name]))
        batch.decision_rounds = [
            dict(zip(map(pid, cell), map(int, cell.values())))
            for cell in batch.decision_rounds
        ]
        width = len(cells)
        for name in ("decisions", "violations", *_PLAIN_COLUMNS):
            if len(getattr(batch, name)) != width:
                raise ValueError(
                    f"batch column {name!r} has {len(getattr(batch, name))} "
                    f"entries for {width} cells"
                )
        return cells, batch


class _IntMemo(dict):
    """``memo[key] == int(key)``, converting each distinct key once."""

    def __missing__(self, key: Any) -> int:
        value = self[key] = int(key)
        return value


def _check_batch_columns() -> None:
    """The batch columns must mirror RunRecord's serialized fields exactly."""
    record_fields = set(RunRecord.__dataclass_fields__) - {"raw"}
    assert set(RecordBatch.__slots__) == (record_fields | {"scenarios"}) - {
        "scenario"
    }, "RecordBatch columns out of sync with RunRecord fields"


_check_batch_columns()
