"""Unified scenario API: one declarative entry point over all four stacks.

The three-line quickstart::

    from repro.scenarios import Scenario, execute

    record = execute(Scenario(algorithm="crw", n=8, f=3, adversary="coordinator-killer"))
    assert record.spec_ok and record.last_decision_round == record.f_actual + 1

Any run expressible across ``sync/`` (extended + classic engines),
``asyncsim/`` (◇S event simulation), and ``ffd/`` (timed fast failure
detector) is a :class:`Scenario`; :func:`execute` resolves its names
against the registries and returns a backend-independent
:class:`RunRecord`.  :class:`SweepRunner` runs grids of scenarios
serially or over the sharded :mod:`repro.fabric` executor, with resume.  (The ``simulation/``
cross-model *embeddings* remain direct calls —
``run_classic_on_extended`` / ``run_extended_on_classic`` — though note
the classic backend here already *is* the extended engine with the
control step suppressed.)

See ``DESIGN.md`` for the layer inventory and extension guide.
"""

from repro.scenarios.execute import EngineLease, delay_model_from, execute, resolved_t
from repro.scenarios.record import RecordBatch, RunRecord, jsonable
from repro.scenarios.registry import (
    ADVERSARIES,
    ALGORITHMS,
    WORKLOADS,
    AdversaryDef,
    AlgorithmDef,
    Registry,
    WorkloadDef,
    register_adversary,
    register_algorithm,
    register_workload,
)
from repro.scenarios.scenario import (
    Scenario,
    apply_scenario_delta,
    scenario_delta,
    scenario_key,
)
from repro.scenarios.sweep import (
    CellSummary,
    SweepRunner,
    expand_grid,
    summarize_record_sources,
    summarize_records,
)

__all__ = [
    "Scenario",
    "scenario_key",
    "scenario_delta",
    "apply_scenario_delta",
    "RunRecord",
    "RecordBatch",
    "jsonable",
    "execute",
    "EngineLease",
    "resolved_t",
    "delay_model_from",
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
    "SweepRunner",
    "expand_grid",
    "CellSummary",
    "summarize_records",
    "summarize_record_sources",
]
