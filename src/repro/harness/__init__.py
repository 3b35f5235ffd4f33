"""Experiment harness: experiment definitions, reports, CLI."""

from repro.harness.experiments import ALL_EXPERIMENTS, ExperimentResult

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
]
