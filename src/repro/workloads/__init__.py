"""Workload generators: proposal vectors and named crash adversaries."""

from repro.workloads.crashes import ADVERSARIES, make_adversary
from repro.workloads.proposals import (
    binary_vector,
    distinct_ints,
    identical,
    sized_proposals,
    skewed,
)

__all__ = [
    "ADVERSARIES",
    "make_adversary",
    "binary_vector",
    "distinct_ints",
    "identical",
    "sized_proposals",
    "skewed",
]
