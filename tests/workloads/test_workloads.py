"""Tests for workload generators."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.net.payload import SizedValue
from repro.util.rng import RandomSource
from repro.workloads.crashes import ADVERSARIES, make_adversary
from repro.workloads.proposals import (
    binary_vector,
    distinct_ints,
    identical,
    sized_proposals,
    skewed,
)


class TestProposals:
    def test_distinct(self):
        assert distinct_ints(3) == [101, 102, 103]
        with pytest.raises(ConfigurationError):
            distinct_ints(0)

    def test_binary(self):
        v = binary_vector(100, RandomSource(1))
        assert set(v) <= {0, 1}
        assert 0 in v and 1 in v

    def test_sized(self):
        props = sized_proposals(3, 64)
        assert all(isinstance(p, SizedValue) and p.bits == 64 for p in props)
        assert len({p.value for p in props}) == 3
        with pytest.raises(ConfigurationError):
            sized_proposals(3, 0)

    def test_identical(self):
        assert identical(3, "x") == ["x", "x", "x"]

    def test_skewed_alphabet(self):
        v = skewed(200, RandomSource(2), alphabet=2)
        assert set(v) <= {0, 1}
        with pytest.raises(ConfigurationError):
            skewed(3, RandomSource(1), alphabet=0)


class TestAdversaryRegistry:
    def test_all_registered_construct(self):
        for name in ADVERSARIES:
            adv = make_adversary(name, 1)
            sched = adv.schedule(5, 2, RandomSource(1))
            assert sched.crash_count <= 2

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_adversary("nope", 1)
