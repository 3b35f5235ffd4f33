"""Registry behaviour: coverage, duplicate rejection, unknown rejection."""

from __future__ import annotations

import pytest

from repro.analysis import formulas
from repro.errors import ConfigurationError
from repro.scenarios import (
    ADVERSARIES,
    ALGORITHMS,
    WORKLOADS,
    AlgorithmDef,
    Registry,
    register_algorithm,
)

#: Every algorithm shipped in the repo must be runnable via the registry
#: (ISSUE acceptance: crw + 3 variants, floodset, early-stopping,
#: interactive consistency, mr99, chandra-toueg, ffd).
REQUIRED = {
    "crw",
    "eager-crw",
    "truncated-crw",
    "increasing-commit-crw",
    "floodset",
    "early-stopping",
    "interactive-consistency",
    "mr99",
    "chandra-toueg",
    "ffd",
}


class TestCoverage:
    def test_all_shipped_algorithms_registered(self):
        assert REQUIRED <= set(ALGORITHMS.names())

    def test_legacy_adversaries_absorbed(self):
        from repro.workloads.crashes import ADVERSARIES as LEGACY

        assert set(LEGACY) <= set(ADVERSARIES.names())

    def test_workloads_present(self):
        assert {"distinct-ints", "sized", "identical", "binary", "skewed"} <= set(
            WORKLOADS.names()
        )

    def test_backends_are_valid(self):
        for _name, algo in ALGORITHMS.items():
            assert algo.backend in ("extended", "classic", "async", "ffd")


#: The formula each registered ``round_bound(f, t)`` must equal.
BOUND_FORMULAS = {
    "crw": lambda f, t: formulas.crw_round_bound(f),
    "eager-crw": lambda f, t: formulas.crw_round_bound(f),
    "full-broadcast-crw": lambda f, t: formulas.crw_round_bound(f),
    "floodset": lambda f, t: formulas.floodset_rounds(t),
    "interactive-consistency": lambda f, t: formulas.floodset_rounds(t),
    "ic-consensus": lambda f, t: formulas.floodset_rounds(t),
    "early-stopping": formulas.early_stopping_round_bound,
}


class TestRoundBounds:
    def test_every_bound_is_a_formula(self):
        bounded = {name for name, algo in ALGORITHMS.items() if algo.round_bound is not None}
        assert bounded == set(BOUND_FORMULAS)
        for name, formula in BOUND_FORMULAS.items():
            bound = ALGORITHMS.get(name).round_bound
            for t in range(6):
                for f in range(t + 1):
                    assert bound(f, t) == formula(f, t), (name, f, t)

    def test_truncated_crw_has_no_bound(self):
        # Its deadline is the `k` param, which an (f, t) callable cannot see.
        from repro.scenarios import Scenario, execute

        assert ALGORITHMS.get("truncated-crw").round_bound is None
        record = execute(Scenario(algorithm="truncated-crw", n=6, t=5, f=3,
                                  adversary="coordinator-killer", params={"k": 2}))
        assert record.last_decision_round == 2


class TestRegistryContract:
    def test_unknown_name_rejected_with_available_list(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            ALGORITHMS.get("paxos")

    def test_duplicate_rejected(self):
        reg: Registry[int] = Registry("thing")
        reg.register("x", 1)
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.register("x", 2)
        assert reg.get("x") == 1

    def test_replace_flag_overrides(self):
        reg: Registry[int] = Registry("thing")
        reg.register("x", 1)
        reg.register("x", 2, replace=True)
        assert reg.get("x") == 2

    def test_empty_name_rejected(self):
        reg: Registry[int] = Registry("thing")
        with pytest.raises(ConfigurationError):
            reg.register("", 1)

    def test_register_algorithm_duplicate_rejected(self):
        dup = AlgorithmDef(name="crw", backend="extended", factory=None)
        with pytest.raises(ConfigurationError):
            register_algorithm(dup)

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            AlgorithmDef(name="x", backend="quantum", factory=None)

    def test_registration_is_visible_to_execute(self):
        from repro.core.crw import CRWConsensus
        from repro.scenarios import Scenario, execute

        algo = AlgorithmDef(
            name="crw-test-alias",
            backend="extended",
            factory=lambda n, t, props, params: [
                CRWConsensus(pid, n, props[pid - 1]) for pid in range(1, n + 1)
            ],
        )
        register_algorithm(algo, replace=True)
        record = execute(Scenario(algorithm="crw-test-alias", n=4))
        assert record.spec_ok and record.last_decision_round == 1
