"""Scenario dataclass: validation and JSON round-tripping."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import Scenario, scenario_key


class TestValidation:
    def test_minimal(self):
        s = Scenario(algorithm="crw", n=4)
        assert s.t is None and s.f == 0 and s.adversary == "none"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "", "n": 4},
            {"algorithm": "crw", "n": 0},
            {"algorithm": "crw", "n": 4, "f": -1},
            {"algorithm": "crw", "n": 4, "t": 4},  # t must be < n
            {"algorithm": "crw", "n": 4, "t": 2, "f": 3},  # f > t
            {"algorithm": "crw", "n": 4, "seed": "zero"},
            {"algorithm": "crw", "n": "8"},  # quoted number in hand-written JSON
            {"algorithm": "crw", "n": 4, "f": "1"},
        ],
    )
    def test_rejects_bad_shapes(self, kwargs):
        with pytest.raises(ConfigurationError):
            Scenario(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "mr99", "n": 4, "max_rounds": -3},
            {"algorithm": "ffd", "n": 4, "max_rounds": 0},
            {"algorithm": "crw", "n": 4, "max_rounds": 0},
        ],
    )
    def test_rejects_round_budget_below_one(self, kwargs):
        # The engine's own message, raised before any workload, crash
        # plan or engine is built -- on every backend.
        with pytest.raises(ConfigurationError, match="max_rounds must be >= 1, got"):
            Scenario(**kwargs)
        with pytest.raises(ConfigurationError, match="max_rounds must be >= 1"):
            Scenario.from_dict({**kwargs})

    def test_rejects_round_budget_below_one_through_with(self):
        with pytest.raises(ConfigurationError, match="max_rounds must be >= 1"):
            Scenario(algorithm="crw", n=4).with_(max_rounds=0)

    def test_continuous_time_backends_ignore_a_valid_budget(self):
        from repro.scenarios import execute

        for algorithm in ("mr99", "ffd"):
            base = Scenario(algorithm=algorithm, n=4, f=1, adversary="staggered")
            budgeted = base.with_(max_rounds=1)
            a, b = execute(base).to_dict(), execute(budgeted).to_dict()
            a.pop("scenario"), b.pop("scenario")
            assert a == b, algorithm

    def test_dict_fields_snapshotted(self):
        params = {"k": 2}
        s = Scenario(algorithm="truncated-crw", n=8, params=params)
        key_before = scenario_key(s)
        params["k"] = 3  # caller mutation must not reach the frozen scenario
        assert s.params == {"k": 2}
        assert scenario_key(s) == key_before

    def test_with_replaces_fields(self):
        base = Scenario(algorithm="crw", n=4)
        changed = base.with_(n=8, f=2, adversary="coordinator-killer")
        assert (changed.n, changed.f) == (8, 2)
        assert base.n == 4  # frozen original untouched


class TestJsonRoundTrip:
    def test_defaults_round_trip(self):
        s = Scenario(algorithm="crw", n=4)
        assert Scenario.from_json(s.to_json()) == s

    def test_full_round_trip(self):
        s = Scenario(
            algorithm="mr99",
            n=9,
            t=4,
            f=2,
            adversary="coordinator-killer",
            workload="skewed",
            workload_params={"alphabet": 2},
            timing={"delay": "lognormal", "mu": 0.0, "sigma": 0.75},
            seed=17,
            max_rounds=50,
            params={"k": 3},
            model="async",
        )
        assert Scenario.from_json(s.to_json()) == s

    def test_json_is_plain_object(self):
        data = json.loads(Scenario(algorithm="ffd", n=6, timing={"D": 50.0}).to_json())
        assert data["algorithm"] == "ffd"
        assert data["timing"] == {"D": 50.0}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"algorithm": "crw", "n": 4, "bogus": 1})

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="incomplete scenario"):
            Scenario.from_dict({"n": 4})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario.from_json("[1, 2]")

    def test_key_is_canonical(self):
        a = Scenario(algorithm="crw", n=4, seed=1)
        b = Scenario(algorithm="crw", n=4, seed=1)
        c = Scenario(algorithm="crw", n=4, seed=2)
        assert scenario_key(a) == scenario_key(b)
        assert scenario_key(a) != scenario_key(c)
