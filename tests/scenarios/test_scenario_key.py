"""Spliced canonical keys and per-configuration cell columns.

``scenario_key`` builds the JSON of everything but the seed once per
configuration and splices the seed in; ``CellColumn`` decodes a column
of cell deltas once per distinct non-seed delta.  Both must be
indistinguishable from the per-cell reference: ``Scenario.to_json()``
byte for byte, and ``apply_scenario_delta`` cell for cell, accepting and
rejecting the same inputs.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.scenarios.scenario import (
    CellColumn,
    Scenario,
    _key_parts,
    apply_scenario_delta,
    config_identity,
    scenario_delta,
    scenario_key,
)

# Keys that collide with top-level field names, unicode, and characters
# JSON must escape.
_KEYS = st.sampled_from(
    ["seed", "t", "n", "params", "k", "é", "ключ", " ", 'q"uote', "back\\slash", "\n"]
) | st.text(max_size=6)

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False)
    | st.sampled_from([0.0, -0.0, 1e300, -1.5e-300])
    | st.text(max_size=8)
)

_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, inner, max_size=3)
    ),
    max_leaves=8,
)

_DICTS = st.dictionaries(_KEYS, _VALUES, max_size=3)
_NAMES = st.text(min_size=1, max_size=8)
_SEEDS = st.integers(min_value=-(2**100), max_value=2**100) | st.integers(-3, 3)


@st.composite
def scenarios(draw) -> Scenario:
    n = draw(st.integers(1, 40))
    t = draw(st.none() | st.integers(0, n - 1))
    f = draw(st.integers(0, t if t is not None else 50))
    return Scenario(
        algorithm=draw(_NAMES),
        n=n,
        t=t,
        f=f,
        adversary=draw(_NAMES),
        workload=draw(_NAMES),
        workload_params=draw(_DICTS),
        timing=draw(_DICTS),
        seed=draw(_SEEDS),
        max_rounds=draw(st.none() | st.integers(1, 10**20)),
        params=draw(_DICTS),
        model=draw(st.none() | _NAMES),
    )


class TestSplicedKey:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(scenarios())
    def test_key_is_to_json_byte_for_byte(self, s):
        assert scenario_key(s) == s.to_json()
        # And again from the now-warm head/tail cache.
        assert scenario_key(s) == s.to_json()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(scenarios(), _SEEDS)
    def test_reseeding_reuses_the_configuration(self, s, seed):
        other = s.with_(seed=seed)
        assert config_identity(other) == config_identity(s)
        assert scenario_key(other) == other.to_json()

    def test_tuple_and_list_values_share_a_key(self):
        a = Scenario(algorithm="crw", n=4, params={"x": (1, 2)})
        b = Scenario(algorithm="crw", n=4, params={"x": [1, 2]})
        assert config_identity(a) == config_identity(b)
        assert scenario_key(a) == scenario_key(b) == a.to_json() == b.to_json()

    def test_type_distinct_values_do_not_share_a_key(self):
        # 1 == 1.0 == True in Python, but they serialize apart.
        cells = [Scenario(algorithm="crw", n=4, params={"k": v}) for v in (1, 1.0, True)]
        assert len({config_identity(c) for c in cells}) == 3
        for cell in cells:
            assert scenario_key(cell) == cell.to_json()

    def test_int_subclass_seeds_splice_as_json_ints(self):
        class Seed(int):  # json.dumps writes int.__repr__, not str()
            def __str__(self):
                return "seven"

            __repr__ = __str__

        s = Scenario(algorithm="crw", n=Seed(7), seed=Seed(7))
        assert scenario_key(s) == s.to_json()
        assert json.loads(scenario_key(s))["seed"] == 7

    def test_dataclass_params_key_as_asdict_writes_them(self):
        @dataclasses.dataclass
        class Knob:
            level: int
            tags: tuple

        s = Scenario(algorithm="crw", n=4, params={"knob": Knob(2, ("a", 1))})
        assert scenario_key(s) == s.to_json()

    def test_nested_seed_keys_do_not_move_the_splice(self):
        s = Scenario(
            algorithm="crw", n=4, seed=-7,
            params={"seed": 1}, timing={"seed": 2, "t": 3},
            workload_params={"seed": {"seed": 4}},
        )
        key = scenario_key(s)
        assert key == s.to_json()
        assert json.loads(key)["seed"] == -7

    def test_key_cache_is_bounded(self):
        assert _key_parts.cache_info().maxsize is not None
        for seed in range(3):
            for n in range(1, _key_parts.cache_info().maxsize + 10):
                scenario_key(Scenario(algorithm="crw", n=n, seed=seed))
        assert _key_parts.cache_info().currsize <= _key_parts.cache_info().maxsize


class TestIntegerFields:
    @pytest.mark.parametrize("field", ["n", "t", "f", "seed", "max_rounds"])
    def test_bools_are_rejected(self, field):
        kwargs = {"algorithm": "crw", "n": 4, field: True}
        with pytest.raises(ConfigurationError, match=f"{field} must be an int"):
            Scenario(**kwargs)

    def test_bool_cells_cannot_alias_int_cells(self):
        with pytest.raises(ConfigurationError):
            Scenario(algorithm="crw", n=4, f=True, seed=True)
        with pytest.raises(ConfigurationError):
            Scenario.from_json('{"algorithm": "crw", "n": 4, "seed": true}')

    @pytest.mark.parametrize("field", ["adversary", "workload", "model"])
    def test_names_must_be_strings(self, field):
        with pytest.raises(ConfigurationError, match=f"{field} must be a name"):
            Scenario(algorithm="crw", n=4, **{field: 1})

    def test_model_may_be_none(self):
        assert Scenario(algorithm="crw", n=4, model=None).model is None


class TestCellColumn:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(scenarios(), st.lists(st.tuples(_SEEDS, st.integers(0, 3)), max_size=8))
    def test_decodes_like_apply_scenario_delta(self, base, cells):
        variants = [
            base, base.with_(f=0), base.with_(adversary="x"),
            base.with_(params={"k": 1.0}),
        ]
        grid = [variants[v].with_(seed=seed) for seed, v in cells]
        base_dict = json.loads(base.to_json())
        deltas = [json.loads(json.dumps(scenario_delta(base, c))) for c in grid]
        column = CellColumn.from_deltas(base_dict, deltas)
        base_scenario = Scenario.from_dict(base_dict)
        reference = [apply_scenario_delta(base_scenario, d) for d in deltas]
        assert column.scenarios() == reference
        assert column.keys() == [c.to_json() for c in reference]
        assert len(column.configs) <= len(variants)

    def test_no_base_means_full_dicts(self):
        cells = [Scenario(algorithm="crw", n=4, seed=s) for s in range(3)]
        column = CellColumn.from_deltas({}, [c.to_dict() for c in cells])
        assert column.scenarios() == cells
        assert column.keys() == [c.to_json() for c in cells]

    def test_cells_do_not_alias_dicts(self):
        base = Scenario(algorithm="crw", n=4, params={"k": 1})
        column = CellColumn.from_deltas(base.to_dict(), [{"seed": 1}, {"seed": 2}])
        a, b = column.scenarios()
        assert a.params == b.params and a.params is not b.params

    @pytest.mark.parametrize(
        "deltas",
        [
            [{"seed": 1}, {"seed": "2"}],
            [{"seed": True}],
            [{"seed": 1.0}],
            [{"f": True, "seed": 1}],
            [{"f": 1, "seed": 1}, {"f": True, "seed": 2}],  # 1 == True
            [{"max_rounds": 2}, {"max_rounds": 2.0}],
            [{"f": 9, "seed": 1}],  # f > t
            [{"bogus": 1}],
            [["seed"]],
            ["seed"],
            [{"n": "4"}],
        ],
    )
    def test_rejects_what_apply_scenario_delta_rejects(self, deltas):
        base = Scenario(algorithm="crw", n=4, t=3)
        with pytest.raises((ConfigurationError, TypeError)):
            [apply_scenario_delta(base, d) for d in deltas]
        with pytest.raises(ConfigurationError):
            CellColumn.from_deltas(base.to_dict(), deltas)

    @pytest.mark.parametrize("delta", [None, [], 0, ""])
    def test_falsy_delta_is_the_base(self, delta):
        base = Scenario(algorithm="crw", n=4, seed=5)
        column = CellColumn.from_deltas(base.to_dict(), [delta])
        assert column.scenarios() == [apply_scenario_delta(base, delta)] == [base]
