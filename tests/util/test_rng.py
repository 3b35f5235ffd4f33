"""Tests for the deterministic RNG tree."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.util import rng as rng_mod
from repro.util.rng import RandomSource, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_label_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_structure_matters(self):
        # ("ab",) and ("a", "b") must not collide.
        assert derive_seed(42, "ab") != derive_seed(42, "a", "b")

    def test_64_bit_range(self):
        s = derive_seed(123456789, "x")
        assert 0 <= s < 2**64


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(7)
        b = RandomSource(7)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_different_seed_diverges(self):
        a = RandomSource(7)
        b = RandomSource(8)
        assert [a.randint(0, 10**9) for _ in range(5)] != [
            b.randint(0, 10**9) for _ in range(5)
        ]

    def test_spawn_independent_of_parent_draws(self):
        # Drawing from the parent must not perturb a child's stream.
        a = RandomSource(7)
        child_before = a.spawn("c")
        seq1 = [child_before.randint(0, 100) for _ in range(10)]

        b = RandomSource(7)
        _ = [b.randint(0, 100) for _ in range(50)]  # extra parent draws
        child_after = b.spawn("c")
        seq2 = [child_after.randint(0, 100) for _ in range(10)]
        assert seq1 == seq2

    def test_spawn_same_label_same_stream(self):
        a = RandomSource(7)
        assert a.spawn("x").randint(0, 10**9) == a.spawn("x").randint(0, 10**9)

    def test_spawn_distinct_labels_distinct_streams(self):
        a = RandomSource(7)
        xs = [a.spawn(f"p{i}").randint(0, 10**9) for i in range(10)]
        assert len(set(xs)) > 1

    def test_non_int_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomSource("seed")  # type: ignore[arg-type]

    def test_randint_empty_range_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomSource(1).randint(5, 4)

    def test_choice_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomSource(1).choice([])

    def test_shuffle_returns_copy(self):
        src = RandomSource(3)
        items = [1, 2, 3, 4, 5]
        out = src.shuffle(items)
        assert sorted(out) == items
        assert items == [1, 2, 3, 4, 5]  # input untouched

    def test_sample_bounds(self):
        src = RandomSource(3)
        with pytest.raises(ConfigurationError):
            src.sample([1, 2], 3)
        with pytest.raises(ConfigurationError):
            src.sample([1, 2], -1)
        assert src.sample([1, 2], 0) == []

    def test_sample_distinct(self):
        src = RandomSource(3)
        out = src.sample(range(100), 10)
        assert len(set(out)) == 10

    def test_subset_probability_bounds(self):
        src = RandomSource(3)
        with pytest.raises(ConfigurationError):
            src.subset([1], p=1.5)
        assert src.subset([1, 2, 3], p=0.0) == []
        assert src.subset([1, 2, 3], p=1.0) == [1, 2, 3]

    def test_exponential_validates_mean(self):
        with pytest.raises(ConfigurationError):
            RandomSource(1).exponential(0.0)

    def test_bool_probability(self):
        src = RandomSource(5)
        draws = [src.bool(0.5) for _ in range(200)]
        assert any(draws) and not all(draws)

    @given(st.integers(min_value=0, max_value=2**63), st.integers(0, 50))
    def test_uniform_in_bounds(self, seed, width):
        src = RandomSource(seed)
        v = src.uniform(10.0, 10.0 + width)
        assert 10.0 <= v <= 10.0 + width

    @given(st.integers(min_value=0, max_value=2**63))
    def test_subset_is_subsequence(self, seed):
        src = RandomSource(seed)
        items = list(range(20))
        sub = src.subset(items, 0.3)
        assert sub == [x for x in items if x in set(sub)]


class TestLazySeeding:
    """Streams are seeded on first draw, never on construction."""

    @pytest.fixture
    def seedings(self, monkeypatch):
        calls = []
        real = rng_mod.derive_seed

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(rng_mod, "derive_seed", counting)
        return calls

    def test_undrawn_spawn_does_no_seeding(self, seedings):
        root = RandomSource(7)
        child = root.spawn("slot1").spawn("inner")
        assert seedings == []
        assert child.path == ("slot1", "inner") and child.seed == 7
        child.random()
        assert seedings == [(7, "slot1", "inner", "stream")]
        child.random()
        assert len(seedings) == 1  # seeded once

    def test_first_draw_matches_eager_generator(self):
        ref = random.Random(derive_seed(99, "a", "b", "stream"))
        src = RandomSource(99).spawn("a").spawn("b")
        assert [src.random() for _ in range(5)] == [ref.random() for _ in range(5)]

    def test_raw_is_stable(self):
        src = RandomSource(3).spawn("x")
        raw = src.raw
        assert src.raw is raw
        src.randint(0, 9)
        assert src.raw is raw

    @pytest.mark.parametrize("clone", [
        copy.deepcopy,
        lambda s: pickle.loads(pickle.dumps(s)),
    ], ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("drawn", [0, 3])
    def test_round_trip_continues_the_stream(self, clone, drawn):
        src = RandomSource(11).spawn("w")
        for _ in range(drawn):
            src.random()
        twin = clone(src)
        assert twin.seed == src.seed and twin.path == src.path
        assert [twin.random() for _ in range(4)] == [src.random() for _ in range(4)]

    def test_undrawn_clone_stays_unseeded(self, seedings):
        twin = pickle.loads(pickle.dumps(RandomSource(5).spawn("p")))
        copy.deepcopy(twin)
        assert seedings == []
