"""Tests for deterministic RNG stream derivation (repro.util.rng)."""

import numpy as np

from repro.util.rng import RngStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "link:a>b") == derive_seed(42, "link:a>b")

    def test_name_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_root_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        seed = derive_seed(123456789, "some-stream")
        assert 0 <= seed < 2**64

    def test_negative_root_seed_ok(self):
        assert derive_seed(-5, "x") == derive_seed(-5, "x")


class TestRngStreams:
    def test_same_name_same_generator_object(self):
        streams = RngStreams(7)
        assert streams.get("s") is streams.get("s")

    def test_different_names_independent_draws(self):
        streams = RngStreams(7)
        a = streams.get("a").random(8)
        b = streams.get("b").random(8)
        assert not np.allclose(a, b)

    def test_reproducible_across_instances(self):
        a = RngStreams(99).get("jitter").random(16)
        b = RngStreams(99).get("jitter").random(16)
        assert np.allclose(a, b)

    def test_new_consumer_does_not_perturb_existing_stream(self):
        """The key refactoring-stability property."""
        s1 = RngStreams(5)
        s1.get("x")  # x exists alone
        draws_alone = s1.get("x").random(4)

        s2 = RngStreams(5)
        s2.get("unrelated")  # create another stream FIRST
        s2.get("x")
        draws_with_sibling = s2.get("x").random(4)
        assert np.allclose(draws_alone, draws_with_sibling)

    def test_fresh_resets_stream(self):
        streams = RngStreams(3)
        first = streams.get("s").random(4)
        streams.fresh("s")
        again = streams.get("s").random(4)
        assert np.allclose(first, again)
