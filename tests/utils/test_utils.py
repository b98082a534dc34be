"""Utility helpers: RNG fan-out."""

import numpy as np

from repro.utils import seed_everything, spawn_rng
from repro.utils.rng import hash_stable


class TestRng:
    def test_seed_everything_deterministic(self):
        a = seed_everything(5).normal(size=4)
        b = seed_everything(5).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_spawn_rng_streams_decorrelated(self):
        a = spawn_rng(1, "partition").normal(size=100)
        b = spawn_rng(1, "model").normal(size=100)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.3

    def test_spawn_rng_deterministic(self):
        a = spawn_rng(7, "x", 3).normal(size=5)
        b = spawn_rng(7, "x", 3).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_spawn_rng_tuple_seed(self):
        rng = spawn_rng((1, 2), "stream")
        assert rng.normal() is not None

    def test_hash_stable_is_stable(self):
        assert hash_stable("abc") == hash_stable("abc")
        assert hash_stable("abc") != hash_stable("abd")

