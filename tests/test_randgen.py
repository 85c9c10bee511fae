"""Random module generator tests."""

import random

from preproj.fields import Field
from preproj.module import is_nilpotent
from preproj.quiver import Quiver, double
from preproj.randgen import random_combination, random_nilpotent_module


def a3_double():
    return double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))


def kronecker_double():
    return double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))


def test_generated_modules_are_nilpotent(rng_seed):
    rng = random.Random(rng_seed)
    for dq in (a3_double(), kronecker_double()):
        for _ in range(25):
            m = random_nilpotent_module(dq, rng, steps=4, max_total=6)
            assert is_nilpotent(m)
            assert 1 <= sum(m.dim) <= 6


def test_generation_is_reproducible(rng_seed):
    dq = a3_double()
    a = random_nilpotent_module(dq, random.Random(rng_seed), steps=4)
    b = random_nilpotent_module(dq, random.Random(rng_seed), steps=4)
    assert a == b


def test_generator_works_over_prime_fields(rng_seed):
    rng = random.Random(rng_seed)
    m = random_nilpotent_module(kronecker_double(), rng, field=Field(5))
    assert m.field.p == 5
    assert is_nilpotent(m)


def test_random_combination_avoids_zero(rng_seed):
    class Vec:
        def __init__(self, val):
            self.val = val

        def scale(self, s):
            return Vec(tuple(v * s for v in self.val))

        def add(self, other):
            return Vec(tuple(a + b for a, b in zip(self.val, other.val)))

    basis = [Vec((1, 0)), Vec((0, 1))]
    rng = random.Random(rng_seed)
    for _ in range(50):
        combo = random_combination(basis, rng)
        assert any(combo.val)
    assert random_combination([], rng) is None
