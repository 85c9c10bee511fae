"""Random module generator tests."""

import random

import preproj.randgen as randgen
from preproj.fields import QQ, Field
from preproj.homext import ext_presentation
from preproj.module import direct_sum, is_nilpotent, simple
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


def naive_combination(items, rng, drawn=None):
    """random_combination as the plain loop: the same draws from rng,
    then every item scaled by its weight, zeros and ones included, and
    added up; the weights are appended to ``drawn``."""
    if not items:
        return None
    weights = [rng.randint(-2, 2) for _ in items]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    if drawn is not None:
        drawn.append(weights)
    out = items[0].scale(weights[0])
    for item, w in zip(items[1:], weights[1:]):
        out = out.add(item.scale(w))
    return out


def typed_maps(d):
    return [[[(type(x), x) for x in row] for row in m.entries] for m in d.maps]


def test_random_combination_matches_the_naive_loop(rng_seed):
    # skipping zero weights and scaling by 1 changes no class, and no
    # entry type, on real Ext^1 bases of dimension 1 up to 18
    pres = []
    for field in (QQ, Field(5)):
        for dq in (a3_double(), kronecker_double()):
            s1, s2 = simple(dq, "1", field), simple(dq, "2", field)
            left, right = s1, s2
            for _ in range(3):
                pres.append(ext_presentation(left, right))
                left, right = direct_sum(left, s1), direct_sum(right, s2)
            rng = random.Random(rng_seed)
            for _ in range(3):
                m, n = (random_nilpotent_module(dq, rng, field=field) for _ in "mn")
                pres.append(ext_presentation(m, n))
    pres = [p for p in pres if p.ext1_dim]
    dims = {p.ext1_dim for p in pres}
    assert max(dims) >= 8 and 1 in dims
    drawn = []
    for k, p in enumerate(pres):
        basis = p.ext1_basis
        for trial in range(20):
            got = random_combination(basis, random.Random(rng_seed + 100 * k + trial))
            want = naive_combination(
                basis, random.Random(rng_seed + 100 * k + trial), drawn
            )
            assert typed_maps(got) == typed_maps(want)
    weights = {w for ws in drawn for w in ws}
    assert {0, 1} <= weights
    assert any(ws.count(1) == len(ws) for ws in drawn)
    assert any(ws.count(0) == len(ws) - 1 for ws in drawn if len(ws) > 1)


def test_seeded_modules_equal_the_naive_loop(rng_seed, monkeypatch):
    # the same rng draws in the same order: every seeded module is the
    # one the naive loop builds
    cases = [(a3_double(), QQ), (kronecker_double(), QQ), (kronecker_double(), Field(5))]

    def build():
        return [
            random_nilpotent_module(dq, random.Random(rng_seed + k), steps=4, field=f)
            for dq, f in cases
            for k in range(15)
        ]

    fast, sizes = build(), []

    def naive(items, rng):
        sizes.append(len(items))
        return naive_combination(items, rng)

    monkeypatch.setattr(randgen, "random_combination", naive)
    assert build() == fast
    assert sum(n > 1 for n in sizes) >= 5
