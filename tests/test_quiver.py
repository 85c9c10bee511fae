"""Quiver doubling, words, splittings, and the symmetric form."""

import math
import random
from itertools import combinations, product

import pytest

from preproj.quiver import (
    Quiver,
    double,
    enumerate_splittings,
    enumerate_words,
    has_dynkin_component,
    symmetric_form,
    word_content,
)


def a2():
    return Quiver.build(["1", "2"], [("a", "1", "2")])


def a3():
    return Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])


def kronecker():
    return Quiver.build(["1", "2"], [("a1", "1", "2"), ("a2", "1", "2")])


def d4():
    return Quiver.build(
        ["1", "2", "3", "4"],
        [("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4")],
    )


def test_loop_rejected_with_arrow_name():
    with pytest.raises(ValueError, match="loop"):
        Quiver.build(["1"], [("a", "1", "1")])


def test_duplicate_and_reserved_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Quiver.build(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])
    with pytest.raises(ValueError, match="reserved"):
        Quiver.build(["1", "2"], [("a*", "1", "2")])
    with pytest.raises(ValueError, match="endpoint"):
        Quiver.build(["1", "2"], [("a", "1", "3")])


def test_double_structure():
    dq = double(a2())
    assert [a.name for a in dq.arrows] == ["a", "a*"]
    a, abar = dq.arrows
    assert (a.source, a.target, a.sign, a.bar) == ("1", "2", 0, "a*")
    assert (abar.source, abar.target, abar.sign, abar.bar) == ("2", "1", 1, "a")
    assert dq.arrows_from("2") == (abar,)
    assert dq.arrows_into("2") == (a,)


def test_symmetric_form_frozen_values():
    # Kronecker: (e1, e2) = 2*0 - (1 + 1) = -2
    assert symmetric_form(kronecker(), (1, 0), (0, 1)) == -2
    # D4: (e4, (1,1,1,1)) = 2*1 - 3 = -1
    assert symmetric_form(d4(), (0, 0, 0, 1), (1, 1, 1, 1)) == -1
    assert symmetric_form(a2(), (1, 0), (1, 0)) == 2


def test_symmetric_form_symmetry_seeded(rng_seed):
    rng = random.Random(rng_seed + 10)
    q = d4()
    for _ in range(30):
        d = tuple(rng.randrange(0, 4) for _ in range(4))
        e = tuple(rng.randrange(0, 4) for _ in range(4))
        assert symmetric_form(q, d, e) == symmetric_form(q, e, d)


def test_enumerate_words_a2():
    assert enumerate_words(a2(), (1, 1)) == (("1", "2"), ("2", "1"))
    assert enumerate_words(a2(), (0, 0)) == ((),)


def test_enumerate_words_d4_count_and_order():
    words = enumerate_words(d4(), (1, 1, 1, 2))
    assert len(words) == 60
    assert words[0] == ("1", "2", "3", "4", "4")
    assert list(words) == sorted(words)
    assert len(set(words)) == 60
    for w in words:
        assert word_content(d4(), w) == (1, 1, 1, 2)


def test_enumerate_words_multinomial_seeded(rng_seed):
    rng = random.Random(rng_seed + 11)
    q = a3()
    for _ in range(10):
        d = tuple(rng.randrange(0, 3) for _ in range(3))
        words = enumerate_words(q, d)
        expected = math.factorial(sum(d))
        for x in d:
            expected //= math.factorial(x)
        assert len(words) == expected


def test_word_content_with_coefficients():
    q = a2()
    assert word_content(q, ("1", "2", "1"), (2, 1, 0)) == (2, 1)
    with pytest.raises(ValueError):
        word_content(q, ("1",), (1, 2))
    with pytest.raises(ValueError, match="unknown vertex"):
        word_content(q, ("1", "9"))


def test_enumerate_splittings_a2_frozen():
    q = a2()
    splits = enumerate_splittings(q, ("1", "2"), None, (1, 0), (0, 1))
    assert splits == (((1, 0), (0, 1)),)


def test_enumerate_splittings_counts_seeded(rng_seed):
    rng = random.Random(rng_seed + 12)
    q = a3()
    for _ in range(10):
        d = tuple(rng.randrange(0, 3) for _ in range(3))
        words = enumerate_words(q, d)
        if not words:
            continue
        w = rng.choice(words)
        d1 = tuple(rng.randrange(0, x + 1) for x in d)
        d2 = tuple(a - b for a, b in zip(d, d1))
        splits = enumerate_splittings(q, w, None, d1, d2)
        expected = 1
        for total, part in zip(d, d1):
            expected *= math.comb(total, part)
        assert len(splits) == expected
        for c1, c2 in splits:
            assert tuple(a + b for a, b in zip(c1, c2)) == (1,) * len(w)
            assert word_content(q, w, c1) == d1
            assert word_content(q, w, c2) == d2


def test_enumerate_splittings_content_mismatch():
    with pytest.raises(ValueError):
        enumerate_splittings(a2(), ("1",), None, (1, 0), (0, 1))


def test_dynkin_components():
    assert has_dynkin_component(a2())
    assert has_dynkin_component(a3())
    assert has_dynkin_component(d4())
    assert not has_dynkin_component(kronecker())
    # a disjoint union with one Dynkin part still has one
    mixed = Quiver.build(
        ["1", "2", "3", "4"],
        [("a1", "1", "2"), ("a2", "1", "2"), ("b", "3", "4")],
    )
    assert has_dynkin_component(mixed)
    # star with four arms (affine D4 shape) is not Dynkin
    star4 = Quiver.build(
        ["0", "1", "2", "3", "4"],
        [("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0"), ("d", "4", "0")],
    )
    assert not has_dynkin_component(star4)
    # arm profile (1,2,4) is E8, (1,2,5) is beyond it, (2,2,2) is affine E6
    def star(arms):
        vertices = ["c"]
        arrows = []
        for ai, length in enumerate(arms):
            prev = "c"
            for k in range(length):
                v = f"v{ai}_{k}"
                vertices.append(v)
                arrows.append((f"e{ai}_{k}", prev, v))
                prev = v
        return Quiver.build(vertices, arrows)

    assert has_dynkin_component(star([1, 2, 4]))
    assert not has_dynkin_component(star([1, 2, 5]))
    assert not has_dynkin_component(star([2, 2, 2]))
    assert has_dynkin_component(star([1, 1, 7]))


def test_cycle_is_not_dynkin():
    cycle = Quiver.build(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")],
    )
    assert not has_dynkin_component(cycle)


def reference_component_is_dynkin(vertices, edges):
    """The arm-based classification: a component is Dynkin exactly when it
    is a tree whose degree pattern is a path, or a single degree-3 vertex
    with arm lengths (1, 1, k), (1, 2, 2), (1, 2, 3) or (1, 2, 4)."""
    if len(edges) != len(vertices) - 1:
        return False
    adjacent = {v: [] for v in vertices}
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    branches = [v for v in vertices if len(adjacent[v]) >= 3]
    if not branches:
        return True
    if len(branches) > 1 or len(adjacent[branches[0]]) > 3:
        return False
    b = branches[0]
    arms = []
    for start in adjacent[b]:
        length, prev, cur = 1, b, start
        while len(adjacent[cur]) == 2:
            prev, cur = cur, next(w for w in adjacent[cur] if w != prev)
            length += 1
        arms.append(length)
    arms.sort()
    return arms[:2] == [1, 1] or arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4])


def reference_has_dynkin_component(q):
    component = {v: {v} for v in q.vertices}
    for a in q.arrows:
        merged = component[a.source] | component[a.target]
        for v in merged:
            component[v] = merged
    groups = {frozenset(c) for c in component.values()}
    return any(
        reference_component_is_dynkin(
            sorted(g), [(a.source, a.target) for a in q.arrows if a.source in g]
        )
        for g in groups
    )


def all_small_multigraphs():
    """Every loop-free multigraph on up to 5 labelled vertices, with edge
    multiplicity up to 2 on up to 4 vertices and up to 1 on 5."""
    for n in range(6):
        vertices = [str(v) for v in range(n)]
        pairs = list(combinations(vertices, 2))
        for mults in product(range(3 if n <= 4 else 2), repeat=len(pairs)):
            arrows = [
                (f"e{k}_{r}", u, v)
                for k, ((u, v), mult) in enumerate(zip(pairs, mults))
                for r in range(mult)
            ]
            yield Quiver.build(vertices, arrows)


def test_dynkin_test_agrees_with_arm_classification():
    verdicts = []
    for q in all_small_multigraphs():
        want = reference_has_dynkin_component(q)
        assert has_dynkin_component(q) == want, q
        verdicts.append(want)
    assert len(verdicts) == 1 + 1 + 3 + 27 + 729 + 1024
    assert verdicts.count(True) and verdicts.count(False)
