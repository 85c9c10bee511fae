"""Flag counting, interpolation at q = 1, and fingerprint tests.

Count oracles are frozen from hand recursions: every kept subspace must
contain the incoming images, so one-dimensional pieces force unique
choices and branching only happens in pieces of dimension two or more.
"""

import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import groupby, islice

import pytest

from preproj import d4, flags
from preproj.fields import QQ, Field, primes
from preproj.flags import (
    InsufficientPrimes,
    NonPolynomialCount,
    count_flags,
    count_flags_by_splitting,
    count_flags_fp,
    degree_bound,
    enumerate_subspaces,
    euler_characteristic,
    fingerprint,
    split_chi_sum,
    split_euler_table,
)
from preproj.linalg import Matrix, Polynomial, hstack, kernel_basis, rank, solve
from preproj.module import (
    BadPrime,
    LambdaModule,
    RowModule,
    direct_sum,
    reduce_mod_p,
    restrict,
    restrict_rows,
    simple,
    validate,
)
from preproj.quiver import Quiver, double, enumerate_splittings, enumerate_words
from preproj.randgen import random_nilpotent_module


def a2_double():
    return double(Quiver.build(["1", "2"], [("a", "1", "2")]))


def x_module(dq, value=1):
    """The A2 module with x(a) = value on the original arrow."""
    return LambdaModule.build(dq, QQ, (1, 1), {"a": [[value]]})


def y_module(dq):
    """The A2 module supported on the reversed arrow."""
    return LambdaModule.build(dq, QQ, (1, 1), {"a*": [[1]]})


def refuse_whole_tables(monkeypatch):
    """Fail the test if a whole word or split table is built; the split
    table of one word passes."""
    real = flags._split_table

    def refuse(*args):
        raise AssertionError("a whole table was built")

    def one_word(q, left, right, memo, word=None, coeffs=None):
        if word is None:
            refuse()
        return real(q, left, right, memo, word, coeffs)

    monkeypatch.setattr(flags, "_word_table", refuse)
    monkeypatch.setattr(flags, "_split_table", one_word)


# The reference trie builder: step sequences written out as paths,
# sorted and grouped by first step, with no content recursion.  Every
# trie of flags._table must be the node this makes of the same table.


def path_steps(q, word, coeffs, drops=None):
    """The effective (vertex index, multiplicity, drop) steps of a word;
    zero coefficients drop out.  ``drops`` default to 0, which tracks
    nothing."""
    if coeffs is None:
        coeffs = [1] * len(word)
    if drops is None:
        drops = [0] * len(word)
    idx = q.vertex_index
    return tuple((idx[v], c, d) for v, c, d in zip(word, coeffs, drops) if c > 0)


def path_split_steps(left, right, word, coeffs):
    """Every splitting type (c', c'') of (word, coeffs) between the two
    summands, in enumeration order, and the steps that count it on their
    direct sum: the drops are c'', the right summand's share."""
    q = left.quiver
    keys = enumerate_splittings(q, word, coeffs, left.dim, right.dim)
    return keys, tuple(path_steps(q, word, coeffs, c_right) for _, c_right in keys)


def path_node(paths, k, nodes):
    """The node of distinct paths, in ascending order, that share their
    first k steps, interned in ``nodes`` by its (end, cases); a path's
    steps are (v, c, drop, tracked)."""
    end = bool(paths) and len(paths[0]) == k
    groups = {}
    for path in paths[end:]:
        groups.setdefault(path[k], []).append(path)
    cases = tuple(
        (*step, path_node(same, k + 1, nodes)) for step, same in groups.items()
    )
    return flags._intern(end, cases, nodes)


def path_trie(steps, memo):
    """The trie of a step table and the position of every entry in the
    root's count tuple, made by sorting and grouping the sequences; nodes
    are interned in ``memo`` as flags._table interns them.  A step's
    tracked amount is the sum of the drops at its vertex from it to the
    end of its sequence.  Positions follow the ascending order of the
    sequences written with their tracked amounts, which is the node
    order; repeated entries share a position."""
    paths = []
    for seq in steps:
        left, path = {}, []
        for v, c, drop in reversed(seq):
            left[v] = left.get(v, 0) + drop
            path.append((v, c, drop, left[v]))
        paths.append(tuple(reversed(path)))
    order = sorted(set(paths))
    rank = {path: r for r, path in enumerate(order)}
    nodes = {} if memo is None else memo.setdefault(flags._NODES_KEY, {})
    return path_node(order, 0, nodes), tuple(rank[path] for path in paths)


def gaussian_binomial(r, k, p):
    num, den = 1, 1
    for i in range(k):
        num *= p ** (r - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def test_single_simple_word_count_is_one():
    dq = a2_double()
    for p in (2, 3, 5):
        s1 = reduce_mod_p(simple(dq, "1", QQ), p)
        assert count_flags(s1, ("1",)).count == 1


def test_a2_x_module_counts_frozen():
    dq = a2_double()
    for p in (2, 3, 5):
        xp = reduce_mod_p(x_module(dq), p)
        assert count_flags(xp, ("1", "2")).count == 1
        assert count_flags(xp, ("2", "1")).count == 0


def test_count_rejects_bad_inputs():
    dq = a2_double()
    with pytest.raises(ValueError, match="prime field"):
        count_flags(x_module(dq), ("1", "2"))
    xp = reduce_mod_p(x_module(dq), 5)
    with pytest.raises(ValueError, match="content"):
        count_flags(xp, ("1", "1"))


def test_guards_name_the_bad_input():
    # each guard with its exact message: rational versus prime fields,
    # word content, and two modules or fingerprints over different
    # double quivers (a: 1 -> 2 against a: 2 -> 1)
    dq = a2_double()
    other = x_module(double(Quiver.build(["1", "2"], [("a", "2", "1")])))
    x = x_module(dq)
    xp, other_p = reduce_mod_p(x, 5), reduce_mod_p(other, 5)
    word = ("1", "2", "1", "2")
    need_p = "flag counting needs a prime field; reduce first"
    need_q = "Euler characteristics are computed over the rationals"
    content = "word content differs from the module dimension"
    common = "need two modules over one common prime field"
    quivers = "modules live over different double quivers"
    cases = [
        (lambda: count_flags_fp(x), need_p),
        (lambda: euler_characteristic(xp, ("1", "2")), need_q),
        (lambda: euler_characteristic(x, ("1", "1")), content),
        (lambda: fingerprint(xp), need_q),
        (
            lambda: split_chi_sum(fingerprint(x), fingerprint(other), ("1", "2")),
            "fingerprints live over different double quivers",
        ),
        (lambda: count_flags_by_splitting(x, x, word), common),
        (lambda: count_flags_by_splitting(xp, reduce_mod_p(x, 3), word), common),
        (lambda: count_flags_by_splitting(xp, other_p, word), quivers),
        (lambda: count_flags_by_splitting(xp, xp, ("1", "2")), content),
        (lambda: split_euler_table(xp, x, word), need_q),
        (lambda: split_euler_table(x, other, word), quivers),
        (lambda: split_euler_table(x, x, ("1", "2")), content),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_memo_refuses_a_second_double_quiver():
    # the memo keys hold no arrows: with a: 1 -> 2 and a: 2 -> 1 the
    # module x(a) = [[1]] has the same (p, dim, rows) key in both
    forward = a2_double()
    backward = double(Quiver.build(["1", "2"], [("a", "2", "1")]))
    mods = [reduce_mod_p(x_module(dq), 3) for dq in (forward, backward)]
    fresh = tuple(count_flags(m, ("1", "2")).count for m in mods)
    assert fresh == (1, 0)
    memo = {}
    assert count_flags(mods[0], ("1", "2"), memo=memo).count == 1
    with pytest.raises(ValueError, match="another double quiver"):
        count_flags(mods[1], ("1", "2"), memo=memo)
    with pytest.raises(ValueError, match="another double quiver"):
        fingerprint(x_module(backward), memo=memo)
    # the guard runs before a whole table is looked up or built
    word = ("1", "2", "1", "2")
    assert count_flags_by_splitting(mods[0], mods[0], word, memo=memo)
    kept = set(memo)
    with pytest.raises(ValueError, match="another double quiver"):
        count_flags_by_splitting(mods[1], mods[1], word, memo=memo)
    assert set(memo) == kept
    # a module of the first quiver still counts through it
    assert count_flags(mods[0], ("2", "1"), memo=memo).count == 0
    # renamed vertices leave the counts alone but not the words
    renamed = double(Quiver.build(["x", "y"], [("a", "x", "y")]))
    memo = {}
    fingerprint(x_module(forward), memo=memo)
    fp = fingerprint(x_module(renamed), memo=memo)
    assert fp == fingerprint(x_module(renamed))
    assert fp.words == (("x", "y"), ("y", "x"))


def test_trie_nodes_are_interned_in_their_memo():
    # two chains whose words end alike share the node of their common
    # rest through one memo, and only through it: nothing is kept for
    # the process
    zero = (0, 0, 0)
    left, right = ((0, 1), (1, 1), (2, 1)), ((1, 1), (1, 1), (2, 1))
    memo = {}
    root = flags._table((1, 1, 1), zero, memo, left)
    other = flags._table((0, 2, 1), zero, memo, right)
    assert len(root) == 3 and root.size == 1
    assert len(other) == 3 and other.size == 1
    rest = root.cases[0][-1]
    assert other.cases[0][-1] is rest
    # a letter of coefficient 2 is one step that places both factors
    block = flags._table((0, 2, 1), zero, memo, ((1, 2), (2, 1)))
    assert len(block) == 2 and block.cases[0][:4] == (1, 2, 0, 0)
    assert block.cases[0][-1] is rest.cases[0][-1]
    assert flags._table((1, 1, 1), zero, memo, left) is root
    assert flags._table((0, 2, 1), zero, None, right).cases[0][-1] is not rest
    assert flags._table((1, 1, 1), zero, {}, left) is not root


def test_s4_pair_counts_are_projective_line(monkeypatch):
    # one word without a memo, or a word with coefficients, is one chain
    refuse_whole_tables(monkeypatch)
    dq = d4.star_double()
    pair = direct_sum(d4.s4_module(dq), d4.s4_module(dq))
    for p in (2, 3, 5, 7):
        mp = reduce_mod_p(pair, p)
        assert count_flags(mp, ("4", "4")).count == p + 1
        # a single multiplicity-2 step keeps only the zero subspace
        assert count_flags(mp, ("4",), coeffs=(2,)).count == 1
        assert count_flags(mp, ("4",), coeffs=(2,), memo={}).count == 1


def test_t_module_counts_depend_on_word_order():
    dq = d4.star_double()
    for p in (2, 5):
        tp = reduce_mod_p(d4.t_module(dq), p)
        assert count_flags(tp, ("1", "2", "3", "4")).count == 1
        assert count_flags(tp, ("4", "1", "2", "3")).count == 0


def test_zero_module_empty_word():
    dq = a2_double()
    zero = LambdaModule.build(dq, QQ, (0, 0), {})
    assert count_flags(reduce_mod_p(zero, 3), ()).count == 1
    profile = euler_characteristic(zero, ())
    assert profile.euler == 1
    assert profile.degree_bound == 0


def test_count_vectors_frozen_a2():
    dq = a2_double()
    assert count_flags_fp(reduce_mod_p(x_module(dq), 2)) == (1, 0)
    assert count_flags_fp(reduce_mod_p(y_module(dq), 5)) == (0, 1)
    ss = direct_sum(simple(dq, "1", QQ), simple(dq, "2", QQ))
    assert count_flags_fp(reduce_mod_p(ss, 3)) == (1, 1)
    zero = LambdaModule.build(dq, QQ, (0, 0), {})
    assert count_flags_fp(reduce_mod_p(zero, 2)) == (1,)


def test_subspace_enumeration_sizes():
    found = list(enumerate_subspaces(Field(3), 3, 1))
    assert len(found) == 13
    assert len(set(found)) == 13
    assert len(list(enumerate_subspaces(Field(2), 4, 2))) == 35
    assert len(list(enumerate_subspaces(QQ, 2, 2))) == 1
    assert len(list(enumerate_subspaces(QQ, 2, 0))) == 1
    with pytest.raises(ValueError, match="rationals"):
        list(enumerate_subspaces(QQ, 2, 1))


def test_semisimple_counts_are_gaussian_products(rng_seed):
    rng = random.Random(rng_seed)
    quiv = d4.star_quiver()
    dq = d4.star_double()
    for p in (2, 3, 5):
        for _ in range(5):
            dims = tuple(rng.randrange(0, 3) for _ in quiv.vertices)
            m = LambdaModule.build(dq, Field(p), dims, {})
            letters = [
                v for v, d in zip(quiv.vertices, dims) for _ in range(d)
            ]
            rng.shuffle(letters)
            expected = 1
            remaining = dict(zip(quiv.vertices, dims))
            for v in letters:
                expected *= gaussian_binomial(remaining[v], 1, p)
                remaining[v] -= 1
            assert count_flags(m, tuple(letters)).count == expected
            # one block step per vertex has a unique flag
            blocks = tuple(v for v, d in zip(quiv.vertices, dims) if d)
            coeffs = tuple(d for d in dims if d)
            assert count_flags(m, blocks, coeffs=coeffs).count == 1


def test_euler_profile_frozen_for_projective_line():
    dq = d4.star_double()
    pair = direct_sum(d4.s4_module(dq), d4.s4_module(dq))
    profile = euler_characteristic(pair, ("4", "4"))
    assert profile.euler == 2
    assert profile.degree_bound == 1
    assert profile.window == (2, 3)
    assert profile.validation == (5, 7)
    assert profile.samples == ((2, 3), (3, 4), (5, 6), (7, 8))
    assert profile.polynomial.coeffs == (Fraction(1), Fraction(1))


def test_euler_skips_primes_dividing_denominators():
    dq = a2_double()
    m = x_module(dq, value=Fraction(1, 3))
    profile = euler_characteristic(m, ("1", "2"))
    assert profile.euler == 1
    assert [p for p, _ in profile.samples] == [2, 5, 7]


def test_window_slides_past_degenerate_small_primes():
    # the one-parameter star family at 2 reduces to its 0-degeneration
    # mod 2, whose count differs, so the fit must drop the prime 2
    word = ("3", "4", "1", "2", "4")
    profile = euler_characteristic(d4.m_family(2), word)
    assert profile.euler == 0
    assert profile.window == (3, 5)
    assert profile.validation == (7, 11)
    assert profile.samples[0] == (2, 1)
    generic = euler_characteristic(d4.m_family(1), word)
    assert generic.euler == 0
    assert generic.window == (2, 3)


def test_star_counts_separate_the_family_degenerations():
    word = ("3", "4", "1", "2", "4")
    members = d4.zoo(1)
    expected = {
        "M(lam)": 0,
        "M(0)": 1,
        "M(-1)": 0,
        "M(inf)": 0,
        "H": 1,
        "R": 0,
        "G": 0,
    }
    for name, want in expected.items():
        mp = reduce_mod_p(members[name], 5)
        assert count_flags(mp, word).count == want, name


def test_nonpolynomial_counts_surface_after_all_shifts(monkeypatch):
    dq = a2_double()
    real = flags._count

    def crooked(m, node, memo):
        counts = real(m, node, memo)
        if len(node) == 2 and m.field.p % 4 == 3:
            counts = tuple(n + 1 for n in counts)
        return counts

    monkeypatch.setattr(flags, "_count", crooked)
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    for compute in (
        lambda: euler_characteristic(x_module(dq), ("1", "2")),
        lambda: split_euler_table(s1, s2, ("1", "2")),
    ):
        with pytest.raises(NonPolynomialCount) as err:
            compute()
        assert err.value.word == ("1", "2")
        assert "validation" in str(err.value)


def test_insufficient_primes_reported():
    dq = d4.star_double()
    pair = direct_sum(d4.s4_module(dq), d4.s4_module(dq))
    with pytest.raises(InsufficientPrimes):
        euler_characteristic(pair, ("4", "4"), prime_list=[2, 3])
    with pytest.raises(InsufficientPrimes):
        fingerprint(d4.t_module(), prime_list=[2, 3])


def test_fingerprint_a2_frozen():
    dq = a2_double()
    fp_x = fingerprint(x_module(dq))
    assert fp_x.words == (("1", "2"), ("2", "1"))
    assert fp_x.chi == (1, 0)
    assert fp_x.chi_of(("2", "1")) == 0
    assert fingerprint(y_module(dq)).chi == (0, 1)
    ss = direct_sum(simple(dq, "1", QQ), simple(dq, "2", QQ))
    fp_ss = fingerprint(ss)
    assert fp_ss.chi == (1, 1)
    assert fp_ss.table() == {("1", "2"): 1, ("2", "1"): 1}
    with pytest.raises(KeyError):
        fp_x.chi_of(("1", "1"))


def test_fingerprint_split_identity_a2():
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    fp_sum = fingerprint(direct_sum(s1, s2))
    fp1, fp2 = fingerprint(s1), fingerprint(s2)
    for word in fp_sum.words:
        assert fp_sum.chi_of(word) == split_chi_sum(fp1, fp2, word)


def test_splitting_partition_exhausts_direct_sum_counts():
    from preproj.quiver import enumerate_splittings

    dq = d4.star_double()
    t, s4 = d4.t_module(dq), d4.s4_module(dq)
    whole = direct_sum(t, s4)
    q = whole.quiver
    for p in (5, 7):
        wp = reduce_mod_p(whole, p)
        tp, s4p = reduce_mod_p(t, p), reduce_mod_p(s4, p)
        memo_w, memo_s = {}, {}
        for word in enumerate_words(q, wp.dim):
            direct = count_flags(wp, word, memo=memo_w).count
            dist = count_flags_by_splitting(tp, s4p, word, memo=memo_s)
            assert sum(dist.values()) == direct, word
            allowed = set(enumerate_splittings(q, word, None, t.dim, s4.dim))
            assert set(dist) <= allowed, word


def test_raw_count_products_undercount_fibered_strata(monkeypatch):
    # the flags of a direct sum fiber over pairs of subflags with affine
    # fibers, so plain products of counts miss the fiber volumes; only
    # the per-type partition is exact prime by prime.  Without a memo
    # each count is one chain.
    refuse_whole_tables(monkeypatch)
    dq = d4.star_double()
    t, s4 = d4.t_module(dq), d4.s4_module(dq)
    word = ("1", "2", "3", "4", "4")
    p = 5
    tp, s4p = reduce_mod_p(t, p), reduce_mod_p(s4, p)
    whole = reduce_mod_p(direct_sum(t, s4), p)
    assert count_flags(whole, word).count == p + 1
    naive = count_flags(tp, ("1", "2", "3", "4")).count * count_flags(
        s4p, ("4",)
    ).count * 2
    assert naive == 2
    dist = count_flags_by_splitting(tp, s4p, word)
    assert dist == {
        ((1, 1, 1, 0, 1), (0, 0, 0, 1, 0)): p,
        ((1, 1, 1, 1, 0), (0, 0, 0, 0, 1)): 1,
    }


def chain_split_counts(left, right, word):
    """Split counts of a multiplicity-one word, chain by chain.

    Walks every chain of submodules of left + right in ambient
    coordinates, one hyperplane at the word's vertex per step, and reads
    each step's drop on the right summand R off ranks:
    dim(F & R) = dim F + dim R - rank[F | R].
    """
    whole = direct_sum(left, right)
    field, idx = whole.field, whole.quiver.vertex_index
    summand = [
        Matrix.from_cols(
            field,
            [[int(i == a + j) for i in range(a + b)] for j in range(b)],
            nrows=a + b,
        )
        for a, b in zip(left.dim, right.dim)
    ]

    def meet(piece, i):
        return piece.ncols + summand[i].ncols - rank(hstack([piece, summand[i]]))

    def stable(pieces):
        for a in whole.dq.arrows:
            target = pieces[idx[a.target]]
            image = whole.x(a.name).mul(pieces[idx[a.source]])
            if rank(hstack([target, image])) != target.ncols:
                return False
        return True

    out = {}

    def descend(pieces, drops):
        if len(drops) == len(word):
            key = (tuple(1 - d for d in drops), tuple(drops))
            out[key] = out.get(key, 0) + 1
            return
        i = idx[word[len(drops)]]
        piece = pieces[i]
        for small in enumerate_subspaces(field, piece.ncols, piece.ncols - 1):
            moved = list(pieces)
            moved[i] = piece.mul(Matrix.from_cols(field, small, nrows=piece.ncols))
            if stable(moved):
                descend(moved, drops + [meet(piece, i) - meet(moved[i], i)])

    descend([Matrix.identity(field, d) for d in whole.dim], [])
    return out


def modest_pair(dq, rng):
    """A random pair with per-vertex sum at most 3, as in acceptance 07."""
    while True:
        left = random_nilpotent_module(dq, rng, steps=2, max_total=3)
        right = random_nilpotent_module(dq, rng, steps=2, max_total=2)
        if all(a + b <= 3 for a, b in zip(left.dim, right.dim)):
            return left, right


def test_split_counts_match_a_chain_by_chain_oracle(rng_seed):
    rng = random.Random(rng_seed + 3)
    a3 = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    kronecker = double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    pairs = [(d4.t_module(), d4.s4_module())]
    pairs += [modest_pair(dq, rng) for dq in (a3, kronecker, a3)]
    compared = 0
    for left, right in pairs:
        words = enumerate_words(left.quiver, direct_sum(left, right).dim)
        for p in (2, 3):
            try:
                lp, rp = reduce_mod_p(left, p), reduce_mod_p(right, p)
            except BadPrime:
                continue
            wp = direct_sum(lp, rp)
            memo, plain_memo = {}, {}
            for word in words:
                want = chain_split_counts(lp, rp, word)
                got = count_flags_by_splitting(lp, rp, word, memo=memo)
                assert set(got) == set(want), (word, p)
                for key, n in want.items():
                    assert got[key] == n, (word, p, key)
                # the memo's row against the word's own chain
                plain = count_flags(wp, word, memo=plain_memo).count
                assert plain == count_flags(wp, word).count, (word, p)
                compared += 1
    assert compared >= 50


def test_later_words_of_a_module_are_row_lookups(monkeypatch):
    # through a memo the first word counts the module's whole table, and
    # every later word of the module at that prime is one _count call
    # that hits the row's root entry: no memo entry and no trie node is
    # added, where counting each word as its own chain adds both, and a
    # split count does not glue the direct sum again
    real, real_glue = flags._count, flags._glue
    calls = [0, 0]

    def counted(m, node, memo):
        calls[0] += 1
        return real(m, node, memo)

    def glue(*args):
        calls[1] += 1
        return real_glue(*args)

    monkeypatch.setattr(flags, "_count", counted)
    monkeypatch.setattr(flags, "_glue", glue)
    dq = d4.star_double()
    p = 5
    tp, s4p = reduce_mod_p(d4.t_module(dq), p), reduce_mod_p(d4.s4_module(dq), p)
    whole = direct_sum(tp, s4p)
    words = enumerate_words(whole.quiver, whole.dim)
    entry_points = [
        lambda word, memo: count_flags(whole, word, memo=memo).count,
        lambda word, memo: count_flags_by_splitting(tp, s4p, word, memo=memo),
    ]
    for count in entry_points:
        memo = {}
        for k, word in enumerate(words):
            before = len(memo), len(memo.get(flags._NODES_KEY, ())), *calls
            got = count(word, memo)
            after = len(memo), len(memo[flags._NODES_KEY]), calls[0] - 1, calls[1]
            if k:
                assert after == before, word
            assert got == count(word, None), word
    assert len(words) == 60


def test_splitting_types_share_the_enumeration(monkeypatch, rng_seed):
    # every splitting type walks a pruned copy of the direct sum's
    # recursion, so with shared child lists the split count's full lists
    # enumerate no subspace that the every-piece count of the same word
    # does not; nor do its orbit lists, whose fixed pieces are pieces of
    # the full list of their module
    real = flags.enumerate_subspaces
    yielded = Counter()
    building = []

    def counted(field, ambient, dim):
        for rows in real(field, ambient, dim):
            yielded[building[-1]] += 1
            yield rows

    def builder(name):
        build = getattr(flags, name)

        def built(*args):
            building.append(name)
            try:
                return build(*args)
            finally:
                building.pop()

        return built

    monkeypatch.setattr(flags, "enumerate_subspaces", counted)
    for name in ("_children", "_orbits"):
        monkeypatch.setattr(flags, name, builder(name))

    def enumerated(compute):
        yielded.clear()
        compute()
        return yielded["_children"], yielded["_orbits"]

    rng = random.Random(rng_seed + 5)
    a3 = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    kronecker = double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    cases = [(d4.t_module(), d4.s4_module(), p) for p in (3, 5)]
    cases += [modest_pair(dq, rng) + (3,) for dq in (a3, kronecker)]
    # a two-dimensional top at vertex 2 whose arrow a* is injective: a
    # tracked first step at 2 lists every plane, and once the right
    # summand's S2 is peeled the untracked step at 2 has t = 2 and s = 0,
    # so its orbit list enumerates every line as a fixed piece (forced
    # pieces, with exactly one choice, enumerate nothing)
    string = LambdaModule.build(a3, QQ, (1, 1, 0), {"a*": [[1]]})
    cases.append((direct_sum(string, string), simple(a3, "2", QQ), 3))
    checked = both = 0
    for left, right, p in cases:
        try:
            lp, rp = reduce_mod_p(left, p), reduce_mod_p(right, p)
        except BadPrime:
            continue
        whole = direct_sum(lp, rp)
        rm = RowModule.of(whole)
        for word in enumerate_words(whole.quiver, whole.dim):
            full, orbits = enumerated(lambda: count_flags_by_splitting(lp, rp, word))
            root, _ = path_trie((path_steps(whole.quiver, word, None),), None)
            every, none = enumerated(lambda: every_piece_count(rm, root, {}))
            assert none == 0
            assert full <= every and orbits <= every, (word, p, full, orbits, every)
            checked += every > 0
            both += full > 0 and orbits > 0
    assert checked >= 10 and both >= 1


def test_count_rows_agree_with_single_words_and_the_chain_oracle(
    monkeypatch, rng_seed
):
    # one row counts a whole step table through one trie: it must give
    # each entry's own count in table order, whatever that order is, and
    # list the pieces of each module at each vertex once per word row,
    # whether as a full child list or as an orbit list (a module whose
    # arrows are all zero lists none: its row has a closed form)
    real_children, real_orbits = flags._children, flags._orbits
    asked = []

    def children(m, v, c, memo):
        asked.append((m.field.p, m.dim, m.rows, v, c))
        return real_children(m, v, c, memo)

    def orbits(m, v, memo):
        asked.append((m.field.p, m.dim, m.rows, v))
        return real_orbits(m, v, memo)

    monkeypatch.setattr(flags, "_children", children)
    monkeypatch.setattr(flags, "_orbits", orbits)
    rng = random.Random(rng_seed + 21)
    a3 = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    kronecker = double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    rows = 0
    for dq in (a3, kronecker, a3, kronecker):
        left, right = modest_pair(dq, rng)
        for p in (2, 3):
            try:
                lp, rp = reduce_mod_p(left, p), reduce_mod_p(right, p)
            except BadPrime:
                continue
            whole = direct_sum(lp, rp)
            words, trie = flags._word_table(whole.quiver, whole.dim)
            steps = tuple(path_steps(whole.quiver, w, None) for w in words)
            asked.clear()
            rm = RowModule.of(whole)
            row = flags._count_row(rm, trie, {})
            assert len(asked) == len(set(asked)), (whole.dim, p)
            assert asked or not any(any(map(any, x)) for x in rm.rows), (whole.dim, p)
            splits = [path_split_steps(lp, rp, w, None) for w in words]
            table = steps + tuple(s for _, split in splits for s in split)
            # words and splitting types in one row, so the trie mixes
            # drop-free and tracked steps
            mixed = flags._count_row(rm, path_trie(table, None), {})
            assert mixed[: len(words)] == row
            want = []
            for word, n, (keys, _) in zip(words, row, splits):
                assert n == count_flags(whole, word).count, (word, p)
                oracle = chain_split_counts(lp, rp, word)
                assert n == sum(oracle.values()), (word, p)
                want += [oracle.get(key, 0) for key in keys]
            assert mixed[len(words):] == tuple(want), p
            order = list(range(len(table)))
            rng.shuffle(order)
            shuffled = tuple(table[i] for i in order)
            assert flags._count_row(rm, path_trie(shuffled, None), {}) == tuple(
                mixed[i] for i in order
            )
            rows += 1
    assert rows >= 6


def coefficient_word(word, rng):
    """A word with coefficients of the same content: each run of equal
    letters merged into one letter of that multiplicity, and a letter of
    coefficient 0 put in at a random place."""
    letters, coeffs = [], []
    for v, run in groupby(word):
        letters.append(v)
        coeffs.append(len(list(run)))
    k = rng.randrange(len(letters) + 1)
    letters.insert(k, rng.choice(word))
    coeffs.insert(k, 0)
    return tuple(letters), tuple(coeffs)


def test_tables_built_from_contents_match_tries_built_from_paths(rng_seed):
    # every trie is built from the remaining dimension vectors: through
    # one memo its root must be the very node that the path builder makes
    # of the same step sequences, with the same positions, and each
    # word's split keys in enumeration order.  That holds for whole word
    # and split tables, and for one word with coefficients (zeros among
    # them), as a chain or split between two summands
    rng = random.Random(rng_seed + 41)
    a3 = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    kronecker = double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    zoo = d4.zoo()
    s1, s2, s3 = (simple(a3, v, QQ) for v in ("1", "2", "3"))
    zero = LambdaModule.build(a3, QQ, (0, 0, 0), {})
    pairs = [modest_pair(dq, rng) for dq in (a3, kronecker, a3, kronecker)]
    pairs += [(zoo["T"], zoo["S4"]), (direct_sum(s1, s2), direct_sum(s2, s3))]
    pairs.append((zero, zero))
    singles = [m for m in zoo.values() if m.dim == (1, 1, 1, 2)]
    singles += [direct_sum(left, right) for left, right in pairs]
    assert len(singles) == 18
    for m in singles:
        memo = {}
        words, (root, where) = flags._word_table(m.quiver, m.dim, memo)
        assert words == enumerate_words(m.quiver, m.dim)
        steps = tuple(path_steps(m.quiver, w, None) for w in words)
        oracle, at = path_trie(steps, memo)
        assert root is oracle and where == at, m.dim
        for w in rng.sample(words, min(4, len(words))):
            cw, cc = coefficient_word(w, rng) if w else (w, None)
            oracle, at = path_trie((path_steps(m.quiver, cw, cc),), memo)
            assert flags._chain(m, cw, cc, memo) == (oracle, at) == (oracle, (0,))
    zeros = blocks = 0
    for left, right in pairs:
        memo = {}
        q = left.quiver
        table = flags._split_table(q, left.dim, right.dim, memo)
        words = enumerate_words(q, direct_sum(left, right).dim)
        assert set(table) == set(words)
        split = [path_split_steps(left, right, w, None) for w in words]
        oracle, at = path_trie([s for _, steps in split for s in steps], memo)
        k = 0
        for word, (keys, _) in zip(words, split):
            got, (root, where) = table[word]
            assert got == enumerate_splittings(q, word, None, left.dim, right.dim)
            assert root is oracle and where == at[k : k + len(keys)], word
            k += len(keys)
        assert k == len(at)
        kept = set(memo)
        for w in rng.sample(words, min(4, len(words))):
            cw, cc = coefficient_word(w, rng) if w else (w, None)
            keys, steps = path_split_steps(left, right, cw, cc)
            oracle, at = path_trie(steps, memo)
            one = flags._split_table(q, left.dim, right.dim, memo, cw, cc)
            assert one == {cw: (keys, (oracle, at))}, cw
            zeros += cc is not None and 0 in cc
            blocks += cc is not None and max(cc) > 1
        # one word's table is kept nowhere; only its nodes are interned
        assert set(memo) == kept
    assert zeros >= 20 and blocks >= 5


def every_piece_count(m, node, memo, pieces=None):
    """The count recursion with every piece listed, each with weight 1:
    the oracle that counting hyperplane pieces by orbits must match.
    The pieces come from ``flags._children``, or from ``pieces(m, v, c)``
    when that is given."""
    if not node:
        return (1,) * node.size
    key = ("every piece", pieces, m.field.p, m.dim, m.rows, node)
    if key not in memo:
        counts = [1] if node.end else []
        for v, c, drop, tracked, child in node.cases:
            first_tracked = m.dim[v] - tracked
            listed = (
                flags._children(m, v, c, memo) if pieces is None else pieces(m, v, c)
            )
            below = [
                every_piece_count(piece, child, memo, pieces)
                for pivots, piece in listed
                if sum(r >= first_tracked for r in pivots) == tracked - drop
            ]
            counts.extend(map(sum, zip(*below)) if below else (0,) * child.size)
        memo[key] = tuple(counts)
    return memo[key]


def orbit_regime(m, v):
    """(t, s) at vertex v of a row module: t = dim V_v/R and s = dim
    (R+K)/R, where R spans the incoming images and K is the common
    kernel of the arrows out of v, by plain rank computations."""
    field, d = m.field, m.dim[v]
    incoming = [
        col
        for rows, (_, _, target) in zip(m.rows, m.arrows)
        if target == v
        for col in zip(*rows)
    ]
    out = [
        row
        for rows, (_, source, _) in zip(m.rows, m.arrows)
        if source == v
        for row in rows
    ]
    kernel = kernel_basis(Matrix.from_rows(field, out, ncols=d))
    wide = incoming + [kernel.col(j) for j in range(kernel.ncols)]
    r = rank(Matrix.from_rows(field, incoming, ncols=d))
    return d - r, rank(Matrix.from_rows(field, wide, ncols=d)) - r


def test_orbit_counts_match_the_every_piece_recursion(monkeypatch, rng_seed):
    # an untracked hyperplane step counts one weighted piece per orbit of
    # the automorphisms that are the identity off its vertex: every word
    # and split table row must equal the recursion over every piece, each
    # orbit list must weigh all [t]_p hyperplanes over the incoming
    # images, [t-s]_p of them fixed, and a word row asks for each list once
    real = flags._orbits
    regimes = Counter()
    asked = []

    def recorded(m, v, memo):
        asked.append((m.field.p, m.dim, m.rows, v))
        before = len(memo)
        orbits = real(m, v, memo)
        if len(memo) > before:
            p, (t, s) = m.field.p, orbit_regime(m, v)
            assert sum(size for size, _ in orbits) == gaussian_binomial(t, 1, p)
            if t >= 2:
                fixed = sum(size == 1 for size, _ in orbits)
                assert fixed == gaussian_binomial(t - s, 1, p), (t, s, p)
            regimes[t, s] += 1
        return orbits

    monkeypatch.setattr(flags, "_orbits", recorded)
    rng = random.Random(rng_seed + 31)
    a3 = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    kronecker = double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    zoo = d4.zoo()
    pairs = [modest_pair(dq, rng) for dq in (a3, kronecker, a3, kronecker)]
    pairs.append((zoo["T"], zoo["S4"]))
    tables = [(m, None) for m in zoo.values()]
    # at vertex 2, R is spanned by e0 + e1 and K by e1: the orbit's
    # representative must carry R's entry at the pivot it leaves out
    tilted = {"a": [[1], [1], [0]], "b": [[1, 0, 0], [0, 0, 1]]}
    tables.append((LambdaModule.build(a3, QQ, (1, 3, 2), tilted), None))
    for left, right in pairs:
        tables += [(left, None), (right, None), (direct_sum(left, right), None)]
        tables.append((left, right))
    rows = 0
    for p in (2, 3, 5, 7):
        for left, right in tables:
            try:
                lp = reduce_mod_p(left, p)
                rp = None if right is None else reduce_mod_p(right, p)
            except BadPrime:
                continue
            if rp is None:
                m = lp
                _, trie = flags._word_table(m.quiver, m.dim)
            else:
                m = direct_sum(lp, rp)
                words = enumerate_words(m.quiver, m.dim)
                split = [path_split_steps(lp, rp, w, None)[1] for w in words]
                trie = path_trie([s for steps in split for s in steps], None)
            rm = RowModule.of(m)
            asked.clear()
            row = flags._count_row(rm, trie, {})
            if rp is None:
                assert len(asked) == len(set(asked)), (m.dim, p)
            root, where = trie
            every = every_piece_count(rm, root, {})
            assert row == tuple(every[i] for i in where), (m.dim, p, rp is None)
            rows += 1
    assert rows >= 60
    # the hyperplanes over the incoming images fall into fixed ones only,
    # into fixed ones and one orbit, and into one orbit only
    assert any(t >= 2 and s == 0 for t, s in regimes), regimes
    assert any(0 < s < t for t, s in regimes), regimes
    assert any(t >= 2 and s == t for t, s in regimes), regimes


def listed_pieces(m, v, c):
    """Every codimension-c piece at v that contains the incoming images,
    found among all subspaces of that dimension by a rank check: the
    pieces of :func:`flags._pieces`, forced and zero ones included,
    without its shortcuts."""
    field, d = m.field, m.dim[v]
    incoming = [
        col
        for rows, (_, _, target) in zip(m.rows, m.arrows)
        if target == v
        for col in zip(*rows)
    ]
    pieces = []
    for small in enumerate_subspaces(field, d, d - c):
        if rank(Matrix.from_rows(field, [*small, *incoming], ncols=d)) == d - c:
            pivots = tuple(row.index(1) for row in small)
            pieces.append((pivots, restrict_rows(m, v, small, pivots)))
    return pieces


def split_table_trie(left, right):
    """The trie of every splitting type of every word of left + right,
    with the positions of the types in word order: every word's slice of
    the split table has the same root."""
    words = enumerate_words(left.quiver, direct_sum(left, right).dim)
    table = flags._split_table(left.quiver, left.dim, right.dim, {})
    root = table[words[0]][1][0]
    return root, tuple(i for w in words for i in table[w][1][1])


def test_count_rows_match_the_oracles_through_forced_and_zero_pieces(
    monkeypatch, rng_seed
):
    # a forced piece (the span of the incoming images, with no choice
    # left), a zero piece (the whole v-piece peeled), a one-dimensional
    # piece decided by a zero test with no elimination, and a one-piece
    # case passed through as it is: every row of a word or split table
    # must equal the every-piece recursion, the same recursion over
    # pieces found among all subspaces, and each entry counted as its
    # own chain
    real_pieces, real_restrict = flags._pieces, flags.restrict_rows
    real_incoming = flags._incoming
    seen, eliminated_at = Counter(), Counter()

    def pieces(m, v, u, c):
        seen["forced"] += m.dim[v] - c == len(u)
        return real_pieces(m, v, u, c)

    def restricted(m, v, kept, pivots):
        seen["zero"] += not kept
        return real_restrict(m, v, kept, pivots)

    def incoming(m, v):
        eliminated_at[m.dim[v]] += 1
        return real_incoming(m, v)

    monkeypatch.setattr(flags, "_pieces", pieces)
    monkeypatch.setattr(flags, "restrict_rows", restricted)
    monkeypatch.setattr(flags, "_incoming", incoming)
    rng = random.Random(rng_seed + 43)
    a3 = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    kronecker = double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    pairs = [modest_pair(dq, rng) for dq in (a3, kronecker, a3, kronecker)]
    zoo = d4.zoo()
    tables = [(m, None) for m in zoo.values()] + [(zoo["T"], zoo["S4"])]
    for left, right in pairs:
        tables += [(direct_sum(left, right), None), (left, right)]
    rows = 0
    for p in (2, 3, 5):
        for left, right in tables:
            try:
                lp = reduce_mod_p(left, p)
                rp = None if right is None else reduce_mod_p(right, p)
            except BadPrime:
                continue
            if rp is None:
                m = lp
                words, trie = flags._word_table(m.quiver, m.dim)
                steps = [path_steps(m.quiver, w, None) for w in words]
            else:
                m, trie = direct_sum(lp, rp), split_table_trie(lp, rp)
                words = enumerate_words(m.quiver, m.dim)
                split = [path_split_steps(lp, rp, w, None)[1] for w in words]
                steps = [s for word_steps in split for s in word_steps]
            rm = RowModule.of(m)
            row = flags._count_row(rm, trie, {})
            root, where = trie
            every = every_piece_count(rm, root, {})
            listed = every_piece_count(rm, root, {}, listed_pieces)
            assert row == tuple(every[i] for i in where), (m.dim, p)
            assert row == tuple(listed[i] for i in where), (m.dim, p)
            memo = {}
            chains = tuple(
                flags._count_row(rm, path_trie((s,), None), memo)[0] for s in steps
            )
            assert row == chains, (m.dim, p)
            rows += 1
    assert rows >= 30
    assert seen["forced"] and seen["zero"], seen
    # x(a) = [[1]] on A2: the arrow a maps onto the one-dimensional piece
    # at vertex 2, so no piece is left there and a word that peels
    # vertex 2 first counts 0
    x = reduce_mod_p(x_module(a2_double()), 3)
    rm = RowModule.of(x)
    assert flags._orbits(rm, 1, {}) == flags._children(rm, 1, 1, {}) == []
    assert count_flags(x, ("2", "1")).count == 0
    top = restrict_rows(rm, 0, (), ())
    assert flags._orbits(rm, 0, {}) == [(1, top)]
    assert flags._children(rm, 0, 1, {}) == [((), top)]
    assert count_flags(x, ("1", "2")).count == 1
    assert eliminated_at and 1 not in eliminated_at, eliminated_at


def test_the_zero_piece_keeps_the_stability_check():
    # peeling the whole v-piece: the arrows out of v lose their columns,
    # and a nonzero arrow into v is refused by name (the first such one)
    # over F_p and, through module.restrict, over the rationals
    kronecker = double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    arrow = kronecker.arrow_index
    for field in (Field(5), QQ):
        m = LambdaModule.build(kronecker, field, (1, 2), {"b": [[0], [-1]]})
        rm = RowModule.of(m)
        with pytest.raises(ValueError, match="arrow b$"):
            restrict_rows(rm, 1, (), ())
        with pytest.raises(ValueError, match="arrow b$"):
            restrict(m, "2", Matrix.zeros(field, 2, 0))
        top = restrict_rows(rm, 0, (), ())
        assert top.dim == (0, 2)
        assert top.rows[arrow["a"]] == top.rows[arrow["b"]] == ((), ())
        assert top.rows[arrow["a*"]] == top.rows[arrow["b*"]] == ()
        zero_top = LambdaModule.build(kronecker, field, (0, 2), {})
        assert restrict(m, "1", Matrix.zeros(field, 1, 0)) == zero_top


def test_split_counts_with_multiplicity_two(monkeypatch):
    # a word with coefficients counts only its own splitting types, with
    # a memo or without; a zero coefficient splits as (0, 0)
    refuse_whole_tables(monkeypatch)
    dq = a2_double()
    s1, x = simple(dq, "1", QQ), x_module(dq)
    pair = direct_sum(s1, s1)
    word, coeffs = ("1", "1"), (2, 1)
    padded, gaps = ("2", "1", "1", "2"), (0, 1, 1, 1)
    for p in (2, 3, 5):
        s1p, pair_p, xp = (reduce_mod_p(m, p) for m in (s1, pair, x))
        for memo in (None, {}):
            assert count_flags_by_splitting(s1p, xp, padded, gaps, memo) == {
                ((0, 0, 1, 0), (0, 1, 0, 1)): p,
                ((0, 1, 0, 0), (0, 0, 1, 1)): 1,
            }
        assert count_flags_by_splitting(pair_p, s1p, word, coeffs) == {
            ((1, 1), (1, 0)): p * p + p,
            ((2, 0), (0, 1)): 1,
        }
        # the right summand's plane loses both dimensions at the first step
        assert count_flags_by_splitting(s1p, pair_p, word, coeffs, memo={}) == {
            ((0, 1), (2, 0)): p * p,
            ((1, 0), (1, 1)): p + 1,
        }
    assert split_euler_table(pair, s1, word, coeffs) == {
        ((1, 1), (1, 0)): 2,
        ((2, 0), (0, 1)): 1,
    }
    assert split_euler_table(s1, pair, word, coeffs) == {
        ((0, 1), (2, 0)): 1,
        ((1, 0), (1, 1)): 2,
    }
    assert split_euler_table(s1, x, padded, gaps) == {
        ((0, 0, 1, 0), (0, 1, 0, 1)): 1,
        ((0, 1, 0, 0), (0, 0, 1, 1)): 1,
    }


def test_split_euler_table_matches_chi_products():
    dq = d4.star_double()
    t, s4 = d4.t_module(dq), d4.s4_module(dq)
    word = ("1", "2", "3", "4", "4")
    table = split_euler_table(t, s4, word)
    assert table == {
        ((1, 1, 1, 0, 1), (0, 0, 0, 1, 0)): 1,
        ((1, 1, 1, 1, 0), (0, 0, 0, 0, 1)): 1,
    }
    assert sum(table.values()) == euler_characteristic(
        direct_sum(t, s4), word
    ).euler
    fp_t, fp_s4 = fingerprint(t), fingerprint(s4)
    for (c1, c2), value in table.items():
        w1 = tuple(v for v, c in zip(word, c1) if c)
        w2 = tuple(v for v, c in zip(word, c2) if c)
        assert value == fp_t.chi_of(w1) * fp_s4.chi_of(w2)


def test_counts_invariant_under_graded_base_change(rng_seed):
    rng = random.Random(rng_seed + 1)
    field = Field(7)
    m = reduce_mod_p(d4.r_module(), 7)
    gs = []
    for d in m.dim:
        while True:
            g = Matrix.from_rows(
                field,
                [[rng.randrange(7) for _ in range(d)] for _ in range(d)],
                ncols=d,
            )
            if rank(g) == d:
                gs.append(g)
                break
    # conjugate: x(b) -> g_t x(b) g_s^-1
    idx = m.quiver.vertex_index
    inverses = [solve(g, Matrix.identity(field, g.nrows)) for g in gs]
    moved = LambdaModule(
        m.dq,
        field,
        m.dim,
        tuple(
            gs[idx[a.target]].mul(x).mul(inverses[idx[a.source]])
            for a, x in zip(m.dq.arrows, m.action)
        ),
    )
    assert validate(moved).ok
    assert count_flags_fp(moved) == count_flags_fp(m)


def test_sum_module_word_counts_frozen():
    dq = d4.star_double()
    whole = direct_sum(d4.t_module(dq), d4.s4_module(dq))
    for p in (2, 3):
        wp = reduce_mod_p(whole, p)
        assert count_flags(wp, ("1", "2", "3", "4", "4")).count == p + 1
        assert count_flags(wp, ("4", "1", "2", "3", "4")).count == 1
    profile = euler_characteristic(whole, ("1", "2", "3", "4", "4"))
    assert profile.euler == 2
    block = euler_characteristic(
        whole, ("1", "2", "3", "4"), coeffs=(1, 1, 1, 2)
    )
    assert block.euler == 1
    assert block.coeffs == (1, 1, 1, 2)


def q_factorial(a, p):
    """[a]_p! = prod over j <= a of (p^j - 1) / (p - 1)."""
    out = 1
    for j in range(1, a + 1):
        out *= (p**j - 1) // (p - 1)
    return out


def test_modules_with_every_arrow_zero_are_counted_in_closed_form(monkeypatch):
    # with every arrow zero each step keeps any hyperplane of its piece
    # and the restriction again has every arrow zero, so every word of
    # content d counts the product of the [d_v]_p! with nothing listed;
    # a split table tracks the right summand and still recurses
    real_orbits, real_children = flags._orbits, flags._children
    asked = []

    def refuse(*args):
        raise AssertionError("a plain node of a zero module was recursed into")

    def children(m, v, c, memo):
        asked.append((m.dim, v, c))
        return real_children(m, v, c, memo)

    def plain_below(node):
        return all(
            c == 1 and not tracked and plain_below(child)
            for _, c, _, tracked, child in node.cases
        )

    def nodes(node):
        yield node
        for *_, child in node.cases:
            yield from nodes(child)

    a3 = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    kronecker = double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    for dq, dims in ((a3, ((2, 1, 1), (1, 0, 1))), (kronecker, ((2, 1), (1, 1)))):
        for p in (2, 3, 5):
            left, right = (LambdaModule.build(dq, Field(p), d, {}) for d in dims)
            whole = direct_sum(left, right)
            want = math.prod(q_factorial(d, p) for d in whole.dim)
            words, trie = flags._word_table(whole.quiver, whole.dim)
            assert trie[0].plain
            monkeypatch.setattr(flags, "_orbits", refuse)
            monkeypatch.setattr(flags, "_children", refuse)
            rm = RowModule.of(whole)
            assert flags._count_row(rm, trie, {}) == (want,) * len(words), p
            monkeypatch.setattr(flags, "_orbits", real_orbits)
            monkeypatch.setattr(flags, "_children", children)
            root, _ = split_table_trie(left, right)
            assert not root.plain
            assert all(node.plain == plain_below(node) for node in nodes(root))
            asked.clear()
            memo = {}
            for word in words:
                got = count_flags_by_splitting(left, right, word, memo=memo)
                assert sum(got.values()) == want, (word, p)
            assert asked
            for word in (words[0], words[-1]):
                split = chain_split_counts(left, right, word)
                assert count_flags_by_splitting(left, right, word) == {
                    key: n for key, n in split.items() if n
                }, (word, p)


def test_multiplicity_identity_on_random_modules(rng_seed):
    # a run of a equal letters peels a semisimple top S_i^a in a steps:
    # the flags of the expanded word are those of the block word times a
    # complete flag of the a-dimensional top, so the counts differ by
    # [a]_p! and the Euler characteristics by a!.  Some random Kronecker
    # modules have counts that are not polynomial in p (they depend on
    # whether a quadratic splits mod p); then both fits must refuse.
    rng = random.Random(rng_seed + 6)
    a3 = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    kronecker = double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    modules = [
        random_nilpotent_module(dq, rng, steps=3, max_total=4)
        for dq in (a3, a3, kronecker, kronecker)
    ]

    def chi(m, word, coeffs=None):
        try:
            return euler_characteristic(m, word, coeffs).euler
        except NonPolynomialCount:
            return None

    with_runs = fitted = 0
    for m in modules:
        for word in enumerate_words(m.quiver, m.dim):
            blocks = [(v, len(list(run))) for v, run in groupby(word)]
            block_word = tuple(v for v, _ in blocks)
            coeffs = tuple(a for _, a in blocks)
            with_runs += len(block_word) < len(word)
            for p in (2, 3, 5):
                try:
                    mp = reduce_mod_p(m, p)
                except BadPrime:
                    continue
                factor = math.prod(q_factorial(a, p) for a in coeffs)
                block = count_flags(mp, block_word, coeffs).count
                assert count_flags(mp, word).count == block * factor, (word, p)
            block = chi(m, block_word, coeffs)
            whole = chi(m, word)
            assert (block is None) == (whole is None), word
            if block is not None:
                factor = math.prod(map(math.factorial, coeffs))
                assert whole == block * factor, word
                fitted += len(block_word) < len(word)
    assert with_runs >= 5
    assert fitted >= 3


def test_accepted_fit_matches_its_primes():
    dq = d4.star_double()
    profile = euler_characteristic(
        direct_sum(d4.s4_module(dq), d4.s4_module(dq)), ("4", "4")
    )
    table = dict(profile.samples)
    for p in profile.window + profile.validation:
        assert profile.polynomial(p) == table[p]


def name_column(j):
    """A count column named by its index, as the sweep's refusal says."""
    return (str(j),), f"column {j}: synthetic counts"


def test_fit_window_slides_each_column_alone():
    # column 0 counts p + 1 everywhere, column 1 degenerates at 2: column
    # 0 keeps the first window, only column 1 leaves 2 behind, and no row
    # is drawn past the last window column 1 needs
    def sampler(p):
        return (p + 1, 1 if p == 2 else p + 1)

    pool = flags._PrimePool(sampler, primes())
    fits = flags._sweep(pool, 2, 1, name_column)
    assert fits == [(0, (2, 3), (5, 7), 2), (1, (3, 5), (7, 11), 2)]
    assert [p for p, _ in pool.rows] == [2, 3, 5, 7, 11]


def test_shared_fit_raises_when_no_window_validates():
    pool = flags._PrimePool(lambda p: (p + 1, 2**p), primes())
    with pytest.raises(NonPolynomialCount) as err:
        flags._sweep(pool, 2, 1, name_column)
    assert err.value.word == ("1",)
    assert str(err.value) == (
        "column 1: synthetic counts fail 2-prime validation "
        "at every window shift up to 6"
    )
    assert len(pool.rows) == flags.MAX_WINDOW_SHIFT + 2 + flags.VALIDATION_PRIMES


def lagrange_reference(points):
    """Plain Lagrange interpolation in Fractions:
    sum_i y_i prod_{j != i} (X - x_j) / (x_i - x_j)."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        term = [Fraction(yi)]
        for j, (xj, _) in enumerate(points):
            if j != i:
                term = [
                    (a - xj * b) / (xi - xj) for a, b in zip([0, *term], [*term, 0])
                ]
        for k, c in enumerate(term):
            coeffs[k] += c
    return Polynomial.from_coeffs(coeffs)


def reference_fit(pool, column, bound, word, what):
    """One count column's sliding-window fit, interpolated by
    lagrange_reference and checked in Fractions; returns the window
    primes, the validation primes and the value at 1."""
    need = bound + 1
    for shift in range(flags.MAX_WINDOW_SHIFT + 1):
        rows = [
            pool.row(k) for k in range(shift, shift + need + flags.VALIDATION_PRIMES)
        ]
        poly = lagrange_reference([(p, vec[column]) for p, vec in rows[:need]])
        at_one = poly(1)
        if at_one.denominator == 1 and all(
            poly(p) == vec[column] for p, vec in rows[need:]
        ):
            return (
                tuple(p for p, _ in rows[:need]),
                tuple(p for p, _ in rows[need:]),
                int(at_one),
            )
    raise NonPolynomialCount(
        word,
        f"{what} fail {flags.VALIDATION_PRIMES}-prime validation "
        f"at every window shift up to {flags.MAX_WINDOW_SHIFT}",
    )


def reference_columns(pool, width, bound):
    """reference_fit on each column alone, in turn."""
    return [
        reference_fit(pool, j, bound, (str(j),), f"column {j}: synthetic counts")
        for j in range(width)
    ]


def swept_columns(pool, width, bound):
    """The one sweep, without the shift of each column's window."""
    return [fit[1:] for fit in flags._sweep(pool, width, bound, name_column)]


def fit_outcome(fit, sampler, candidates, width, bound):
    """What one fit returns or raises, with the rows it sampled and how
    far the window of the column that slid most slid."""
    pool = flags._PrimePool(sampler, candidates)
    try:
        fits = fit(pool, width, bound)
    except (NonPolynomialCount, InsufficientPrimes) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "word", None), pool.rows
    drawn = [p for p, _ in pool.rows]
    slide = max(drawn.index(window[0]) for window, _, _ in fits)
    return "fit", fits, slide, pool.rows


def random_polynomial(rng, degree):
    coeffs = [rng.randrange(-6, 7) for _ in range(degree + 1)]
    return lambda p: sum(c * p**k for k, c in enumerate(coeffs))


def test_integer_weight_fit_matches_fraction_reference(rng_seed):
    # columns are integer polynomials, polynomials that are integral only
    # on the residue class of a gapped prime list (so non-integral at 1),
    # polynomials off by one at the last validation prime or at the first
    # window prime, and counts of too high degree; some primes are bad
    rng = random.Random(rng_seed + 17)
    seen = {"fit": 0, "slid": 0, "gapped fit": 0, "non-integral": 0, "late": 0}
    refused = set()
    for trial in range(80):
        bound = rng.randrange(4)
        need = bound + 1
        gapped = trial % 2 == 1
        if gapped:
            k = rng.choice((3, 4, 5, 6))
            r = rng.choice([r for r in range(2, k) if math.gcd(r, k) == 1])
            candidates = [p for p in islice(primes(), 80) if p % k == r]
            candidates = candidates[: rng.randrange(need + 2, need + 12)]
            listed = candidates
        else:
            candidates = None
            listed = list(islice(primes(), 40))
        bad = set(rng.sample(listed[:4], rng.randrange(2)))
        good = [p for p in listed if p not in bad]
        late = good[need + 1] if len(good) > need + 1 else None
        kinds = ["poly", "poly", "poly", "late", "early", "wild"]
        kinds += ["rational"] * (gapped and bound > 0)
        columns = []
        for _ in range(rng.randrange(1, 4)):
            kind = rng.choice(kinds)
            if kinds[-1] == "rational" and trial % 4 == 1 and not columns:
                kind = "rational"
            base = random_polynomial(rng, rng.randrange(need))
            if kind == "rational":
                b = random_polynomial(rng, rng.randrange(bound))
                # non-integral at 1 unless k divides b(1) (1 - r)
                seen["non-integral"] += not columns and b(1) * (1 - r) % k != 0
                columns.append(
                    lambda p, a=base, b=b, r=r, k=k: a(p) + b(p) * (p - r) // k
                )
            elif kind == "late":
                columns.append(lambda p, a=base, q=late: a(p) + (p == q))
                seen["late"] += late is not None
            elif kind == "early":
                columns.append(lambda p, a=base, q=good[0]: a(p) + (p == q))
            elif kind == "wild":
                columns.append(lambda p, e=need: p**e + 1)
            else:
                columns.append(base)

        def sampler(p, columns=columns, bad=bad):
            return None if p in bad else tuple(f(p) for f in columns)

        ours, ref = (
            fit_outcome(fit, sampler, candidates, len(columns), bound)
            for fit in (swept_columns, reference_columns)
        )
        assert ours == ref, (trial, bound, candidates)
        if ours[0] == "fit":
            seen["fit"] += 1
            seen["slid"] += ours[2] > 0
            seen["gapped fit"] += gapped
        else:
            refused.add(ours[0])
    assert min(seen.values()) >= 3, seen
    assert refused == {"NonPolynomialCount", "InsufficientPrimes"}


def sequential_profiles(pool, words, bound):
    """The word-by-word fits that the one sweep replaces: each word slides
    its own window (reference_fit on its column alone), and its samples
    are every row the pool had drawn by the end of its own fit."""
    profiles = []
    for j, word in enumerate(words):
        window, validation, euler = reference_fit(
            pool, j, bound, word, f"word {word}: counts"
        )
        samples = tuple((p, vec[j]) for p, vec in pool.rows)
        profiles.append(
            flags.CountProfile(
                word, (1,) * len(word), bound, samples, window, validation, euler
            )
        )
    return tuple(profiles)


def swept_profiles(pool, words, bound):
    fits = flags._sweep(
        pool, len(words), bound, lambda j: (words[j], f"word {words[j]}: counts")
    )
    coeffs = [(1,) * len(w) for w in words]
    return flags._profiles(words, coeffs, bound, pool.rows, fits)


def fit_every_word(fit, m, prime_list=None):
    """What fitting every word of m's fingerprint returns or raises, and
    the rows it drew."""
    words, trie = flags._word_table(m.quiver, m.dim)
    pool = flags._PrimePool(flags._module_sampler(m, trie), prime_list)
    try:
        outcome = fit(pool, words, degree_bound(m))
    except (NonPolynomialCount, InsufficientPrimes) as exc:
        outcome = type(exc).__name__, str(exc), getattr(exc, "word", None)
    return outcome, pool.rows


def test_one_sweep_fits_every_word_as_fitting_them_in_turn(monkeypatch, rng_seed):
    family = d4.m_family(2)
    ours = fit_every_word(swept_profiles, family)
    assert ours == fit_every_word(sequential_profiles, family)
    assert ours[0] == fingerprint(family).profiles
    # words slide by different amounts: the first six fit on (2, 3), and
    # every later word records the rows an earlier word slid to
    assert [len(pr.samples) for pr in ours[0]] == [4] * 6 + [6] * 54
    assert {pr.window for pr in ours[0]} == {(2, 3), (3, 5), (5, 7)}
    rng = random.Random(rng_seed + 29)
    a3 = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    kronecker = double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    cases = [(d4.m_family(1), None), (family, [2, 3, 5, 7, 11])]
    cases += [
        (random_nilpotent_module(dq, rng, steps=2, max_total=3), None)
        for dq in (a3, kronecker) * 6
    ]
    outcomes = set()
    for m, prime_list in cases:
        ours = fit_every_word(swept_profiles, m, prime_list)
        assert ours == fit_every_word(sequential_profiles, m, prime_list), m
        outcomes.add(type(ours[0]).__name__)
    assert outcomes == {"tuple"}
    assert fit_every_word(swept_profiles, family, [2, 3, 5, 7, 11])[0][0] == (
        "InsufficientPrimes"
    )
    # counts that are off at every prime 3 mod 4 fit at no window: the
    # same first word is named after the same rows, whether every word is
    # off (two steps from the end) or only words ending at 4, which the
    # earlier words of the family, some slid, do not
    real = flags._count
    crooks = (
        (x_module(a2_double()), lambda node: len(node) == 2, ("1", "2")),
        (
            family,
            lambda node: len(node) == 1 and node.cases[0][0] == 3,
            ("4", "1", "2", "3", "4"),
        ),
    )
    for m, off, word in crooks:

        def crooked(m, node, memo, off=off):
            counts = real(m, node, memo)
            if off(node) and m.field.p % 4 == 3:
                counts = tuple(n + 1 for n in counts)
            return counts

        monkeypatch.setattr(flags, "_count", crooked)
        ours = fit_every_word(swept_profiles, m)
        assert ours == fit_every_word(sequential_profiles, m)
        assert ours[0][::2] == ("NonPolynomialCount", word)


def test_zoo_profiles_are_exact_fits():
    zoo = d4.zoo()
    assert len(zoo) == 13
    for name, m in zoo.items():
        for profile in fingerprint(m).profiles:
            counts = dict(profile.samples)
            poly = lagrange_reference([(p, counts[p]) for p in profile.window])
            assert poly == profile.polynomial, (name, profile.word)
            assert [poly(p) for p in profile.validation] == [
                counts[p] for p in profile.validation
            ]
            assert poly(1) == profile.euler


def test_fingerprint_profiles_are_built_when_first_read(monkeypatch):
    # a fingerprint fits and checks every word when it is built, but
    # makes the words' profiles only when they are first read: the same
    # profiles as fitting them eagerly, made once; a count that fits at
    # no window still raises from fingerprint() itself
    real = flags.CountProfile
    made = []

    def recorded(word, *rest):
        made.append(word)
        return real(word, *rest)

    monkeypatch.setattr(flags, "CountProfile", recorded)
    family = d4.m_family(2)
    fp = fingerprint(family)
    assert made == []
    eager, _ = fit_every_word(swept_profiles, family)
    made.clear()
    assert fp.profiles == eager
    assert fp.profiles is fp.profiles and made == list(fp.words)
    # the word table is a fresh dict each time; chi_of reads the same chi
    table = fp.table()
    assert table == dict(zip(fp.words, fp.chi)) and table is not fp.table()
    table.clear()
    assert [fp.chi_of(w) for w in fp.words] == list(fp.chi)
    real_count = flags._count

    def crooked(m, node, memo):
        counts = real_count(m, node, memo)
        if len(node) == 1 and node.cases[0][0] == 3 and m.field.p % 4 == 3:
            counts = tuple(n + 1 for n in counts)
        return counts

    monkeypatch.setattr(flags, "_count", crooked)
    made.clear()
    with pytest.raises(NonPolynomialCount) as err:
        fingerprint(family)
    assert err.value.word == ("4", "1", "2", "3", "4")
    assert made == []


def test_repeated_prime_in_prime_list_is_rejected():
    m = d4.zoo()["M(lam)"]
    word = ("1", "2", "3", "4", "4")
    assert euler_characteristic(m, word, prime_list=[2, 3, 5, 7]).window == (2, 3)
    # the repeat falls in the fit window, then among the validation primes
    for prime_list, p in (([2, 2, 3, 5, 7], 2), ([2, 3, 5, 5], 5)):
        with pytest.raises(ValueError, match=f"prime {p} is repeated"):
            euler_characteristic(m, word, prime_list=prime_list)
