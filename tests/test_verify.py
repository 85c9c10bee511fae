"""Identity verification tests.

The A2 pair of simples is small enough to check by hand: the unique
extension of S1 by S2 is the module supported on the original arrow,
the opposite extension is supported on the reversed arrow, and the
fingerprints (1, 0) and (0, 1) add up to the direct sum's (1, 1).  The
star quiver oracles are frozen from the stratification runs: the
projective extension line of the (S4, T) pair carries p - 2 generic
classes and three special ones at every good prime, in both directions.
"""

import dataclasses
import random
import re
from collections import OrderedDict
from fractions import Fraction
from itertools import product

import pytest

from preproj import d4, flags, homext, verify
from preproj.cli import main
from preproj.fields import QQ, Field
from preproj.flags import (
    InsufficientPrimes,
    NonPolynomialCount,
    enumerate_subspaces,
    fingerprint,
)
from preproj.homext import ext_presentation, middle_term
from preproj.linalg import Matrix
from preproj.module import (
    BadPrime,
    LambdaModule,
    RowModule,
    direct_sum,
    reduce_mod_p,
    simple,
)
from preproj.quiver import Quiver, double
from preproj.randgen import random_combination, random_nilpotent_module
from preproj.verify import (
    AnchorCollision,
    Stratum,
    UnanchoredStratum,
    VerificationReport,
    stratify_proj_ext,
    verify_thm_1_1,
    verify_thm_1_2,
)


def a2_double():
    return double(Quiver.build(["1", "2"], [("a", "1", "2")]))


def x_module(dq):
    return LambdaModule.build(dq, QQ, (1, 1), {"a": [[1]]})


def y_module(dq):
    return LambdaModule.build(dq, QQ, (1, 1), {"a*": [[1]]})


def m_anchors(zoo):
    return OrderedDict((n, zoo[n]) for n in ("M(lam)", "M(0)", "M(-1)", "M(inf)"))


def r_anchors(zoo):
    return OrderedDict((n, zoo[n]) for n in ("R", "A", "B", "C"))


def test_unique_extension_identity_on_a2():
    dq = a2_double()
    rep = verify_thm_1_2(simple(dq, "1", QQ), simple(dq, "2", QQ))
    assert rep.passed
    assert rep.method == "unique-extension"
    assert rep.ext1_dim == 1
    assert rep.words == (("1", "2"), ("2", "1"))
    assert rep.left_values == (1, 1)
    assert rep.right_values == (1, 1)
    assert rep.strata_fwd == () and rep.strata_bwd == ()
    assert rep.mismatches() == ()
    assert rep.elapsed > 0
    assert rep.primes_used == tuple(sorted(rep.primes_used))
    assert len(rep.primes_used) >= 3


def test_unique_extension_rejects_higher_ext_dimension():
    zoo = d4.zoo(1)
    with pytest.raises(ValueError, match="needs exactly 1"):
        verify_thm_1_2(zoo["S4"], zoo["T"])


def test_unique_extension_rejects_split_class():
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    zero = ext_presentation(s1, s2).ext1_basis[0].scale(0)
    with pytest.raises(ValueError, match="split"):
        verify_thm_1_2(s1, s2, d=zero)


def test_unique_extension_rejects_wrong_direction_class():
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    forward = ext_presentation(s1, s2).ext1_basis[0]
    with pytest.raises(ValueError, match="does not live"):
        verify_thm_1_2(s1, s2, g=forward)


def test_guards_name_the_bad_input():
    # each guard with its exact message
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    backward = ext_presentation(s2, s1).ext1_basis[0]
    zoo = d4.zoo(1)
    cases = [
        (
            lambda: verify_thm_1_2(s1, s2, d=backward),
            ValueError,
            "class d does not live in Ext^1(x', x'')",
        ),
        (
            lambda: verify_thm_1_2(s1, s2, g=backward.scale(0)),
            ValueError,
            "class g is split, its middle term is the direct sum",
        ),
        # 3 is a bad prime of the pair, not an anchor collision
        (
            lambda: stratify_proj_ext(
                zoo["S4"],
                star_t_with(Fraction(1, 3)),
                m_anchors(zoo),
                prime_list=[3, 5, 7, 11],
            ),
            InsufficientPrimes,
            "prime list exhausted after 3 usable primes",
        ),
        (
            lambda: verify._chi_sum([(1, fingerprint(x_module(dq)))], (("1", "2"),)),
            ValueError,
            "the fingerprints list different words",
        ),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


def test_chi_sum_reads_each_chi_by_position():
    dq = a2_double()
    fx, fy = fingerprint(x_module(dq)), fingerprint(y_module(dq))
    assert fx.chi == (1, 0) and fy.chi == (0, 1)
    assert verify._chi_sum([(3, fx), (-2, fy)], fx.words) == (3, -2)
    assert verify._chi_sum([], fx.words) == (0, 0)


def test_unique_extension_identity_on_random_pairs(rng_seed):
    # every pair with dim Ext^1 = 1 is checked with the chosen basis
    # classes and with random multiples of them, which stay non-split
    rng = random.Random(rng_seed + 7)
    quivers = (
        a2_double(),
        double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])),
        double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])),
    )
    for dq in quivers:
        found = 0
        while found < 3:
            xp = random_nilpotent_module(dq, rng, steps=3, max_total=rng.randint(1, 3))
            xpp = random_nilpotent_module(dq, rng, steps=3, max_total=rng.randint(1, 3))
            if sum(xp.dim) + sum(xpp.dim) > 4:
                continue
            pres = ext_presentation(xp, xpp)
            if pres.ext1_dim != 1:
                continue
            back = ext_presentation(xpp, xp)
            d = random_combination(pres.ext1_basis, rng)
            g = random_combination(back.ext1_basis, rng)
            for rep in (verify_thm_1_2(xp, xpp), verify_thm_1_2(xp, xpp, d=d, g=g)):
                assert rep.passed, (xp.dim, xpp.dim, rep.mismatches())
            found += 1


def test_singleton_stratum_on_a2():
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    strata = stratify_proj_ext(s1, s2, {"x": x_module(dq)})
    assert len(strata) == 1
    st = strata[0]
    assert st.name == "x"
    assert st.chi_proj == 1
    assert all(size == 1 for _, size in st.sizes)
    assert len(st.window) == 1 and len(st.validation) == 2
    assert st.polynomial(17) == 1
    assert st.fingerprint.chi == (1, 0)


def test_pairwise_equals_unique_extension_when_ext_is_one():
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    pairwise = verify_thm_1_1(s1, s2, {"x": x_module(dq)}, {"y": y_module(dq)})
    unique = verify_thm_1_2(s1, s2)
    assert pairwise.passed and unique.passed
    assert pairwise.ext1_dim == 1
    assert pairwise.words == unique.words
    assert pairwise.left_values == unique.left_values
    assert pairwise.right_values == unique.right_values


def test_forward_stratification_of_the_star_pair_frozen():
    zoo = d4.zoo(1)
    strata = stratify_proj_ext(
        zoo["S4"], zoo["T"], m_anchors(zoo), prime_list=[3, 5, 7, 11, 13]
    )
    assert tuple(s.name for s in strata) == ("M(lam)", "M(0)", "M(-1)", "M(inf)")
    assert tuple(s.chi_proj for s in strata) == (-1, 1, 1, 1)
    generic = strata[0]
    assert generic.sizes == ((3, 1), (5, 3), (7, 5), (11, 9))
    assert generic.window == (3, 5)
    assert generic.validation == (7, 11)
    assert generic.polynomial(29) == 27
    for special in strata[1:]:
        assert special.sizes == ((3, 1), (5, 1), (7, 1), (11, 1))
    for k, p in enumerate((3, 5, 7, 11)):
        assert sum(s.sizes[k][1] for s in strata) == p + 1


def test_backward_stratification_of_the_star_pair_frozen():
    zoo = d4.zoo(1)
    strata = stratify_proj_ext(
        zoo["T"], zoo["S4"], r_anchors(zoo), prime_list=[2, 3, 5, 7]
    )
    assert tuple(s.name for s in strata) == ("R", "A", "B", "C")
    assert tuple(s.chi_proj for s in strata) == (-1, 1, 1, 1)
    assert strata[0].sizes == ((2, 0), (3, 1), (5, 3), (7, 5))
    assert strata[0].window == (2, 3)
    assert strata[0].validation == (5, 7)


def test_default_primes_skip_the_anchor_collision_at_two():
    # M(1) and M(-1) agree mod 2, so the forward sweep must start at 3.
    zoo = d4.zoo(1)
    strata = stratify_proj_ext(zoo["S4"], zoo["T"], m_anchors(zoo))
    assert strata[0].sizes[0][0] == 3
    assert tuple(s.chi_proj for s in strata) == (-1, 1, 1, 1)


def star_t_with(scalar):
    """T with x(a) = scalar: isomorphic to T over Q when scalar != 0."""
    return LambdaModule.build(
        d4.star_double(), QQ, (1, 1, 1, 1), {"a": [[scalar]], "b": [[1]], "c": [[1]]}
    )


def test_stratification_skips_primes_of_bad_reduction():
    # x(a) = 1/3 does not reduce mod 3, so the sweep samples 5..13, not 3..11
    zoo = d4.zoo(1)
    strata = stratify_proj_ext(zoo["S4"], star_t_with(Fraction(1, 3)), m_anchors(zoo))
    assert tuple(s.chi_proj for s in strata) == (-1, 1, 1, 1)
    assert strata[0].sizes == ((5, 3), (7, 5), (11, 9), (13, 11))
    plain = stratify_proj_ext(zoo["S4"], zoo["T"], m_anchors(zoo))
    assert tuple(p for p, _ in plain[0].sizes) == (3, 5, 7, 11)


def test_stratification_skips_primes_where_hom_or_ext_jumps(monkeypatch):
    m = d4.zoo(1)["M(lam)"]

    def sampled():
        samples = []
        for scalar in (1, 2):
            t = star_t_with(scalar)
            pres, back = ext_presentation(t, m), ext_presentation(m, t)
            anchor = middle_term(pres.ext1_basis[0]).module
            strata = stratify_proj_ext(t, m, {"E": anchor})
            assert (pres.hom_dim, pres.ext1_dim, back.hom_dim) == (1, 1, 1)
            assert strata[0].chi_proj == 1
            samples.append(tuple(p for p, _ in strata[0].sizes))
        return samples

    t2, m2 = reduce_mod_p(star_t_with(2), 2), reduce_mod_p(m, 2)
    pres2, back2 = ext_presentation(t2, m2), ext_presentation(m2, t2)
    # with x(a) = 2 = 0 mod 2 the dimensions jump at 2, which is skipped
    assert (pres2.hom_dim, pres2.ext1_dim, back2.hom_dim) == (1, 2, 2)
    # M(1)'s x(a*) = -2 vanishes mod 2 too, so the rank guard skips 2 for
    # both pairs; without it the Hom and Ext^1 check alone skips 2 for the
    # second pair only
    assert sampled() == [(3, 5, 7), (3, 5, 7)]
    monkeypatch.setattr(verify, "_arrow_ranks", lambda module: ())
    assert sampled() == [(2, 3, 5), (3, 5, 7)]


def test_pairwise_identity_skips_primes_where_an_arrow_loses_rank():
    # T with x(a) = 2 is T over Q, but mod 2 its arrow a acts by 0 and the
    # reduced pair is no longer (S4, T); Hom and Ext^1 do not jump there
    zoo = d4.zoo(1)
    t2 = star_t_with(2)
    rep = verify_thm_1_1(zoo["S4"], t2, m_anchors(zoo), r_anchors(zoo))
    assert rep.passed
    for s in rep.strata_fwd + rep.strata_bwd:
        assert 2 not in dict(s.sizes), s.name
    assert rep.right_values == verify_thm_1_1(
        zoo["S4"], zoo["T"], m_anchors(zoo), r_anchors(zoo)
    ).right_values


def test_pairwise_identity_on_the_star_pair():
    zoo = d4.zoo(1)
    rep = verify_thm_1_1(zoo["S4"], zoo["T"], m_anchors(zoo), r_anchors(zoo))
    assert rep.passed
    assert rep.ext1_dim == 2
    assert len(rep.words) == 60
    assert sum(s.chi_proj for s in rep.strata_fwd) == 2
    assert sum(s.chi_proj for s in rep.strata_bwd) == 2
    total = fingerprint(direct_sum(zoo["T"], zoo["S4"]))
    assert rep.left_values == tuple(2 * c for c in total.chi)
    assert rep.mismatches() == ()


def test_pairwise_identity_merges_strata_with_shared_anchors():
    # M has dimension (1, 1) and dim Ext^1(M, M) = 2; both directions are
    # stratified against the same anchors, so every anchor fingerprint
    # collects one coefficient from each side
    m = random_nilpotent_module(kron_double(), random.Random(4), steps=1, max_total=2)
    pres = ext_presentation(m, m)
    assert m.dim == (1, 1) and pres.ext1_dim == 2
    anchors = OrderedDict(
        (f"E{i}", middle_term(e).module) for i, e in enumerate(pres.ext1_basis)
    )
    rep = verify_thm_1_1(m, m, anchors, anchors)
    assert rep.passed
    for strata in (rep.strata_fwd, rep.strata_bwd):
        assert tuple(s.chi_proj for s in strata) == (1, 1)
        assert [s.fingerprint.chi for s in strata] == [
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1, 4),
        ]
    # so each anchor gets chi 1 from either side, and the right side is
    # the sum over the four strata, one term per stratum
    strata = rep.strata_fwd + rep.strata_bwd
    assert rep.right_values == tuple(
        sum(s.chi_proj * s.fingerprint.chi[i] for s in strata)
        for i in range(len(rep.words))
    )
    assert rep.left_values == rep.right_values == (0, 0, 0, 0, 4, 8)


def test_a_job_presents_each_reduced_direction_once_per_prime(monkeypatch):
    zoo = d4.zoo(1)
    xp, xpp = zoo["S4"], zoo["T"]
    real_present, real_reduce = verify.ext_presentation, verify.reduce_mod_p
    presented, reduced = [], set()

    def present(m, n):
        presented.append((m, n))
        return real_present(m, n)

    def reduce(m, p):
        if m in (xp, xpp):
            reduced.add(p)
        return real_reduce(m, p)

    monkeypatch.setattr(verify, "ext_presentation", present)
    monkeypatch.setattr(verify, "reduce_mod_p", reduce)
    assert verify_thm_1_1(xp, xpp, m_anchors(zoo), r_anchors(zoo)).passed
    # two directions over Q and two at each prime either side reduced at,
    # each presented once although both stratifications read them
    assert len(set(presented)) == len(presented) == 2 + 2 * len(reduced)
    assert {m.field.p for m, _ in presented} == {None} | reduced
    # without a memo a stratification presents both directions itself,
    # over Q and at every prime it reduces the pair at
    presented.clear()
    reduced.clear()
    stratify_proj_ext(xpp, xp, r_anchors(zoo))
    assert len(set(presented)) == len(presented) == 2 + 2 * len(reduced)
    for p in {None} | reduced:
        assert sorted(
            (m.field.p, m.dim) for m, _ in presented if m.field.p == p
        ) == sorted([(p, xp.dim), (p, xpp.dim)])


def test_verifications_never_read_fingerprint_profiles(monkeypatch):
    # primes_used comes from the sample pools, so the reports are the
    # same when building a CountProfile is impossible
    zoo = d4.zoo(1)
    dq = a2_double()

    def jobs():
        return [
            verify_thm_1_1(zoo["S4"], zoo["T"], m_anchors(zoo), r_anchors(zoo)),
            verify_thm_1_2(simple(dq, "1", QQ), simple(dq, "2", QQ)),
        ]

    def refuse(fp):
        raise AssertionError("a verification read DeltaFingerprint.profiles")

    before = [dataclasses.replace(rep, elapsed=0.0) for rep in jobs()]
    monkeypatch.setattr(flags.DeltaFingerprint, "profiles", property(refuse))
    assert [dataclasses.replace(rep, elapsed=0.0) for rep in jobs()] == before
    assert all(rep.passed and rep.primes_used for rep in before)


def test_pairwise_identity_is_symmetric_in_the_pair():
    zoo = d4.zoo(1)
    rep = verify_thm_1_1(zoo["S4"], zoo["T"], m_anchors(zoo), r_anchors(zoo))
    swapped = verify_thm_1_1(zoo["T"], zoo["S4"], r_anchors(zoo), m_anchors(zoo))
    assert rep.passed and swapped.passed
    assert rep.words == swapped.words
    assert rep.left_values == swapped.left_values
    assert rep.right_values == swapped.right_values


def count_child_lists(monkeypatch):
    """Patch the two builders of child lists to count the lists they
    build: the memo misses of flags._children, and every call of
    flags._orbits, which keeps nothing; return the running tally."""
    built = [0]
    real_children, real_orbits = flags._children, flags._orbits

    def children(m, v, c, memo):
        before = len(memo)
        found = real_children(m, v, c, memo)
        built[0] += len(memo) > before
        return found

    def orbits(m, v):
        built[0] += 1
        return real_orbits(m, v)

    monkeypatch.setattr(flags, "_children", children)
    monkeypatch.setattr(flags, "_orbits", orbits)
    return built


def test_pairwise_job_memo_matches_fresh_memo_calls(monkeypatch):
    zoo = d4.zoo(1)
    xp, xpp = zoo["S4"], zoo["T"]
    built = count_child_lists(monkeypatch)
    real_presentation = verify.ext_presentation
    over_q = []

    def presented(m, n):
        if m.field.is_rational:
            over_q.append((m, n))
        return real_presentation(m, n)

    real_stratify = verify.stratify_proj_ext
    directions = []

    def stratified(x, y, *args):
        directions.append((x, y))
        return real_stratify(x, y, *args)

    monkeypatch.setattr(verify, "ext_presentation", presented)
    monkeypatch.setattr(verify, "stratify_proj_ext", stratified)
    rep = verify_thm_1_1(xp, xpp, m_anchors(zoo), r_anchors(zoo))
    # both stratifications share the job's two presentations over Q, and
    # the job stratifies through the public function
    assert over_q == [(xp, xpp), (xpp, xp)]
    assert directions == [(xp, xpp), (xpp, xp)]
    in_job = built[0]
    built[0] = 0
    fwd = stratify_proj_ext(xp, xpp, m_anchors(zoo))
    bwd = stratify_proj_ext(xpp, xp, r_anchors(zoo))
    total = fingerprint(direct_sum(xp, xpp))
    separate = built[0]
    built[0] = 0
    memo = {}
    stratify_proj_ext(xp, xpp, m_anchors(zoo), memo=memo)
    stratify_proj_ext(xpp, xp, r_anchors(zoo), memo=memo)
    fingerprint(direct_sum(xp, xpp), memo=memo)
    shared = built[0]
    # sizes, windows, validation primes, chi values, anchor fingerprints
    # with their profile samples: every field of every stratum agrees
    assert rep.strata_fwd == fwd and rep.strata_bwd == bwd
    assert rep.words == total.words
    assert rep.left_values == tuple(2 * c for c in total.chi)
    used = {p for pr in total.profiles for p, _ in pr.samples}
    used |= {p for s in fwd + bwd for p, _ in s.sizes}
    assert rep.primes_used == tuple(sorted(used))
    assert rep.passed
    # the anchors' rows and shared pieces are enumerated once per job
    assert 0 < in_job == shared < separate


def test_unique_extension_job_memo_matches_fresh_memo_calls(monkeypatch, rng_seed):
    rng = random.Random(rng_seed + 12)
    dq = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    while True:
        xp = random_nilpotent_module(dq, rng, steps=3, max_total=2)
        xpp = random_nilpotent_module(dq, rng, steps=3, max_total=2)
        if ext_presentation(xp, xpp).ext1_dim == 1:
            break
    built = count_child_lists(monkeypatch)
    rep = verify_thm_1_2(xp, xpp)
    in_job = built[0]
    built[0] = 0
    d = ext_presentation(xp, xpp).ext1_basis[0]
    g = ext_presentation(xpp, xp).ext1_basis[0]
    fps = [
        fingerprint(m)
        for m in (direct_sum(xp, xpp), middle_term(d).module, middle_term(g).module)
    ]
    separate = built[0]
    built[0] = 0
    memo = {}
    assert [fingerprint(fp.module, memo=memo) for fp in fps] == fps
    shared = built[0]
    total, fx, fy = fps
    assert rep.words == total.words
    assert rep.left_values == total.chi
    assert rep.right_values == tuple(a + b for a, b in zip(fx.chi, fy.chi))
    used = {p for fp in fps for pr in fp.profiles for p, _ in pr.samples}
    assert rep.primes_used == tuple(sorted(used))
    assert rep.passed
    assert 0 < in_job == shared < separate


def test_standalone_calls_count_each_prime_through_a_fresh_memo(monkeypatch):
    # without memo= every sampled prime starts an empty dict, as before
    zoo = d4.zoo(1)
    seen = []
    real = flags._count_row

    def recorded(m, trie, memo):
        seen.append((m.field.p, memo))
        return real(m, trie, memo)

    monkeypatch.setattr(flags, "_count_row", recorded)
    fp = fingerprint(zoo["T"])
    assert [p for p, _ in seen] == [p for p, _ in fp.profiles[0].samples]
    assert len({id(memo) for _, memo in seen}) == len(seen)
    seen.clear()
    shared = {}
    assert fingerprint(zoo["T"], memo=shared) == fp
    assert all(memo is shared for _, memo in seen)


def test_a_standalone_stratification_is_one_job(monkeypatch):
    # without memo= the anchors' fingerprints and every prime of the
    # stratification count through one dict, as with memo={}
    zoo = d4.zoo(1)
    memos, primes = [], set()
    real = flags._count_row

    def recorded(m, trie, memo):
        memos.append(memo)
        primes.add(m.field.p)
        return real(m, trie, memo)

    monkeypatch.setattr(flags, "_count_row", recorded)
    monkeypatch.setattr(verify, "_count_row", recorded)
    strata = stratify_proj_ext(zoo["T"], zoo["S4"], r_anchors(zoo))
    assert memos and all(memo is memos[0] for memo in memos)
    assert {p for s in strata for p, _ in s.sizes} <= primes
    for s in strata:
        assert {p for p, _ in s.fingerprint._rows} <= primes
    shared = {}
    memos.clear()
    assert stratify_proj_ext(zoo["T"], zoo["S4"], r_anchors(zoo), memo=shared) == strata
    assert memos and all(memo is shared for memo in memos)


def record_anchor_work(monkeypatch, anchors):
    """Patch the stratifier's reduction and count of rows to record, per
    anchor name, the primes it reduced that anchor at (None standing for
    a bad prime's count) and the primes it counted a reduced anchor at."""
    names = {id(mod): name for name, mod in anchors.items()}
    reduced, counted, made = [], [], {}
    real_reduce, real_count = verify._reduce_rows, verify._count_row

    def reduce_rows(m, p):
        try:
            rows = real_reduce(m, p)
        except BadPrime:
            if id(m) in names:
                reduced.append((names[id(m)], p, None))
            raise
        if id(m) in names:
            reduced.append((names[id(m)], p, rows))
            made[id(rows)] = names[id(m)]
        return rows

    def count_row(rm, trie, memo):
        if id(rm) in made:
            counted.append((made[id(rm)], rm.field.p))
        return real_count(rm, trie, memo)

    monkeypatch.setattr(verify, "_reduce_rows", reduce_rows)
    monkeypatch.setattr(verify, "_count_row", count_row)
    return reduced, counted


def centre_scaled(m, top):
    """m with the first basis vector at the centre of the star scaled by
    ``top``: the conjugate by diag(top, 1) there, isomorphic to m."""
    centre = m.quiver.vertex_index["4"]
    idx = m.quiver.vertex_index
    action = {}
    for a, x in zip(m.dq.arrows, m.action):
        rows = [list(row) for row in x.entries]
        if idx[a.target] == centre:
            rows[0] = [top * v for v in rows[0]]
        if idx[a.source] == centre:
            rows = [[Fraction(row[0]) / top, *row[1:]] for row in rows]
        action[a.name] = rows
    return LambdaModule.build(m.dq, m.field, m.dim, action)


def test_anchor_rows_come_from_their_fingerprints_pools(monkeypatch):
    # an anchor's fingerprint drew its count row at most of the
    # stratification's primes: the stratifier reads those rows from the
    # pool and reduces and counts the anchor only at the other primes
    zoo = d4.zoo(1)
    anchors = {**m_anchors(zoo), **r_anchors(zoo)}
    reduced, counted = record_anchor_work(monkeypatch, anchors)
    rep = verify_thm_1_1(zoo["S4"], zoo["T"], m_anchors(zoo), r_anchors(zoo))
    assert rep.passed
    drawn = {
        s.name: {p for p, _ in s.fingerprint._rows}
        for s in rep.strata_fwd + rep.strata_bwd
    }
    for s in rep.strata_fwd + rep.strata_bwd:
        fp = s.fingerprint
        assert all(fp.drawn_row(p) == row for p, row in fp._rows)
        assert 97 not in drawn[s.name] and fp.drawn_row(97) is None
    assert all(p not in drawn[name] for name, p, _ in reduced), reduced
    assert all(p not in drawn[name] for name, p in counted), counted
    # every reduction that went through was counted, and some prime of
    # the strata was read from the pools alone
    assert counted == [(name, p) for name, p, rows in reduced if rows is not None]
    sampled = {p for s in rep.strata_fwd + rep.strata_bwd for p, _ in s.sizes}
    assert any(all(p in ps for ps in drawn.values()) for p in sampled)
    # an anchor isomorphic to M(lam) with denominators 3: its fingerprint
    # skips 3, so the stratifier reduces it there, meets the bad prime
    # and skips 3 as it did when it reduced every anchor at every prime
    reduced.clear()
    counted.clear()
    scaled = {**m_anchors(zoo), "M(lam)": centre_scaled(zoo["M(lam)"], 3)}
    anchors["M(lam)"] = scaled["M(lam)"]
    reduced, counted = record_anchor_work(monkeypatch, anchors)
    rep = verify_thm_1_1(zoo["S4"], zoo["T"], scaled, r_anchors(zoo))
    assert rep.passed
    fwd = rep.strata_fwd
    assert tuple(s.chi_proj for s in fwd) == (-1, 1, 1, 1)
    assert tuple(s.sizes for s in fwd) == (
        ((5, 3), (7, 5), (11, 9), (13, 11)),
        ((5, 1), (7, 1), (11, 1), (13, 1)),
        ((5, 1), (7, 1), (11, 1), (13, 1)),
        ((5, 1), (7, 1), (11, 1), (13, 1)),
    )
    assert ("M(lam)", 3, None) in reduced
    assert 3 not in {p for p, _ in fwd[0].fingerprint._rows}


def test_pairwise_identity_needs_extensions():
    dq = a2_double()
    s1 = simple(dq, "1", QQ)
    with pytest.raises(ValueError, match="meaningless"):
        verify_thm_1_1(s1, s1, {}, {})


def test_stratify_rejects_bad_inputs():
    zoo = d4.zoo(1)
    dq = a2_double()
    s1 = simple(dq, "1", QQ)
    with pytest.raises(ValueError, match="nothing to stratify"):
        stratify_proj_ext(s1, s1, {})
    with pytest.raises(ValueError, match="different quiver"):
        stratify_proj_ext(zoo["S4"], zoo["T"], {"x": x_module(dq)})
    with pytest.raises(ValueError, match="dimension vector"):
        stratify_proj_ext(zoo["S4"], zoo["T"], {"T": zoo["T"]})
    with pytest.raises(ValueError, match="rationals"):
        stratify_proj_ext(
            zoo["S4"], zoo["T"], {"M(0)": reduce_mod_p(zoo["M(0)"], 5)}
        )
    with pytest.raises(ValueError, match="rational modules"):
        stratify_proj_ext(
            reduce_mod_p(zoo["S4"], 5), reduce_mod_p(zoo["T"], 5), {}
        )


def test_unanchored_stratum_is_reported():
    zoo = d4.zoo(1)
    with pytest.raises(UnanchoredStratum, match="match no anchor"):
        stratify_proj_ext(zoo["S4"], zoo["T"], {"M(0)": zoo["M(0)"]})


def test_failing_stratum_sizes_name_their_anchor(monkeypatch, capsys):
    # the sizes of the second anchor, M(0), are off by one at every prime
    # 3 mod 4, so no window fits them; the other three still fit
    real_pool = verify._PrimePool

    def crooked_pool(sample, candidates):
        def crooked(p):
            sizes = sample(p)
            if sizes is not None and p % 4 == 3:
                sizes = (sizes[0], sizes[1] + 1, *sizes[2:])
            return sizes

        return real_pool(crooked, candidates)

    monkeypatch.setattr(verify, "_PrimePool", crooked_pool)
    zoo = d4.zoo(1)
    with pytest.raises(NonPolynomialCount) as err:
        stratify_proj_ext(zoo["S4"], zoo["T"], m_anchors(zoo))
    assert err.value.word == ()
    message = (
        "stratum sizes of M(0) fail 2-prime validation "
        "at every window shift up to 6"
    )
    assert str(err.value) == message
    assert main(["example-d4"]) == 3
    assert message in capsys.readouterr().err


def test_no_extension_class_is_built_as_a_matrix(monkeypatch):
    # every class of the star pair is glued straight into count rows: from
    # one class's coordinates to the next class's, through its middle term
    # and its count row, no Matrix is made and no module is stripped back
    # to rows
    made, classes = [0], []
    real_init, real_class = Matrix.__post_init__, verify._class_derivation

    def counted_init(self):
        made[0] += 1
        real_init(self)

    def record_class(columns, vec, p):
        classes.append((p, made[0]))
        return real_class(columns, vec, p)

    def rows_of(m):
        raise AssertionError("a module was stripped back to count rows")

    monkeypatch.setattr(Matrix, "__post_init__", counted_init)
    monkeypatch.setattr(verify, "_class_derivation", record_class)
    monkeypatch.setattr(RowModule, "of", rows_of)
    zoo = d4.zoo(1)
    rep = verify_thm_1_1(zoo["S4"], zoo["T"], m_anchors(zoo), r_anchors(zoo))
    assert rep.passed
    steps = [b - a for (p, a), (q, b) in zip(classes, classes[1:]) if p == q]
    assert len(steps) >= 40
    assert set(steps) == {0}
    assert made[0] > 0


def test_anchor_collision_is_reported():
    zoo = d4.zoo(1)
    twins = OrderedDict([("one", d4.m_family(1)), ("two", d4.m_family(1))])
    with pytest.raises(AnchorCollision, match="indistinguishable"):
        stratify_proj_ext(zoo["S4"], zoo["T"], twins, prime_list=[5, 7, 11, 13])


def test_report_mismatch_accounting():
    dq = a2_double()
    rep = VerificationReport(
        method="pairwise",
        left_module=x_module(dq),
        right_module=y_module(dq),
        ext1_dim=1,
        strata_fwd=(),
        strata_bwd=(),
        words=(("1", "2"), ("2", "1")),
        left_values=(1, 1),
        right_values=(1, 0),
        primes_used=(2, 3, 5),
        elapsed=0.1,
    )
    assert not rep.passed
    assert rep.mismatches() == (("2", "1"),)


def reference_projective_vectors(n, p):
    """Coefficient vectors over F_p with first nonzero entry 1, leading
    position first, then the tail in lexicographic order."""
    for lead in range(n):
        for tail in product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def test_projective_points_are_walked_as_lines_in_reference_order():
    # stratify_proj_ext expands one class per line of F_p^n, in this order
    for n in (1, 2, 3):
        for p in (2, 3, 5):
            walk = [vec for (vec,) in enumerate_subspaces(Field(p), n, 1)]
            assert walk == list(reference_projective_vectors(n, p))
            assert len(walk) == (p**n - 1) // (p - 1)


def reference_class(basis, vec):
    """The class sum_i vec[i] basis[i] through Derivation.scale and add:
    the Matrix reference for the stratification's packed coordinates."""
    d = basis[0].scale(vec[0])
    for b, t in zip(basis[1:], vec[1:]):
        d = d.add(b.scale(t))
    return d


def reference_middle_module(d):
    """The middle term of d through middle_term, checked against the
    blocks [[x'(b), 0], [d(b), x''(b)]] assembled by Matrix.block."""
    m, n = d.source, d.target
    blocks = tuple(
        Matrix.block([[x, Matrix.zeros(m.field, x.nrows, y.ncols)], [g, y]])
        for x, y, g in zip(m.action, n.action, d.maps)
    )
    dim = tuple(a + b for a, b in zip(m.dim, n.dim))
    module = middle_term(d).module
    assert module == LambdaModule(m.dq, m.field, dim, blocks)
    return module


def typed_rows(rm):
    """A module's count rows with every entry's type, so 1 and Fraction(1)
    differ."""
    return rm.field, rm.dim, rm.arrows, tuple(
        tuple((type(x), x) for r in rows for x in r) for rows in rm.rows
    )


def a3_double():
    return double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))


def kron_double():
    return double(Quiver.build(["1", "2"], [("a1", "1", "2"), ("a2", "1", "2")]))


def test_class_modules_match_the_matrix_reference(monkeypatch, rng_seed):
    # seeded pairs: the stratification's per-prime setup and per-class
    # count rows, composed here, against the rows of the Matrix
    # combination of the basis
    rng = random.Random(rng_seed + 41)
    checked, pairs = 0, 0
    while pairs < 6:
        dq = (a3_double(), kron_double())[pairs % 2]
        m, n = (random_nilpotent_module(dq, rng, steps=3) for _ in "mn")
        # up to 31 classes at p = 5
        if not 1 <= ext_presentation(m, n).ext1_dim <= 3:
            continue
        pairs += 1
        for p in (3, 5):
            try:
                m_p, n_p = reduce_mod_p(m, p), reduce_mod_p(n, p)
            except BadPrime:
                continue
            pres = ext_presentation(m_p, n_p)
            columns = list(zip(*(homext._pack(e.maps) for e in pres.ext1_basis)))
            for (vec,) in enumerate_subspaces(Field(p), pres.ext1_dim, 1):
                coords = verify._class_derivation(columns, vec, p)
                got = homext._extension(m_p, n_p, pres.d1.entries, coords)
                want = reference_middle_module(reference_class(pres.ext1_basis, vec))
                assert typed_rows(got) == typed_rows(RowModule.of(want))
                checked += 1
    assert checked >= 12
    # the star pair: every middle term stratify_proj_ext counts, in both
    # directions, recorded with its coefficients and its reduced pair
    seen = []
    real_class, real_extension = verify._class_derivation, verify._extension

    def record_class(columns, vec, p):
        seen.append([p, vec])
        return real_class(columns, vec, p)

    def record_extension(m, n, d1, coords):
        module = real_extension(m, n, d1, coords)
        seen[-1] += [m, n, module]
        return module

    monkeypatch.setattr(verify, "_class_derivation", record_class)
    monkeypatch.setattr(verify, "_extension", record_extension)
    zoo = d4.zoo(1)
    primes = [5, 7, 11, 13]
    stratify_proj_ext(zoo["S4"], zoo["T"], m_anchors(zoo), prime_list=primes)
    stratify_proj_ext(zoo["T"], zoo["S4"], r_anchors(zoo), prime_list=primes)
    for p, vec, m_p, n_p, got in seen:
        basis = ext_presentation(m_p, n_p).ext1_basis
        want = reference_middle_module(reference_class(basis, vec))
        assert typed_rows(got) == typed_rows(RowModule.of(want))
    assert {p for p, *_ in seen} >= {5, 7}
    assert len(seen) == 2 * sum(p + 1 for p in primes)


def test_each_class_is_checked_in_stratification(monkeypatch):
    # the first basis class plus a unit vector that d1 does not kill; in
    # the other direction d1 of (T, S4) is zero, so it has no such vector
    zoo = d4.zoo(1)
    xp, xpp = zoo["S4"], zoo["T"]
    real = verify._class_derivation
    expected = []

    def off_kernel(columns, vec, p):
        coords = list(real(columns, vec, p))
        m_p, n_p = reduce_mod_p(xp, p), reduce_mod_p(xpp, p)
        d1 = ext_presentation(m_p, n_p).d1
        j = next(j for j in range(d1.ncols) if any(d1.col(j)))
        coords[j] = (coords[j] + 1) % p
        # the first vertex whose block of d1's rows sees column j
        row = next(i for i, x in enumerate(d1.col(j)) if x)
        ends = [0]
        for dm, dn in zip(m_p.dim, n_p.dim):
            ends.append(ends[-1] + dm * dn)
        vertices = zip(xp.quiver.vertices, ends[1:])
        expected.append(next(v for v, end in vertices if row < end))
        return coords

    monkeypatch.setattr(verify, "_class_derivation", off_kernel)
    with pytest.raises(ValueError, match="violated at vertex") as err:
        stratify_proj_ext(xp, xpp, m_anchors(zoo), prime_list=[5, 7, 11, 13])
    assert str(err.value) == f"derivation equation violated at vertex {expected[0]}"
    assert len(expected) == 1
