"""End-to-end gate: one test per guarantee the package makes.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per guarantee.  The star-quiver numbers (Ext dimensions, the six
fingerprint identities, the stratum tables and the final expansion) are
checked exactly; the pairing, dimension-formula and splitting suites run
on randomized module pairs seeded from the ``rng_seed`` fixture, so a
failure is reproducible by exporting the same PREPRO_SEED.
"""

import json
import random
import time
from collections import OrderedDict

import pytest

from preproj import cli, d4, flags
from preproj.fields import QQ
from preproj.flags import (
    NonPolynomialCount,
    count_flags,
    count_flags_by_splitting,
    euler_characteristic,
    fingerprint,
    split_chi_sum,
    split_euler_table,
)
from preproj.homext import (
    Derivation,
    Intertwiner,
    cy_gram,
    cy_pairing,
    derivation_basis,
    dimension_checks,
    ext_presentation,
    hom_basis,
    inner_derivation,
    middle_term,
    pullback,
    pushout,
)
from preproj.linalg import Matrix, rank
from preproj.module import (
    BadPrime,
    LambdaModule,
    direct_sum,
    reduce_mod_p,
    simple,
)
from preproj.quiver import Quiver, double
from preproj.randgen import random_combination, random_nilpotent_module
from preproj.serialize import save_module
from preproj.verify import verify_thm_1_1, verify_thm_1_2


def a2_double():
    return double(Quiver.build(["1", "2"], [("a", "1", "2")]))


def a3_double():
    return double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))


def kronecker_double():
    return double(Quiver.build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))


def random_matrix(field, nrows, ncols, rng):
    if nrows == 0 or ncols == 0:
        return Matrix.zeros(field, nrows, ncols)
    rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix.from_rows(field, rows)


def zero_map(source, target):
    comps = [
        Matrix.zeros(source.field, target.dim_of(v), source.dim_of(v))
        for v in source.quiver.vertices
    ]
    return Intertwiner.build(source, target, comps)


def pick(items, rng, fallback):
    out = random_combination(items, rng)
    return fallback if out is None else out


def test_01_ext_dimensions_of_the_star_pair(tmp_path, capsys):
    """dim Ext^1(T, S4) = dim Ext^1(S4, T) = 2, through the CLI, under 1s."""
    zoo = d4.zoo()
    t_file = tmp_path / "t.json"
    s4_file = tmp_path / "s4.json"
    save_module(t_file, zoo["T"])
    save_module(s4_file, zoo["S4"])
    start = time.perf_counter()
    code = cli.main(["ext", str(t_file), str(s4_file), "--format", "json"])
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["ext1_mn"] == 2
    assert data["ext1_nm"] == 2
    rep = dimension_checks(zoo["T"], zoo["S4"])
    assert (rep.ext1_mn, rep.ext1_nm) == (2, 2)
    assert elapsed < 1.0


def test_02_six_fingerprint_identities():
    """The degenerations differ from the generic member by F, G or H.

    Exact integer equality over all 60 words of content (1,1,1,2), and
    two generic parameter values give one and the same fingerprint.
    """
    start = time.perf_counter()
    zoo = d4.zoo()
    names = ("M(lam)", "M(0)", "M(-1)", "M(inf)", "R", "A", "B", "C", "F", "G", "H")
    fps = {name: fingerprint(zoo[name]) for name in names}
    words = fps["M(lam)"].words
    assert len(words) == 60
    assert all(fp.words == words for fp in fps.values())
    identities = (
        ("M(0)", "M(lam)", "H"),
        ("M(-1)", "M(lam)", "F"),
        ("M(inf)", "M(lam)", "G"),
        ("A", "R", "F"),
        ("B", "R", "G"),
        ("C", "R", "H"),
    )
    for left, base, extra in identities:
        want = tuple(a + b for a, b in zip(fps[base].chi, fps[extra].chi))
        assert fps[left].chi == want, f"{left} != {base} + {extra}"
    other = fingerprint(d4.m_family(2, zoo["T"].dq))
    assert other.chi == fps["M(lam)"].chi
    assert time.perf_counter() - start < 60.0


def test_03_pairwise_multiplication_of_the_star_pair():
    """The product of the two evaluation forms expands over five strata.

    Both projective extension lines stratify with chi table (-1, 1, 1, 1)
    summing to 2, the 60-coordinate identity between twice the direct
    sum's fingerprint and the two stratum brackets holds exactly, and the
    expansion of the product into M(lam) + R + F + G + H is reproduced.
    """
    start = time.perf_counter()
    zoo = d4.zoo()
    m_anchors = OrderedDict(
        (n, zoo[n]) for n in ("M(lam)", "M(0)", "M(-1)", "M(inf)")
    )
    r_anchors = OrderedDict((n, zoo[n]) for n in ("R", "A", "B", "C"))
    rep = verify_thm_1_1(zoo["S4"], zoo["T"], m_anchors, r_anchors)
    assert rep.passed
    assert rep.ext1_dim == 2
    assert len(rep.words) == 60
    for strata, order in (
        (rep.strata_fwd, ("M(lam)", "M(0)", "M(-1)", "M(inf)")),
        (rep.strata_bwd, ("R", "A", "B", "C")),
    ):
        assert tuple(s.name for s in strata) == order
        assert tuple(s.chi_proj for s in strata) == (-1, 1, 1, 1)
        assert sum(s.chi_proj for s in strata) == 2
    fp_sum = fingerprint(direct_sum(zoo["T"], zoo["S4"]))
    assert rep.left_values == tuple(2 * c for c in fp_sum.chi)
    parts = [fingerprint(zoo[n]) for n in ("M(lam)", "R", "F", "G", "H")]
    assert all(fp.words == fp_sum.words for fp in parts)
    expansion = tuple(sum(chis) for chis in zip(*(fp.chi for fp in parts)))
    assert fp_sum.chi == expansion
    assert time.perf_counter() - start < 300.0


def test_04_unique_extension_identity_on_a2():
    """delta_S1 . delta_S2 = delta_x + delta_y, i.e. (1,1) = (1,0) + (0,1)."""
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    start = time.perf_counter()
    rep = verify_thm_1_2(s1, s2)
    d = ext_presentation(s1, s2).ext1_basis[0]
    g = ext_presentation(s2, s1).ext1_basis[0]
    fx = fingerprint(middle_term(d).module)
    fy = fingerprint(middle_term(g).module)
    elapsed = time.perf_counter() - start
    assert rep.passed
    assert rep.words == (("1", "2"), ("2", "1"))
    assert rep.left_values == (1, 1)
    assert rep.right_values == (1, 1)
    assert (fx.chi, fy.chi) == ((1, 0), (0, 1))
    assert elapsed < 1.0


def test_05_trace_pairing_property_suite(rng_seed):
    """On 110 random pairs: the pairing kills inner derivations, its Gram
    matrix on the chosen Ext^1 complements has full rank, pulling the
    first argument through maps matches pushing the second one through
    them the other way around, and dim Ext^1 is symmetric."""
    rng = random.Random(rng_seed + 5)
    checked = 0
    for dq in (a3_double(), kronecker_double()):
        for _ in range(55):
            m = random_nilpotent_module(dq, rng, steps=3, max_total=5)
            n = random_nilpotent_module(dq, rng, steps=3, max_total=5)
            pres_mn = ext_presentation(m, n)
            pres_nm = ext_presentation(n, m)
            assert pres_mn.ext1_dim == pres_nm.ext1_dim
            gram = cy_gram(pres_mn, pres_nm)
            assert rank(gram) == pres_mn.ext1_dim
            phis = [
                random_matrix(QQ, n.dim_of(v), m.dim_of(v), rng)
                for v in m.quiver.vertices
            ]
            inner = inner_derivation(m, n, phis)
            for g in derivation_basis(pres_nm):
                assert cy_pairing(inner, g) == 0
            xp = random_nilpotent_module(dq, rng, steps=2, max_total=4)
            yp = random_nilpotent_module(dq, rng, steps=2, max_total=4)
            rho = pick(hom_basis(xp, m), rng, zero_map(xp, m))
            lam = pick(hom_basis(n, yp), rng, zero_map(n, yp))
            eta = pick(derivation_basis(pres_mn), rng, Derivation.build(m, n, {}))
            eps = pick(
                derivation_basis(ext_presentation(yp, xp)),
                rng,
                Derivation.build(yp, xp, {}),
            )
            moved = cy_pairing(pushout(pullback(eta, rho), lam), eps)
            assert moved == cy_pairing(eta, pushout(pullback(eps, lam), rho))
            checked += 1
    assert checked >= 100


def test_06_dimension_formulas_on_kronecker_pairs(rng_seed):
    """Both Crawley-Boevey dimension formulas on 50 random pairs.

    The reflexive formula holds for every nilpotent pair; the Euler one
    is asserted because the Kronecker quiver has no Dynkin component, so
    the degree-2 cokernel really is Ext^2.
    """
    rng = random.Random(rng_seed + 6)
    dq = kronecker_double()
    checked = 0
    for _ in range(50):
        m = random_nilpotent_module(dq, rng, steps=3, max_total=6)
        n = random_nilpotent_module(dq, rng, steps=3, max_total=6)
        rep = dimension_checks(m, n)
        assert rep.reflexive_ok
        assert rep.symmetric_ok
        assert rep.ext2_exact
        assert rep.euler_ok is True
        checked += 1
    assert checked >= 50


def modest_pair(dq, rng):
    """A random pair whose direct sum stays at most 3-dimensional per
    vertex; larger vertex spaces push the fit window into primes where
    subspace enumeration dominates the whole suite."""
    while True:
        left = random_nilpotent_module(dq, rng, steps=2, max_total=3)
        right = random_nilpotent_module(dq, rng, steps=2, max_total=2)
        if all(a + b <= 3 for a, b in zip(left.dim, right.dim)):
            return left, right


def test_07_direct_sum_splitting_identity(rng_seed):
    """chi of the sum's flags = sum over splittings of chi products.

    Checked for every word of the direct sum's content on 50 random
    pairs, and again prime by prime: the counts graded by splitting type
    partition the direct sum's raw count at two good primes.  On the
    first pair of each quiver the per-type Euler characteristics are
    also matched against the subword chi products one by one.
    """
    rng = random.Random(rng_seed + 7)
    pairs = 0
    for dq in (a3_double(), kronecker_double()):
        for trial in range(25):
            left, right = modest_pair(dq, rng)
            whole = direct_sum(left, right)
            fp_left = fingerprint(left)
            fp_right = fingerprint(right)
            fp_sum = fingerprint(whole)
            for word in fp_sum.words:
                assert split_chi_sum(fp_left, fp_right, word) == fp_sum.chi_of(word)
            validated = 0
            for p in (2, 3, 5, 7, 11, 13):
                try:
                    lp = reduce_mod_p(left, p)
                    rp = reduce_mod_p(right, p)
                except BadPrime:
                    continue
                wp = direct_sum(lp, rp)
                split_memo, plain_memo = {}, {}
                for word in fp_sum.words:
                    dist = count_flags_by_splitting(lp, rp, word, memo=split_memo)
                    total = count_flags(wp, word, memo=plain_memo).count
                    assert sum(dist.values()) == total
                validated += 1
                if validated == 2:
                    break
            assert validated == 2
            if trial == 0:
                lt, rt = fp_left.table(), fp_right.table()
                for word in fp_sum.words:
                    table = split_euler_table(left, right, word)
                    for (c1, c2), value in table.items():
                        w1 = tuple(v for v, c in zip(word, c1) if c)
                        w2 = tuple(v for v, c in zip(word, c2) if c)
                        assert value == lt[w1] * rt[w2]
            pairs += 1
    assert pairs >= 50


def test_08_interpolation_guard(monkeypatch):
    """Every fit validates on two extra primes; corrupted counts abort.

    All Euler characteristics in this suite flow through one fitting
    routine, whose window must reproduce the counts at VALIDATION_PRIMES
    further primes before a value is accepted.  A deliberately corrupted
    counter (off by one at primes p = 3 mod 4 on two-step flags) must
    therefore be caught, whatever window the fit slides to.
    """
    assert flags.VALIDATION_PRIMES == 2
    dq = a2_double()
    x = LambdaModule.build(dq, QQ, (1, 1), {"a": [[1]]})
    fp = fingerprint(x)
    assert fp.profiles
    assert all(len(profile.validation) == 2 for profile in fp.profiles)
    real = flags._count

    def crooked(m, node, memo):
        counts = real(m, node, memo)
        if len(node) == 2 and m.field.p % 4 == 3:
            return tuple(n + 1 for n in counts)
        return counts

    monkeypatch.setattr(flags, "_count", crooked)
    with pytest.raises(NonPolynomialCount) as err:
        euler_characteristic(x, ("1", "2"))
    assert err.value.word == ("1", "2")
