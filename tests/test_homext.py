"""Hom/Ext presentations, middle terms, the trace pairing, dimension laws."""

import random
import re
from fractions import Fraction

import pytest

from preproj import d4, homext
from preproj.fields import QQ, Field
from preproj.homext import (
    Derivation,
    Intertwiner,
    apply_d1,
    cy_gram,
    cy_pairing,
    derivation_basis,
    dimension_checks,
    ext_presentation,
    hom_basis,
    inner_derivation,
    is_derivation,
    is_inner,
    middle_term,
    pullback,
    pushout,
)
from preproj.linalg import (
    Matrix,
    _echelon_ints,
    _from_columns,
    _kernel_rows,
    _reduced_rows,
    clear_denominators,
    column_echelon,
    hstack,
    kernel_basis,
    rank,
    rref,
    solve,
)
from preproj.module import (
    BadPrime,
    LambdaModule,
    _int_actions,
    direct_sum,
    reduce_mod_p,
    simple,
    validate,
)
from preproj.quiver import Quiver, double, has_dynkin_component
from preproj.randgen import random_combination, random_nilpotent_module


def a2_double():
    return double(Quiver.build(["1", "2"], [("a", "1", "2")]))


def a3_double():
    return double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))


def kron_double():
    return double(Quiver.build(["1", "2"], [("a1", "1", "2"), ("a2", "1", "2")]))


def x_module(dq):
    """The A2 module with x(a) = 1."""
    return LambdaModule.build(dq, QQ, (1, 1), {"a": [[1]]})


def test_hom_dims_frozen():
    dq = d4.star_double()
    t, s4 = d4.t_module(dq), d4.s4_module(dq)
    assert ext_presentation(t, s4).hom_dim == 0
    assert ext_presentation(s4, t).hom_dim == 1
    dq2 = a2_double()
    assert ext_presentation(simple(dq2, "1", QQ), simple(dq2, "2", QQ)).hom_dim == 0


def test_hom_basis_are_intertwiners():
    dq = d4.star_double()
    basis = hom_basis(d4.s4_module(dq), d4.t_module(dq))
    assert len(basis) == 1
    f = basis[0]
    assert f.component("4").ncols == 1
    doubled = f.add(f)
    assert doubled.component("4") == f.component("4").scale(2)
    g = Intertwiner.identity(d4.t_module(dq))
    with pytest.raises(ValueError, match="different modules"):
        f.add(g)


def test_ext1_dims_frozen():
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    assert ext_presentation(s1, s2).ext1_dim == 1
    assert ext_presentation(s1, s1).ext1_dim == 0
    dqk = kron_double()
    k1, k2 = simple(dqk, "1", QQ), simple(dqk, "2", QQ)
    assert ext_presentation(k1, k2).ext1_dim == 2
    dq4 = d4.star_double()
    t, s4 = d4.t_module(dq4), d4.s4_module(dq4)
    assert ext_presentation(t, s4).ext1_dim == 2
    assert ext_presentation(s4, t).ext1_dim == 2


def test_ext2_cokernel_and_exactness_flag():
    dqk = kron_double()
    k1 = simple(dqk, "1", QQ)
    pres = ext_presentation(k1, k1)
    assert pres.ext2_exact
    assert pres.ext2_cokernel == 1
    dq2 = a2_double()
    pres2 = ext_presentation(simple(dq2, "1", QQ), simple(dq2, "1", QQ))
    assert not pres2.ext2_exact


def test_presentation_dimension_bookkeeping():
    # derivations = inner + ext1 complement, and
    # ext1 = derivations - C0 + hom
    dq = d4.star_double()
    for m, n in [
        (d4.t_module(dq), d4.s4_module(dq)),
        (d4.s4_module(dq), d4.t_module(dq)),
        (d4.m_family(1, dq), d4.r_module(dq)),
    ]:
        pres = ext_presentation(m, n)
        assert pres.derivations.ncols == pres.inner.ncols + pres.ext1_dim
        assert pres.ext1_dim == pres.derivations.ncols - pres.c0_dim + pres.hom_dim
        for e in pres.ext1_basis:
            assert is_derivation(e)
            assert not is_inner(pres, e)


def test_presentation_subspaces_are_canonical_bases(rng_seed):
    # hom, derivations and inner are reduced column echelon bases, so two
    # presentations hold equal matrices exactly when the subspaces agree
    rng = random.Random(rng_seed + 26)
    pairs = [(d4.t_module(), d4.s4_module())]
    for dq in (a3_double(), kron_double()) * 3:
        pairs.append(
            tuple(random_nilpotent_module(dq, rng, steps=3) for _ in "mn")
        )
    pairs += [(n, m) for m, n in pairs]
    for m, n in list(pairs):
        try:
            pairs.append((reduce_mod_p(m, 5), reduce_mod_p(n, 5)))
        except BadPrime:
            pass
    nonzero = 0
    for m, n in pairs:
        pres = ext_presentation(m, n)
        assert (pres.hom.nrows, pres.derivations.nrows) == (pres.c0_dim, pres.c1_dim)
        for basis in (pres.hom, pres.derivations, pres.inner):
            assert column_echelon(basis) == basis
            nonzero += basis.ncols > 0
    assert nonzero >= 2 * len(pairs)
    assert {m.field.p for m, _ in pairs} == {None, 5}


def test_complement_is_deterministic():
    dq = d4.star_double()
    p1 = ext_presentation(d4.t_module(dq), d4.s4_module(dq))
    p2 = ext_presentation(d4.t_module(dq), d4.s4_module(dq))
    assert [e.maps for e in p1.ext1_basis] == [e.maps for e in p2.ext1_basis]


def test_derivation_space_matches_d1_kernel_seeded(rng_seed):
    # the arrow-wise derivation equation and the kernel of d1 agree
    rng = random.Random(rng_seed + 20)
    dq = a3_double()
    simples = [simple(dq, v, QQ) for v in ("1", "2", "3")]
    for _ in range(12):
        m = rng.choice(simples)
        n = rng.choice(simples)
        pres = ext_presentation(m, n)
        for dvec in derivation_basis(pres):
            assert is_derivation(dvec)
        # conversely d1 kills anything satisfying the equation
        for dvec in derivation_basis(pres):
            images = apply_d1(m, n, list(dvec.maps))
            assert all(im.is_zero() for im in images)


def test_s4_t_derivations_sum_to_zero_constraint():
    # maps S4 -> T live on the three bar arrows and must sum to zero
    dq = d4.star_double()
    s4, t = d4.s4_module(dq), d4.t_module(dq)
    good = Derivation.build(s4, t, {"a*": [[1]], "b*": [[-1]], "c*": [[0]]})
    assert is_derivation(good)
    bad = Derivation.build(s4, t, {"a*": [[1]]})
    assert not is_derivation(bad)
    with pytest.raises(ValueError, match="vertex 4"):
        middle_term(bad)


def test_middle_term_of_zero_is_direct_sum(rng_seed):
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    zero = Derivation.build(s1, s2, {})
    assert middle_term(zero).module == direct_sum(s1, s2)
    rng = random.Random(rng_seed)
    for dq in (a3_double(), kron_double()):
        for field in (QQ, Field(5)):
            for _ in range(4):
                m = random_nilpotent_module(dq, rng, steps=2, field=field)
                n = random_nilpotent_module(dq, rng, steps=2, field=field)
                zero = Derivation.build(m, n, {})
                assert middle_term(zero).module == direct_sum(m, n)


def test_middle_term_a2_generator_is_the_string_module():
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    d = Derivation.build(s1, s2, {"a": [[1]]})
    mt = middle_term(d)
    assert mt.module == x_module(dq)
    # inclusion of s2 and projection onto s1 at the only interesting vertices
    assert mt.inclusion[1] == Matrix.identity(QQ, 1)
    assert mt.projection[0] == Matrix.identity(QQ, 1)
    assert validate(mt.module).ok


def test_middle_term_reproduces_m_family():
    # the derivation (u, v, w) with u+v+w=0 on the bars of the star quiver
    # produces exactly the frozen family matrices at (u,v,w)=(-1-lam,1,lam)
    dq = d4.star_double()
    s4, t = d4.s4_module(dq), d4.t_module(dq)
    lam = Fraction(5)
    d = Derivation.build(
        s4, t, {"a*": [[-1 - lam]], "b*": [[1]], "c*": [[lam]]}
    )
    assert middle_term(d).module == d4.m_family(lam, dq)


def test_exact_sequence_bookkeeping_is_intertwining():
    dq = d4.star_double()
    s4, t = d4.s4_module(dq), d4.t_module(dq)
    d = Derivation.build(s4, t, {"a*": [[-2]], "b*": [[1]], "c*": [[1]]})
    mt = middle_term(d)
    Intertwiner.build(t, mt.module, mt.inclusion)
    Intertwiner.build(mt.module, s4, mt.projection)


def test_inner_derivations_lie_in_image(rng_seed):
    rng = random.Random(rng_seed + 21)
    dq = d4.star_double()
    m, n = d4.m_family(1, dq), d4.r_module(dq)
    pres = ext_presentation(m, n)
    idx = m.quiver.vertex_index
    for _ in range(5):
        phis = [
            Matrix.from_rows(
                QQ,
                [
                    [rng.randrange(-3, 4) for _ in range(m.dim[i])]
                    for _ in range(n.dim[i])
                ],
                ncols=m.dim[i],
            )
            for i in range(len(m.dim))
        ]
        d = inner_derivation(m, n, phis)
        assert is_derivation(d)
        assert is_inner(pres, d)


def test_cy_pairing_frozen_a2_value():
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    d = Derivation.build(s1, s2, {"a": [[1]]})
    g = Derivation.build(s2, s1, {"a*": [[1]]})
    assert cy_pairing(d, g) == Fraction(-1)
    with pytest.raises(ValueError, match="opposite"):
        cy_pairing(d, d)


def test_cy_pairing_vanishes_on_inner(rng_seed):
    rng = random.Random(rng_seed + 22)
    dq = d4.star_double()
    m, n = d4.t_module(dq), d4.s4_module(dq)
    pres_nm = ext_presentation(n, m)
    for _ in range(5):
        phis = [
            Matrix.from_rows(
                QQ,
                [
                    [rng.randrange(-3, 4) for _ in range(m.dim[i])]
                    for _ in range(n.dim[i])
                ],
                ncols=m.dim[i],
            )
            for i in range(len(m.dim))
        ]
        inner = inner_derivation(m, n, phis)
        for g in derivation_basis(pres_nm):
            assert cy_pairing(inner, g) == 0


def test_cy_gram_nondegenerate_on_t_s4():
    dq = d4.star_double()
    t, s4 = d4.t_module(dq), d4.s4_module(dq)
    pres_ts = ext_presentation(t, s4)
    pres_st = ext_presentation(s4, t)
    gram = cy_gram(pres_ts, pres_st)
    assert gram.nrows == gram.ncols == 2
    assert rank(gram) == 2


def test_functoriality_on_a2_string():
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    x = x_module(dq)
    eta = Derivation.build(s1, s2, {"a": [[1]]})
    # rho: x -> s1 is the projection, lam: s2 -> x the inclusion
    rho = Intertwiner.build(
        x, s1, [Matrix.identity(QQ, 1), Matrix.zeros(QQ, 0, 1)]
    )
    lam = Intertwiner.build(
        s2, x, [Matrix.zeros(QQ, 1, 0), Matrix.identity(QQ, 1)]
    )
    moved = pushout(pullback(eta, rho), lam)
    assert moved.source == x and moved.target == x
    pres_xx = ext_presentation(x, x)
    for eps in derivation_basis(pres_xx):
        lhs = cy_pairing(moved, eps)
        rhs = cy_pairing(eta, pushout(pullback(eps, lam), rho))
        assert lhs == rhs


def test_pullback_pushout_shape_guards():
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    eta = Derivation.build(s1, s2, {"a": [[1]]})
    wrong = Intertwiner.identity(s2)
    with pytest.raises(ValueError, match="pullback"):
        pullback(eta, wrong)
    with pytest.raises(ValueError, match="pushout"):
        pushout(eta, Intertwiner.identity(s1))


def test_blocks_of_wrong_shape_or_field_are_named_at_construction():
    dq = a2_double()
    s1, s2, x = simple(dq, "1", QQ), simple(dq, "2", QQ), x_module(dq)
    empty = Matrix.zeros(QQ, 0, 0)
    tall = Matrix.zeros(QQ, 2, 1)
    over_f5 = Matrix.from_rows(Field(5), [[1]])
    with pytest.raises(ValueError, match="map of arrow a has shape 2x1, expected 1x1"):
        Derivation(s1, s2, (tall, empty))
    with pytest.raises(ValueError, match="map of arrow a is over the wrong field"):
        Derivation(s1, s2, (over_f5, empty))
    with pytest.raises(ValueError, match="expected 2 blocks, one per arrow, got 1"):
        Derivation(s1, s2, (Matrix.zeros(QQ, 1, 1),))
    with pytest.raises(ValueError, match="map of arrow a has shape 2x1, expected 1x1"):
        Derivation.build(s1, s2, {"a": [[1], [2]]})
    with pytest.raises(ValueError, match="map of arrow a has shape 2x1, expected 1x1"):
        Derivation.build(s1, s2, {"a": tall})
    with pytest.raises(ValueError, match="map of arrow a is over the wrong field"):
        Derivation.build(s1, s2, {"a": over_f5})
    with pytest.raises(ValueError, match="bad matrix for arrow 'a': expected 1 col"):
        Derivation.build(s1, s2, {"a": [[1, 2]]})
    with pytest.raises(ValueError, match="unknown arrow 'zz'"):
        Derivation.build(s1, s2, {"zz": [[1]]})
    one = Matrix.identity(QQ, 1)
    with pytest.raises(
        ValueError, match="component at vertex 1 has shape 2x2, expected 1x1"
    ):
        Intertwiner.build(x, x, (Matrix.identity(QQ, 2), one))
    with pytest.raises(ValueError, match="component at vertex 2 is over the wrong"):
        Intertwiner.build(x, x, (one, Matrix.identity(Field(5), 1)))
    with pytest.raises(ValueError, match="expected 2 blocks, one per vertex, got 1"):
        Intertwiner.build(x, x, (one,))
    with pytest.raises(ValueError, match="does not commute with arrow a$"):
        Intertwiner.build(x, x, (one, Matrix.zeros(QQ, 1, 1)))
    assert Intertwiner.build(x, x, (one, one)).components == (one, one)


def test_derivation_linear_combinations():
    dq = d4.star_double()
    s4, t = d4.s4_module(dq), d4.t_module(dq)
    d1 = Derivation.build(s4, t, {"a*": [[1]], "b*": [[-1]]})
    d2 = Derivation.build(s4, t, {"b*": [[1]], "c*": [[-1]]})
    combo = d1.add(d2.scale(3))
    assert combo.map_of("b*") == Matrix.from_rows(QQ, [[2]])
    assert is_derivation(combo)


def test_derivations_of_another_pair_are_refused():
    dq = d4.star_double()
    s4, t = d4.s4_module(dq), d4.t_module(dq)
    forward = ext_presentation(s4, t)
    backward = ext_presentation(t, s4).ext1_basis[0]
    with pytest.raises(ValueError, match="^derivation belongs to a different pair$"):
        is_inner(forward, backward)
    with pytest.raises(
        ValueError, match="^adding derivations between different modules$"
    ):
        forward.ext1_basis[0].add(backward)


def test_dimension_checks_frozen():
    dq = d4.star_double()
    report = dimension_checks(d4.t_module(dq), d4.s4_module(dq))
    assert (report.hom_mn, report.hom_nm) == (0, 1)
    assert report.form == -1
    assert report.ext1_mn == report.ext1_nm == 2
    assert report.reflexive_ok and report.symmetric_ok
    assert report.euler_ok is None
    dqk = kron_double()
    k1, k2 = simple(dqk, "1", QQ), simple(dqk, "2", QQ)
    rep2 = dimension_checks(k1, k2)
    assert rep2.form == -2
    assert rep2.ext1_mn == 2
    assert rep2.euler_ok is True
    assert rep2.ok
    rep3 = dimension_checks(k1, k1)
    assert rep3.form == 2
    assert (rep3.hom_mn, rep3.ext1_mn, rep3.ext2_cokernel) == (1, 0, 1)
    assert rep3.euler_ok is True


def derivation_residual(d, v):
    """Reference for apply_d1: the derivation equation at vertex v,
    written over the original arrows,

    sum_{a: s(a)=v} ( d(a*) x'(a) + x''(a*) d(a) )
      - sum_{a: e(a)=v} ( d(a) x'(a*) + x''(a) d(a*) ).
    """
    m, n = d.source, d.target
    acc = Matrix.zeros(m.field, n.dim_of(v), m.dim_of(v))
    for a in m.dq.arrows:
        if a.sign:
            continue
        if a.source == v:
            acc = acc.add(d.map_of(a.bar).mul(m.x(a.name)))
            acc = acc.add(n.x(a.bar).mul(d.map_of(a.name)))
        if a.target == v:
            acc = acc.sub(d.map_of(a.name).mul(m.x(a.bar)))
            acc = acc.sub(n.x(a.name).mul(d.map_of(a.bar)))
    return acc


def reference_commutators(m, n, phis):
    """Reference for inner_derivation and minus d0: the commutator
    phi_{e(b)} x'(b) - x''(b) phi_{s(b)} of every doubled arrow b, through
    Matrix products."""
    idx = m.quiver.vertex_index
    return tuple(
        phis[idx[a.target]].mul(x).sub(y.mul(phis[idx[a.source]]))
        for a, x, y in zip(m.dq.arrows, m.action, n.action)
    )


def reference_d0(m, n, phis):
    return [x.scale(-1) for x in reference_commutators(m, n, phis)]


def reference_d1(m, n, g):
    d = Derivation(m, n, tuple(g))
    return [derivation_residual(d, v) for v in m.quiver.vertices]


def test_residual_expression_matches_d1_on_arbitrary_tuples(rng_seed):
    # not only on kernel elements: on arbitrary tuples with denominators
    # 2, 3 and 6, over Q and F_5, apply_d1 equals the vertexwise residual
    # written over the original arrows and inner_derivation equals the
    # per-arrow commutators, entry types included; middle_term and
    # Intertwiner.build name the first vertex or arrow where they fail
    rng = random.Random(rng_seed + 23)
    pairs = [
        (d4.m_family(2), d4.zoo()["F"]),
        (conjugated(d4.m_family(1), (1, Fraction(1, 2), 3)), d4.r_module()),
    ]
    for dq in (a3_double(), kron_double()) * 2:
        pairs.append(
            tuple(random_nilpotent_module(dq, rng, steps=3) for _ in "mn")
        )
    pairs += [(n, m) for m, n in pairs]
    for m, n in list(pairs):
        try:
            pairs.append((reduce_mod_p(m, 5), reduce_mod_p(n, 5)))
        except BadPrime:
            pass
    assert {m.field.p for m, _ in pairs} == {None, 5}
    values = [0, 0, 1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)]

    def arbitrary(field, shapes):
        return [
            Matrix.from_rows(
                field,
                [[rng.choice(values) for _ in range(c)] for _ in range(r)],
                ncols=c,
            )
            for r, c in shapes
        ]

    failures = 0
    for m, n in pairs:
        idx = m.quiver.vertex_index
        c0 = [(dn, dm) for dm, dn in zip(m.dim, n.dim)]
        c1 = [(n.dim[idx[a.target]], m.dim[idx[a.source]]) for a in m.dq.arrows]
        for _ in range(4):
            d = Derivation(m, n, tuple(arbitrary(m.field, c1)))
            images = apply_d1(m, n, list(d.maps))
            want = reference_d1(m, n, d.maps)
            assert [typed(x) for x in images] == [typed(x) for x in want]
            phis = arbitrary(m.field, c0)
            inner = inner_derivation(m, n, phis).maps
            commutators = reference_commutators(m, n, phis)
            assert [typed(x) for x in inner] == [typed(x) for x in commutators]
            vertices = [v for v, x in zip(m.quiver.vertices, want) if not x.is_zero()]
            if vertices:
                with pytest.raises(ValueError, match=f"at vertex {vertices[0]}$"):
                    middle_term(d)
            else:
                middle_term(d)
            arrows = [
                a.name for a, x in zip(m.dq.arrows, commutators) if not x.is_zero()
            ]
            if arrows:
                message = f"with arrow {re.escape(arrows[0])}$"
                with pytest.raises(ValueError, match=message):
                    Intertwiner.build(m, n, phis)
            else:
                Intertwiner.build(m, n, phis)
            failures += bool(vertices) + bool(arrows)
    assert failures >= len(pairs)


def test_first_failing_vertex_and_arrow_are_named():
    # x(a) = 1 on x and x(a*) = 1 on y: the failures below sit only at
    # the second vertex and the second arrow, so the messages must skip
    # the first ones
    dq = a2_double()
    x = x_module(dq)
    y = LambdaModule.build(dq, QQ, (1, 1), {"a*": [[1]]})
    d = Derivation.build(y, x, {"a": [[1]], "a*": [[1]]})
    assert [r.is_zero() for r in reference_d1(y, x, d.maps)] == [True, False]
    with pytest.raises(ValueError, match="violated at vertex 2$"):
        middle_term(d)
    one, zero = Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1)
    commutators = reference_commutators(y, y, (one, zero))
    assert [c.is_zero() for c in commutators] == [True, False]
    with pytest.raises(ValueError, match=r"does not commute with arrow a\*$"):
        Intertwiner.build(y, y, (one, zero))


def _probe(field, in_shapes, out_rows, apply):
    """The matrix of a block map, one unit input block at a time."""
    total = sum(r * c for r, c in in_shapes)
    cols = []
    for j in range(total):
        flat = [1 if i == j else 0 for i in range(total)]
        blocks, pos = [], 0
        for r, c in in_shapes:
            rows = [flat[pos + i * c : pos + (i + 1) * c] for i in range(r)]
            blocks.append(Matrix.from_rows(field, rows, ncols=c))
            pos += r * c
        cols.append([x for mat in apply(blocks) for row in mat.entries for x in row])
    return Matrix.from_cols(field, cols, nrows=out_rows)


def test_assembled_differentials_match_unit_block_probes(rng_seed):
    # d0 is minus the commutators of a vertex tuple, d1 the vertexwise
    # derivation residual, both through Matrix products
    rng = random.Random(rng_seed + 24)
    pairs = [(d4.s4_module(), d4.t_module()), (d4.t_module(), d4.s4_module())]
    for dq in (a3_double(), kron_double()) * 3:
        pairs.append(
            (
                random_nilpotent_module(dq, rng, steps=3),
                random_nilpotent_module(dq, rng, steps=3),
            )
        )
    for m, n in list(pairs):
        try:
            pairs.append((reduce_mod_p(m, 7), reduce_mod_p(n, 7)))
        except BadPrime:
            pass
    assert len(pairs) >= 14
    for m, n in pairs:
        idx = m.quiver.vertex_index
        c0 = [(dn, dm) for dm, dn in zip(m.dim, n.dim)]
        c1 = [(n.dim[idx[a.target]], m.dim[idx[a.source]]) for a in m.dq.arrows]
        pres = ext_presentation(m, n)
        d0 = _probe(m.field, c0, pres.d0.nrows, lambda f: reference_d0(m, n, f))
        d1 = _probe(m.field, c1, pres.d1.nrows, lambda g: reference_d1(m, n, g))
        assert pres.d0 == d0
        assert pres.d1 == d1


def typed(m):
    """A matrix's field, shape and entries with their types, so that 1
    and Fraction(1) differ."""
    return m.field, m.nrows, m.ncols, tuple(
        tuple((type(x), x) for x in r) for r in m.entries
    )


def reference_presentation(m, n):
    """Every field of ext_presentation(m, n) through the Matrix path:
    the differentials probed one unit block at a time through the
    references reference_d0 and reference_d1, then
    kernel_basis, column_echelon and the pivots of
    rref(hstack([inner, derivations])), each ext1 class cut from its
    column of the derivation basis."""
    idx = m.quiver.vertex_index
    c0 = [(dn, dm) for dm, dn in zip(m.dim, n.dim)]
    c1 = [(n.dim[idx[a.target]], m.dim[idx[a.source]]) for a in m.dq.arrows]
    c0_dim, c1_dim = (sum(r * c for r, c in shapes) for shapes in (c0, c1))
    d0 = _probe(m.field, c0, c1_dim, lambda f: reference_d0(m, n, f))
    d1 = _probe(m.field, c1, c0_dim, lambda g: reference_d1(m, n, g))
    derivations = column_echelon(kernel_basis(d1))
    inner = column_echelon(d0)
    _, pivots = rref(hstack([inner, derivations]))
    classes = []
    for j in pivots:
        if j < inner.ncols:
            continue
        flat, maps = derivations.col(j - inner.ncols), []
        for r, c in c1:
            maps.append(
                Matrix.from_rows(
                    m.field, [flat[i * c : (i + 1) * c] for i in range(r)], ncols=c
                )
            )
            flat = flat[r * c :]
        classes.append(tuple(typed(x) for x in maps))
    return {
        "d0": typed(d0),
        "d1": typed(d1),
        "hom": typed(column_echelon(kernel_basis(d0))),
        "derivations": typed(derivations),
        "inner": typed(inner),
        "ext1_basis": classes,
        "ext2_cokernel": c0_dim - rank(d1),
        "ext2_exact": not has_dynkin_component(m.quiver),
    }


def presentation_fields(pres):
    return {
        "d0": typed(pres.d0),
        "d1": typed(pres.d1),
        "hom": typed(pres.hom),
        "derivations": typed(pres.derivations),
        "inner": typed(pres.inner),
        "ext1_basis": [tuple(typed(x) for x in e.maps) for e in pres.ext1_basis],
        "ext2_cokernel": pres.ext2_cokernel,
        "ext2_exact": pres.ext2_exact,
    }


def conjugated(m, scalars):
    """The module isomorphic to m by the diagonal change of basis that
    scales basis vector i of vertex k by scalars[(k + i) % len(scalars)]:
    x(b) becomes g_e(b) x(b) g_s(b)^-1, which keeps the relations."""
    idx = m.quiver.vertex_index
    diag = [
        [Fraction(scalars[(k + i) % len(scalars)]) for i in range(d)]
        for k, d in enumerate(m.dim)
    ]
    action = {}
    for a, x in zip(m.dq.arrows, m.action):
        g_e, g_s = diag[idx[a.target]], diag[idx[a.source]]
        action[a.name] = [
            [g_e[r] * v / g_s[c] for c, v in enumerate(row)]
            for r, row in enumerate(x.entries)
        ]
    return LambdaModule.build(m.dq, m.field, m.dim, action)


def test_presentation_agrees_with_matrix_path_reference(rng_seed):
    # the presentation runs on int rows, over Q scaled by a common
    # denominator; every field must equal the Matrix path's, types too
    rng = random.Random(rng_seed + 27)
    pairs = [(d4.t_module(), d4.s4_module())]
    for dq in (a3_double(), kron_double()) * 3:
        pairs.append(
            tuple(random_nilpotent_module(dq, rng, steps=3) for _ in "mn")
        )
    # non-integral modules with denominators 2, 3 and 6
    scalars = (1, Fraction(1, 2), 3)
    odd = [
        conjugated(m, scalars)
        for m in (d4.t_module(), d4.r_module(), d4.m_family(1), x_module(a2_double()))
    ]
    pairs += [(odd[0], d4.s4_module()), (odd[1], odd[2]), (odd[3], odd[3])]
    pairs.append((conjugated(pairs[1][0], scalars), pairs[1][1]))
    denominators = set()
    for m in odd:
        assert validate(m).ok
        found = {x.denominator for a in m.action for r in a.entries for x in r}
        assert max(found) > 1
        denominators |= found
    assert {2, 3} <= denominators
    pairs += [(n, m) for m, n in pairs]
    for m, n in list(pairs):
        for p in (5, 7):
            try:
                pairs.append((reduce_mod_p(m, p), reduce_mod_p(n, p)))
            except BadPrime:
                pass
    assert {m.field.p for m, _ in pairs} == {None, 5, 7}
    classes = 0
    for m, n in pairs:
        got = presentation_fields(ext_presentation(m, n))
        assert got == reference_presentation(m, n)
        classes += len(got["ext1_basis"])
    assert classes >= len(pairs)


@pytest.mark.parametrize("p", [None, 5])
def test_presentation_of_empty_blocks(p):
    # zero modules, vertices of dimension 0 and pairs with Ext^1 = 0
    field = Field(p)
    a2, a3 = a2_double(), a3_double()
    zero2 = LambdaModule.build(a2, field, (0, 0), {})
    zero3 = LambdaModule.build(a3, field, (0, 0, 0), {})
    s1, s2 = simple(a2, "1", field), simple(a2, "2", field)
    t1, t3 = simple(a3, "1", field), simple(a3, "3", field)
    ends = LambdaModule.build(a3, field, (1, 0, 1), {})
    cases = [
        (zero2, zero2, (0, 0, 0)),
        (zero2, s1, (0, 0, 0)),
        (s1, zero2, (0, 0, 0)),
        (s1, s1, (1, 0, 1)),
        (s2, s2, (1, 0, 1)),
        (zero3, t3, (0, 0, 0)),
        (t1, t3, (0, 0, 0)),
        (t3, t1, (0, 0, 0)),
        (ends, t1, (1, 0, 1)),
        (ends, ends, (2, 0, 2)),
    ]
    for m, n, dims in cases:
        pres = ext_presentation(m, n)
        assert (pres.hom_dim, pres.ext1_dim, pres.ext2_cokernel) == dims
        assert_dimensions_from_ranks(pres)
        assert presentation_fields(pres) == reference_presentation(m, n)
        assert dimension_checks(m, n).ok


LAZY = ("d0", "d1", "hom", "derivations", "inner", "ext1_basis")


def assert_dimensions_from_ranks(pres):
    """The dimensions a fresh presentation reads off the ranks of d0 and
    d1 build no basis, and equal the counts of the bases built after."""
    dims = (pres.hom_dim, pres.ext1_dim, pres.ext2_cokernel, pres.c0_dim, pres.c1_dim)
    assert not set(LAZY) & set(vars(pres))
    d0, d1 = pres.d0, pres.d1
    assert dims == (
        pres.hom.ncols,
        len(pres.ext1_basis),
        d1.nrows - rank(d1),
        d0.ncols,
        d0.nrows,
    )
    assert pres.derivations.ncols == pres.inner.ncols + pres.ext1_dim
    assert set(LAZY) <= set(vars(pres))


def test_dimensions_come_from_ranks_without_bases(rng_seed):
    # hom_dim, ext1_dim and ext2_cokernel are read off rank d0 and rank
    # d1 at the call; every basis is built only when it is first read
    rng = random.Random(rng_seed + 29)
    pairs = []
    for dq in (a3_double(), kron_double()) * 3:
        m, n = (random_nilpotent_module(dq, rng, steps=3) for _ in "mn")
        pairs += [(m, n), (n, m)]
    for m, n in list(pairs):
        for p in (5, 7):
            try:
                pairs.append((reduce_mod_p(m, p), reduce_mod_p(n, p)))
            except BadPrime:
                pass
    assert {m.field.p for m, _ in pairs} == {None, 5, 7}
    inner = 0
    for m, n in pairs:
        pres = ext_presentation(m, n)
        assert_dimensions_from_ranks(pres)
        inner += pres.inner.ncols > 0
        report = dimension_checks(m, n)
        assert (report.hom_mn, report.ext1_mn) == (pres.hom_dim, pres.ext1_dim)
    # ext1_dim subtracts rank d0, which is nonzero on most pairs
    assert inner >= len(pairs) // 2


def test_presentation_checks_its_pair_at_the_call():
    a2, a3 = a2_double(), a3_double()
    with pytest.raises(ValueError, match="different quivers"):
        ext_presentation(simple(a2, "1", QQ), simple(a3, "1", QQ))
    with pytest.raises(ValueError, match="different fields"):
        ext_presentation(simple(a2, "1", QQ), simple(a2, "2", Field(5)))


def test_hom_basis_and_is_inner_read_the_stored_rows(monkeypatch):
    # hom_basis checks its vectors on the presentation's d0 rows, so it
    # builds the differentials once; is_inner builds no inner Matrix
    import preproj.homext as homext

    real, calls = homext._differential, []

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(homext, "_differential", counted)
    m = d4.m_family(1)
    assert len(hom_basis(m, m)) == 2
    assert calls == [(0, 1)]
    pres = ext_presentation(d4.t_module(), d4.s4_module())
    assert [is_inner(pres, e) for e in pres.ext1_basis] == [False, False]
    assert "inner" not in vars(pres)
    # a vector outside Hom is named by the first arrow it fails on
    x = x_module(a2_double())
    bogus = ext_presentation(x, x)
    bogus.__dict__["hom"] = Matrix.from_cols(QQ, [[1, 0]])
    monkeypatch.setattr(homext, "ext_presentation", lambda m, n: bogus)
    with pytest.raises(ValueError, match="does not commute with arrow a$"):
        hom_basis(x, x)


def reference_cy_pairing(d, g):
    """The trace pairing through a product Matrix and its trace per arrow."""
    field = d.source.field
    acc = field.zero()
    for a in d.source.dq.arrows:
        product = d.map_of(a.bar).mul(g.map_of(a.name))
        assert product.nrows == product.ncols
        term = field.zero()
        for i in range(product.nrows):
            term = field.add(term, product.entries[i][i])
        acc = field.sub(acc, term) if a.sign else field.add(acc, term)
    return acc


def reference_cy_gram(pres_mn, pres_nm):
    rows = [
        [reference_cy_pairing(d, g) for g in pres_nm.ext1_basis]
        for d in pres_mn.ext1_basis
    ]
    return Matrix.from_rows(pres_mn.source.field, rows, ncols=pres_nm.ext1_dim)


def random_derivation(m, n, rng):
    """Arbitrary maps d(b): M_{s(b)} -> N_{e(b)} with fractional entries;
    the pairing is defined on all of C1, not just on derivations."""
    values = [0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(9, 4)]
    maps = {
        a.name: [
            [rng.choice(values) for _ in range(m.dim_of(a.source))]
            for _ in range(n.dim_of(a.target))
        ]
        for a in m.dq.arrows
    }
    return Derivation.build(m, n, maps)


def test_cy_pairing_and_gram_agree_with_product_then_trace(rng_seed):
    rng = random.Random(rng_seed + 25)
    pairs = [(d4.t_module(), d4.s4_module())]
    for dq in (a3_double(), kron_double()) * 4:
        pairs.append(
            (
                random_nilpotent_module(dq, rng, steps=3),
                random_nilpotent_module(dq, rng, steps=2),
            )
        )
    pairs += [(n, m) for m, n in pairs]
    for m, n in list(pairs):
        for p in (5, 7):
            try:
                pairs.append((reduce_mod_p(m, p), reduce_mod_p(n, p)))
            except BadPrime:
                pass
    non_square = 0
    for m, n in pairs:
        pres_mn, pres_nm = ext_presentation(m, n), ext_presentation(n, m)
        gram, want = cy_gram(pres_mn, pres_nm), reference_cy_gram(pres_mn, pres_nm)
        assert gram == want
        assert [type(x) for r in gram.entries for x in r] == [
            type(x) for r in want.entries for x in r
        ]
        classes = list(pres_mn.ext1_basis) + [random_derivation(m, n, rng)]
        duals = list(pres_nm.ext1_basis) + [random_derivation(n, m, rng)]
        for d in classes:
            for g in duals:
                got = cy_pairing(d, g)
                assert (type(got), got) == (
                    type(reference_cy_pairing(d, g)),
                    reference_cy_pairing(d, g),
                )
        non_square += any(x.nrows != x.ncols for x in classes[-1].maps)
    assert non_square >= 10
    assert {m.field.p for m, _ in pairs} == {None, 5, 7}


def test_cy_gram_reads_the_chosen_rows(rng_seed):
    # cy_gram pairs the presentations' stored int rows, divided by the
    # two leading entries, and builds no Ext^1 basis on either side
    rng = random.Random(rng_seed + 30)
    pairs = []
    for dq in (a3_double(), kron_double()) * 3:
        pairs.append(
            tuple(random_nilpotent_module(dq, rng, steps=3) for _ in "mn")
        )
    # non-integral modules with denominators 2, 3 and 6
    scalars = (1, Fraction(1, 2), 3)
    odd = [
        conjugated(m, scalars)
        for m in (d4.t_module(), d4.r_module(), d4.m_family(1), x_module(a2_double()))
    ]
    found = {x.denominator for m in odd for a in m.action for r in a.entries for x in r}
    assert {2, 3, 6} <= found
    pairs += [(odd[0], d4.s4_module()), (odd[1], odd[2]), (odd[3], odd[3])]
    pairs += [(n, m) for m, n in pairs]
    for m, n in list(pairs):
        for p in (5, 7):
            try:
                pairs.append((reduce_mod_p(m, p), reduce_mod_p(n, p)))
            except BadPrime:
                pass
    assert {m.field.p for m, _ in pairs} == {None, 5, 7}
    import preproj.homext as homext

    def one_lead(pres_mn, pres_nm, side):
        """The pairing divided by the leading entries of one side only."""
        ds, gs = (
            [(r, r[q] if k == side else 1) for q, r in pres._ext1_rows.items()]
            for k, pres in enumerate((pres_mn, pres_nm))
        )
        return homext._pairings(pres_mn.source, pres_mn.target, ds, gs)

    caught = [0, 0]
    for m, n in pairs:
        pres_mn, pres_nm = ext_presentation(m, n), ext_presentation(n, m)
        gram = cy_gram(pres_mn, pres_nm)
        assert "ext1_basis" not in vars(pres_mn)
        assert "ext1_basis" not in vars(pres_nm)
        want = reference_cy_gram(pres_mn, pres_nm)
        assert typed(gram) == typed(want)
        for side in (0, 1):
            caught[side] += one_lead(pres_mn, pres_nm, side) != want.entries
    # (odd[1], odd[2]) has a leading entry 4 on one side, in each order
    assert min(caught) >= 1


def reference_is_inner(pres, d):
    """Reference for is_inner: solve inner * X = the packed class as one
    column, through rref of the stacked Matrix."""
    coords = [x for mat in d.maps for row in mat.entries for x in row]
    column = Matrix.from_cols(pres.source.field, [coords], nrows=len(coords))
    return solve(pres.inner, column) is not None


def random_components(m, n, rng):
    """A random map tuple phi_v: M_v -> N_v with small integer entries."""
    return [
        Matrix.from_rows(
            m.field,
            [[rng.randrange(-3, 4) for _ in range(dm)] for _ in range(dn)],
            ncols=dm,
        )
        for dm, dn in zip(m.dim, n.dim)
    ]


def test_is_inner_agrees_with_solve_reference(rng_seed):
    # is_inner is a rank of the inner columns and the packed class from
    # the elimination core; it must answer as solve(inner, class) does
    rng = random.Random(rng_seed + 28)
    dq = a2_double()
    pairs = [
        (d4.t_module(), d4.s4_module()),
        (d4.m_family(1), d4.r_module()),
        (simple(dq, "1", QQ), simple(dq, "2", QQ)),
    ]
    for quiver in (a3_double(), kron_double()) * 3:
        pairs.append(
            tuple(random_nilpotent_module(quiver, rng, steps=3) for _ in "mn")
        )
    pairs += [(n, m) for m, n in pairs]
    for m, n in list(pairs):
        for p in (5, 7):
            try:
                pairs.append((reduce_mod_p(m, p), reduce_mod_p(n, p)))
            except BadPrime:
                pass
    answers, empty = set(), 0
    for m, n in pairs:
        pres = ext_presentation(m, n)
        empty += pres.inner.ncols == 0
        inner = [inner_derivation(m, n, random_components(m, n, rng)) for _ in "ab"]
        classes = list(pres.ext1_basis) + inner
        for _ in range(3):
            mixed = random_combination(list(pres.ext1_basis), rng)
            if mixed is not None:
                classes.append(mixed.add(random_combination(inner, rng)))
        classes.append(random_combination(inner, rng))
        for d in classes:
            got = is_inner(pres, d)
            assert got == reference_is_inner(pres, d)
            answers.add(got)
        for e in pres.ext1_basis:
            assert not is_inner(pres, e)
    assert answers == {True, False}
    assert empty >= 2
    assert {m.field.p for m, _ in pairs} == {None, 5, 7}


def k3_double():
    return double(
        Quiver.build(["1", "2"], [("a1", "1", "2"), ("a2", "1", "2"), ("a3", "1", "2")])
    )


def reference_kernel_echelon(rows, ncols, p):
    """The null space of int rows as the core's echelon rows, sorted by
    lead: the natural echelon, its kernel vectors, and a second
    elimination."""
    kernel = _echelon_ints(_kernel_rows(_echelon_ints(rows, p), ncols, p), p)
    return dict(sorted(kernel.items()))


def reference_ext1_rows(pres, ders):
    """The chosen classes as the derivation rows that are pivot columns
    of [inner | derivations], inner the echelon of the columns of d0."""
    p = pres.source.field.p
    inner = _echelon_ints(zip(*pres._d0), p)
    leads = sorted(ders)
    columns = [inner[q] for q in sorted(inner)] + [ders[q] for q in leads]
    pivots = _echelon_ints(zip(*columns), p)
    chosen = {leads[j - len(inner)] for j in pivots if j >= len(inner)}
    return {q: ders[q] for q in sorted(chosen)}


def listed(rows):
    return [(q, list(r)) for q, r in rows.items()]


def test_kernels_and_classes_agree_with_two_more_eliminations(rng_seed):
    # ker d0 and ker d1 are read off the reversed echelons of the call,
    # and the classes off the trailing pivots of the inner derivations'
    # coordinates; each must equal the route with a second elimination
    # of every kernel and the pivots of [inner | derivations]
    rng = random.Random(rng_seed + 31)
    quivers = (a3_double(), kron_double(), d4.star_double(), k3_double())
    pairs = []
    for dq in quivers:
        for field in (QQ, Field(2), Field(3), Field(5), Field(7)):
            m, n = (
                random_nilpotent_module(dq, rng, steps=3, max_total=5, field=field)
                for _ in "mn"
            )
            pairs += [(m, n), (n, m), (m, m), (n, n)]
    a2, a3 = a2_double(), a3_double()
    s1 = simple(a2, "1", QQ)
    t1, t3 = simple(a3, "1", QQ), simple(a3, "3", QQ)
    # C1 = 0, so no derivations; Ext^1 = 0 between far simples
    pairs += [(s1, s1), (t1, t3), (t3, t1), (d4.t_module(), d4.s4_module())]
    pairs += [(d4.s4_module(), d4.t_module())]
    seen = {"ext1": 0, "no ext1": 0, "no derivations": 0, "zero vertex": 0}
    for m, n in pairs:
        pres, p = ext_presentation(m, n), m.field.p
        ders = reference_kernel_echelon(pres._d1, pres.c1_dim, p)
        homs = reference_kernel_echelon(pres._d0, pres.c0_dim, p)
        classes = reference_ext1_rows(pres, ders)
        assert listed(pres._derivations) == listed(ders)
        assert listed(pres._ext1_rows) == listed(classes)
        assert typed(pres.hom) == typed(
            _from_columns(m.field, pres.c0_dim, _reduced_rows(homs, p))
        )
        assert typed(pres.derivations) == typed(
            _from_columns(m.field, pres.c1_dim, _reduced_rows(ders, p))
        )
        shapes = homext._c1_shapes(m, n)
        want = [
            tuple(typed(x) for x in homext._unpack(m.field, r, shapes))
            for r in _reduced_rows(classes, p)
        ]
        assert [tuple(typed(x) for x in e.maps) for e in pres.ext1_basis] == want
        seen["ext1" if classes else "no ext1"] += 1
        seen["no derivations"] += not ders
        seen["zero vertex"] += 0 in m.dim or 0 in n.dim
    assert min(seen.values()) >= 1
    assert seen["ext1"] >= len(pairs) // 4
    assert {m.field.p for m, _ in pairs} == {None, 2, 3, 5, 7}


def test_classes_cost_one_elimination_and_actions_are_cleared_once(monkeypatch):
    # the call eliminates d0 and d1, the classes take one more, and
    # neither cy_gram nor ext1_basis builds the inner echelon
    import preproj.module as module

    real, calls = homext._echelon_ints, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(homext, "_echelon_ints", counted)
    m, n = d4.t_module(), d4.s4_module()
    pres = []
    for x, y in ((m, n), (n, m)):
        del calls[:]
        pres.append(ext_presentation(x, y))
        assert len(pres[-1].ext1_basis) == 2
        assert len(calls) <= 3
    del calls[:]
    cy_gram(*pres)
    assert calls == []
    assert not any("_inner" in vars(x) for x in pres)
    monkeypatch.undo()
    # both presentations, the dimension checks and a middle term, as an
    # ext-pairs op runs them, clear each module's actions once
    real_clear, cleared = module.clear_denominators, []

    def counted_clear(rows):
        cleared.append(len(rows))
        return real_clear(rows)

    monkeypatch.setattr(module, "clear_denominators", counted_clear)
    m, n = d4.t_module(), d4.s4_module()
    pres_mn, pres_nm = ext_presentation(m, n), ext_presentation(n, m)
    cy_gram(pres_mn, pres_nm)
    assert dimension_checks(m, n).ok
    middle_term(pres_mn.ext1_basis[0])
    assert len(cleared) == 2


def test_joint_actions_rescale_each_modules_own_rows():
    # own least denominators 2 and 3 give the joint 6, so both modules'
    # rows are rescaled; they must equal one joint clearing
    m = conjugated(d4.t_module(), (1, Fraction(1, 2)))
    n = conjugated(d4.m_family(1), (1, 3))
    own = [
        {x.denominator for a in y.action for r in a.entries for x in r} for y in (m, n)
    ]
    assert own == [{1, 2}, {1, 3}]
    flat, scale = clear_denominators(
        [r for y in (m, n) for a in y.action for r in a.entries]
    )
    rows = iter(flat)
    want = [[[next(rows) for _ in range(a.nrows)] for a in y.action] for y in (m, n)]
    got, got_scale = _int_actions(m, n)
    assert scale == 6
    assert (got_scale, [[[list(r) for r in a] for a in y] for y in got]) == (scale, want)
    assert [y._int_rows[1] for y in (m, n)] == [2, 3]
