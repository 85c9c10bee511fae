"""Module construction, validation, restriction, reduction, direct sums."""

import random
from fractions import Fraction

import pytest

from preproj import d4
from preproj.fields import QQ, Field
from preproj.homext import Derivation
from preproj.linalg import Matrix, column_echelon, hstack
from preproj.module import (
    BadPrime,
    LambdaModule,
    RowModule,
    _reduce_rows,
    direct_sum,
    is_nilpotent,
    reduce_mod_p,
    relation_residual,
    restrict,
    restrict_rows,
    simple,
    validate,
)
from preproj.quiver import Quiver, double
from preproj.randgen import random_nilpotent_module


def a2_double():
    return double(Quiver.build(["1", "2"], [("a", "1", "2")]))


def kronecker_double():
    return double(Quiver.build(["1", "2"], [("a1", "1", "2"), ("a2", "1", "2")]))


def test_build_fills_zeros_and_checks_shapes():
    dq = a2_double()
    m = LambdaModule.build(dq, QQ, (1, 1), {"a": [[1]]})
    assert m.x("a*").is_zero()
    with pytest.raises(ValueError, match="arrow a"):
        LambdaModule.build(dq, QQ, (1, 1), {"a": [[1], [2]]})
    with pytest.raises(ValueError, match="unknown arrow"):
        LambdaModule.build(dq, QQ, (1, 1), {"zz": [[1]]})


def test_build_names_the_arrow_of_bad_row_data():
    dq = a2_double()
    cases = [
        (QQ, [[1], [1, 2]], "expected 1 columns, got a row of length 2"),
        (QQ, [[1], 3], "bad matrix for arrow 'a'"),
        (QQ, [["one"], ["1"]], "bad matrix for arrow 'a'"),
        (Field(5), [["1/5"], ["1"]], "bad matrix for arrow 'a': denominator"),
    ]
    for field, rows, message in cases:
        with pytest.raises(ValueError, match=message) as err:
            LambdaModule.build(dq, field, (1, 2), {"a": rows})
        assert "arrow 'a'" in str(err.value)
    with pytest.raises(ValueError, match="action of arrow a is over the wrong field"):
        LambdaModule.build(dq, QQ, (1, 1), {"a": Matrix.from_rows(Field(5), [[1]])})


def test_build_rejects_rows_given_as_strings():
    # a string row would be read one character per scalar: "12" as [1, 2]
    dq = a2_double()
    s1, s2 = simple(dq, "1", QQ), simple(dq, "2", QQ)
    message = "bad matrix for arrow 'a': a row is a string"
    for rows in (["12"], "12", [[1, 2], "3"]):
        with pytest.raises(ValueError, match=message):
            LambdaModule.build(dq, QQ, (2, 1), {"a": rows})
    for rows in (["1"], "1"):
        with pytest.raises(ValueError, match=message):
            Derivation.build(s1, s2, {"a": rows})
    assert LambdaModule.build(dq, QQ, (2, 1), {"a": [["1", "2"]]}).x("a") == (
        Matrix.from_rows(QQ, [[1, 2]])
    )
    assert Derivation.build(s1, s2, {"a": (["1"],)}).map_of("a") == (
        Matrix.from_rows(QQ, [[1]])
    )


def test_build_rejects_a_dimension_tuple_of_the_wrong_length():
    dq = a2_double()
    for dim in ((1,), (1, 1, 1), ()):
        with pytest.raises(ValueError, match=f"{len(dim)} entries, expected 2"):
            LambdaModule.build(dq, QQ, dim, {})


def test_dim_mapping_form():
    dq = a2_double()
    m = LambdaModule.build(dq, QQ, {"2": 3}, {})
    assert m.dim == (0, 3)


def test_build_rejects_unknown_vertices_and_non_whole_dimensions():
    dq = a2_double()
    with pytest.raises(ValueError, match="unknown vertex 'x'"):
        LambdaModule.build(dq, QQ, {"1": 1, "x": 3}, {})
    for bad in (1.7, True, "2", Fraction(1), -1):
        with pytest.raises(ValueError, match="at vertex '1' must be a whole number"):
            LambdaModule.build(dq, QQ, {"1": bad}, {})
        with pytest.raises(ValueError, match="at vertex '2' must be a whole number"):
            LambdaModule.build(dq, QQ, (0, bad), {})
    assert LambdaModule.build(dq, QQ, iter([2, 1]), {}).dim == (2, 1)


def test_validate_flags_relation_residual():
    dq = a2_double()
    good = LambdaModule.build(dq, QQ, (1, 1), {"a": [[1]]})
    assert validate(good).ok
    bad = LambdaModule.build(dq, QQ, (1, 1), {"a": [[1]], "a*": [[1]]})
    report = validate(bad)
    assert not report.ok
    vertices = [v for v, _ in report.residuals]
    assert vertices == ["1", "2"]
    # at vertex 1 the relation reads +x(a*)x(a) = 1, at vertex 2 it picks
    # the bar sign: -x(a)x(a*) = -1
    assert report.residuals[0][1] == Matrix.from_rows(QQ, [[1]])
    assert report.residuals[1][1] == Matrix.from_rows(QQ, [[-1]])


def test_relation_residual_shape_on_zero_dim():
    dq = a2_double()
    m = simple(dq, "1", QQ)
    assert relation_residual(m, "2").nrows == 0


def test_nilpotency_detects_cancellation_fake():
    # relations hold but the module is a shifted regular one: the two
    # parallel arrows act by 1 and -1, their bars both by 1, and the radical
    # chain never shrinks
    dq = kronecker_double()
    m = LambdaModule.build(
        dq, QQ, (1, 1),
        {"a1": [[1]], "a2": [[-1]], "a1*": [[1]], "a2*": [[1]]},
    )
    report = validate(m)
    assert report.residuals == ()
    assert report.nilpotent is False
    assert not report.ok


def reference_residual(m, v):
    """Reference for relation_residual: the relation at v through Matrix
    products, sums and differences."""
    d_v = m.dim_of(v)
    acc = Matrix.zeros(m.field, d_v, d_v)
    for arrow in m.dq.arrows_from(v):
        term = m.x(arrow.bar).mul(m.x(arrow.name))
        acc = acc.sub(term) if arrow.sign else acc.add(term)
    return acc


def reference_chain(m):
    """Reference for is_nilpotent: the dimension vectors of W_0, W_1, ...
    up to the first term the chain repeats, each W_k a column echelon
    basis per vertex through Matrix products and hstack."""
    idx = m.quiver.vertex_index
    current = [Matrix.identity(m.field, d) for d in m.dim]
    chain = [m.dim]
    while True:
        pieces = []
        for v in m.quiver.vertices:
            images = [
                m.x(a.name).mul(current[idx[a.source]])
                for a in m.dq.arrows_into(v)
            ]
            images = [im for im in images if im.ncols > 0]
            if images:
                pieces.append(column_echelon(hstack(images)))
            else:
                pieces.append(Matrix.zeros(m.field, m.dim_of(v), 0))
        dims = tuple(s.ncols for s in pieces)
        if dims == chain[-1]:
            return chain
        chain.append(dims)
        current = pieces


def conjugate(m, scalars):
    """m in the basis that scales basis vector i at vertex k by
    scalars[(k + i) % len(scalars)]: x(b) becomes g_e x(b) g_s^-1."""
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


def test_validate_matches_matrix_references(rng_seed):
    # relation_residual and is_nilpotent run on int rows; they must agree
    # with the Matrix path, entry types included, on random modules over
    # Q and their reductions, on non-integral conjugates, and on
    # perturbations that break the relations or nilpotency
    rng = random.Random(rng_seed + 12)
    a3 = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    kron = kronecker_double()
    base = [random_nilpotent_module(dq, rng, steps=4) for dq in (a3, kron) * 4]
    base += [conjugate(m, (1, Fraction(1, 2), 3)) for m in base[:4]]
    # the shifted regular module never shrinks; summed with a nilpotent
    # module its chain shrinks to it and stays there, above zero
    cycle = LambdaModule.build(
        kron, QQ, (1, 1), {"a1": [[1]], "a2": [[-1]], "a1*": [[1]], "a2*": [[1]]}
    )
    tail = next(m for m in base if m.dq == kron and sum(m.dim) > 1)
    both = direct_sum(tail, cycle)
    chain = reference_chain(both)
    assert len(chain) > 1 and chain[-1] == cycle.dim
    base += [cycle, both]
    # mod 5, W_1 at vertex 1 is the line through (1, 4), which x(a) = (1 1)
    # sends to 1 + 4 = 5: an image entry that is zero only once reduced
    base.append(
        LambdaModule.build(a2_double(), QQ, (2, 1), {"a": [[1, 1]], "a*": [[2], [3]]})
    )
    values = [1, -1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6)]
    for m in base[:8]:
        a = rng.choice([a for a in m.dq.arrows if not a.sign])
        action = {b.name: m.x(b.name) for b in m.dq.arrows}
        for name in (a.name, a.bar):
            action[name] = [
                [v + rng.choice(values) for v in row] for row in m.x(name).entries
            ]
        base.append(LambdaModule.build(m.dq, QQ, m.dim, action))
    modules = list(base)
    for m in base:
        for p in (5, 7):
            try:
                modules.append(reduce_mod_p(m, p))
            except BadPrime:
                pass
    assert {m.field.p for m in modules} == {None, 5, 7}

    def typed(r):
        return [[(type(x), x) for x in row] for row in r.entries]

    shrinking = non_nilpotent = fractional = 0
    for m in modules:
        report = validate(m)
        want = [(v, reference_residual(m, v)) for v in m.quiver.vertices]
        assert [(v, typed(r)) for v, r in report.residuals] == [
            (v, typed(r)) for v, r in want if not r.is_zero()
        ]
        for v, r in want:
            assert typed(relation_residual(m, v)) == typed(r)
        chain = reference_chain(m)
        assert is_nilpotent(m) == report.nilpotent == (sum(chain[-1]) == 0)
        non_nilpotent += not report.nilpotent
        shrinking += not report.nilpotent and len(chain) > 1
        if m.field.p is None:
            entries = [x for _, r in report.residuals for row in r.entries for x in row]
            fractional += any(x.denominator > 1 for x in entries)
    assert non_nilpotent >= 10 and shrinking >= 1 and fractional >= 1


def test_validate_converts_the_actions_once(monkeypatch):
    # every vertex's residual and the nilpotency chain share one set of
    # int rows
    import preproj.module as module

    real, calls = module._int_actions, []

    def counted(*modules):
        calls.append(modules)
        return real(*modules)

    monkeypatch.setattr(module, "_int_actions", counted)
    m = d4.m_family(Fraction(1, 2))
    assert validate(m).ok
    assert calls == [(m,)]


def test_simple_and_zero_are_nilpotent():
    dq = a2_double()
    assert validate(simple(dq, "1", QQ)).ok
    zero = LambdaModule.build(dq, QQ, (0, 0), {})
    assert validate(zero).ok
    assert is_nilpotent(zero)


def test_direct_sum_blocks():
    dq = a2_double()
    s1 = simple(dq, "1", QQ)
    s2 = simple(dq, "2", QQ)
    m = direct_sum(s1, s2)
    assert m.dim == (1, 1)
    assert m.x("a").is_zero()
    other = LambdaModule.build(a2_double(), Field(5), (1, 0), {})
    with pytest.raises(ValueError, match="field"):
        direct_sum(s1, other)
    with pytest.raises(ValueError, match="quivers"):
        direct_sum(s1, simple(kronecker_double(), "1", QQ))


def block_sum(m, n):
    """The direct sum assembled from zero blocks with Matrix.block."""
    mats = tuple(
        Matrix.block(
            [
                [a, Matrix.zeros(m.field, a.nrows, b.ncols)],
                [Matrix.zeros(m.field, b.nrows, a.ncols), b],
            ]
        )
        for a, b in zip(m.action, n.action)
    )
    return LambdaModule(m.dq, m.field, tuple(map(sum, zip(m.dim, n.dim))), mats)


def test_direct_sum_matches_block_assembly(rng_seed):
    rng = random.Random(rng_seed + 11)
    a3 = double(Quiver.build(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    pairs = [
        tuple(random_nilpotent_module(dq, rng, steps=2, max_total=3) for _ in "lr")
        for dq in (a3, kronecker_double())
        for _ in range(4)
    ]
    zoo = d4.zoo()
    pairs += [(zoo["T"], zoo["S4"]), (zoo["M(lam)"], zoo["R"]), (zoo["A"], zoo["A"])]
    for left, right in pairs:
        assert direct_sum(left, right) == block_sum(left, right)
        for p in (2, 5):
            try:
                lp, rp = reduce_mod_p(left, p), reduce_mod_p(right, p)
            except BadPrime:
                continue
            assert direct_sum(lp, rp) == block_sum(lp, rp)


def test_restrict_to_stable_subspace():
    t = d4.t_module()
    restricted = restrict(t, "1", Matrix.zeros(QQ, 1, 0))
    assert restricted.dim == (0, 1, 1, 1)
    assert restricted.x("b") == Matrix.from_rows(QQ, [[1]])
    assert validate(restricted).ok


def test_restrict_unstable_names_arrow():
    t = d4.t_module()
    with pytest.raises(ValueError, match="arrow a"):
        restrict(t, "4", Matrix.zeros(QQ, 1, 0))


def test_row_restriction_is_checked_mod_p():
    # x(a) sends the vertex-1 line onto (1, -1), which is (1, 4) mod 5
    f5 = Field(5)
    m = LambdaModule.build(a2_double(), f5, (1, 2), {"a": [[1], [-1]]})
    rm, v = RowModule.of(m), m.quiver.vertex_index["2"]
    line = restrict_rows(rm, v, ((1, 4),), (0,))
    assert line.dim == (1, 1)
    assert line.rows[m.dq.arrow_index["a"]] == ((1,),)
    for kept, pivots in ((((1, 1),), (0,)), (((0, 1),), (1,)), ((), ())):
        with pytest.raises(ValueError, match="arrow a$"):
            restrict_rows(rm, v, kept, pivots)
    with pytest.raises(ValueError, match="arrow a$"):
        restrict(m, "2", Matrix.from_cols(f5, [[1, 1]]))
    line = restrict(m, "2", Matrix.from_cols(f5, [[1, 4]]))
    assert line.x("a") == Matrix.from_rows(f5, [[1]])


def _spanning_matrices(field, vec):
    """The canonical basis of the line through vec, then a scaled column
    and a matrix with dependent extra columns that span the same line."""
    return (
        column_echelon(Matrix.from_cols(field, [vec])),
        Matrix.from_cols(field, [[3 * x for x in vec]]),
        Matrix.from_cols(field, [vec, [2 * x for x in vec], [0] * len(vec)]),
    )


def test_restrict_accepts_any_spanning_matrix():
    # x(a) sends the vertex-1 line onto (1, -1), so at vertex 2 the line
    # through (1, -1) is stable and the line through (1, 1) is not
    for field in (QQ, Field(5)):
        m = LambdaModule.build(a2_double(), field, (1, 2), {"a": [[1], [-1]]})
        canonical, *others = _spanning_matrices(field, [1, -1])
        want = restrict(m, "2", canonical)
        assert want.x("a") == Matrix.from_rows(field, [[1]])
        for kept in others:
            assert restrict(m, "2", kept) == want
        for kept in _spanning_matrices(field, [1, 1]):
            with pytest.raises(ValueError, match="arrow a$"):
                restrict(m, "2", kept)
        both = Matrix.from_cols(field, [[1, -1], [1, 1], [2, 0]])
        assert restrict(m, "2", both) == m


def test_reduce_mod_p_and_bad_prime():
    m = d4.m_family(Fraction(1, 3))
    with pytest.raises(BadPrime, match="mod 3"):
        reduce_mod_p(m, 3)
    r = reduce_mod_p(m, 5)
    # -1 - 1/3 = -4/3, and -4 * inv(3) = -4 * 2 = 2 mod 5
    assert r.x("a*") == Matrix.from_rows(Field(5), [[2, 0]])
    assert validate(r).ok
    with pytest.raises(ValueError, match="rational"):
        reduce_mod_p(r, 5)


def test_row_reduction_matches_the_matrix_reduction():
    # frozen from reduce_mod_p as it stood before it wrapped the row
    # reduction: the bar rows of M(1/2) and M(1/6), whose bar scalars are
    # (-3/2, 1, 1/2) and (-7/6, 1, 1/6), and x(a) = 1/3 on A2
    third = LambdaModule.build(a2_double(), QQ, (1, 1), {"a": [[Fraction(1, 3)]]})
    half, sixth = d4.m_family(Fraction(1, 2)), d4.m_family(Fraction(1, 6))
    lines = ((0,), (1,))
    reduced = {
        (third, 2): (((1,),), ((0,),)),
        (third, 5): (((2,),), ((0,),)),
        (third, 7): (((5,),), ((0,),)),
        (half, 3): (((0, 0),), ((1, 0),), ((2, 0),)),
        (half, 5): (((1, 0),), ((1, 0),), ((3, 0),)),
        (half, 7): (((2, 0),), ((1, 0),), ((4, 0),)),
        (sixth, 5): (((3, 0),), ((1, 0),), ((1, 0),)),
        (sixth, 7): (((0, 0),), ((1, 0),), ((6, 0),)),
    }
    for (m, p), bars in reduced.items():
        rows = _reduce_rows(m, p)
        want = bars if m is third else (lines,) * 3 + bars
        assert rows == RowModule(Field(p), m.dim, want, RowModule.of(m).arrows)
        assert all(type(x) is int for mat in rows.rows for row in mat for x in row)
        assert tuple(x.entries for x in reduce_mod_p(m, p).action) == want
    refused = {
        (third, 3): "arrow a: denominator of 1/3 vanishes in F_3",
        (half, 2): "arrow a*: denominator of -3/2 vanishes in F_2",
        (sixth, 2): "arrow a*: denominator of -7/6 vanishes in F_2",
        (sixth, 3): "arrow a*: denominator of -7/6 vanishes in F_3",
    }
    for (m, p), message in refused.items():
        for reduce in (_reduce_rows, reduce_mod_p):
            with pytest.raises(BadPrime) as err:
                reduce(m, p)
            assert str(err.value) == f"{message} while reducing mod {p}"


def test_zoo_members_are_valid_nilpotent_modules():
    modules = d4.zoo(lam=1)
    assert set(modules) == {
        "T", "S4", "M(lam)", "M(0)", "M(-1)", "M(inf)",
        "R", "A", "B", "C", "F", "G", "H",
    }
    for name, m in modules.items():
        report = validate(m)
        assert report.ok, f"{name} failed validation"
    assert modules["T"].dim == (1, 1, 1, 1)
    assert modules["S4"].dim == (0, 0, 0, 1)
    for name in ("M(lam)", "M(0)", "M(-1)", "M(inf)", "R", "A", "B", "C", "F", "G", "H"):
        assert modules[name].dim == (1, 1, 1, 2)


def test_zoo_rejects_degenerate_parameters():
    for lam in (0, -1, Fraction(-1)):
        with pytest.raises(ValueError, match="degenerate"):
            d4.zoo(lam)


def test_m_family_specializes_to_named_degenerations():
    assert d4.m_family(0).action == d4.zoo()["M(0)"].action
    assert d4.m_family(-1).action == d4.zoo()["M(-1)"].action
    lam = Fraction(7, 2)
    m = d4.m_family(lam)
    assert m.x("a*") == Matrix.from_rows(QQ, [[Fraction(-9, 2), 0]])
    assert m.x("c*") == Matrix.from_rows(QQ, [[lam, 0]])


def test_module_equality_distinguishes_modules():
    assert d4.m_family(1) != d4.m_family(2)
    assert d4.m_family(1) == d4.m_family(1)
